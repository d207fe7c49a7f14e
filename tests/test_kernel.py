"""Interaction kernels: construction, validation, JSON round trips, E1-E3."""

import json
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crystalstat import (
    InteractionKernel,
    build_nn_kernel,
    check_E123,
    kernel_from_json,
    random_finite_range_kernel,
)
from crystalstat._lattice import NumericalFault
from crystalstat.kernel import canonical_offset, kernel_to_jsonable


def test_nn_kernel_entries():
    k = build_nn_kernel(1, 1, 1.0)
    assert k.d == 1 and k.n == 1 and k.range == 1
    # on-site term m^2 + 2d, unit hopping to each neighbour
    np.testing.assert_allclose(k.entries[(0,)], [[3.0]])
    np.testing.assert_allclose(k.entries[(1,)], [[-1.0]])
    np.testing.assert_allclose(k.entries[(-1,)], [[-1.0]])


def test_nn_kernel_vector_masses():
    k = build_nn_kernel(2, 2, [1.0, 2.0])
    np.testing.assert_allclose(k.entries[(0, 0)], np.diag([1.0 + 4.0, 4.0 + 4.0]))
    assert set(k.entries) == {
        (0, 0), (1, 0), (-1, 0), (0, 1), (0, -1),
    }


def test_symbol_matches_direct_sum(rng):
    k = random_finite_range_kernel(2, 2, 2, seed=5)
    for _ in range(10):
        theta = rng.uniform(-np.pi, np.pi, size=2)
        direct = sum(
            np.asarray(V, dtype=complex) * np.exp(1j * np.dot(theta, z))
            for z, V in k.entries.items()
        )
        np.testing.assert_allclose(k.symbol(theta), direct, atol=1e-12)


def test_symbol_is_hermitian_on_random_kernels():
    for seed in range(5):
        k = random_finite_range_kernel(1, 2, 2, seed)
        theta = np.array([0.7])
        V = k.symbol(theta)
        np.testing.assert_allclose(V, V.conj().T, atol=1e-12)


def test_random_kernel_symmetry_and_range():
    k = random_finite_range_kernel(2, 2, 2, seed=11)
    assert k.d == 2 and k.n == 2
    for z, V in k.entries.items():
        assert max(abs(c) for c in z) <= 2
        np.testing.assert_allclose(k.entries[tuple(-c for c in z)], V.T, atol=0)


def test_random_kernel_seed_reproducibility():
    a = random_finite_range_kernel(1, 2, 2, seed=3)
    b = random_finite_range_kernel(1, 2, 2, seed=3)
    c = random_finite_range_kernel(1, 2, 2, seed=4)
    assert set(a.entries) == set(b.entries)
    for z in a.entries:
        np.testing.assert_array_equal(a.entries[z], b.entries[z])
    assert any(
        not np.array_equal(a.entries[z], c.entries.get(z, np.zeros_like(a.entries[z])))
        for z in a.entries
    )


def test_kernel_shape_validation():
    with pytest.raises(ValueError):
        InteractionKernel(1, 1, {(0,): np.zeros((2, 2))})
    with pytest.raises(ValueError):
        InteractionKernel(1, 1, {(0, 0): np.zeros((1, 1))})


def test_canonical_offset_picks_one_of_each_pair():
    assert canonical_offset((1,)) != canonical_offset((-1,))
    assert canonical_offset((0, 2)) != canonical_offset((0, -2))
    assert canonical_offset((0,))


def test_json_roundtrip_exact():
    k = random_finite_range_kernel(2, 2, 2, seed=9)
    k2 = kernel_from_json(json.dumps(kernel_to_jsonable(k)))
    assert set(k.entries) == set(k2.entries)
    for z in k.entries:
        np.testing.assert_array_equal(k.entries[z], k2.entries[z])


def test_readme_kernel_file_example_is_the_nn_chain():
    # the README's one JSON block documents the kernel file format
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    [block] = re.findall(r"^```json\n(.*?)^```$", readme, re.M | re.S)
    assert kernel_from_json(block) == build_nn_kernel(1, 1, 1.0)
    assert json.loads(block) == kernel_to_jsonable(build_nn_kernel(1, 1, 1.0))


def test_json_rejects_unknown_key():
    doc = kernel_to_jsonable(build_nn_kernel(1, 1, 1.0))
    doc["flavor"] = "strange"
    with pytest.raises(ValueError, match="unknown kernel file key"):
        kernel_from_json(json.dumps(doc))


def test_json_rejects_non_object():
    with pytest.raises(ValueError, match="JSON object"):
        kernel_from_json("[1, 2, 3]")


def test_E123_pass_on_nn(nn1):
    reports = {r.condition: r for r in check_E123(nn1)}
    assert set(reports) == {"E1", "E2", "E3"}
    assert all(r.verdict == "pass" for r in reports.values())


def test_E3_fails_with_witness_on_negative_onsite():
    k = InteractionKernel(1, 1, {(0,): np.array([[-1.0]])})
    reports = {r.condition: r for r in check_E123(k)}
    e3 = reports["E3"]
    assert e3.verdict == "fail"
    assert e3.witnesses and e3.witnesses[0]["value"] < 0


def test_E3_refuses_a_symbol_that_is_not_finite():
    # finite entries whose symbol overflows: no tolerance can judge an
    # infinite eigenvalue, so E1-E3 raise before the eigensolver, without
    # numpy's overflow warnings, on the symbol built here or handed in
    k = InteractionKernel(1, 1, {(0,): np.array([[1e308]]), (1,): np.array([[-1e308]]),
                                 (-1,): np.array([[-1e308]])})
    message = r"^the kernel's symbol is not finite at grid node \(0,\) \(L=1024\)$"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalFault, match=message):
            check_E123(k)
        with pytest.raises(NumericalFault, match=message):
            k.symbol_grid(1024)
    symbol = build_nn_kernel(1, 1, 1.0).symbol_grid(1024)
    symbol[5, 0, 0] = np.nan
    with pytest.raises(NumericalFault, match=r"at grid node \(5,\) \(L=1024\)$"):
        check_E123(build_nn_kernel(1, 1, 1.0), symbol)


def test_mirror_violations_rejected_at_construction():
    entries = {
        (0,): np.eye(2) * 3.0,
        (1,): np.array([[0.0, 1.0], [0.0, 0.0]]),
        (-1,): np.array([[0.0, 1.0], [0.0, 0.0]]),  # should be the transpose
    }
    with pytest.raises(ValueError, match="V\\(-z\\) = V\\(z\\)"):
        InteractionKernel(1, 2, entries)
    with pytest.raises(ValueError, match="symmetric"):
        InteractionKernel(1, 2, {(0,): np.array([[1.0, 2.0], [0.0, 1.0]])})


def test_E3_zero_touch_is_a_pass():
    # massless chain: symbol vanishes at theta = 0 but is never negative
    k = build_nn_kernel(1, 1, 0.0)
    reports = {r.condition: r for r in check_E123(k)}
    assert reports["E3"].verdict == "pass"


@pytest.mark.parametrize("onsite, verdict", [(1e-7, "inconclusive"), (-1e-12, "pass"),
                                             (1e-6, "pass"), (-1e-9, "fail")])
def test_E3_verdict_bands(onsite, verdict):
    # a constant symbol: positive below the 1e-6 margin cannot be certified,
    # and within 1e-10 (1 + max |w|) of zero is a touch
    e3 = check_E123(InteractionKernel(1, 1, {(0,): [[onsite]]}))[2]
    assert (e3.verdict, e3.witnesses[0]["value"]) == (verdict, onsite)


def test_report_jsonable_fields(nn1):
    rep = check_E123(nn1)[0]
    doc = rep.to_jsonable()
    assert {"condition", "verdict", "witnesses", "tolerances", "note"} <= set(doc)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_random_kernels_always_satisfy_E123(seed):
    k = random_finite_range_kernel(1, 2, 2, seed)
    assert all(r.verdict == "pass" for r in check_E123(k))
