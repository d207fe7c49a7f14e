"""Spectral densities, Gaussian sampling, covariance assembly, JSON forms."""

import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crystalstat import (
    NumericalFault,
    covariance_from_density,
    density_from_covariance,
    density_from_jsonable,
    density_to_jsonable,
    dispersion_grid,
    empirical_covariance,
    gaussian_ensemble,
    gibbs_density,
    limit_density,
    nonlinear_transform_sample,
    random_finite_range_kernel,
    triangular_density,
    white_noise_density,
)
from crystalstat import _lattice, fields
from crystalstat._lattice import real_part_checked
from crystalstat.fields import GaussianSampler, SpectralDensity


def test_triangular_covariance_is_a_hat():
    dens = triangular_density(2, 1, 0.5, 2.0, 64)
    table = covariance_from_density(dens, [(0,), (1,), (2,), (3,)])
    assert table.shape == (4, 2, 2) and table.dtype == np.float64
    np.testing.assert_allclose(table[0], np.diag([1.0, 4.0]), atol=1e-12)
    np.testing.assert_allclose(table[1], np.diag([0.5, 2.0]), atol=1e-12)
    np.testing.assert_allclose(table[2:], np.zeros((2, 2, 2)), atol=1e-12)


def test_triangular_density_psd_and_resample():
    dens = triangular_density(2, 1, 1.0, 1.0, 64)
    w = np.linalg.eigvalsh(dens.matrix)
    assert w.min() > -1e-12
    finer = triangular_density(2, 1, 1.0, 1.0, L=128)
    assert finer.L == 128
    table = covariance_from_density(finer, [(0,), (1,)])
    np.testing.assert_allclose(table[0], 2.0 * np.eye(2), atol=1e-12)


def test_white_noise_covariance_is_delta():
    dens = white_noise_density(0.7, 1.3, 1, 1, 32)
    table = covariance_from_density(dens, [(0,), (1,), (5,)])
    np.testing.assert_allclose(table[0], np.diag([0.7, 1.3]), atol=1e-12)
    np.testing.assert_allclose(table[1:], np.zeros((2, 2, 2)), atol=1e-12)


def test_numerical_faults_are_named():
    a = np.array([1.0 + 2e-6j, 2.0 - 1e-9j])
    with pytest.raises(NumericalFault, match="probe: imaginary residue 2.000e-06"):
        real_part_checked(a, 1e-6, "probe")
    np.testing.assert_array_equal(real_part_checked(a, 1e-5, "probe"), [1.0, 2.0])
    with pytest.raises(NumericalFault, match="probe: imaginary residue nan"):
        real_part_checked(np.array([1.0 + 0j, 2.0 + np.nan * 1j]), 1e-6, "probe")
    matrix = white_noise_density(1.0, 1.0, 1, 1, 16).matrix.copy()
    matrix[..., 0, 0] = -1.0
    with pytest.raises(NumericalFault) as fault:
        SpectralDensity(L=16, d=1, n=1, matrix=matrix).hermitian_sqrt()
    # the node as plain ints, not numpy scalars
    assert str(fault.value) == ("density is not positive semidefinite at node (0,) "
                                "(eigenvalue -1.000e+00)")


def test_gaussian_sampler_reproducible():
    dens = triangular_density(2, 1, 1.0, 1.0, 32)
    a = gaussian_ensemble(dens, 1, seed=5)
    b = gaussian_ensemble(dens, 1, seed=5)
    c = gaussian_ensemble(dens, 1, seed=6)
    assert a.shape == (1, 2, 32)
    np.testing.assert_array_equal(a, b)
    assert np.abs(a[:, 0] - c[:, 0]).max() > 1e-3


def test_gaussian_sampler_order_independent():
    dens = white_noise_density(1.0, 1.0, 1, 1, 32)
    batch = gaussian_ensemble(dens, 4, seed=9)
    tail = gaussian_ensemble(dens, 2, seed=9, start_index=2)
    np.testing.assert_array_equal(batch[2:], tail)
    one = gaussian_ensemble(dens, 1, seed=9, start_index=3)
    np.testing.assert_array_equal(batch[3], one[0])


def stock_white_noise(L, d, n, seed, indices):
    """The sampling contract with stock numpy: one default_rng per sample index."""
    shape = (L,) * d + (2 * n,)
    return np.stack([
        np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(i,)))
        .standard_normal(shape)
        for i in indices
    ])


@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 + 5, 2**130 + 17])
@pytest.mark.parametrize("indices", [range(64), range(1000, 1064),
                                     range(2**32 - 2, 2**32 + 2)])
def test_seed_states_match_seed_sequence(seed, indices):
    states = fields._seed_states(seed, indices)
    assert states.dtype == np.uint64 and states.shape == (len(indices), 4)
    np.testing.assert_array_equal(states, [
        np.random.SeedSequence(entropy=seed, spawn_key=(i,)).generate_state(4, np.uint64)
        for i in indices
    ])


def white_noise_draws(L, d, n, seed, indices):
    """The draw step of a sampler at (L, d, n) under seed."""
    return GaussianSampler(white_noise_density(1.0, 1.0, n, d, L), seed).white_noise(indices)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 2])
def test_white_noise_draws_match_stock_generators(d, n):
    for seed, indices in [(0, range(5)), (31, range(1000, 1004)), (2**130 + 17, range(3))]:
        np.testing.assert_array_equal(white_noise_draws(8, d, n, seed, indices),
                                      stock_white_noise(8, d, n, seed, indices))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**140 - 1), start=st.integers(0, 2**40 - 1),
       count=st.integers(1, 4))
def test_draws_match_stock_numpy_for_any_seed_and_start(seed, start, count):
    indices = range(start, start + count)
    np.testing.assert_array_equal(white_noise_draws(4, 1, 1, seed, indices),
                                  stock_white_noise(4, 1, 1, seed, indices))


def test_seed_and_start_index_errors():
    dens = white_noise_density(1.0, 1.0, 1, 1, 8)
    with pytest.raises(ValueError, match="^expected non-negative integer$"):
        gaussian_ensemble(dens, 2, seed=-1)
    with pytest.raises(ValueError, match="^expected non-negative integer$"):
        gaussian_ensemble(dens, 2, seed=3, start_index=-1)
    with pytest.raises(TypeError):
        gaussian_ensemble(dens, 2, seed=2.0)
    for seed in (np.int64(7), np.uint32(7), np.uint64(7)):
        np.testing.assert_array_equal(gaussian_ensemble(dens, 2, seed=seed),
                                      gaussian_ensemble(dens, 2, seed=7))


def _correlated_density(d, n, L):
    """Equilibrium density of a random kernel: non-diagonal blocks for n > 1."""
    kernel = random_finite_range_kernel(d, n, 1, seed=10 * d + n)
    return gibbs_density(1.0, dispersion_grid(kernel, L))


@settings(max_examples=25, deadline=None)
@given(d=st.sampled_from([1, 2]), n=st.sampled_from([1, 2, 3]),
       count=st.integers(2, 6), seed=st.integers(0, 2**32 - 1), data=st.data())
def test_gaussian_ensemble_blocks_concatenate_bitwise(d, n, count, seed, data):
    dens = _correlated_density(d, n, 16)
    start = data.draw(st.integers(0, 50), label="start_index")
    split = data.draw(st.integers(1, count - 1), label="split")
    whole = gaussian_ensemble(dens, count, seed, start_index=start)
    head = gaussian_ensemble(dens, split, seed, start_index=start)
    tail = gaussian_ensemble(dens, count - split, seed, start_index=start + split)
    np.testing.assert_array_equal(whole, np.concatenate([head, tail]))
    rows = [gaussian_ensemble(dens, 1, seed, start_index=start + i) for i in range(count)]
    np.testing.assert_array_equal(whole, np.concatenate(rows))


def test_gaussian_sampler_moments_match_density():
    dens = triangular_density(2, 1, 1.0, 1.0, 64)
    ens = gaussian_ensemble(dens, 3000, seed=1)
    assert ens.dtype == np.float64 and ens.flags.c_contiguous
    mean, se = empirical_covariance(ens, [(0,), (1,), (2,)])
    exact = covariance_from_density(dens, [(0,), (1,), (2,)])
    assert np.all(np.abs(mean - exact) <= 4.0 * se + 1e-12)


def test_gaussian_sample_zero_mean():
    dens = white_noise_density(1.0, 1.0, 1, 1, 64)
    ens = gaussian_ensemble(dens, 2000, seed=3)
    mean_u = ens[:, 0].mean()
    assert abs(mean_u) < 4.0 / np.sqrt(2000 * 64)


def test_transform_bounds_and_oddness():
    Y = np.stack([np.linspace(-5, 5, 16), np.linspace(5, -5, 16)])[None]
    out = nonlinear_transform_sample(Y, 0.8, 1.5)
    assert out.shape == Y.shape
    assert np.abs(out[:, 0]).max() < 0.8
    assert np.abs(out[:, 1]).max() < 1.5
    flipped = nonlinear_transform_sample(-Y, 0.8, 1.5)
    np.testing.assert_allclose(flipped, -out, atol=1e-15)
    with pytest.raises(ValueError):
        nonlinear_transform_sample(Y, 0.0, 1.0)


def test_density_from_covariance_roundtrip():
    dens = triangular_density(2, 1, 1.0, 2.0, 64)
    offsets = [(z,) for z in range(-2, 3)]
    table = covariance_from_density(dens, offsets)
    rebuilt = density_from_covariance(dict(zip(offsets, table)), 64)
    np.testing.assert_allclose(rebuilt.matrix, dens.matrix, atol=1e-10)


def test_density_from_covariance_mirror_completion():
    dens = triangular_density(2, 1, 1.0, 2.0, 32)
    full_offsets = [(z,) for z in range(-1, 2)]
    table = covariance_from_density(dens, full_offsets)
    full = density_from_covariance(dict(zip(full_offsets, table)), 32)
    half = density_from_covariance({(0,): table[1], (1,): table[2]}, 32)
    np.testing.assert_allclose(half.matrix, full.matrix, atol=1e-12)


def test_density_from_covariance_rejects_aliased_duplicates():
    with pytest.raises(ValueError, match="duplicate"):
        density_from_covariance({(1,): np.eye(2), (-31,): np.eye(2)}, 32)
    with pytest.raises(ValueError, match="duplicate"):
        density_from_covariance({(1,): np.eye(2), (33,): np.eye(2)}, 32)


@pytest.mark.parametrize("cov", [
    {(1, 0): 0.5 * np.eye(2), (0,): np.eye(2), (0, 0): np.eye(2)},
    {(0,): np.eye(2), (1, 0): 0.5 * np.eye(2), (0, 0): np.eye(2)},
], ids=["d2-first", "d1-first"])
def test_density_from_covariance_rejects_mixed_dimensions(cov):
    # whichever offset comes first sets d; the other length is refused in
    # either order, not broadcast onto a grid axis
    wrong = next(z for z in cov if len(z) != len(next(iter(cov))))
    with pytest.raises(ValueError, match=re.escape(f"offset {wrong} has wrong dimension")):
        density_from_covariance(cov, 8)


def test_density_from_covariance_clips_indefinite_input():
    # a lone off-site correlation with no on-site mass is not a valid
    # covariance; the eigenvalue clip must restore positivity
    built = density_from_covariance({(0,): np.eye(2) * 0.1, (1,): np.eye(2)}, 32)
    w = np.linalg.eigvalsh(built.matrix)
    assert w.min() > -1e-12


def test_density_json_roundtrip():
    dens = triangular_density(2, 1, 1.0, 1.0, 32)
    doc = density_to_jsonable(dens)
    back = density_from_jsonable(doc)
    np.testing.assert_allclose(back.matrix, dens.matrix, atol=0)
    assert (back.L, back.d, back.n) == (32, 1, 1)


def flagged_density_doc():
    """The JSON form of a d=2, n=2 limit density with some nodes excluded and
    mixed cluster ids."""
    rng = np.random.default_rng(4)
    lim = SpectralDensity(L=8, d=2, n=2, matrix=white_noise_density(1.0, 1.0, 2, 2, 8).matrix,
                          excluded=rng.random((8, 8)) < 0.3,
                          cluster_id=rng.integers(0, 2, (8, 8, 2)))
    return lim, density_to_jsonable(lim)


def test_limit_density_json_roundtrip_keeps_flags(grid64):
    # the written file keeps a limit's flags; reading it checks them, drops
    # them, and keeps the matrix bits
    lim = limit_density(triangular_density(2, 1, 1.0, 1.0, 64), grid64)
    doc = density_to_jsonable(lim)
    assert "excluded" in doc and "cluster_id" in doc
    back = density_from_jsonable(doc)
    assert back.matrix.tobytes() == lim.matrix.tobytes()
    assert back.excluded is None and back.cluster_id is None
    assert back.excluded_fraction == 0.0


def flag_subsets(doc):
    """The plain form of a flagged document, then the document with only
    excluded, only cluster_id, and both."""
    plain = {k: v for k, v in doc.items() if k not in ("excluded", "cluster_id")}
    excluded_only = {k: v for k, v in doc.items() if k != "cluster_id"}
    cluster_only = {k: v for k, v in doc.items() if k != "excluded"}
    return plain, (excluded_only, cluster_only, doc)


def test_density_json_flags_roundtrip():
    # a file is read as a measure: excluded and cluster_id, alone or
    # together, are dropped once checked, and the matrix keeps its bits
    _, both = flagged_density_doc()
    plain, flagged = flag_subsets(both)
    want = density_from_jsonable(plain)
    for doc in flagged:
        back = density_from_jsonable(doc)
        assert back.excluded is None and back.cluster_id is None
        assert back.excluded_fraction == 0.0
        assert back.matrix.tobytes() == want.matrix.tobytes()


def test_density_json_roundtrip_gives_the_same_dict():
    # a flagged document round-trips to its plain form
    _, both = flagged_density_doc()
    plain, flagged = flag_subsets(both)
    for doc in (plain,) + flagged:
        assert density_to_jsonable(density_from_jsonable(doc)) == plain


def test_plain_measure_has_no_excluded_nodes():
    dens = white_noise_density(1.0, 1.0, 2, 2, 8)
    assert dens.excluded is None and dens.cluster_id is None
    assert dens.excluded_fraction == 0.0


@pytest.mark.parametrize("key, value", [
    ("excluded", [True]),
    ("excluded", [[0.5] * 8] * 8),
    ("excluded", [[1] * 8] * 8),
    ("excluded", [[True] * 8] * 7 + [[True] * 7]),
    ("cluster_id", [[0, 1]] * 64),
    ("cluster_id", [[[True, False]] * 8] * 8),
    ("cluster_id", [[[0.0, 1.0]] * 8] * 8),
    ("cluster_id", [[[0, 2 ** 70]] * 8] * 8),
], ids=["excluded-shape", "excluded-float", "excluded-int", "excluded-ragged",
        "cluster-shape", "cluster-bool", "cluster-float", "cluster-beyond-int64"])
def test_density_json_flags_are_checked(key, value):
    _, doc = flagged_density_doc()
    doc[key] = value
    kind, shape = ("boolean", (8, 8)) if key == "excluded" else ("integer", (8, 8, 2))
    message = f"density file {key} must be an all-{kind} array of shape {shape}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        density_from_jsonable(doc)


def test_density_json_rejects_unknown_keys():
    doc = density_to_jsonable(white_noise_density(1.0, 1.0, 1, 1, 32))
    doc["surprise"] = True
    with pytest.raises(ValueError, match="unknown"):
        density_from_jsonable(doc)


def test_density_validates_hermitian_and_reality():
    mat = np.zeros((32, 2, 2), dtype=complex)
    mat[:, 0, 1] = 1.0  # not Hermitian
    with pytest.raises(ValueError, match="Hermitian"):
        SpectralDensity(L=32, d=1, n=1, matrix=mat)
    theta = 2.0 * np.pi * np.arange(32) / 32
    mat2 = np.zeros((32, 2, 2), dtype=complex)
    mat2[:, 0, 0] = 2.0 + np.sin(theta)  # Hermitian nodewise, not even in theta
    mat2[:, 1, 1] = 1.0
    with pytest.raises(ValueError, match="reality"):
        SpectralDensity(L=32, d=1, n=1, matrix=mat2)


def whole_array_refusal(matrix, d):
    """The message SpectralDensity's checks gave when each was one whole-array
    expression with a copy per step, or None for a valid matrix."""
    scale = 1.0 + float(np.max(np.abs(matrix)))
    if not np.isfinite(scale):
        return "density matrix must be finite"
    herm_gap = float(np.max(np.abs(matrix - np.conj(np.swapaxes(matrix, -1, -2)))))
    if herm_gap > 1e-8 * scale:
        return f"density is not Hermitian (gap {herm_gap:.3e})"
    rev = matrix
    for axis in range(d):
        rev = np.flip(np.roll(rev, -1, axis=axis), axis=axis)
    reality_gap = float(np.max(np.abs(rev - np.conj(matrix))))
    if reality_gap > 1e-8 * scale:
        return f"density violates reality symmetry (gap {reality_gap:.3e})"
    return None


@settings(max_examples=150, deadline=None)
@given(d=st.sampled_from([1, 2, 3]), n=st.sampled_from([1, 2]), L=st.sampled_from([4, 5, 6]),
       node=st.sampled_from(["zero", "pi", "generic"]), pair=st.booleans(),
       size=st.floats(-12.0, 1.0), phase=st.floats(0.0, 2.0 * np.pi),
       seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 6), data=st.data())
def test_density_checks_refuse_what_the_whole_array_checks_refused(d, n, L, node, pair, size,
                                                                   phase, seed, rows, data):
    # slabs of rows rows of the first grid axis; at most 6 (one slab) keeps
    # the whole-array path in the draw
    row_bytes = L ** (d - 1) * (2 * n) ** 2 * np.dtype(complex).itemsize
    with mock.patch.object(_lattice, "SLAB_BYTES", rows * row_bytes):
        refuse_as_the_whole_array_checks(d, n, L, node, pair, size, phase, seed, data)


def refuse_as_the_whole_array_checks(d, n, L, node, pair, size, phase, seed, data):
    rng = np.random.default_rng(seed)
    cov = {(0,) * d: rng.standard_normal((2 * n, 2 * n)),
           (1,) + (0,) * (d - 1): rng.standard_normal((2 * n, 2 * n))}
    matrix = density_from_covariance(cov, L).matrix.copy()
    # a self-conjugate node (every angle 0 or pi; pi only on even L) or any node
    if node == "generic":
        at = tuple(data.draw(st.integers(0, L - 1)) for _ in range(d))
    else:
        at = tuple(data.draw(st.sampled_from([0, L // 2] if node == "pi" and L % 2 == 0
                                             else [0])) for _ in range(d))
    a, b = data.draw(st.integers(0, 2 * n - 1)), data.draw(st.integers(0, 2 * n - 1))
    delta = 10.0 ** size * np.exp(1j * phase)
    matrix[at + (a, b)] += delta
    if pair and a != b:  # keep the node Hermitian
        matrix[at + (b, a)] += np.conj(delta)
    expected = whole_array_refusal(matrix, d)
    if expected is None:
        SpectralDensity(L=L, d=d, n=n, matrix=matrix)
    else:
        with pytest.raises(ValueError) as refused:
            SpectralDensity(L=L, d=d, n=n, matrix=matrix)
        assert str(refused.value) == expected
    # the drawn node, and one in the last slab, which is not the first
    # slab when it holds fewer than L rows
    for where in (at, (L - 1,) + at[1:]):
        for bad in (np.nan, np.inf, -np.inf, complex(0.0, np.nan)):
            broken = matrix.copy()
            broken[where + (a, b)] = bad
            assert whole_array_refusal(broken, d) == "density matrix must be finite"
            with pytest.raises(ValueError, match="^density matrix must be finite$"):
                SpectralDensity(L=L, d=d, n=n, matrix=broken)


@pytest.mark.parametrize("d, L", [(1, 16), (2, 16), (3, 32)])
@pytest.mark.parametrize("defect, refusal", [
    ("hermitian", "density is not Hermitian (gap "),
    ("reality", "density violates reality symmetry (gap "),
    ("nan", "density matrix must be finite"),
])
def test_one_node_density_refuses_as_its_stored_copy(d, L, defect, refusal):
    # a broadcast density is checked on its one node; the same values stored
    # node by node (several slabs at d=3) must be refused with the same text
    node = np.diag([1.0, 2.0, 0.5, 1.5]).astype(complex)
    if defect == "hermitian":
        node[0, 3] = 0.25
    elif defect == "reality":  # Hermitian, but conj(qhat(-theta)) != qhat(theta)
        node[0, 3], node[3, 0] = 0.25j, -0.25j
    else:
        node[2, 1] = complex(0.0, np.nan)
    broadcast = np.broadcast_to(node, (L,) * d + node.shape)
    messages = []
    for matrix in (broadcast, np.ascontiguousarray(broadcast)):
        with pytest.raises(ValueError) as refused:
            SpectralDensity(L=L, d=d, n=2, matrix=matrix)
        messages.append(str(refused.value))
    assert messages[0] == messages[1] and messages[0].startswith(refusal)


@pytest.mark.parametrize("d, n, L", [(2, 1, 64), (3, 2, 16), (1, 3, 256)])
def test_one_node_root_is_one_broadcast_node(d, n, L):
    white = white_noise_density(0.5, 2.0, n, d, L)
    root = white.hermitian_sqrt()
    assert _lattice.one_node(root) is not None and not root.flags.writeable
    stored = SpectralDensity(L=L, d=d, n=n, matrix=np.ascontiguousarray(white.matrix))
    assert _lattice.one_node(stored.matrix) is None
    assert root.tobytes() == stored.hermitian_sqrt().tobytes()
    assert gaussian_ensemble(white, 3, 11).tobytes() == gaussian_ensemble(stored, 3, 11).tobytes()


@pytest.mark.parametrize("d", [1, 2, 3])
def test_one_node_root_refuses_as_its_stored_copy(d):
    node = np.array([[1.0, 2.0], [2.0, 1.0]], dtype=complex)  # eigenvalues 3 and -1
    broadcast = np.broadcast_to(node, (16,) * d + node.shape)
    messages = []
    for matrix in (broadcast, np.ascontiguousarray(broadcast)):
        with pytest.raises(NumericalFault) as refused:
            SpectralDensity(L=16, d=d, n=1, matrix=matrix).hermitian_sqrt()
        messages.append(str(refused.value))
    assert messages[0] == messages[1]
    assert messages[0].startswith(f"density is not positive semidefinite at node {(0,) * d}")


def test_gibbs_density_blocks(grid64):
    lim = gibbs_density(2.0, grid64)
    # velocity block T1/2 everywhere, displacement block (T1/2) / omega^2
    np.testing.assert_allclose(lim.matrix[:, 1, 1], 1.0, atol=1e-12)
    np.testing.assert_allclose(
        lim.matrix[:, 0, 0], 1.0 / grid64.omega[:, 0] ** 2, atol=1e-12
    )
    np.testing.assert_allclose(lim.matrix[:, 0, 1], 0.0, atol=1e-12)


def colouring(root):
    """A sampler whose colouring root is root, (2n, *grid) or (2n, 2n, *grid)."""
    sampler = GaussianSampler(white_noise_density(1.0, 1.0, 1, 1, 4), 0)
    sampler.root = root
    return sampler


@pytest.mark.parametrize("n", [1, 2, 3])
def test_diagonal_root_colours_with_the_bits_of_the_full_einsum(n):
    # a root whose off-diagonal entries are zeros of either sign, and whose
    # diagonal holds zeros of both signs, subnormals and complex values; the
    # noise transforms hold the same kinds of entries
    L, S = 16, 3
    rng = np.random.default_rng(n)
    full = np.zeros((2 * n, 2 * n, L), dtype=complex)
    signs = rng.integers(0, 2, full.shape + (2,)).astype(bool)
    full.real[signs[..., 0]] = -0.0
    full.imag[signs[..., 1]] = -0.0
    diagonal = rng.standard_normal((2 * n, L)) + 1j * rng.standard_normal((2 * n, L))
    diagonal[:, ::5] = complex(-0.0, 0.0)
    diagonal[:, 1::5] = complex(0.0, -0.0)
    diagonal[:, 2::5] = complex(5e-324, -2.5e-310)
    diagonal[0] = diagonal[0].real
    for i in range(2 * n):
        full[i, i] = diagonal[i]
    What = rng.standard_normal((S, 2 * n, L)) + 1j * rng.standard_normal((S, 2 * n, L))
    What[:, :, ::3] = complex(-0.0, -0.0)
    What[:, :, 1::7] = complex(-5e-324, 0.0)
    want = np.einsum("ij...,sj...->si...", full, What)
    got = np.einsum("i...,si...->si...", np.ascontiguousarray(diagonal), What)
    assert got.tobytes() == want.tobytes()
    # and through the sampler's colouring, from real noise of the same kinds,
    # with a real diagonal even in theta, as a density's root is
    half = np.abs(rng.standard_normal((2 * n, L // 2 + 1)))
    half[:, ::3] = -0.0
    half[:, 1::4] = 5e-324
    even = np.concatenate([half, half[:, -2:0:-1]], axis=1).astype(complex)
    for i in range(2 * n):
        full[i, i] = even[i]
    W = rng.standard_normal((S, L, 2 * n))
    W[:, ::4] = -0.0
    W[:, 1::9] = 5e-324
    assert colouring(even).colour(W).tobytes() == colouring(full).colour(W).tobytes()


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("d", [1, 2])
def test_colouring_root_is_diagonal_only_when_the_root_is(d, n):
    # white and triangular roots are read as their diagonals; a random
    # kernel's Gibbs density at n = 2 couples the components and keeps the
    # full root
    L = 16
    for density in [white_noise_density(0.0, 1.3, n, d, L), white_noise_density(0.5, 2.0, n, d, L)] \
            + [triangular_density(nu0, d, 0.8, 1.3, L) for nu0 in (2, 3) if n == 1]:
        R = GaussianSampler(density, 0).root
        assert R.shape == (2 * n,) + (L,) * d and R.flags.c_contiguous
        root = density.hermitian_sqrt()
        assert R.tobytes() == np.ascontiguousarray(
            np.moveaxis(np.diagonal(root, axis1=-2, axis2=-1), -1, 0)).tobytes()
    density = gibbs_density(1.0, dispersion_grid(random_finite_range_kernel(d, 2, 1, seed=d), L))
    R = GaussianSampler(density, 0).root
    assert R.shape == (4, 4) + (L,) * d
    assert R.tobytes() == np.ascontiguousarray(
        np.moveaxis(density.hermitian_sqrt(), (-2, -1), (0, 1))).tobytes()


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("d", [1, 2])
def test_colouring_and_transform_into_buffers_keep_the_bits(d, n):
    # the stream colours into its work arrays and transforms in place; both
    # must give the bits of the calls that allocate, on noise with zeros of
    # both signs and subnormals, from work arrays that start as NaN
    L, S = 16, 4
    grid = dispersion_grid(random_finite_range_kernel(d, n, 1, seed=d + n), L)
    density = gibbs_density(1.0, grid)
    sampler = GaussianSampler(density, 0)
    W = np.random.default_rng(d + n).standard_normal((S,) + (L,) * d + (2 * n,))
    W[W < -1.5] = 0.0
    W[W > 1.5] = -0.0
    W[:, 0] = -5e-324
    want = sampler.colour(W)
    work = np.full((2, S, 2 * n) + (L,) * d, np.nan, dtype=complex)
    out = np.full(want.shape, np.nan)
    assert sampler.colour(W, out=out, work=work) is out
    assert out.tobytes() == want.tobytes()
    Y = want.copy()
    Y[:, 0] = -0.0
    Y[:, -1] = 3e-320
    for a0, a1 in ((1.0, 1.0), (0.7, 1.3)):
        expected = nonlinear_transform_sample(Y, a0, a1)
        inplace = Y.copy()
        assert nonlinear_transform_sample(inplace, a0, a1, out=inplace) is inplace
        assert inplace.tobytes() == expected.tobytes()
    bad = Y.copy()
    bad[0, 0] = np.inf
    for kwargs in ({}, {"out": bad}):
        with pytest.raises(ValueError, match="^field values must be finite$"):
            nonlinear_transform_sample(bad, 0.7, 1.3, **kwargs)
