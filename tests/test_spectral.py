"""Dispersion grids, branch calculus, critical-set surrogates, E4/E5/ES."""

import dataclasses
import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from crystalstat import _lattice, spectral
from crystalstat import (
    ConditionFailure,
    InteractionKernel,
    SpectralDensity,
    build_nn_kernel,
    check_E123,
    check_E4_E5,
    check_ES,
    dispersion_grid,
    green_cutoff,
    green_function,
    random_finite_range_kernel,
    triangular_density,
    white_noise_density,
)

# nearest-neighbour chain with unit mass: omega^2 = 3 - 2 cos(theta),
# max group speed sqrt((3 - sqrt 5)/2), attained where cos(theta) = (3 - sqrt 5)/2
VMAX_CHAIN = float(np.sqrt((3.0 - np.sqrt(5.0)) / 2.0))
THETA_INFLECTION = float(np.arccos((3.0 - np.sqrt(5.0)) / 2.0))


def chain_omega(theta, m=1.0):
    return np.sqrt(m * m + 2.0 - 2.0 * np.cos(theta))


def crossing_kernel():
    """Dispersive branch crossing a flat one at omega = 2."""
    return InteractionKernel(
        1,
        2,
        {
            (0,): np.diag([3.0, 4.0]),
            (1,): np.diag([-1.0, 0.0]),
            (-1,): np.diag([-1.0, 0.0]),
        },
    )


def test_grid_frequencies_match_closed_form(grid256):
    theta = 2.0 * np.pi * np.arange(256) / 256
    np.testing.assert_allclose(grid256.omega[:, 0], chain_omega(theta), atol=1e-12)
    assert abs(grid256.omega_max - np.sqrt(5.0)) < 1e-12


def test_grid_node_matches_symbol_eigh(nn1, grid256):
    node = (37,)
    theta = 2.0 * np.pi * np.asarray(node, dtype=float) / grid256.L
    w = np.linalg.eigh(nn1.symbol(theta))[0]
    np.testing.assert_allclose(grid256.omega[node], np.sqrt(w), atol=1e-12)
    assert grid256.n == 1 and not grid256.crossing[node]


def test_grid_eigendata_diagonalizes_symbol():
    k = random_finite_range_kernel(1, 2, 2, seed=17)
    g = dispersion_grid(k, 16)
    for node in np.ndindex(g.omega.shape[:-1]):
        theta = 2.0 * np.pi * np.asarray(node, dtype=float) / g.L
        omega, B = g.omega[node], g.basis[node]
        V = k.symbol(theta)
        assert np.all(np.diff(omega) >= 0)
        np.testing.assert_allclose(omega**2, np.linalg.eigh(V)[0], atol=1e-10)
        np.testing.assert_allclose(B.conj().T @ B, np.eye(2), atol=1e-12)
        np.testing.assert_allclose(B.conj().T @ V @ B, np.diag(omega**2), atol=1e-10)


def tree_walk_labels(B):
    """Branch labels from one exact assignment per spanning-tree edge, node by
    node: x takes its labels from x - e_a, a the last axis with x_a != 0."""
    shape, n = B.shape[:-2], B.shape[-1]
    L, size = shape[0], int(np.prod(shape))
    flat_B = B.reshape(-1, n, n)
    labels = np.empty((size, n), dtype=np.int64)
    labels[0] = np.arange(n)
    for x in range(1, size):
        step = 1
        while x % (step * L) == 0:
            step *= L
        parent = x - step
        overlap = np.abs(flat_B[x].conj().T @ flat_B[parent])
        rows, cols = linear_sum_assignment(-overlap)
        perm = np.empty(n, dtype=np.int64)
        perm[cols] = rows
        labels[x] = perm[labels[parent]]
    return labels.reshape(shape + (n,))


@settings(max_examples=12, deadline=None)
@given(d=st.sampled_from([1, 2, 3]), n=st.sampled_from([2, 3]),
       seed=st.integers(0, 2**16))
@example(d=2, n=2, seed=17)
@example(d=3, n=3, seed=5)
@example(d=1, n=5, seed=3)  # beyond the scored sizes: every edge is assigned
def test_continuation_matches_one_edge_per_node(d, n, seed):
    # batched branch matching gives the labels of the per-edge tree walk
    k = random_finite_range_kernel(d, n, 1, seed)
    g = dispersion_grid(k, 16)
    np.testing.assert_array_equal(g.labels, tree_walk_labels(g.basis))
    rows = g.labels.reshape(-1, n)
    np.testing.assert_array_equal(np.sort(rows, axis=-1),
                                  np.broadcast_to(np.arange(n), rows.shape))


def test_continuation_sends_exact_ties_to_the_assignment_solver():
    # a 2-branch basis that alternates between the identity and a 45-degree
    # rotation on some edges: every overlap there is 1/sqrt(2), so both
    # permutations score sqrt(2) and only the assignment solver can decide
    L = 16
    rotated = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    pattern = np.array([0, 0, 1, 1, 0, 1, 0, 0, 0, 1, 1, 1, 0, 1, 0, 0])
    B = np.where(pattern[:, None, None] == 1, rotated, np.eye(2)).astype(complex)
    B = np.broadcast_to(B[:, None], (L, L, 2, 2)).copy()
    calls = []
    match = spectral._edge_permutation

    def counting(B_here, B_next):
        calls.append(1)
        return match(B_here, B_next)

    with mock.patch.object(spectral, "_edge_permutation", counting):
        labels = spectral._branch_labels(B)
    # edges along axis 0 change basis where the pattern switches; the axis-1
    # edges join equal bases and are decided by their scores alone
    assert len(calls) == int(np.count_nonzero(np.diff(pattern)))
    np.testing.assert_array_equal(labels, tree_walk_labels(B))


def test_gradient_peak_approaches_continuum_speed(nn1):
    g = dispersion_grid(nn1, 1024)
    grad_norm = np.linalg.norm(g.branch_gradients, axis=-1)
    vmax = float(grad_norm.max())
    assert 0.0 < VMAX_CHAIN - vmax < 1e-4
    peak = int(np.argmax(grad_norm[:, 0]))
    theta_peak = 2.0 * np.pi * min(peak, 1024 - peak) / 1024
    assert abs(theta_peak - THETA_INFLECTION) < 0.01


def test_branch_calculus_against_analytic(grid256):
    node, k, h = 17, 0, 2.0 * np.pi / 256
    theta = 2.0 * np.pi * node / 256
    assert not grid256.crossing[node]
    grad = grid256.branch_gradients[node, k]
    hess = grid256.branch_hessians[node, k]
    det = grid256.hessian_determinants[node, k]
    dw = np.sin(theta) / chain_omega(theta)
    d2w = (np.cos(theta) - dw * dw) / chain_omega(theta)
    assert grad.shape == (1,) and hess.shape == (1, 1)
    assert abs(grad[0] - dw) < h * h
    assert abs(hess[0, 0] - d2w) < h * h * 10
    assert abs(det - d2w) < h * h * 10


def test_crossing_kernel_flags_and_guard():
    # the default gap threshold is deliberately conservative; widen it so the
    # nodes straddling the crossing fall inside the suspicious band
    g = dispersion_grid(crossing_kernel(), 256, delta_cross=1e-2)
    assert g.crossing.mean() > 0
    # the flat branch has identically degenerate curvature, so the union of
    # flags covers everything (crossing nodes count toward Cstar, not Ck)
    assert g.critical.all() and not (g.ck & g.crossing).any()
    # crossings sit where the dispersive branch passes omega = 2
    flagged = np.nonzero(g.crossing)[0]
    theta_cross = 2.0 * np.pi / 3.0
    angles = 2.0 * np.pi * flagged / 256
    angles = np.minimum(angles, 2.0 * np.pi - angles)
    assert np.all(np.abs(angles - theta_cross) < 0.2)


def test_grid_crossing_flags_reach_scan_and_cutoff():
    # a dispersive branch crossing a shallower one: at delta_cross = 1e-2 the
    # grid flags the nodes straddling the crossing, at the default none
    k = InteractionKernel(
        1,
        2,
        {
            (0,): np.diag([3.0, 3.9]),
            (1,): np.diag([-1.0, -0.5]),
            (-1,): np.diag([-1.0, -0.5]),
        },
    )
    wide = dispersion_grid(k, 256, delta_cross=1e-2)
    default = dispersion_grid(k, 256)
    assert wide.crossing.sum() == 57 and not default.crossing.any()
    assert wide.critical[wide.crossing].all()
    assert wide.delta_cross == 1e-2
    cut_wide = green_function(wide, 10.0, green_cutoff(wide, 0.3))
    cut_default = green_function(default, 10.0, green_cutoff(default, 0.3))
    assert np.abs(cut_wide - cut_default).max() > 0


def test_exact_degeneracy_is_not_a_crossing():
    # two identical chains: branches coincide everywhere by symmetry
    twin = InteractionKernel(
        1,
        2,
        {
            (0,): np.eye(2) * 3.0,
            (1,): -np.eye(2),
            (-1,): -np.eye(2),
        },
    )
    g = dispersion_grid(twin, 128)
    assert not g.crossing.any()
    assert np.all(g.cluster_id[:, 0] == g.cluster_id[:, 1])


def test_massless_chain_degenerate_node():
    g = dispersion_grid(build_nn_kernel(1, 1, 0.0), 256)
    assert g.c0.mean() == 1.0 / 256
    assert g.c0[0] and not g.c0[1:].any()


def test_curvature_flags_sit_at_inflection(grid256):
    flagged = np.nonzero(grid256.ck)[0]
    assert len(flagged) == 4
    angles = 2.0 * np.pi * flagged / 256
    angles = np.minimum(angles, 2.0 * np.pi - angles)
    assert np.all(np.abs(angles - THETA_INFLECTION) < 0.05)


def test_E4_E5_pass_on_chain(grid256):
    verdicts = {r.condition: r.verdict for r in check_E4_E5(grid256)}
    assert verdicts == {"E4": "pass", "E5": "pass"}


def test_E4_fails_on_flat_branch_with_witnesses():
    flat = InteractionKernel(1, 2, {(0,): np.eye(2) * 4.0})
    g = dispersion_grid(flat, 256)
    reports = {r.condition: r for r in check_E4_E5(g)}
    assert reports["E4"].verdict == "fail"
    assert reports["E4"].witnesses
    # det Hess is exactly zero on a flat branch, which delta_hess = 0 still flags
    assert dispersion_grid(flat, 64, delta_hess=0.0).ck.all()


def test_E5_pass_on_disjoint_band_pair():
    # two chains with different masses: bands [1, sqrt 5] and [2, sqrt 8]
    pair = InteractionKernel(
        1,
        2,
        {
            (0,): np.diag([3.0, 6.0]),
            (1,): -np.eye(2),
            (-1,): -np.eye(2),
        },
    )
    g = dispersion_grid(pair, 256)
    verdicts = {r.condition: r.verdict for r in check_E4_E5(g)}
    assert verdicts["E4"] == "pass" and verdicts["E5"] == "pass"
    assert not g.crossing.any()


def test_ES_skipped_when_no_degenerate_nodes(grid256):
    dens = white_noise_density(1.0, 1.0, 1, 1, 256)
    rep = check_ES(grid256, dens)
    assert rep.verdict == "pass"
    assert "skip" in rep.note


def test_ES_fails_for_massless_chain():
    g = dispersion_grid(build_nn_kernel(1, 1, 0.0), 256)
    dens = triangular_density(2, 1, 1.0, 1.0, 256)
    rep = check_ES(g, dens)
    assert rep.verdict == "fail"
    assert rep.witnesses[0]["value"] >= 1.8


def test_ES_passes_for_massless_3d():
    g = dispersion_grid(build_nn_kernel(3, 1, 0.0), 32)
    dens = white_noise_density(1.0, 1.0, 1, 3, 32)
    rep = check_ES(g, dens)
    assert rep.verdict == "pass"


def odd_node_density(nodes, L=16):
    """A d = 1, n = 1 density that is the identity at the given nodes and zero
    elsewhere."""
    matrix = np.zeros((L, 2, 2), dtype=complex)
    matrix[list(nodes)] = np.eye(2)
    return SpectralDensity(matrix)


def test_ES_without_a_ratio_is_inconclusive():
    # nodes 1 and 15 lie on the finest grid only: both coarser sums are zero
    g = dispersion_grid(build_nn_kernel(1, 1, 0.0), 16)
    rep = check_ES(g, odd_node_density((1, 15)))
    [witness] = rep.witnesses
    assert rep.verdict == "inconclusive"
    assert rep.note.startswith("no refinement ratio")
    assert witness["value"] is None and witness["ratios"] == [None, None]
    assert witness["sums"][:2] == [0.0, 0.0] and witness["sums"][2] > 0.0
    json.dumps(rep.to_jsonable(), allow_nan=False)


def test_ES_reads_the_finest_ratio_that_exists():
    # nodes 2 and 14 lie on the stride-2 grid, not on the stride-4 one
    g = dispersion_grid(build_nn_kernel(1, 1, 0.0), 16)
    rep = check_ES(g, odd_node_density((2, 14)))
    [witness] = rep.witnesses
    assert witness["ratios"][0] is None
    assert witness["value"] == witness["ratios"][1] == pytest.approx(0.5)
    assert rep.verdict == "pass"


def test_grid_finds_E3_failing_between_scan_nodes():
    # E3 passes on the 128^2 scan grid; the 96^2 grid finds a negative eigenvalue
    kernel = random_finite_range_kernel(2, 1, 2, 3)
    assert check_E123(kernel)[2].verdict == "pass"
    with pytest.raises(ConditionFailure) as failure:
        dispersion_grid(kernel, 96)
    assert isinstance(failure.value, ValueError) and str(failure.value) == "E3"
    [e3] = failure.value.reports
    assert (e3.condition, e3.verdict) == ("E3", "fail")
    assert f"{e3.witnesses[0]['value']:.3e}" == "-5.210e-03"
    assert e3.note == "min symbol eigenvalue over 96^2 grid"


def test_grid_requires_even_resolution(nn1):
    with pytest.raises(ValueError):
        dispersion_grid(nn1, 63)


def test_a_shared_symbol_grid_gives_the_same_grid_and_E3_report():
    # at d=2 the E3 scan grid is 128^2; a caller that holds its symbol hands
    # it to both, and the check builds its own from a symbol of another
    # resolution
    kernel = random_finite_range_kernel(2, 2, 1, 5)
    symbol = kernel.symbol_grid(128)
    assert check_E123(kernel, symbol) == check_E123(kernel)
    shared, own = dispersion_grid(kernel, 128, symbol=symbol), dispersion_grid(kernel, 128)
    for name in ("omega", "basis", "cluster_id", "crossing", "null", "labels"):
        assert getattr(shared, name).tobytes() == getattr(own, name).tobytes(), name
    assert check_E123(kernel, kernel.symbol_grid(64)) == check_E123(kernel)
    # and does not read it: a negative 64^2 symbol does not fail E3
    assert check_E123(kernel, -kernel.symbol_grid(64)) == check_E123(kernel)
    with pytest.raises(ValueError, match="does not match L=64"):
        dispersion_grid(kernel, 64, symbol=symbol)


# ------------------------------------------------------- one-node eigenbases
# A grid whose eigenbasis has node 0's bits at every node stores that node
# once, broadcast, and labels every node arange(n) from one scored edge.

#: nn masses per n: distinct, equal, zero and unsorted
NN_MASSES = [(1.0,), (0.0,), (1.0, 2.0), (1.5, 1.5), (0.0, 1.0), (2.0, 0.5),
             (1.0, 2.0, 3.0), (1.0, 1.0, 1.0), (3.0, 0.0, 1.0), (2.0, 1.0, 2.0)]


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("masses", NN_MASSES)
def test_nn_grid_stores_one_basis_node(d, masses):
    n = len(masses)
    grid = dispersion_grid(build_nn_kernel(d, n, list(masses)), 16)
    node = _lattice.one_node(grid.basis)
    assert node is not None and not grid.basis.flags.writeable
    assert grid.basis.base.nbytes == n * n * 16  # one node, not 16**d
    assert np.array_equal(grid.labels, np.broadcast_to(np.arange(n), grid.labels.shape))
    assert not grid.labels.flags.writeable
    # the stored node diagonalises the symbol at every node
    S = build_nn_kernel(d, n, list(masses)).symbol_grid(16)
    np.testing.assert_allclose(node.conj().T @ S @ node,
                               np.eye(n) * grid.omega[..., None, :] ** 2, atol=1e-12)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("masses", [(1.0,), (0.0,), (0.5, 2.0), (0.0, 1.0), (1.5, 1.5),
                                    (0.0, 0.0), (1.0, 2.0, 3.0), (0.0, 1.0, 1.0),
                                    (2.0, 2.0, 2.0), (0.0, 0.5, 1.0, 2.0),
                                    (1.0, 1.0, 3.0, 3.0), (0.0, 0.0, 0.0, 0.0)])
def test_nn_grid_with_ascending_masses_has_the_identity_basis(d, masses):
    # the readers of the basis skip its products on these grids; a change to
    # the eigensolver or to the labelling that loses the identity fails here
    grid = dispersion_grid(build_nn_kernel(d, len(masses), list(masses)), 16)
    assert grid.identity_basis


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("masses", [(2.0, 1.0), (2.0, 0.5), (3.0, 0.0, 1.0), (1.0, 2.0, 4.0, 3.0)])
def test_nn_grid_with_unsorted_masses_has_a_permutation_basis(d, masses):
    grid = dispersion_grid(build_nn_kernel(d, len(masses), list(masses)), 16)
    node, n = _lattice.one_node(grid.basis), len(masses)
    assert node is not None and not grid.identity_basis
    assert np.array_equal(np.sort(np.abs(node), axis=None), np.repeat([0.0, 1.0], [n * n - n, n]))


def test_identity_basis_needs_the_bits_of_one_identity_node():
    # -0.0 in place of an off-diagonal zero, or the identity stored node by
    # node, keeps the products by the basis
    grid = dispersion_grid(build_nn_kernel(2, 2, [1.0, 2.0]), 16)
    signed = np.eye(2, dtype=complex)
    signed[0, 1] = complex(-0.0, 0.0)
    for basis in (np.broadcast_to(signed, grid.basis.shape), np.array(grid.basis)):
        assert not dataclasses.replace(grid, basis=basis).identity_basis


@pytest.mark.parametrize("d, n, seed", [(1, 2, 3), (2, 2, 17), (2, 3, 5), (3, 2, 1)])
def test_random_grid_stores_every_basis_node(d, n, seed):
    grid = dispersion_grid(random_finite_range_kernel(d, n, 1, seed), 16)
    assert _lattice.one_node(grid.basis) is None and grid.basis.flags.writeable
    assert grid.labels.flags.writeable


def test_basis_with_a_negative_zero_is_not_one_node():
    # a basis equal to node 0's everywhere, bar one entry whose zero has the
    # sign bit set, compares equal by value but is stored node by node
    kernel = build_nn_kernel(2, 2, [1.0, 2.0])
    eigh = np.linalg.eigh

    def signed(S):
        w, B = eigh(S)
        assert B[3, 5, 0, 1] == 0
        B[3, 5, 0, 1] = -B[3, 5, 0, 1]
        return w, B

    with mock.patch.object(np.linalg, "eigh", signed):
        grid = dispersion_grid(kernel, 16)
    assert _lattice.one_node(grid.basis) is None
    assert np.array_equal(grid.basis, dispersion_grid(kernel, 16).basis)
    np.testing.assert_array_equal(grid.labels, tree_walk_labels(grid.basis))
