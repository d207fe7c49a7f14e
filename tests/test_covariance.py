"""Covariance transport, the long-time limit, quadratic forms, mixing."""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crystalstat import (
    ConditionFailure,
    NumericalFault,
    SpectralDensity,
    TestField,
    build_nn_kernel,
    covariance_from_density,
    density_from_covariance,
    dispersion_grid,
    evolve_density,
    evolve_ensemble,
    gaussian_ensemble,
    gibbs_density,
    limit_density,
    linear_functional_samples,
    mixing_integral,
    quadratic_form,
    random_finite_range_kernel,
    triangular_density,
    white_noise_density,
)
from crystalstat import dynamics
from crystalstat._lattice import eigen_compose
from crystalstat.covariance import _unexcluded_matrix
from crystalstat.kernel import ConditionReport
from crystalstat.spectral import check_ES

GOLDEN = (1.0 + np.sqrt(5.0)) / 2.0


def closed_form_limit(q0):
    """Scalar-field limit blocks from the transported-average identities."""
    q00 = q0.matrix[..., 0, 0]
    q01 = q0.matrix[..., 0, 1]
    q10 = q0.matrix[..., 1, 0]
    q11 = q0.matrix[..., 1, 1]
    return q00, q01, q10, q11


def test_delta_field_pairing(nn1, rng):
    psi = TestField.delta(1, 1, component=0, site=(3,))
    dens = triangular_density(2, 1, 1.0, 1.0, 32)
    Y = gaussian_ensemble(dens, 1, seed=4)
    assert linear_functional_samples(Y, psi)[0] == pytest.approx(float(Y[0, 0, 3]))
    psiv = TestField.delta(1, 1, component=1)
    assert linear_functional_samples(Y, psiv)[0] == pytest.approx(float(Y[0, 1, 0]))


def test_field_fourier_is_unit_modulus_phase():
    psi = TestField.delta(1, 1, component=0, site=(5,))
    ph = psi.fourier(16)
    assert ph.shape == (16, 2)
    np.testing.assert_allclose(np.abs(ph[:, 0]), 1.0, atol=1e-13)
    np.testing.assert_allclose(ph[:, 1], 0.0, atol=1e-13)
    theta = 2.0 * np.pi * np.arange(16) / 16
    np.testing.assert_allclose(ph[:, 0], np.exp(1j * 5 * theta), atol=1e-13)


def test_quadratic_form_white_is_squared_norm(grid64):
    dens = white_noise_density(1.0, 1.0, 1, 1, 64)
    psi = TestField(sites=[(0,), (3,)], values=[[1.0, 0.5], [-2.0, 0.0]])
    q = quadratic_form(dens, psi)
    assert q == pytest.approx(1.0 + 0.25 + 4.0, abs=1e-10)


def test_quadratic_form_gibbs_closed_value(grid256):
    lim = gibbs_density(1.0, grid256)
    q = quadratic_form(lim, TestField.delta(1, 1, component=0))
    # (1/2) average of 1/omega^2 = 1 / (2 sqrt 5) for this chain
    assert q == pytest.approx(1.0 / (2.0 * np.sqrt(5.0)), abs=1e-12)
    qv = quadratic_form(lim, TestField.delta(1, 1, component=1))
    assert qv == pytest.approx(0.5, abs=1e-12)


def test_quadratic_form_triangular_limit_hits_golden_ratio(grid256):
    q0 = triangular_density(2, 1, 1.0, 1.0, 256)
    lim = limit_density(q0, grid256)
    q = quadratic_form(lim, TestField.delta(1, 1, component=0))
    assert q == pytest.approx(GOLDEN, abs=1e-10)


def test_quadratic_form_of_indefinite_density_is_numerical_fault():
    matrix = white_noise_density(1.0, 1.0, 1, 1, 16).matrix.copy()
    matrix[..., 0, 0] = -1.0
    dens = SpectralDensity(L=16, d=1, n=1, matrix=matrix)
    with pytest.raises(NumericalFault, match="quadratic form is negative"):
        quadratic_form(dens, TestField.delta(1, 1, component=0))


def test_quadratic_form_nonnegative_on_random_fields(grid64, rng):
    q0 = triangular_density(2, 1, 1.0, 1.0, 64)
    lim = limit_density(q0, grid64)
    for _ in range(50):
        k = rng.integers(1, 4)
        psi = TestField(
            sites=rng.integers(0, 64, size=(k, 1)),
            values=rng.standard_normal((k, 2)),
        )
        assert quadratic_form(lim, psi) >= 0.0


def test_evolve_density_matches_state_transport(nn1, grid64):
    # covariance of evolved samples == evolved covariance, checked exactly
    # through the quadratic form of a fixed test field
    q0 = triangular_density(2, 1, 1.0, 1.0, 64)
    qt = evolve_density(q0, grid64, 7.3)
    psi = TestField(sites=[(0,), (2,)], values=[[1.0, 0.0], [0.0, 1.5]])
    direct = quadratic_form(qt, psi)
    # Monte Carlo oracle stays far from exact identities, so use the exact
    # pullback instead: <Y_t, Psi> = <Y_0, G(t)^T Psi>
    samples = 4000
    ens = evolve_ensemble(gaussian_ensemble(q0, samples, seed=11), grid64, 7.3)
    vals = linear_functional_samples(ens, psi)
    mc = float(np.mean(vals**2))
    se = float(np.std(vals**2, ddof=1) / np.sqrt(samples))
    assert abs(mc - direct) < 4.0 * se
    assert qt.provenance.startswith("evolved")


def test_limit_density_is_stationary_and_idempotent(grid256):
    q0 = triangular_density(2, 1, 1.0, 2.0, 256)
    lim = limit_density(q0, grid256)
    for t in (1.0, 7.3, 50.0):
        moved = evolve_density(lim, grid256, t)
        assert np.abs(moved.matrix - lim.matrix).max() < 1e-10
    again = limit_density(lim, grid256)
    np.testing.assert_allclose(again.matrix, lim.matrix, atol=1e-12)


def test_limit_density_scalar_closed_form(grid64):
    q0 = triangular_density(2, 1, 0.7, 1.9, 64)
    lim = limit_density(q0, grid64)
    q00, q01, q10, q11 = closed_form_limit(q0)
    w2 = grid64.omega[:, 0] ** 2
    np.testing.assert_allclose(
        lim.matrix[:, 0, 0], 0.5 * (q00 + q11 / w2), atol=1e-12
    )
    np.testing.assert_allclose(
        lim.matrix[:, 1, 1], 0.5 * (q11 + w2 * q00), atol=1e-12
    )
    np.testing.assert_allclose(
        lim.matrix[:, 0, 1], 0.5 * (q01 - q10), atol=1e-12
    )


def test_white_velocity_noise_limits_to_gibbs(grid256):
    q0 = white_noise_density(0.0, 1.0, 1, 1, 256)
    lim = limit_density(q0, grid256)
    gib = gibbs_density(1.0, grid256)
    np.testing.assert_allclose(lim.matrix, gib.matrix, atol=1e-12)


def test_limit_trace_parseval(grid64):
    q0 = triangular_density(2, 1, 1.0, 1.0, 64)
    lim = limit_density(q0, grid64)
    table = covariance_from_density(lim, [(0,)])
    spectral_trace = float(np.real(np.trace(lim.matrix, axis1=-2, axis2=-1).mean()))
    spatial_trace = float(np.trace(table[0]))
    assert spectral_trace == pytest.approx(spatial_trace, abs=1e-10)


def test_limit_blocks_excluded_nodes_for_degenerate_symbol():
    # in three dimensions the inverse-square weight is summable, so the limit
    # exists; only the lone degenerate node must be dropped
    k0 = build_nn_kernel(3, 1, 0.0)
    g = dispersion_grid(k0, 32)
    q0 = white_noise_density(0.0, 1.0, 1, 3, 32)
    lim = limit_density(q0, g)
    assert lim.excluded[0, 0, 0]
    assert lim.excluded.sum() == 1
    assert lim.excluded_fraction == pytest.approx(1.0 / 32**3)


def test_limit_refuses_failing_summability():
    k0 = build_nn_kernel(1, 1, 0.0)
    g = dispersion_grid(k0, 256)
    q0 = triangular_density(2, 1, 1.0, 1.0, 256)
    rep = check_ES(g, q0)
    assert rep.verdict == "fail"
    with pytest.raises(ConditionFailure, match="ES") as failure:
        limit_density(q0, g, es_report=rep)
    assert failure.value.reports == [rep]
    with pytest.raises(ConditionFailure, match="ES"):
        limit_density(q0, g)  # evaluates the check itself


def test_gibbs_excludes_degenerate_nodes():
    g = dispersion_grid(build_nn_kernel(1, 1, 0.0), 64)
    gib = gibbs_density(1.0, g)
    assert gib.excluded[0] and not gib.excluded[1:].any()
    assert gib.matrix[0, 0, 0] == 0.0  # pseudoinverse dropped the null mode


@pytest.mark.parametrize("T", [np.nan, np.inf, -1.0])
def test_temperatures_are_finite_and_nonnegative(grid64, T):
    # NaN fails every comparison, so the guards read not (0 <= T < inf)
    for make in (lambda: white_noise_density(1.0, T, 1, 1, 64),
                 lambda: white_noise_density(T, 1.0, 2, 1, 64),
                 lambda: triangular_density(2, 1, T, 1.0, 64),
                 lambda: triangular_density(2, 1, 1.0, T, 64)):
        with pytest.raises(ValueError, match="temperatures must be finite and nonnegative"):
            make()
    with pytest.raises(ValueError, match=f"temperature must be finite and nonnegative, got T1={T}"):
        gibbs_density(T, grid64)


def test_covariance_from_density_gibbs_value(grid256):
    gib = gibbs_density(1.0, grid256)
    table = covariance_from_density(gib, [(0,)])
    assert table.shape == (1, 2, 2)
    assert table[0, 0, 0] == pytest.approx(1.0 / (2.0 * np.sqrt(5.0)), abs=1e-12)
    assert table[0, 1, 1] == pytest.approx(0.5, abs=1e-12)
    assert gib.excluded_fraction == 0.0


def test_mixing_integral_at_zero_equals_quadratic_form(grid256):
    q0 = white_noise_density(1.0, 1.0, 1, 1, 256)
    lim = limit_density(q0, grid256)
    for comp in (0, 1):
        psi = TestField.delta(1, 1, component=comp)
        assert mixing_integral(lim, grid256, psi, psi, 0.0) == pytest.approx(
            quadratic_form(lim, psi), abs=1e-12
        )


def test_mixing_integral_decays(nn1):
    g = dispersion_grid(nn1, 512)
    lim = limit_density(white_noise_density(1.0, 1.0, 1, 1, 512), g)
    psi = TestField.delta(1, 1, component=0)
    v0 = abs(mixing_integral(lim, g, psi, psi, 0.0))
    v40 = abs(mixing_integral(lim, g, psi, psi, 40.0))
    assert v40 < 0.1 * v0


def test_mixing_integral_cross_component(grid256):
    lim = limit_density(white_noise_density(1.0, 1.0, 1, 1, 256), grid256)
    pu = TestField.delta(1, 1, component=0)
    pv = TestField.delta(1, 1, component=1)
    # equal-time u-v correlation of the limit vanishes for this density
    assert mixing_integral(lim, grid256, pu, pv, 0.0) == pytest.approx(0.0, abs=1e-12)
    assert mixing_integral(lim, grid256, pu, pv, 10.0) != pytest.approx(0.0, abs=1e-6)


def test_resolution_mismatch_raises(nn1, grid64):
    q0 = triangular_density(2, 1, 1.0, 1.0, 128)
    with pytest.raises(ValueError):
        limit_density(q0, grid64)


# ---------------------------------------------------------------- invariants
# Properties of the exact transport over random kernels and random densities.
# Tolerances are relative to the largest entry of the density compared.

@lru_cache(maxsize=None)
def _random_grid(d, n, kernel_range, kernel_seed):
    kernel = random_finite_range_kernel(d, n, kernel_range, seed=kernel_seed)
    return dispersion_grid(kernel, 16)


def _random_density(d, n, L, seed):
    """PSD density from random real covariances at a few short offsets."""
    rng = np.random.default_rng(seed)
    cov = {(0,) * d: rng.standard_normal((2 * n, 2 * n))}
    for _ in range(3):
        z = tuple(int(c) for c in rng.integers(-2, 3, d))
        if z not in cov and tuple(-c for c in z) not in cov:
            cov[z] = rng.standard_normal((2 * n, 2 * n))
    return density_from_covariance(cov, L)


def _scale(density):
    return float(np.max(np.abs(density.matrix)))


_kernels = dict(d=st.sampled_from([1, 2]), n=st.sampled_from([1, 2, 3]),
                kernel_range=st.sampled_from([1, 2]), kernel_seed=st.integers(0, 30))
_models = dict(_kernels, density_seed=st.integers(0, 2**32 - 1))
_times = st.floats(-100.0, 100.0)


@settings(max_examples=30, deadline=None)
@given(t=_times, **_models)
def test_transport_keeps_density_hermitian_psd(d, n, kernel_range, kernel_seed,
                                               density_seed, t):
    grid = _random_grid(d, n, kernel_range, kernel_seed)
    qt = evolve_density(_random_density(d, n, grid.L, density_seed), grid, t)
    scale = _scale(qt)
    gap = np.abs(qt.matrix - np.conj(np.swapaxes(qt.matrix, -1, -2)))
    assert float(gap.max()) <= 1e-14 * scale
    assert float(np.linalg.eigvalsh(qt.matrix).min()) >= -1e-12 * scale


@settings(max_examples=30, deadline=None)
@given(t1=_times, t2=_times, **_models)
def test_transport_is_a_group(d, n, kernel_range, kernel_seed, density_seed, t1, t2):
    grid = _random_grid(d, n, kernel_range, kernel_seed)
    q0 = _random_density(d, n, grid.L, density_seed)
    two_steps = evolve_density(evolve_density(q0, grid, t1), grid, t2)
    one_step = evolve_density(q0, grid, t1 + t2)
    gap = np.abs(two_steps.matrix - one_step.matrix)
    assert float(gap.max()) <= 1e-10 * _scale(one_step)


@settings(max_examples=30, deadline=None)
@given(t=_times, **_models)
def test_limit_is_a_fixed_point_of_transport(d, n, kernel_range, kernel_seed,
                                             density_seed, t):
    grid = _random_grid(d, n, kernel_range, kernel_seed)
    qinf = limit_density(_random_density(d, n, grid.L, density_seed), grid)
    keep = ~qinf.excluded
    moved = evolve_density(qinf, grid, t)
    gap = np.abs(moved.matrix[keep] - qinf.matrix[keep])
    assert float(gap.max()) <= 1e-10 * _scale(qinf)


def strided_limit_matrix(q0, grid):
    """The limit matrix with every block transform on strided views of the
    basis and the density, as limit_density computed it before its operands
    were made contiguous; inverse frequencies are guarded at grid.delta_null."""
    n, B = grid.n, grid.basis
    Bh = np.conj(np.swapaxes(B, -1, -2))
    A = {(i, j): Bh @ q0.matrix[..., i * n:(i + 1) * n, j * n:(j + 1) * n] @ B
         for i in (0, 1) for j in (0, 1)}
    w, delta_null = grid.omega, grid.delta_null
    winv = np.where(w > delta_null, 1.0 / np.where(w > delta_null, w, 1.0), 0.0)
    wl, wr, wil, wir = w[..., :, None], w[..., None, :], winv[..., :, None], winv[..., None, :]
    M = {(0, 0): 0.5 * (A[0, 0] + wil * A[1, 1] * wir),
         (0, 1): 0.5 * (A[0, 1] - wil * A[1, 0] * wr),
         (1, 0): 0.5 * (A[1, 0] - wl * A[0, 1] * wir),
         (1, 1): 0.5 * (A[1, 1] + wl * A[0, 0] * wr)}
    same_cluster = grid.cluster_id[..., :, None] == grid.cluster_id[..., None, :]
    out = np.empty(q0.matrix.shape, dtype=complex)
    for (i, j), blk in M.items():
        out[..., i * n:(i + 1) * n, j * n:(j + 1) * n] = B @ np.where(same_cluster, blk,
                                                                      0.0) @ Bh
    return 0.5 * (out + np.conj(np.swapaxes(out, -1, -2)))


@settings(max_examples=24, deadline=None)
@given(d=st.sampled_from([1, 2, 3]), n=st.sampled_from([1, 2, 3]),
       kernel_range=st.sampled_from([1, 2]), kernel_seed=st.integers(0, 30),
       density_seed=st.integers(0, 2**32 - 1))
def test_limit_density_keeps_the_bits_of_strided_operands(d, n, kernel_range, kernel_seed,
                                                          density_seed):
    grid = _random_grid(d, n, kernel_range, kernel_seed)
    q0 = _random_density(d, n, grid.L, density_seed)
    np.testing.assert_array_equal(limit_density(q0, grid).matrix,
                                  strided_limit_matrix(q0, grid))


# ----------------------------------------------------------------- zero modes
# The grid decides C0 once, at its delta_null.  The oracles below are the
# expressions each consumer evaluated at its own delta_null before that.

@lru_cache(maxsize=None)
def _zero_mode_grid(d, masses, delta_null):
    return dispersion_grid(build_nn_kernel(d, len(masses), list(masses)), 16,
                           delta_null=delta_null)


def inverse_frequency_sum(grid, matrix, stride, delta_null):
    """check_ES's Riemann sum of ||Omega^-i qhat^{ij} Omega^-j|| at one stride."""
    n, sl = grid.n, (slice(None, None, stride),) * grid.d
    w, q = grid.omega[sl], matrix[sl]
    Oinv = eigen_compose(grid.basis[sl],
                         np.where(w > delta_null, 1.0 / np.where(w > delta_null, w, 1.0), 0.0))
    total = 0.0
    for i in (0, 1):
        for j in (0, 1):
            block = q[..., i * n:(i + 1) * n, j * n:(j + 1) * n]
            if i == 1:
                block = Oinv @ block
            if j == 1:
                block = block @ Oinv
            total += float(np.sqrt((np.abs(block) ** 2).sum(axis=(-2, -1))).mean())
    return total


#: nn masses with a zero; a branch of mass 1e-5 is null at delta_null 1e-3 only
ZERO_MODE_MASSES = [(0.0,), (0.0, 1e-5), (1.0, 0.0), (0.5, 0.0, 0.5), (1e-5, 1.0, 0.0)]


@settings(max_examples=40, deadline=None)
@given(d=st.sampled_from([1, 2, 3]), masses=st.sampled_from(ZERO_MODE_MASSES),
       delta_null=st.sampled_from([0.0, 1e-8, 1e-3]), density_seed=st.integers(0, 2**32 - 1))
def test_zero_modes_are_decided_once_on_the_grid(d, masses, delta_null, density_seed):
    n = len(masses)
    grid = _zero_mode_grid(d, masses, delta_null)
    assert grid.delta_null == delta_null
    w = grid.omega
    c0 = w.min(axis=-1) <= delta_null
    np.testing.assert_array_equal(grid.c0, c0)
    # the critical set holds C_0 as decided at delta_null
    np.testing.assert_array_equal(grid.critical | c0, grid.critical)

    w_ok = w > delta_null
    Vinv = eigen_compose(grid.basis, np.where(w_ok, 1.0 / np.where(w_ok, w**2, 1.0), 0.0))
    expected = np.zeros(w.shape[:-1] + (2 * n, 2 * n), dtype=complex)
    expected[..., :n, :n] = 0.5 * 1.3 * Vinv
    expected[..., range(n, 2 * n), range(n, 2 * n)] = 0.5 * 1.3
    gibbs = gibbs_density(1.3, grid)
    np.testing.assert_array_equal(gibbs.matrix, expected)
    np.testing.assert_array_equal(gibbs.excluded, ~np.all(w_ok, axis=-1))

    q0 = _random_density(d, n, grid.L, density_seed)
    es = check_ES(grid, q0)
    assert es.tolerances["delta_null"] == delta_null
    if c0.any():
        strides = [4, 2, 1]
        assert es.witnesses[0]["sums"] == [
            inverse_frequency_sum(grid, q0.matrix, s, delta_null) for s in strides]
    else:
        assert es.note == "skipped: C_0 fraction is zero"
    # a passing report stands in for ES, so that every density reaches the limit
    limit = limit_density(q0, grid, es_report=ConditionReport("ES", "pass"))
    np.testing.assert_array_equal(limit.matrix, strided_limit_matrix(q0, grid))
    tol = 1e-14 * (1.0 + float(np.max(np.abs(q0.matrix))))
    live = (np.max(np.abs(q0.matrix[..., :, n:]), axis=(-2, -1)) > tol) | (
        np.max(np.abs(q0.matrix[..., n:, :n]), axis=(-2, -1)) > tol)
    np.testing.assert_array_equal(limit.excluded, c0 & live)


@settings(max_examples=30, deadline=None)
@given(t=_times, T1=st.floats(0.01, 10.0), **_kernels)
def test_gibbs_density_is_stationary(grid64, d, n, kernel_range, kernel_seed, t, T1):
    lim = gibbs_density(1.3, grid64)
    for s in (1.0, 7.3):
        moved = evolve_density(lim, grid64, s)
        np.testing.assert_allclose(moved.matrix, lim.matrix, atol=1e-12)
    # over random kernels: transport and the long-time limit both leave the
    # Gibbs density in place off its excluded nodes
    grid = _random_grid(d, n, kernel_range, kernel_seed)
    gibbs = gibbs_density(T1, grid)
    keep = ~gibbs.excluded
    for other in (evolve_density(gibbs, grid, t), limit_density(gibbs, grid)):
        gap = np.abs(other.matrix[keep] - gibbs.matrix[keep])
        assert float(gap.max()) <= 1e-10 * _scale(gibbs)


# ------------------------------------------------- support-restricted mixing
# mixing_integral reads only the rows of Ghat and the columns of the limit
# that its test fields reach; the oracles below build the full Ghat(t) and
# sum over every component.

def full_propagator(grid, t):
    """Ghat(t) with all 2n rows, from the three composed factors."""
    n = grid.n
    c, s, ns = dynamics._rotation_factors(grid.omega, t)
    C = eigen_compose(grid.basis, c)
    G = np.empty(C.shape[:-2] + (2 * n, 2 * n), dtype=complex)
    G[..., :n, :n] = C
    G[..., :n, n:] = eigen_compose(grid.basis, s)
    G[..., n:, :n] = eigen_compose(grid.basis, ns)
    G[..., n:, n:] = C
    return G


def full_mixing_integral(limit, grid, G, psi1, psi2):
    p1 = psi1.fourier(grid.L)
    p2 = psi2.fourier(grid.L)
    matrix = _unexcluded_matrix(limit)
    integrand = np.einsum("...i,...ij,...jk,...k->...", np.conj(p1), G, matrix, p2)
    return float(complex(integrand.sum() / float(grid.L) ** grid.d).real)


@settings(max_examples=12, deadline=None)
@given(d=st.sampled_from([1, 2, 3]), n=st.sampled_from([1, 2, 3]),
       kernel_range=st.sampled_from([1, 2]), kernel_seed=st.integers(0, 30),
       density_seed=st.integers(0, 2**32 - 1))
def test_mixing_integral_equals_the_full_propagator_sum(d, n, kernel_range, kernel_seed,
                                                        density_seed):
    grid = _random_grid(d, n, kernel_range, kernel_seed)
    limit = limit_density(_random_density(d, n, grid.L, density_seed), grid)
    rng = np.random.default_rng(density_seed)
    off = tuple(int(c) for c in rng.integers(-5, 6, d))
    deltas = [TestField.delta(d, n, component=c, site=site)
              for c in range(2 * n) for site in ((0,) * d, off)]
    spread = TestField(sites=rng.integers(-4, 5, (3, d)),
                       values=rng.standard_normal((3, 2 * n)))
    zero = TestField(sites=[(0,) * d], values=np.zeros((1, 2 * n)))
    for t in (0.0, 10.0):
        G = full_propagator(grid, t)
        np.testing.assert_array_equal(dynamics._propagator_grid_matrix(grid, t), G)
        for rows in (slice(0, 1), slice(n - 1, n + 1), slice(n, 2 * n), slice(0, 0)):
            np.testing.assert_array_equal(
                dynamics._propagator_grid_matrix(grid, t, rows), G[..., rows, :])
        pairs = [(a, b) for a in deltas for b in (a, spread)]
        pairs += [(spread, a) for a in deltas + [spread, zero]] + [(zero, spread)]
        for psi1, psi2 in pairs:
            assert (mixing_integral(limit, grid, psi1, psi2, t)
                    == full_mixing_integral(limit, grid, G, psi1, psi2))
