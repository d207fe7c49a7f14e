"""Covariance transport, the long-time limit, quadratic forms, mixing."""

import dataclasses
import os
import subprocess
import sys
import tracemalloc
from functools import lru_cache
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import crystalstat
from crystalstat import (
    ConditionFailure,
    NumericalFault,
    SpectralDensity,
    TestField,
    build_nn_kernel,
    characteristic_functional,
    covariance_from_density,
    density_from_covariance,
    dispersion_grid,
    evolve_density,
    evolve_ensemble,
    gaussian_ensemble,
    gibbs_density,
    green_function,
    limit_density,
    linear_functional_samples,
    mixing_integral,
    quadratic_form,
    random_finite_range_kernel,
    triangular_density,
    white_noise_density,
)
from crystalstat import _lattice, covariance, dynamics, spectral
from crystalstat._lattice import eigen_compose, fourier_coefficient
from crystalstat.kernel import ConditionReport, InteractionKernel
from crystalstat.spectral import check_ES
from test_spectral import NN_MASSES

GOLDEN = (1.0 + np.sqrt(5.0)) / 2.0


def unexcluded_matrix(density):
    """The density's matrix zeroed at its excluded nodes, one whole-matrix
    copy, as every reader took it before each zeroed the excluded nodes in
    its own slabs or nodewise results."""
    excluded = density.excluded
    if excluded is None or not np.any(excluded):
        return density.matrix
    return np.where(excluded[..., None, None], 0.0, density.matrix)


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
    dens = SpectralDensity(matrix)
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


def green_response(grid, t, psi):
    """The torus sites y in C order, (L^d, d), and phi(y) = sum_x G(t, x - y)^T psi(x)
    at each, (L^d, 2n): <Y(t), psi> = sum_y phi(y) . Y(0, y), with G the rows
    of green_function, summed site by site in real space."""
    G = green_function(grid, t)
    L, d = grid.L, grid.d
    sites = np.indices((L,) * d).reshape(d, -1).T
    phi = np.zeros((len(sites), 2 * grid.n))
    for x, value in zip(psi.sites, psi.values):
        phi += np.einsum("yij,i->yj", G[tuple(((x - sites) % L).T)], value)
    return sites, phi


@pytest.mark.parametrize("t", [0.0, 3.0, 10.0])
@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("d", [1, 2])
def test_transport_and_mixing_match_the_green_function_rows(d, n, t):
    # the first routes to evolve_density and mixing_integral that do not go
    # through the Fourier-space propagator: real-space sums over the rows of
    # green_function.  Random kernels couple the components at n = 2.
    L = {1: 64, 2: 32}[d]
    grid = dispersion_grid(random_finite_range_kernel(d, n, 1, seed=1 if d == 1 else n - 1), L)
    T = np.repeat([0.7, 1.3], n)
    qt = evolve_density(white_noise_density(0.7, 1.3, n, d, L), grid, t)
    for c in range(2 * n):
        psi = TestField.delta(d, n, component=c)
        _, phi = green_response(grid, t, psi)
        want = float(np.einsum("yj,j,yj->", phi, T, phi))
        assert abs(quadratic_form(qt, psi) - want) <= 1e-12 * (1.0 + abs(want))

    limit = limit_density(_random_density(d, n, L, 10 * d + n), grid)
    rng = np.random.default_rng(d + n)
    psi1 = TestField(sites=[(0,) * d, (1,) + (0,) * (d - 1)],
                     values=rng.standard_normal((2, 2 * n)))
    # two sites, so that E <Y(t), psi1> <Y(0), psi2> reads q at offsets of
    # one sign and not of the other
    psi2 = TestField(sites=[(0,) * d, (3,) + (-1,) * (d - 1)],
                     values=rng.standard_normal((2, 2 * n)))
    sites, phi1 = green_response(grid, t, psi1)
    # q(z) = E[Y(x + z) (x) Y(x)] at every torus offset z, in C order
    q = covariance_from_density(limit, [tuple(z) for z in sites])
    want = 0.0
    for x, value in zip(psi2.sites, psi2.values):
        offset = np.ravel_multi_index(((sites - x) % L).T, (L,) * d)
        want += float(np.einsum("yi,yij,j->", phi1, q[offset], value))
    got = mixing_integral(limit, grid, psi1, psi2, t)
    assert abs(got - want) <= 1e-12 * (1.0 + abs(want))


def test_resolution_mismatch_raises(nn1, grid64):
    q0 = triangular_density(2, 1, 1.0, 1.0, 128)
    with pytest.raises(ValueError):
        limit_density(q0, grid64)


#: test fields that do not fit a d=1 n=1 density or ensemble: a delta on a
#: component of n=2, three value columns, and a site of d=2
MISFITS = {
    "component of n=2": (TestField.delta(1, 2, component=3), "wrong component count"),
    "three components": (TestField(sites=[(0,)], values=[[1.0, 0.0, 0.0]]),
                         "wrong component count"),
    "d=2 site": (TestField.delta(2, 1), "dimension does not match"),
}


@pytest.mark.parametrize("misfit", MISFITS)
@pytest.mark.parametrize("reader", ["quadratic_form", "mixing_integral psi1",
                                    "mixing_integral psi2", "characteristic_functional",
                                    "linear_functional_samples"])
def test_readers_refuse_a_test_field_that_does_not_fit(grid64, reader, misfit):
    # before each reader checked the field, quadratic_form and the d=2 field
    # failed in numpy broadcasting and mixing_integral returned a number
    psi, message = MISFITS[misfit]
    q = white_noise_density(1.0, 1.0, 1, 1, 64)
    fits = TestField.delta(1, 1)
    Y = np.zeros((3, 2, 64))
    read = {"quadratic_form": lambda: quadratic_form(q, psi),
            "mixing_integral psi1": lambda: mixing_integral(q, grid64, psi, fits, 1.0),
            "mixing_integral psi2": lambda: mixing_integral(q, grid64, fits, psi, 1.0),
            "characteristic_functional": lambda: characteristic_functional(np.zeros(1000), q, psi),
            "linear_functional_samples": lambda: linear_functional_samples(Y, psi)}[reader]
    with pytest.raises(ValueError, match=message):
        read()


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


def energy_traces(density, grid):
    """tr(Vhat q_uu) and tr(q_vv) at every node, Vhat the kernel's symbol."""
    n, V = grid.n, grid.kernel.symbol_grid(grid.L)
    q = density.matrix
    return (np.einsum("...ij,...ji->...", V, q[..., :n, :n]).real,
            np.einsum("...ii->...", q[..., n:, n:]).real)


@settings(max_examples=30, deadline=None)
@given(t=_times, **_models)
def test_transport_and_the_limit_keep_the_energy_and_the_limit_is_in_equipartition(
        d, n, kernel_range, kernel_seed, density_seed, t):
    # the mean energy density 1/2 <tr(Vhat q_uu + q_vv)> is conserved by the
    # dynamics and so by its long-time average; at a C_0 node the limit's
    # pseudoinverse drops part of the measure, so grids with one are skipped
    grid = _random_grid(d, n, kernel_range, kernel_seed)
    assume(not np.any(grid.c0))
    q0 = _random_density(d, n, grid.L, density_seed)
    limit = limit_density(q0, grid)

    def energy(density):
        return 0.5 * float(np.mean(sum(energy_traces(density, grid))))

    for density in (evolve_density(q0, grid, t), limit):
        assert abs(energy(density) - energy(q0)) <= 1e-12 * abs(energy(q0))
    potential, kinetic = energy_traces(limit, grid)
    assert float(np.max(np.abs(potential - kinetic))) <= 1e-12 * _scale(limit)


# ------------------------------------------------- the limit as a time average
# The limit is the long-time average of the transported density at each
# node (Lanford-Lebowitz), which evolve_density computes by another route:
# the propagator rows, with no cluster logic.

def time_average(q0, grid, T):
    """The average of evolve_density(q0, grid, t) over t in [0, T], weighted
    by the bump exp(-1/(s (1 - s))), s = t/T, whose Fourier transform
    decays faster than any power: Gauss-Legendre nodes, enough for the
    fastest phase 2 omega_max, with the weights normalised to sum to 1."""
    count = int(np.ceil(2.5 * grid.omega_max * T)) + 64
    x, w = np.polynomial.legendre.leggauss(count)
    s = 0.5 * (x + 1.0)
    w = w * np.exp(-1.0 / (s * (1.0 - s)))
    average = np.zeros(q0.matrix.shape, dtype=complex)
    for sk, wk in zip(s, w / w.sum()):
        average += wk * evolve_density(q0, grid, T * sk).matrix
    return average


def smooth_density(d, n, L):
    """A stored density from a dominant PSD block at z = 0 and blocks of
    0.3 times standard normals at three nonzero offsets."""
    rng = np.random.default_rng(5)
    F = rng.standard_normal((2 * n, 2 * n))
    cov = {(0,) * d: F @ F.T + 2 * n * np.eye(2 * n)}
    for k in range(3):
        z = [0] * d
        z[k % d] = k // d + 1
        cov[tuple(z)] = 0.3 * rng.standard_normal((2 * n, 2 * n))
    return density_from_covariance(cov, L)


def stored_basis_kernel():
    """random d=1 n=2 range 2 seed 3 with V(0) + I, a kernel whose basis
    differs from node to node and whose grid at L=64 resolves it."""
    kernel = random_finite_range_kernel(1, 2, 2, 3)
    entries = dict(kernel.entries)
    entries[(0,)] = entries[(0,)] + np.eye(2)
    return InteractionKernel(1, 2, entries)


#: the kernels with their grid size: an identity basis, a one-node
#: permutation basis, and a stored basis
AVERAGED_KERNELS = {"nn m=1,2": (lambda: build_nn_kernel(2, 2, [1.0, 2.0]), 16),
                    "nn m=2,1": (lambda: build_nn_kernel(2, 2, [2.0, 1.0]), 16),
                    "stored basis": (stored_basis_kernel, 64)}


def averaging_gap(kernel, density, T):
    """The worst nodewise gap between the time average up to T and the
    limit, relative to the limit's largest entry."""
    build, L = AVERAGED_KERNELS[kernel]
    grid = dispersion_grid(build(), L)
    q0 = (white_noise_density(1.0, 2.0, grid.n, grid.d, L) if density == "white"
          else smooth_density(grid.d, grid.n, L))
    limit = limit_density(q0, grid).matrix
    return float(np.max(np.abs(time_average(q0, grid, T) - limit)) / np.max(np.abs(limit)))


@pytest.mark.parametrize("kernel", AVERAGED_KERNELS)
def test_the_limit_of_white_noise_is_its_time_average(kernel):
    # white noise holds only the phases 2 omega, which the bump averages to
    # roundoff by T = 200 (measured 3.9e-14 to 4.0e-14)
    assert averaging_gap(kernel, "white", 200.0) <= 1e-12


@pytest.mark.parametrize("kernel, bound", [("nn m=1,2", 1e-6), ("nn m=2,1", 1e-6),
                                           ("stored basis", 1e-4)])
def test_the_limit_of_a_stored_density_is_its_time_average(kernel, bound):
    # the slow phases are differences of two branches' frequencies; the gap
    # measured 5.7e-5 and 6.2e-7 (m=1,2), 6.5e-5 and 4.0e-7 (m=2,1), and
    # 7.5e-4 and 1.5e-5 (stored basis) at T = 100 and 200.  The random
    # kernel without the + I converges far slower (its 2 omega_min is near
    # 0.019), and a 1e-8 gate on it waits for a stated spectral gap
    earlier, later = (averaging_gap(kernel, "smooth", T) for T in (100.0, 200.0))
    assert later <= bound
    assert later < earlier


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


def slab_rows(rows, matrix):
    """A patch of the slab budget to rows rows of the first grid axis of a
    complex array shaped as matrix: the whole grid at L=16 fits one slab of
    the default budget, which would leave the slab seams untested."""
    return mock.patch.object(_lattice, "SLAB_BYTES", rows * matrix[0].astype(complex).nbytes)


@settings(max_examples=24, deadline=None)
@given(d=st.sampled_from([1, 2, 3]), n=st.sampled_from([1, 2, 3]),
       kernel_range=st.sampled_from([1, 2]), kernel_seed=st.integers(0, 30),
       density_seed=st.integers(0, 2**32 - 1), rows=st.sampled_from([1, 3, 5, 16]))
def test_limit_density_keeps_the_bits_of_strided_operands(d, n, kernel_range, kernel_seed,
                                                          density_seed, rows):
    grid = _random_grid(d, n, kernel_range, kernel_seed)
    q0 = _random_density(d, n, grid.L, density_seed)
    with slab_rows(rows, q0.matrix):
        np.testing.assert_array_equal(limit_density(q0, grid).matrix,
                                      strided_limit_matrix(q0, grid))


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 4), count=st.integers(2, 4), nodes=st.integers(1, 64),
       seed=st.integers(0, 2**32 - 1))
def test_row_stacked_products_keep_the_bits_of_per_block_products(n, count, nodes, seed):
    # limit_density writes its left products into row blocks of one buffer
    # and right-multiplies the buffer once; both keep the bits of one product
    # per block only while a row of a BLAS matrix product does not depend on
    # the rows stacked with it.  Entries span many decades, so that a change
    # in the summation order shows in the last bits
    rng = np.random.default_rng(seed)

    def draw():
        scale = 10.0 ** rng.uniform(-8, 8, (nodes, n, n))
        return scale * (rng.standard_normal((nodes, n, n))
                        + 1j * rng.standard_normal((nodes, n, n)))

    left, right = draw(), draw()
    blocks = [draw() for _ in range(count)]
    stack = np.empty((nodes, count * n, n), dtype=complex)
    for k, block in enumerate(blocks):
        np.matmul(left, block, out=stack[:, k * n:(k + 1) * n])
    product = stack @ right
    for k, block in enumerate(blocks):
        rows = slice(k * n, (k + 1) * n)
        np.testing.assert_array_equal(stack[:, rows], left @ block,
                                      err_msg="a product written into a row block of a stack")
        np.testing.assert_array_equal(product[:, rows], (left @ block) @ right,
                                      err_msg="a row block of a row-stacked product")


def shared_right_factor_products_keep_their_bits(n, nodes, seed):
    """covariance._node_product of nodewise left factors by one (n, n) node,
    the form limit_density takes for a one-node density or basis, has the
    bits of the per-node products it replaces: np.matmul of each node's left
    factor with a contiguous copy of the right factor, written into a row
    block of a stack.  The left factors hold n rows a node (a left product)
    or 4n (a right product of the four stacked blocks), and one node alone
    is a plain (rows, n) matrix; the product goes into a whole buffer and
    into a row block of a stack.  Four need not divide the node count."""
    rng = np.random.default_rng(seed)

    def draw(*shape):
        scale = 10.0 ** rng.uniform(-8, 8, shape)
        return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))

    right = draw(n, n)
    for rows in (n, 4 * n):
        left = draw(nodes, rows, n)
        stack = np.empty((nodes, rows + n, n), dtype=complex)
        np.matmul(left, np.ascontiguousarray(np.broadcast_to(right, (nodes, n, n))),
                  out=stack[:, n:])
        want = np.ascontiguousarray(stack[:, n:])
        whole = covariance._node_product(left, right, np.empty_like(left))
        block = covariance._node_product(left, right, np.empty_like(stack)[:, n:])
        node = covariance._node_product(left[-1], right, np.empty_like(left[-1]))
        for got in (whole, block, node[None]):
            assert got.tobytes() == want[-len(got):].tobytes(), (n, nodes, seed, rows)


#: the property over n 1-3, entries over 16 decades and 1 to 4096 nodes (a
#: whole slab of limit_density at report-d3's n = 2), run in a child process
#: whose BLAS pool has the given size
SHARED_RIGHT_FACTOR_PROPERTY = """
from hypothesis import example, given, settings, strategies as st
from test_covariance import shared_right_factor_products_keep_their_bits

@settings(max_examples=80, deadline=None)
@example(n=2, nodes=4096, seed=0)
@example(n=3, nodes=4096, seed=1)
@given(n=st.integers(1, 3), nodes=st.integers(1, 4096), seed=st.integers(0, 2**32 - 1))
def holds(n, nodes, seed):
    shared_right_factor_products_keep_their_bits(n, nodes, seed)

holds()
"""


@pytest.mark.parametrize("threads", [1, 2])
def test_one_product_with_a_shared_right_factor_keeps_the_bits_of_per_node_products(threads):
    tests, package = Path(__file__).resolve().parent, Path(crystalstat.__file__).parents[1]
    env = dict(os.environ, OMP_NUM_THREADS=str(threads), OPENBLAS_NUM_THREADS=str(threads),
               MKL_NUM_THREADS=str(threads),
               PYTHONPATH=os.pathsep.join(filter(None, [str(tests), str(package),
                                                        os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", SHARED_RIGHT_FACTOR_PROPERTY],
                          capture_output=True, text=True, env=env)
    assert done.returncode == 0, done.stderr[-3000:]


#: peak traced memory above entry, in units of the density's matrix, at
#: d=3 n=2 L=16 with slabs of one row of the grid (1/16 of the matrix); the
#: whole-array expressions before the one-buffer forms measured 3.13, 6.72
#: and 5.13, the one-buffer forms 1.13, 2.58 and 3.00, and the slabwise forms
#: 0.14, 1.36 and 1.20 (evolve_density measured 3.00 while it held Ghat, its
#: conjugate and the transported matrix); fourier_coefficient measured 1.19
#: for the whole product, 0.25 for the slabwise sums and 0.13 with each
#: slab's phases formed in the slab.  quadratic_form measured 0.82 and
#: mixing_integral 2.19 with whole-grid transforms and propagator rows, and
#: 0.22 and 0.66 slab by slab; about 0.6 of the latter is the fixed buffers
#: of its four-operand einsum, not a grid-sized array
MATRIX_PEAKS = {"SpectralDensity": 0.25, "limit_density": 1.5, "evolve_density": 1.35,
                "fourier_coefficient": 0.2, "quadratic_form": 0.35, "mixing_integral": 0.8}


#: a test field on three sites that reaches all four components at d=3 n=2
SPREAD = TestField(sites=[(0, 0, 0), (1, 0, 0), (0, 2, -1)],
                   values=np.arange(12.0).reshape(3, 4) - 5.5)


def traced_peak(call) -> int:
    """Peak traced memory above entry of a second call; the first fills
    one-off caches."""
    call()
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - entry
    finally:
        tracemalloc.stop()


def test_density_path_holds_few_whole_grid_temporaries():
    grid = _random_grid(3, 2, 1, 3)
    q0 = _random_density(3, 2, grid.L, 11)
    calls = {"SpectralDensity": lambda: SpectralDensity(q0.matrix),
             "limit_density": lambda: limit_density(q0, grid),
             "evolve_density": lambda: evolve_density(q0, grid, 2.5),
             "fourier_coefficient": lambda: fourier_coefficient(q0.matrix, (1, 0, 0)),
             "quadratic_form": lambda: quadratic_form(q0, SPREAD),
             "mixing_integral": lambda: mixing_integral(q0, grid, SPREAD, SPREAD, 2.5)}
    with slab_rows(1, q0.matrix):
        for name, call in calls.items():
            peak = traced_peak(call)
            assert peak <= MATRIX_PEAKS[name] * q0.matrix.nbytes, (name, peak / q0.matrix.nbytes)


@lru_cache(maxsize=None)
def _excluding_limit():
    """A limit density with one excluded node (theta = 0, where the massless
    branch needs an inverse frequency), on which ES passes, and its grid."""
    grid = dispersion_grid(build_nn_kernel(3, 2, [0.0, 1.0]), 16)
    limit = limit_density(white_noise_density(1.0, 1.0, 2, 3, 16), grid)
    assert limit.excluded.sum() == 1
    return limit, grid


def _readers(density, grid, psi):
    offsets = [(0, 0, 0), (1, 0, 0), (2, 0, 0), (1, -1, 2)]
    return {"covariance_from_density": lambda: covariance_from_density(density, offsets),
            "quadratic_form": lambda: quadratic_form(density, psi),
            "mixing_integral": lambda: mixing_integral(density, grid, psi, psi, 10.0)}


def test_readers_zero_excluded_nodes_as_the_whole_matrix_copy_did():
    # the oracle: each reader on a plain density whose matrix is the
    # whole-matrix copy with the excluded nodes zeroed
    limit, grid = _excluding_limit()
    zeroed = SpectralDensity(unexcluded_matrix(limit))
    spread = TestField(sites=[(0, 0, 0), (1, 0, 0), (0, 2, -1)],
                       values=np.arange(12.0).reshape(3, 4) - 5.5)
    for psi in (TestField.delta(3, 2, component=0), TestField.delta(3, 2, component=3),
                spread):
        got, want = _readers(limit, grid, psi), _readers(zeroed, grid, psi)
        for name in got:
            np.testing.assert_array_equal(got[name](), want[name](), err_msg=name)
        for t in (0.0, 2.5, 40.0):
            assert (mixing_integral(limit, grid, psi, spread, t)
                    == mixing_integral(zeroed, grid, psi, spread, t))


def test_readers_copy_no_whole_matrix_for_excluded_nodes():
    # one excluded node costs at most a slab over the same reader with none;
    # the whole-matrix copy cost 1.0 (covariance_from_density), 2.0
    # (quadratic_form) and 0.63 (mixing_integral) matrices
    limit, grid = _excluding_limit()
    plain = SpectralDensity(limit.matrix)
    psi = TestField.delta(3, 2, component=0)
    excluding, none = _readers(limit, grid, psi), _readers(plain, grid, psi)
    with slab_rows(1, limit.matrix):
        for name in excluding:
            extra = traced_peak(excluding[name]) - traced_peak(none[name])
            assert extra <= 0.25 * limit.matrix.nbytes, (name, extra / limit.matrix.nbytes)


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


def whole_grid_excluded(q0, grid):
    """limit_density's excluded mask as it was taken over every node: C_0
    nodes where a source block weighted by an inverse frequency is live."""
    n, q = grid.n, q0.matrix
    tol = 1e-14 * (1.0 + float(np.max(np.abs(q))))
    live = [np.max(np.abs(q[..., i * n:(i + 1) * n, j * n:(j + 1) * n]), axis=(-2, -1)) > tol
            for i, j in ((0, 1), (1, 0), (1, 1))]
    return grid.c0 & np.any(live, axis=0)


@settings(max_examples=50, deadline=None)
@given(massless=st.booleans(), d=st.sampled_from([1, 2, 3]),
       masses=st.sampled_from(ZERO_MODE_MASSES), kernel_seed=st.integers(0, 30),
       delta_null=st.sampled_from([1e-8, 0.05, 0.5]), density_seed=st.integers(0, 2**32 - 1),
       loudness=st.sampled_from([1.0, 1e4]),
       velocity_scale=st.sampled_from([1.0, 0.0]) | st.floats(-17.0, -9.0).map(
           lambda e: 10.0 ** e))
def test_excluded_nodes_are_found_at_c0_nodes_only(massless, d, masses, kernel_seed,
                                                   delta_null, density_seed, loudness,
                                                   velocity_scale):
    # massless nn kernels have C_0 at theta = 0; random kernels have their
    # spectral gap inside the larger delta_null
    if massless:
        grid = _zero_mode_grid(d, masses, delta_null)
    else:
        kernel = random_finite_range_kernel(min(d, 2), 2, 1, seed=kernel_seed)
        grid = dispersion_grid(kernel, 16, delta_null=delta_null)
    n = grid.n
    rng = np.random.default_rng(density_seed)

    def node_factor(value):
        # value on a random set of nodes closed under theta -> -theta, 1
        # elsewhere: a density scaled by it stays Hermitian, PSD and real
        nodes = rng.random(grid.c0.shape) < 0.5
        nodes |= np.roll(np.flip(nodes), 1, axis=tuple(range(grid.d)))
        return np.where(nodes, value, 1.0)[..., None, None]

    # the whole density louder on some nodes, which moves the tolerance away
    # from the scale of the C_0 nodes, and the velocity rows and columns
    # scaled towards that tolerance on others
    matrix = _random_density(grid.d, n, grid.L, density_seed).matrix * node_factor(loudness)
    velocity = node_factor(velocity_scale)
    matrix[..., n:, :] *= velocity
    matrix[..., :, n:] *= velocity
    q0 = SpectralDensity(matrix)
    limit = limit_density(q0, grid, es_report=ConditionReport("ES", "pass"))
    np.testing.assert_array_equal(limit.excluded, whole_grid_excluded(q0, grid))


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
    matrix = unexcluded_matrix(limit)
    integrand = np.einsum("...i,...ij,...jk,...k->...", np.conj(p1), G, matrix, p2)
    return float(complex(integrand.sum() / float(grid.L) ** grid.d).real)


def full_quadratic_form(density, psi):
    p = psi.fourier(density.L)
    nodewise = np.einsum("...i,...ij,...j->...", np.conj(p), unexcluded_matrix(density), p)
    return max(float(np.real(nodewise.sum()) / float(density.L) ** density.d), 0.0)


@settings(max_examples=12, deadline=None)
@given(d=st.sampled_from([1, 2, 3]), n=st.sampled_from([1, 2, 3]),
       kernel_range=st.sampled_from([1, 2]), kernel_seed=st.integers(0, 30),
       density_seed=st.integers(0, 2**32 - 1), slab=st.sampled_from([1, 3, 16]))
def test_mixing_integral_equals_the_full_propagator_sum(d, n, kernel_range, kernel_seed,
                                                        density_seed, slab):
    # the oracles sum whole-grid einsums; the readers run by slabs of slab
    # rows of the grid (at d = 1 a row is one node)
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
        G, propagator = full_propagator(grid, t), dynamics.Propagator(grid, t)
        np.testing.assert_array_equal(propagator.rows(), G)
        for rows in (slice(0, 1), slice(n - 1, n + 1), slice(n, 2 * n), slice(0, 0)):
            np.testing.assert_array_equal(propagator.rows(rows), G[..., rows, :])
        pairs = [(a, b) for a in deltas for b in (a, spread)]
        pairs += [(spread, a) for a in deltas + [spread, zero]] + [(zero, spread)]
        with slab_rows(slab, limit.matrix):
            for psi1, psi2 in pairs:
                assert (mixing_integral(limit, grid, psi1, psi2, t)
                        == full_mixing_integral(limit, grid, G, psi1, psi2))
    with slab_rows(slab, limit.matrix):
        for psi in deltas + [spread, zero]:
            assert quadratic_form(limit, psi) == full_quadratic_form(limit, psi)


def test_mixing_integral_reads_the_support_of_the_values():
    # component 0 of psi has nonzero values at two sites that coincide, so
    # its transform is an exact zero at every node; the support read from the
    # values keeps it, and the sum matches the whole-grid einsum over all 2n
    limit, grid = _excluding_limit()
    psi = TestField(sites=[(1, 0, 0), (0, 2, -1), (1, 0, 0)],
                    values=[[0.75, 1.5, -0.5, 0.0], [0.0, 0.25, 2.0, 0.0],
                            [-0.75, 0.0, 1.0, 0.0]])
    assert not np.any(psi.fourier(grid.L)[..., 0])
    spread = TestField(sites=[(0, 0, 0), (1, 0, 0), (0, 2, -1)],
                       values=np.arange(12.0).reshape(3, 4) - 5.5)
    for t in (0.0, 10.0):
        G = full_propagator(grid, t)
        for psi1, psi2 in ((psi, psi), (psi, spread), (spread, psi)):
            assert (mixing_integral(limit, grid, psi1, psi2, t)
                    == full_mixing_integral(limit, grid, G, psi1, psi2))


def support_first_mixing_integral(limit, grid, psi1, psi2, t):
    """mixing_integral with the integrand's earlier first operand: the
    conjugate of every component of Psihat1, sliced to the support after."""
    I, K = covariance._support(psi1), covariance._support(psi2)
    propagator = dynamics.Propagator(grid, t)

    def integrand(rows, q, out):
        p1, p2 = psi1.fourier(grid.L, rows), psi2.fourier(grid.L, rows)
        np.einsum("...i,...ij,...jk,...k->...", np.conj(p1)[..., I],
                  propagator.rows(I, nodes=rows), q[..., :, K], p2[..., K], out=out)

    return complex(covariance._node_sum(limit, integrand) / float(grid.L) ** grid.d).real


@pytest.mark.parametrize("kernel, L", [
    (build_nn_kernel(1, 1, 1.0), 4096),
    (build_nn_kernel(3, 2, [1.0, 2.0]), 32),
    (build_nn_kernel(2, 2, [2.0, 1.0]), 64),
    (build_nn_kernel(1, 2, [1.0, 2.0]), 64),
    (random_finite_range_kernel(1, 2, 1, seed=3), 64),
], ids=["nn-d1", "nn-d3", "nn-d2-basis", "nn-d1-n2", "random-d1-n2"])
def test_mixing_integrand_conjugating_the_support_keeps_the_bits(kernel, L):
    # the integrand conjugates only the kept components of Psihat1; the
    # conjugate of all 2n components, sliced after, gave the same bits
    d, n = kernel.d, kernel.n
    grid = dispersion_grid(kernel, L)
    limit = limit_density(_random_density(d, n, L, 7), grid)
    rng = np.random.default_rng(L + n)
    upper = rng.standard_normal((2, 2 * n))
    upper[:, 0] = 0.0  # a support that starts past component 0
    lower = np.zeros((1, 2 * n))
    lower[0, :n + 1] = rng.standard_normal(n + 1)
    psi1 = TestField(sites=[(0,) * d, (1,) + (0,) * (d - 1)], values=upper)
    psi2 = TestField(sites=[(2,) + (-1,) * (d - 1)], values=lower)
    for t in (0.0, 10.0, 40.0, 160.0):
        for a, b in ((psi1, psi1), (psi2, psi2), (psi1, psi2), (psi2, psi1)):
            want = support_first_mixing_integral(limit, grid, a, b, t)
            assert mixing_integral(limit, grid, a, b, t).hex() == want.hex(), (t, a is b)


# ------------------------------------------------------- slabbed propagator

@settings(max_examples=20, deadline=None)
@given(d=st.sampled_from([1, 2, 3]), n=st.sampled_from([1, 2, 3]),
       kernel_range=st.sampled_from([1, 2]), kernel_seed=st.integers(0, 30), t=_times,
       start=st.integers(0, 15), size=st.integers(1, 16))
def test_slab_propagator_rows_are_the_whole_grid_rows(d, n, kernel_range, kernel_seed, t,
                                                      start, size):
    # a slab of nodes composes from its own slab of the basis the same bits
    # as the whole grid does at those nodes, for every range of rows
    grid = _random_grid(d, n, kernel_range, kernel_seed)
    nodes = slice(start, min(start + size, grid.L))
    propagator = dynamics.Propagator(grid, t)
    for rows in (slice(None), slice(0, 1), slice(n - 1, n + 1), slice(n, 2 * n), slice(0, 0)):
        whole = propagator.rows(rows)
        part = propagator.rows(rows, nodes=nodes)
        assert part.tobytes() == np.ascontiguousarray(whole[nodes]).tobytes()
        assert part.shape == whole[nodes].shape


# ------------------------------------------------------- constant densities
# white_noise_density broadcasts one node to the whole grid; every reader
# must give the bits it gives on the same values stored node by node.

def test_white_density_matrix_is_one_read_only_node():
    white = white_noise_density(1.0, 0.5, 2, 3, 32)
    assert white.matrix.shape == (32, 32, 32, 4, 4)
    assert white.matrix.base.nbytes == 4 * 4 * 16  # one node, not 32**3
    with pytest.raises(ValueError):
        white.matrix[0, 0, 0, 0, 0] = 2.0
    with pytest.raises(ValueError):
        white.matrix += 1.0


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


_temperatures = st.sampled_from([0.0, 0.5, 1.0, 2.75])


@settings(max_examples=25, deadline=None)
@given(d=st.sampled_from([1, 2, 3]), n=st.sampled_from([1, 2, 3]), T0=_temperatures,
       T1=_temperatures, rows=st.sampled_from([1, 3, 16]), seed=st.integers(0, 2**32 - 1))
def test_constant_density_readers_give_the_bits_of_the_stored_nodes(d, n, T0, T1, rows,
                                                                     seed):
    # a massless first branch gives C_0 nodes, so check_ES sums and the
    # limit inspects them; the limit is taken with ES waived, which fails
    # at d = 1, 2
    grid = dispersion_grid(build_nn_kernel(d, n, [0.0] + [1.0] * (n - 1)), 16)
    broadcast = white_noise_density(T0, T1, n, d, 16)
    # np.array keeps the broadcast's axis order, which is not C order; the
    # C-order copy is the layout the density had before it was broadcast
    stored = [SpectralDensity(np.array(broadcast.matrix, order=order))
              for order in ("K", "C")]
    rng = np.random.default_rng(seed)
    spread = TestField(sites=rng.integers(-4, 5, (3, d)), values=rng.standard_normal((3, 2 * n)))
    delta = TestField.delta(d, n, component=int(rng.integers(0, 2 * n)))
    waived = ConditionReport("ES", "pass")
    offsets = [(0,) * d, tuple(int(c) for c in rng.integers(-3, 4, d))]

    def readings(q):
        limit = limit_density(q, grid, es_report=waived)
        yield "limit_density", limit.matrix
        yield "limit_density excluded", limit.excluded
        yield "evolve_density", evolve_density(q, grid, 3.5).matrix
        yield "check_ES", check_ES(grid, q).witnesses[0]["sums"]
        yield "covariance_from_density", covariance_from_density(q, offsets)
        yield "hermitian_sqrt", q.hermitian_sqrt()
        yield "gaussian_ensemble", gaussian_ensemble(q, 2, seed)
        for psi in (delta, spread):
            yield "quadratic_form", quadratic_form(q, psi)
            for t in (0.0, 7.0):
                yield "mixing_integral", mixing_integral(q, grid, psi, spread, t)
                yield "mixing_integral of the limit", mixing_integral(limit, grid, psi, psi, t)

    with slab_rows(rows, broadcast.matrix):
        for q in stored:
            for (name, got), (_, want) in zip(readings(broadcast), readings(q), strict=True):
                assert same_bits(got, want), (name, q.matrix.strides)


# ------------------------------------------------------- one-node eigenbases
# An nn grid stores its eigenbasis as one broadcast node; every reader must
# give the bits it gives on the same grid rebuilt with the basis stored node
# by node and labels continued edge by edge.

def stored_basis_grid(grid):
    """grid with its basis stored node by node and its labels from
    spectral._branch_labels on that basis (zeros at n = 1, which has one
    permutation), as a grid of a random kernel holds them."""
    basis = np.array(grid.basis, order="C")
    labels = (np.zeros(basis.shape[:-1], dtype=np.int64) if grid.n == 1
              else spectral._branch_labels(basis))
    return dataclasses.replace(grid, basis=basis, labels=labels)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("masses", NN_MASSES)
def test_one_node_basis_readers_give_the_bits_of_the_stored_nodes(d, masses):
    n, L = len(masses), 16
    grid = dispersion_grid(build_nn_kernel(d, n, list(masses)), L)
    assert _lattice.one_node(grid.basis) is not None
    stored = stored_basis_grid(grid)
    assert _lattice.one_node(stored.basis) is None
    white = white_noise_density(1.0, 0.5, n, d, L)
    q0 = _random_density(d, n, L, seed=len(masses) + d)
    rng = np.random.default_rng(d)
    spread = TestField(sites=rng.integers(-4, 5, (3, d)), values=rng.standard_normal((3, 2 * n)))
    u_only = TestField.delta(d, n, component=0)
    v_only = TestField.delta(d, n, component=2 * n - 1, site=(1,) * d)
    Y = rng.standard_normal((2, 2 * n) + (L,) * d)
    waived = ConditionReport("ES", "pass")

    def readings(g):
        yield "labels", g.labels
        yield "branch_values", g.branch_values
        yield "gibbs_density", gibbs_density(0.75, g).matrix
        yield "green_function", dynamics.green_function(g, 1.5)
        yield "evolve_ensemble", evolve_ensemble(Y, g, 2.5)
        for q in (white, q0):
            limit = limit_density(q, g, es_report=waived)
            yield "limit_density", limit.matrix
            yield "evolve_density", evolve_density(q, g, 3.5).matrix
            yield "check_ES", check_ES(g, q).to_jsonable()
            for psi in (u_only, v_only, spread):
                yield "quadratic_form", quadratic_form(limit, psi)
                for t in (0.0, 7.0):
                    yield "mixing_integral", mixing_integral(limit, g, psi, spread, t)

    with slab_rows(3, white.matrix):
        for (name, got), (_, want) in zip(readings(grid), readings(stored), strict=True):
            assert same_bits(got, want) if isinstance(got, np.ndarray) else got == want, name


@st.composite
def one_node_density(draw, n):
    """A real symmetric PSD node 0.5 F F^T of 2n x 2n, F of small integers of
    both signs: the u-v blocks of F are zero or drawn, and so is its u
    block, so the node has exact-zero blocks, and a zero u block is T0 = 0."""
    def block():
        return np.array(draw(st.lists(st.integers(-2, 2), min_size=n * n,
                                      max_size=n * n))).reshape(n, n)
    F = np.zeros((2 * n, 2 * n))
    F[n:, n:] = block()
    if draw(st.booleans()):
        F[:n, :n] = block()
    if draw(st.booleans()):
        F[:n, n:], F[n:, :n] = block(), block()
    return (0.5 * (F @ F.T)).astype(complex)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), d=st.sampled_from([1, 2, 3]),
       masses=st.sampled_from([(1.0,), (0.0,), (0.5, 2.0), (0.0, 1.0), (1.5, 1.5),
                               (1.0, 2.0, 3.0), (0.0, 1.0, 1.0)]),
       rows=st.sampled_from([1, 3, 16]))
def test_limit_of_a_one_node_density_on_an_identity_basis_keeps_the_bits(data, d, masses, rows):
    # limit_density writes x + 0.0 for the products by an identity basis of
    # a one-node density; the same grid with its basis stored node by node
    # makes every product, and the bits must be the same
    n, L = len(masses), 16
    node = data.draw(one_node_density(n))
    grid = dispersion_grid(build_nn_kernel(d, n, list(masses)), L)
    assert grid.identity_basis
    q0 = SpectralDensity(np.broadcast_to(node, (L,) * d + node.shape))
    waived = ConditionReport("ES", "pass")
    with slab_rows(rows, q0.matrix):
        got = limit_density(q0, grid, es_report=waived)
        want = limit_density(q0, stored_basis_grid(grid), es_report=waived)
    assert same_bits(got.matrix, want.matrix)
    assert same_bits(got.excluded, want.excluded)


@settings(max_examples=40, deadline=None)
@given(d=st.sampled_from([1, 2, 3]), masses=st.sampled_from([(0.0,), (0.0, 1.0), (1.0, 1.0, 2.0)]),
       t=st.sampled_from([0.0, -0.0, 2.5, -7.0]), seed=st.integers(0, 2**32 - 1))
def test_identity_basis_propagators_keep_the_bits_of_the_stored_basis(d, masses, t, seed):
    # evolve_ensemble and the propagator rows write x + 0.0 for the products
    # by an identity basis; fields with exact zeros of both signs, and t = 0,
    # where the sine factor is -0.0 on a null branch, must keep the bits
    n, L = len(masses), 16
    grid = dispersion_grid(build_nn_kernel(d, n, list(masses)), L)
    stored = stored_basis_grid(grid)
    rng = np.random.default_rng(seed)
    Y = rng.standard_normal((2, 2 * n) + (L,) * d)
    Y[rng.random(Y.shape) < 0.5] = 0.0
    Y[rng.random(Y.shape) < 0.3] = -0.0
    assert same_bits(evolve_ensemble(Y, grid, t), evolve_ensemble(Y, stored, t))
    for rows in (slice(None), slice(0, n), slice(n, 2 * n), slice(n - 1, n + 1)):
        assert same_bits(dynamics.Propagator(grid, t).rows(rows),
                         dynamics.Propagator(stored, t).rows(rows))


def test_propagator_rows_compute_only_the_factors_they_read(monkeypatch):
    # rows of the top half read no -omega sin factor, and rows of the bottom
    # half no t sinc factor; all 2n rows read both
    grid = dispersion_grid(build_nn_kernel(2, 2, [0.0, 1.0]), 16)
    calls = []
    factors = dynamics._rotation_factors

    def recording(omega, t, sinc=True, sin=True):
        calls.append((sinc, sin))
        return factors(omega, t, sinc, sin)

    monkeypatch.setattr(dynamics, "_rotation_factors", recording)
    for rows in (slice(0, 2), slice(2, 4), slice(1, 3), slice(None)):
        dynamics.Propagator(grid, 2.0).rows(rows)
    assert calls == [(True, False), (False, True), (True, True), (True, True)]


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_one_node_basis_products_keep_the_bits_of_per_node_products(d, n):
    # an nn basis is a permutation matrix, whose products are exact in any
    # summation order; a random orthogonal node, broadcast to the grid and
    # stored node by node, makes every product round, so that the
    # row-stacked products and the einsums show a change of order
    L = 16
    grid = dispersion_grid(build_nn_kernel(d, n, [0.5 * k for k in range(n)]), L)
    rng = np.random.default_rng(10 * d + n)
    node = np.linalg.qr(rng.standard_normal((n, n)))[0].astype(complex)
    broadcast = dataclasses.replace(grid, basis=np.broadcast_to(node, grid.basis.shape))
    stored = dataclasses.replace(grid, basis=np.array(broadcast.basis, order="C"))
    white = white_noise_density(1.0, 0.5, n, d, L)
    q0 = _random_density(d, n, L, seed=d + n)
    spread = TestField(sites=rng.integers(-4, 5, (3, d)), values=rng.standard_normal((3, 2 * n)))
    Y = rng.standard_normal((2, 2 * n) + (L,) * d)
    waived = ConditionReport("ES", "pass")

    def readings(g):
        yield "gibbs_density", gibbs_density(0.75, g).matrix
        yield "propagator", dynamics.Propagator(g, 1.5).rows()
        yield "evolve_ensemble", evolve_ensemble(Y, g, 2.5)
        for q in (white, q0):
            limit = limit_density(q, g, es_report=waived)
            yield "limit_density", limit.matrix
            yield "evolve_density", evolve_density(q, g, 3.5).matrix
            yield "check_ES", check_ES(g, q).to_jsonable()
            yield "mixing_integral", mixing_integral(limit, g, spread, spread, 7.0)

    with slab_rows(3, white.matrix):
        for (name, got), (_, want) in zip(readings(broadcast), readings(stored), strict=True):
            assert same_bits(got, want) if isinstance(got, np.ndarray) else got == want, name
