"""Propagator, time evolution, Green's functions, energy."""

import tracemalloc
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crystalstat import (
    InteractionKernel,
    Propagator,
    build_nn_kernel,
    dispersion_grid,
    evolve_ensemble,
    green_cutoff,
    green_function,
    hamiltonian,
    random_finite_range_kernel,
    reference_evolve_ode,
)
from crystalstat import dynamics
from crystalstat._lattice import IMAG_TOL, real_part_checked, real_view


def random_field(rng, L, d, n):
    """One sample (1, 2n, *grid) of standard normal values."""
    return rng.standard_normal((1, 2 * n) + (L,) * d)


def delta_field(L, component):
    """One sample on a scalar chain with unit mass at site 0 in one component."""
    Y = np.zeros((1, 2, L))
    Y[0, component, 0] = 1.0
    return Y


def test_propagator_blocks_oscillator_form(grid64):
    t = 3.7
    w = grid64.omega[:, 0]
    G = Propagator(grid64, t).rows()
    assert G.shape == (64, 2, 2)
    np.testing.assert_allclose(G[:, 0, 0], np.cos(w * t), atol=1e-13)
    np.testing.assert_allclose(G[:, 1, 1], np.cos(w * t), atol=1e-13)
    np.testing.assert_allclose(G[:, 0, 1], np.sin(w * t) / w, atol=1e-13)
    np.testing.assert_allclose(G[:, 1, 0], -w * np.sin(w * t), atol=1e-13)
    np.testing.assert_allclose(np.linalg.det(G), 1.0, atol=1e-12)


def test_propagator_zero_frequency_is_free_motion():
    g = dispersion_grid(build_nn_kernel(1, 1, 0.0), 16)
    assert g.omega[0, 0] == 0.0
    G = Propagator(g, 2.5).rows()
    np.testing.assert_allclose(G[0], [[1.0, 2.5], [0.0, 1.0]], atol=1e-13)
    np.testing.assert_allclose(np.linalg.det(G), 1.0, atol=1e-12)


def test_propagator_group_law():
    g = dispersion_grid(random_finite_range_kernel(1, 2, 2, seed=8), 16)
    a = Propagator(g, 1.1).rows()
    b = Propagator(g, 2.6).rows()
    ab = Propagator(g, 3.7).rows()
    np.testing.assert_allclose(a @ b, ab, atol=1e-12)
    np.testing.assert_allclose(b @ a, ab, atol=1e-12)


def test_propagator_rows_refuse_a_step_and_give_empty_ranges():
    # rows are composed as one range of each half, so a step other than 1
    # is refused; a range that starts past its stop has no rows
    g = dispersion_grid(random_finite_range_kernel(1, 2, 2, seed=8), 16)
    propagator = Propagator(g, 2.5)
    full = propagator.rows()
    for rows in (slice(0, 4, 2), slice(None, None, -1)):
        with pytest.raises(ValueError, match="^rows must be a slice with unit step"):
            propagator.rows(rows)
    assert propagator.rows(slice(3, 1)).shape == (16, 0, 4)
    assert propagator.rows(slice(1, 3)).tobytes() == full[..., 1:3, :].tobytes()


def test_propagator_prepares_apply_on_its_first_apply(monkeypatch):
    # report-d3's grid (--nn d=3 n=2 m=1,2 --L 32): rows of one slab of
    # nodes, as mixing_integral reads them, allocate nothing of the size of
    # the complex factor rows that apply prepares, (2, 2, n, *grid); apply
    # builds them once for any number of calls
    grid = dispersion_grid(build_nn_kernel(3, 2, [1.0, 2.0]), 32)
    prepared_bytes = 2 * 2 * grid.n * grid.L**3 * 16
    calls = []
    factors = dynamics._rotation_factors

    def recording(omega, t, sinc=True, sin=True):
        calls.append(omega.shape)
        return factors(omega, t, sinc, sin)

    monkeypatch.setattr(dynamics, "_rotation_factors", recording)
    tracemalloc.start()
    try:
        propagator = Propagator(grid, 160.0)
        G = propagator.rows(slice(0, 1), nodes=slice(0, 4))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert G.shape == (4, 32, 32, 1, 4)
    assert peak < prepared_bytes / 4
    assert calls == [(4, 32, 32, 2)]
    Y = np.random.default_rng(3).standard_normal((1, 4) + (32,) * 3)
    first = propagator.apply(Y)
    assert calls[1:] == [grid.omega.shape]
    assert propagator.apply(Y).tobytes() == first.tobytes()
    assert len(calls) == 2


def test_evolve_matches_rk4(nn1, rng):
    Y = random_field(rng, 16, 1, 1)
    spectral = evolve_ensemble(Y, dispersion_grid(nn1, 16), 2.0)
    ode = reference_evolve_ode(Y, nn1, 2.0, dt=0.005)
    np.testing.assert_allclose(spectral, ode, atol=1e-7)


def test_evolve_matches_rk4_two_component(rng):
    k = random_finite_range_kernel(1, 2, 1, seed=2)
    Y = random_field(rng, 16, 1, 2)
    g = dispersion_grid(k, 16)
    dt = 0.05 / g.omega_max
    spectral = evolve_ensemble(Y, g, 1.5)
    ode = reference_evolve_ode(Y, k, 1.5, dt=dt)
    np.testing.assert_allclose(spectral, ode, atol=1e-6)


def test_evolve_identity_and_additivity(nn1, rng):
    Y = random_field(rng, 32, 1, 1)
    g = dispersion_grid(nn1, 32)
    np.testing.assert_allclose(evolve_ensemble(Y, g, 0.0), Y, atol=1e-14)
    one = evolve_ensemble(evolve_ensemble(Y, g, 2.0), g, 3.0)
    both = evolve_ensemble(Y, g, 5.0)
    np.testing.assert_allclose(one, both, atol=1e-10)


def test_evolve_backwards_inverts(nn1, rng):
    Y = random_field(rng, 32, 1, 1)
    g = dispersion_grid(nn1, 32)
    back = evolve_ensemble(evolve_ensemble(Y, g, 4.0), g, -4.0)
    np.testing.assert_allclose(back, Y, atol=1e-10)


def test_energy_conserved_along_orbit(rng):
    kernels = [
        build_nn_kernel(1, 1, 1.0),
        build_nn_kernel(1, 1, 0.0),
        random_finite_range_kernel(1, 2, 2, seed=6),
    ]
    for k in kernels:
        Y = random_field(rng, 32, 1, k.n)
        g = dispersion_grid(k, 32)
        H0 = hamiltonian(Y, k)
        assert H0.shape == (1,)
        for t in (1.0, 17.3, 100.0):
            Ht = hamiltonian(evolve_ensemble(Y, g, t), k)
            assert np.all(np.abs(Ht - H0) <= 1e-10 * (1.0 + np.abs(H0)))


def test_delta_energy_value(nn1):
    assert abs(hamiltonian(delta_field(32, 0), nn1)[0] - 1.5) < 1e-14


def test_finite_propagation_speed(grid256):
    # the tail bound is a stationary-phase estimate: the slack 0.5 t must cover
    # a few decay lengths, so look at a moderately late time
    L, t = 256, 14.0
    out = evolve_ensemble(delta_field(L, 0), grid256, t)[0]
    radius = (grid256.max_group_velocity() + 0.5) * t
    x = np.minimum(np.arange(L), L - np.arange(L))
    outside = x > radius
    total = float(np.sum(out**2))
    mass = float(np.sum(out[:, outside] ** 2))
    assert mass < 1e-6 * total


def test_green_function_columns_are_delta_responses(grid64):
    L, t = 64, 4.0
    G = green_function(grid64, t)
    assert G.shape == (L, 2, 2)
    out = evolve_ensemble(delta_field(L, 0), grid64, t)[0]
    np.testing.assert_allclose(G[:, :, 0], out.T, atol=1e-12)


def test_green_function_transforms_its_rows_in_place():
    # d=2 n=1 L=256: the rows take 4 MiB (complex) and the result 2 MiB
    # (real).  The division route's complex quotient lifted the traced peak
    # to 12.00 MiB; in place it is 8.50 MiB, with the division's bits.  A
    # first call forms the grid's cached gradients (max_group_velocity).
    grid = dispersion_grid(build_nn_kernel(2, 1, 1.0), 256)
    t = 20.0
    want = real_part_checked(np.fft.fftn(Propagator(grid, t).rows(), axes=(0, 1)) / 256.0**2,
                             IMAG_TOL, "green_function")
    assert green_function(grid, t).tobytes() == want.tobytes()
    tracemalloc.start()
    try:
        G = green_function(grid, t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20
    assert G.tobytes() == want.tobytes()


def test_green_function_against_rk4_massless():
    k = build_nn_kernel(1, 1, 0.0)
    L, t = 256, 10.0
    G = green_function(dispersion_grid(k, L), t)
    ode = reference_evolve_ode(delta_field(L, 1), k, t, dt=0.005)[0]
    np.testing.assert_allclose(G[:, :, 1], ode.T, atol=1e-5)


def test_green_function_wraparound_guard(nn1):
    with pytest.raises(ValueError, match="periodic boundary"):
        green_function(dispersion_grid(nn1, 32), 30.0)


def test_green_cutoff_removes_caustic_peak(nn1):
    # at late times the sup norm lives on the caustic; cutting the flat-
    # curvature neighbourhood must lower it
    L, t = 1024, 80.0
    grid = dispersion_grid(nn1, L)
    plain = np.abs(green_function(grid, t)).max()
    cut = np.abs(green_function(grid, t, green_cutoff(grid, 0.3))).max()
    assert cut < plain


def test_green_cutoff_zero_eps_is_plain(nn1, grid256):
    assert grid256.critical.any()
    assert green_cutoff(grid256, 0.0) is None
    cutoff = green_cutoff(grid256, 0.3)
    assert cutoff.shape == (256,) and cutoff.min() == 0.0 and cutoff.max() == 1.0
    assert green_function(grid256, 10.0, cutoff).shape == (256, 2, 2)
    with pytest.raises(ValueError, match="nonnegative"):
        green_cutoff(grid256, -0.5)
    with pytest.raises(ValueError, match="does not match grid"):
        green_function(dispersion_grid(nn1, 128), 5.0, cutoff)
    with pytest.raises(ValueError, match="does not match grid"):
        green_function(dispersion_grid(build_nn_kernel(2, 1, 1.0), 16), 1.0, np.ones(16))
    # a flat symbol is critical everywhere: no cutoff is left
    flat = dispersion_grid(InteractionKernel(1, 1, {(0,): np.eye(1)}), 64)
    with pytest.raises(ValueError, match="entire grid"):
        green_cutoff(flat, 0.3)


@lru_cache(maxsize=None)
def _kernel_and_grid(d, n):
    kernel = random_finite_range_kernel(d, n, 1, seed=10 * d + n)
    return kernel, dispersion_grid(kernel, 16)


@settings(max_examples=25, deadline=None)
@given(d=st.sampled_from([1, 2]), n=st.sampled_from([1, 2, 3]),
       count=st.integers(2, 6), seed=st.integers(0, 2**32 - 1),
       t=st.floats(-20.0, 20.0), data=st.data())
def test_evolve_ensemble_is_batch_independent(d, n, count, seed, t, data):
    kernel, grid = _kernel_and_grid(d, n)
    Y = np.random.default_rng(seed).standard_normal((count, 2 * n) + (grid.L,) * d)
    split = data.draw(st.integers(1, count - 1), label="split")
    whole = evolve_ensemble(Y, grid, t)
    chunks = [evolve_ensemble(Y[:split], grid, t),
              evolve_ensemble(Y[split:], grid, t)]
    np.testing.assert_array_equal(whole, np.concatenate(chunks))
    rows = [evolve_ensemble(Y[i:i + 1], grid, t) for i in range(count)]
    np.testing.assert_array_equal(whole, np.concatenate(rows))


def test_evolve_rejects_dimension_mismatch(nn1, grid64):
    with pytest.raises(ValueError, match=r"field \(L=64, d=1, n=2\) does not match grid"):
        evolve_ensemble(np.zeros((2, 4, 64)), grid64, 1.0)
    with pytest.raises(ValueError, match=r"field \(L=32, d=1, n=1\) does not match grid"):
        evolve_ensemble(np.zeros((2, 2, 32)), grid64, 1.0)
    with pytest.raises(ValueError, match=r"field \(L=64, d=2, n=1\) does not match grid"):
        evolve_ensemble(np.zeros((2, 2, 64, 64)), grid64, 1.0)
    with pytest.raises(ValueError, match="kernel dimensions"):
        reference_evolve_ode(np.zeros((1, 2, 16, 16)), nn1, 1.0, dt=0.01)
    with pytest.raises(ValueError, match="kernel dimensions"):
        hamiltonian(np.zeros((1, 2, 16, 16)), nn1)


@settings(max_examples=20, deadline=None)
@given(d=st.sampled_from([1, 2]), n=st.sampled_from([1, 2, 3]),
       count=st.integers(2, 5), seed=st.integers(0, 2**32 - 1),
       t=st.floats(-1.0, 1.0), data=st.data())
def test_reference_and_energy_on_ensembles(d, n, count, seed, t, data):
    kernel, grid = _kernel_and_grid(d, n)
    Y = np.random.default_rng(seed).standard_normal((count, 2 * n) + (grid.L,) * d)
    split = data.draw(st.integers(1, count - 1), label="split")
    dt = 0.02 / grid.omega_max
    ode = reference_evolve_ode(Y, kernel, t, dt)
    np.testing.assert_array_equal(ode, np.concatenate(
        [reference_evolve_ode(Y[:split], kernel, t, dt),
         reference_evolve_ode(Y[split:], kernel, t, dt)]))
    spectral = evolve_ensemble(Y, grid, t)
    np.testing.assert_allclose(ode, spectral, atol=1e-6)
    H0 = hamiltonian(Y, kernel)
    assert H0.shape == (count,)
    np.testing.assert_array_equal(H0, np.concatenate(
        [hamiltonian(Y[:split], kernel), hamiltonian(Y[split:], kernel)]))
    Ht = hamiltonian(spectral, kernel)
    assert np.all(np.abs(Ht - H0) <= 1e-10 * (1.0 + np.abs(H0)))


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("random", [False, True])
def test_propagator_apply_into_work_keeps_the_bits(d, n, random):
    # an identity eigenbasis (nearest-neighbour) and a general one; the work
    # arrays start as NaN, so a value read before it is written would show
    if random:
        grid = _kernel_and_grid(d, n)[1]
    else:
        grid = dispersion_grid(build_nn_kernel(d, n, 1.0), 16)
    # a scalar eigenbasis is the identity on every grid
    assert grid.identity_basis == (n == 1 or not random)
    rng = np.random.default_rng(10 * d + n)
    Y = rng.standard_normal((5, 2 * n) + (grid.L,) * d)
    Y[Y < -1.5] = 0.0
    Y[Y > 1.5] = -0.0
    Y[:, :, 0] = 5e-324
    propagator = Propagator(grid, 2.5)
    want = evolve_ensemble(Y, grid, 2.5)
    assert propagator.apply(Y).tobytes() == want.tobytes()
    work = np.full((2,) + Y.shape, np.nan, dtype=complex)
    for out in (np.full(Y.shape, np.nan), real_view(work[0])):
        got = propagator.apply(Y, out=out, work=work)
        assert got is out
        assert got.tobytes() == want.tobytes()
    # out may have any layout; work is reshaped, so a strided one is refused
    fortran = np.asfortranarray(np.full(Y.shape, np.nan))
    assert propagator.apply(Y, out=fortran, work=work).tobytes() == want.tobytes()
    strided = np.zeros((2,) + Y.shape[:-1] + (2 * Y.shape[-1],), dtype=complex)[..., ::2]
    for spaced in (strided, np.asfortranarray(work)):
        with pytest.raises(ValueError, match="^work must hold two C-contiguous arrays$"):
            propagator.apply(Y, work=spaced)
    bad = Y.copy()
    bad[0, 0, 0] = np.nan
    for kwargs in ({}, {"out": np.empty(Y.shape), "work": work}):
        with pytest.raises(ValueError, match="^field values must be finite$"):
            propagator.apply(bad, **kwargs)
