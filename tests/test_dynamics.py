"""Propagator, time evolution, Green's functions, energy."""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crystalstat import (
    FieldState,
    build_nn_kernel,
    dispersion_grid,
    evolve,
    evolve_ensemble,
    green_function,
    hamiltonian,
    random_finite_range_kernel,
    reference_evolve_ode,
    truncated_green,
)
from crystalstat.dynamics import _propagator_grid_matrix


def random_state(rng, L, d, n, t=0.0):
    shape = (L,) * d + (n,)
    return FieldState(rng.standard_normal(shape), rng.standard_normal(shape), t)


def test_propagator_blocks_oscillator_form(grid64):
    t = 3.7
    w = grid64.omega[:, 0]
    G = _propagator_grid_matrix(grid64, t)
    assert G.shape == (64, 2, 2)
    np.testing.assert_allclose(G[:, 0, 0], np.cos(w * t), atol=1e-13)
    np.testing.assert_allclose(G[:, 1, 1], np.cos(w * t), atol=1e-13)
    np.testing.assert_allclose(G[:, 0, 1], np.sin(w * t) / w, atol=1e-13)
    np.testing.assert_allclose(G[:, 1, 0], -w * np.sin(w * t), atol=1e-13)
    np.testing.assert_allclose(np.linalg.det(G), 1.0, atol=1e-12)


def test_propagator_zero_frequency_is_free_motion():
    g = dispersion_grid(build_nn_kernel(1, 1, 0.0), 16)
    assert g.omega[0, 0] == 0.0
    G = _propagator_grid_matrix(g, 2.5)
    np.testing.assert_allclose(G[0], [[1.0, 2.5], [0.0, 1.0]], atol=1e-13)
    np.testing.assert_allclose(np.linalg.det(G), 1.0, atol=1e-12)


def test_propagator_group_law():
    g = dispersion_grid(random_finite_range_kernel(1, 2, 2, seed=8), 16)
    a = _propagator_grid_matrix(g, 1.1)
    b = _propagator_grid_matrix(g, 2.6)
    ab = _propagator_grid_matrix(g, 3.7)
    np.testing.assert_allclose(a @ b, ab, atol=1e-12)
    np.testing.assert_allclose(b @ a, ab, atol=1e-12)


def test_evolve_matches_rk4(nn1, rng):
    st = random_state(rng, 16, 1, 1)
    spectral = evolve(st, nn1, 2.0)
    ode = reference_evolve_ode(st, nn1, 2.0, dt=0.005)
    np.testing.assert_allclose(spectral.u, ode.u, atol=1e-7)
    np.testing.assert_allclose(spectral.v, ode.v, atol=1e-7)
    assert spectral.t == 2.0


def test_evolve_matches_rk4_two_component(rng):
    k = random_finite_range_kernel(1, 2, 1, seed=2)
    st = random_state(rng, 16, 1, 2)
    g = dispersion_grid(k, 16)
    dt = 0.05 / g.omega_max
    spectral = evolve(st, k, 1.5)
    ode = reference_evolve_ode(st, k, 1.5, dt=dt)
    np.testing.assert_allclose(spectral.u, ode.u, atol=1e-6)
    np.testing.assert_allclose(spectral.v, ode.v, atol=1e-6)


def test_evolve_identity_and_additivity(nn1, rng):
    st = random_state(rng, 32, 1, 1, t=1.0)
    same = evolve(st, nn1, 0.0)
    np.testing.assert_allclose(same.u, st.u, atol=1e-14)
    assert same.t == 1.0
    one = evolve(evolve(st, nn1, 2.0), nn1, 3.0)
    both = evolve(st, nn1, 5.0)
    np.testing.assert_allclose(one.u, both.u, atol=1e-10)
    np.testing.assert_allclose(one.v, both.v, atol=1e-10)
    assert one.t == both.t == 6.0


def test_evolve_backwards_inverts(nn1, rng):
    st = random_state(rng, 32, 1, 1)
    back = evolve(evolve(st, nn1, 4.0), nn1, -4.0)
    np.testing.assert_allclose(back.u, st.u, atol=1e-10)
    np.testing.assert_allclose(back.v, st.v, atol=1e-10)


def test_energy_conserved_along_orbit(rng):
    kernels = [
        build_nn_kernel(1, 1, 1.0),
        build_nn_kernel(1, 1, 0.0),
        random_finite_range_kernel(1, 2, 2, seed=6),
    ]
    for k in kernels:
        st = random_state(rng, 32, 1, k.n)
        H0 = hamiltonian(st, k)
        for t in (1.0, 17.3, 100.0):
            Ht = hamiltonian(evolve(st, k, t), k)
            assert abs(Ht - H0) <= 1e-10 * (1.0 + abs(H0))


def test_delta_energy_value(nn1):
    st = FieldState(np.zeros((32, 1)), np.zeros((32, 1)))
    st.u[0, 0] = 1.0
    assert abs(hamiltonian(st, nn1) - 1.5) < 1e-14


def test_finite_propagation_speed(nn1):
    # the tail bound is a stationary-phase estimate: the slack 0.5 t must cover
    # a few decay lengths, so look at a moderately late time
    L, t = 256, 14.0
    st = FieldState(np.zeros((L, 1)), np.zeros((L, 1)))
    st.u[0, 0] = 1.0
    out = evolve(st, nn1, t)
    g = dispersion_grid(nn1, L)
    radius = (g.max_group_velocity() + 0.5) * t
    x = np.minimum(np.arange(L), L - np.arange(L))
    outside = x > radius
    total = float(np.sum(out.u**2 + out.v**2))
    mass = float(np.sum(out.u[outside] ** 2 + out.v[outside] ** 2))
    assert mass < 1e-6 * total


def test_green_function_columns_are_delta_responses(nn1):
    L, t = 64, 4.0
    G = green_function(nn1, t, L)
    assert G.shape == (L, 2, 2)
    st = FieldState(np.zeros((L, 1)), np.zeros((L, 1)))
    st.u[0, 0] = 1.0
    out = evolve(st, nn1, t)
    np.testing.assert_allclose(G[:, 0, 0], out.u[:, 0], atol=1e-12)
    np.testing.assert_allclose(G[:, 1, 0], out.v[:, 0], atol=1e-12)


def test_green_function_against_rk4_massless():
    k = build_nn_kernel(1, 1, 0.0)
    L, t = 256, 10.0
    G = green_function(k, t, L)
    st = FieldState(np.zeros((L, 1)), np.zeros((L, 1)))
    st.v[0, 0] = 1.0
    ode = reference_evolve_ode(st, k, t, dt=0.005)
    np.testing.assert_allclose(G[:, 0, 1], ode.u[:, 0], atol=1e-5)
    np.testing.assert_allclose(G[:, 1, 1], ode.v[:, 0], atol=1e-5)


def test_green_function_wraparound_guard(nn1):
    with pytest.raises(ValueError, match="periodic boundary"):
        green_function(nn1, 30.0, 32)


def test_truncated_green_removes_caustic_peak(nn1):
    # at late times the sup norm lives on the caustic; cutting the flat-
    # curvature neighbourhood must lower it
    L, t = 1024, 80.0
    plain = np.abs(green_function(nn1, t, L)).max()
    cut = np.abs(truncated_green(nn1, t, L, eps=0.3)).max()
    assert cut < plain


def test_truncated_green_zero_eps_is_plain(nn1):
    a = truncated_green(nn1, 5.0, 128, eps=0.0)
    b = green_function(nn1, 5.0, 128)
    np.testing.assert_allclose(a, b, atol=1e-12)
    assert truncated_green(nn1, 10.0, 256, eps=0.3).shape == (256, 2, 2)


def test_evolve_ensemble_matches_single(nn1, rng):
    states = [random_state(rng, 32, 1, 1, t=0.5) for _ in range(3)]
    batch = evolve_ensemble(np.stack([np.concatenate([s.u, s.v], axis=-1) for s in states]),
                            nn1, 6.0)
    assert batch.shape == (3, 32, 2)
    for state, out in zip(states, batch):
        single = evolve(state, nn1, 6.0)
        np.testing.assert_array_equal(out[..., :1], single.u)
        np.testing.assert_array_equal(out[..., 1:], single.v)
        assert single.t == 6.5


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
    Y = np.random.default_rng(seed).standard_normal((count,) + (grid.L,) * d + (2 * n,))
    split = data.draw(st.integers(1, count - 1), label="split")
    whole = evolve_ensemble(Y, kernel, t, grid=grid)
    chunks = [evolve_ensemble(Y[:split], kernel, t, grid=grid),
              evolve_ensemble(Y[split:], kernel, t, grid=grid)]
    np.testing.assert_array_equal(whole, np.concatenate(chunks))
    rows = [evolve_ensemble(Y[i:i + 1], kernel, t, grid=grid) for i in range(count)]
    np.testing.assert_array_equal(whole, np.concatenate(rows))


def test_evolve_rejects_dimension_mismatch(nn1):
    with pytest.raises(ValueError, match="kernel dimensions"):
        evolve_ensemble(np.zeros((2, 16, 4)), nn1, 1.0)
    with pytest.raises(ValueError, match="kernel dimensions"):
        evolve(FieldState(np.zeros((16, 16, 1)), np.zeros((16, 16, 1))), nn1, 1.0)


def test_state_shape_validation():
    with pytest.raises(ValueError):
        FieldState(np.zeros((8, 1)), np.zeros((4, 1)))
