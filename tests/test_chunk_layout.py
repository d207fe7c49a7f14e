"""The component-major chunk path against the sample-major forms it replaced.

gaussian_ensemble, evolve_ensemble and stream_ensemble colour, transform and
rotate on chunks laid out as (S, 2n, *grid).  The oracles below are the
sample-major bodies that ran on (S, *grid, 2n) before, einsum subscripts
included: the colouring einsum and the four einsums of the nodewise
rotation.  Both routes must give the same bits.
"""

from functools import lru_cache
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import crystalstat.dynamics as dynamics
import crystalstat.fields as fields
import crystalstat.stats as stats
from crystalstat import (
    density_from_covariance,
    dispersion_grid,
    evolve_ensemble,
    gaussian_ensemble,
    nonlinear_transform_sample,
    random_finite_range_kernel,
    stream_ensemble,
)
from crystalstat._lattice import forward_fft, inverse_fft, real_part_checked

# The smallest lattice a dispersion grid accepts.
SIDE = 16


def oracle_ensemble(density, count, seed, start_index=0):
    """Sample-major sampler: white noise coloured by "...ij,s...j->s...i"."""
    L, d, n = density.L, density.d, density.n
    W = fields._white_noise_draws(L, d, n, seed, range(start_index, start_index + count))
    axes = tuple(range(1, d + 1))
    yhat = np.einsum("...ij,s...j->s...i", density.hermitian_sqrt(), forward_fft(W, axes))
    return real_part_checked(inverse_fft(yhat, axes), 1e-6, "oracle_ensemble")


def oracle_transform(Y, a0, a1):
    """Sample-major transform: the amplitude broadcast along the last axis."""
    amplitude = np.repeat([float(a0), float(a1)], Y.shape[-1] // 2)
    return amplitude * np.tanh(Y / amplitude)


def oracle_rotation(grid, t, yhat):
    """Sample-major rotation of a Fourier ensemble (S, *grid, 2n) by Ghat(t)."""
    n = grid.n
    B = grid.basis
    Bh = np.conj(np.swapaxes(B, -1, -2))
    c, s, ns = dynamics._rotation_factors(grid.omega, t)
    a = np.einsum("...kj,...j->...k", Bh, yhat[..., :n])
    b = np.einsum("...kj,...j->...k", Bh, yhat[..., n:])
    out = np.empty_like(yhat)
    out[..., :n] = np.einsum("...jk,...k->...j", B, c * a + s * b)
    out[..., n:] = np.einsum("...jk,...k->...j", B, ns * a + c * b)
    return out


def oracle_evolve(Y, grid, t):
    axes = tuple(range(1, grid.d + 1))
    yhat = oracle_rotation(grid, float(t), forward_fft(Y, axes))
    return real_part_checked(inverse_fft(yhat, axes), 1e-6, "oracle_evolve")


@lru_cache(maxsize=None)
def _grid(d, n):
    return dispersion_grid(random_finite_range_kernel(d, n, 1, seed=7 * d + n), SIDE)


def _random_density(d, n, seed):
    """Density of random real covariances at a few offsets; its nodewise
    square roots are complex."""
    rng = np.random.default_rng(seed)
    cov = {(0,) * d: rng.standard_normal((2 * n, 2 * n))}
    for _ in range(3):
        z = tuple(int(c) for c in rng.integers(-2, 3, d))
        if z not in cov and tuple(-c for c in z) not in cov:
            cov[z] = rng.standard_normal((2 * n, 2 * n))
    return density_from_covariance(cov, SIDE)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("d", [1, 2, 3])
@settings(max_examples=5, deadline=None)
@given(density_seed=st.integers(0, 2**32 - 1), seed=st.integers(0, 2**32 - 1),
       count=st.integers(8, 12), t=st.floats(-20.0, 20.0),
       transform=st.sampled_from([None, (0.7, 1.3), (2.0, 0.4)]))
def test_chunk_path_matches_the_sample_major_oracle(d, n, density_seed, seed, count, t,
                                                     transform):
    grid = _grid(d, n)
    density = _random_density(d, n, density_seed)
    assert np.any(density.hermitian_sqrt().imag != 0)

    Y0 = oracle_ensemble(density, count, seed)
    np.testing.assert_array_equal(gaussian_ensemble(density, count, seed), Y0)
    if transform is not None:
        Y0 = oracle_transform(Y0, *transform)
        np.testing.assert_array_equal(
            nonlinear_transform_sample(gaussian_ensemble(density, count, seed), *transform),
            Y0)
    Yt = oracle_evolve(Y0, grid, t)
    np.testing.assert_array_equal(evolve_ensemble(Y0, grid, t), Yt)

    # a few samples suffice to compare bits; the sample-count gate has its own tests
    sample_bytes = 16 * grid.L**d * 2 * n
    for size in (1, 7, count):
        with mock.patch.object(stats, "CHUNK_BYTES", size * sample_bytes), \
                mock.patch.dict(stats.MIN_SAMPLES, {"covariance error bars": 1}):
            got0, gott = stream_ensemble(density, count, seed, grid, t,
                                         lambda A, B: (A, B), "covariance error bars",
                                         transform=transform)
        np.testing.assert_array_equal(got0, Y0)
        np.testing.assert_array_equal(gott, Yt)
