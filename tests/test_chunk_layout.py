"""The component-major ensemble layout against the sample-major forms it replaced.

Ensembles are laid out as (S, 2n, *grid).  The oracles below are the
sample-major bodies that ran on (S, *grid, 2n) before, einsum subscripts
included: the colouring einsum, the amplitude broadcast of the transform, the
four einsums of the nodewise rotation, the per-offset products of
offset_products and the site sums of linear_functional_samples.  Both
routes must give the same bits.  The oracles normalise the inverse
transform by the complex division by L^d that the package replaced, so
they share none of its inverse's arithmetic.

Densities with complex roots take the full colouring einsum; white and
triangular densities, whose roots are diagonal, the elementwise one.
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
    TestField,
    density_from_covariance,
    dispersion_grid,
    evolve_ensemble,
    gaussian_ensemble,
    linear_functional_samples,
    nonlinear_transform_sample,
    offset_products,
    random_finite_range_kernel,
    stream_ensemble,
    triangular_density,
    white_noise_density,
)
from crystalstat._lattice import forward_fft, moved_axes, real_part_checked

# The smallest lattice a dispersion grid accepts.
SIDE = 16


def sample_major(Z):
    """(S, 2n, *grid) -> (S, *grid, 2n)."""
    return moved_axes(Z, 1, -1)


def component_major(Y):
    """(S, *grid, 2n) -> (S, 2n, *grid)."""
    return moved_axes(Y, -1, 1)


def oracle_ensemble(density, count, seed, start_index=0):
    """Sample-major sampler: white noise coloured by "...ij,s...j->s...i"."""
    L, d, n = density.L, density.d, density.n
    W = fields._white_noise_draws(L, d, n, seed, range(start_index, start_index + count))
    axes = tuple(range(1, d + 1))
    yhat = np.einsum("...ij,s...j->s...i", density.hermitian_sqrt(), forward_fft(W, axes))
    return real_part_checked(np.fft.fftn(yhat, axes=axes) / float(L) ** d, 1e-6,
                             "oracle_ensemble")


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
    return real_part_checked(np.fft.fftn(yhat, axes=axes) / float(grid.L) ** grid.d, 1e-6,
                             "oracle_evolve")


def oracle_covariance_products(Y, offsets):
    """Sample-major per-offset products of an ensemble (S, *grid, 2n)."""
    S, L, two_n = Y.shape[0], Y.shape[1], Y.shape[-1]
    d = Y.ndim - 2
    axes = tuple(range(1, 1 + d))
    norm = float(L) ** d
    flat = Y.reshape(S, -1, two_n)
    products = np.empty((S, len(offsets), two_n, two_n))
    for k, z in enumerate(offsets):
        shifted = np.roll(Y, shift=tuple(-c for c in z), axis=axes)
        shifted = shifted.reshape(S, -1, two_n)
        products[:, k] = np.matmul(shifted.transpose(0, 2, 1), flat) / norm
    return products


def oracle_linear_functional_samples(Y, psi):
    """Sample-major <Y_s, Psi> of an ensemble (S, *grid, 2n)."""
    L = Y.shape[1]
    out = np.zeros(Y.shape[0])
    for x, val in zip(psi.sites, psi.values):
        idx = (slice(None),) + tuple(int(c) % L for c in x)
        out += np.sum(Y[idx] * val, axis=-1)
    return out


@lru_cache(maxsize=None)
def _grid(d, n):
    return dispersion_grid(random_finite_range_kernel(d, n, 1, seed=7 * d + n), SIDE)


def _random_density(d, n, seed):
    """Density of random real covariances at a few offsets; its nodewise
    square roots are complex.  The covariance at offset 0, the density's
    mean over theta, is positive semidefinite, so the density is not
    negative definite at every node, where its root would be zero."""
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((2 * n, 2 * n))
    cov = {(0,) * d: A @ A.T}
    for _ in range(3):
        z = tuple(int(c) for c in rng.integers(-2, 3, d))
        if z not in cov and tuple(-c for c in z) not in cov:
            cov[z] = rng.standard_normal((2 * n, 2 * n))
    if len(cov) == 1:
        # every drawn offset was 0: a real symmetric density, whose roots are real
        cov[(1,) + (0,) * (d - 1)] = rng.standard_normal((2 * n, 2 * n))
    return density_from_covariance(cov, SIDE)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("d", [1, 2, 3])
@settings(max_examples=5, deadline=None)
@given(density_seed=st.integers(0, 2**32 - 1), seed=st.integers(0, 2**32 - 1),
       count=st.integers(8, 12), t=st.floats(-20.0, 20.0),
       transform=st.sampled_from([None, (0.7, 1.3), (2.0, 0.4)]))
def test_chunk_path_matches_the_sample_major_oracle(d, n, density_seed, seed, count, t,
                                                     transform):
    density = _random_density(d, n, density_seed)
    assert np.any(density.hermitian_sqrt().imag != 0)
    assert fields._colouring_root(density).ndim == d + 2
    assert_chunk_path_matches_the_oracle(_grid(d, n), density, count, seed, t, transform)


@pytest.mark.parametrize("transform", [None, (0.7, 1.3)])
@pytest.mark.parametrize("d,n,measure", [(d, n, "white") for d in (1, 2, 3) for n in (1, 2, 3)]
                         + [(d, 1, nu0) for d in (1, 2, 3) for nu0 in (2, 3)])
@settings(max_examples=3, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), count=st.integers(8, 12), t=st.floats(-20.0, 20.0))
def test_chunk_path_matches_the_sample_major_oracle_on_diagonal_roots(d, n, measure, transform,
                                                                      seed, count, t):
    # white noise with T0 = 0 (a zero u block) and triangular densities
    if measure == "white":
        density = white_noise_density(0.0, 1.3, n, d, SIDE)
    else:
        density = triangular_density(measure, d, 0.8, 1.3, SIDE)
    assert fields._colouring_root(density).shape == (2 * n,) + (SIDE,) * d
    assert_chunk_path_matches_the_oracle(_grid(d, n), density, count, seed, t, transform)


def assert_chunk_path_matches_the_oracle(grid, density, count, seed, t, transform):
    """The public sampler, transform and evolution, and the stream at three
    chunk sizes, each with the oracles' bits, signs of zeros included."""
    d, n = grid.d, grid.n
    Y0 = oracle_ensemble(density, count, seed)
    assert_same_bits(sample_major(gaussian_ensemble(density, count, seed)), Y0)
    if transform is not None:
        Y0 = oracle_transform(Y0, *transform)
        assert_same_bits(
            sample_major(nonlinear_transform_sample(gaussian_ensemble(density, count, seed),
                                                    *transform)),
            Y0)
    Yt = oracle_evolve(Y0, grid, t)
    assert_same_bits(sample_major(evolve_ensemble(component_major(Y0), grid, t)),
                                  Yt)

    # a few samples suffice to compare bits; the sample-count gate has its own tests
    sample_bytes = 16 * grid.L**d * 2 * n
    for size in (1, 7, count):
        with mock.patch.object(stats, "CHUNK_BYTES", size * sample_bytes), \
                mock.patch.dict(stats.MIN_SAMPLES, {"covariance error bars": 1}):
            got0, gott = stream_ensemble(density, count, seed, grid, t,
                                         lambda A, B: (A, B), "covariance error bars",
                                         transform=transform)
        assert_same_bits(sample_major(got0), Y0)
        assert_same_bits(sample_major(gott), Yt)


def assert_same_bits(got, want):
    assert got.shape == want.shape
    assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes()


@pytest.mark.parametrize("S", [1, 7, 64])
@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_estimators_match_the_sample_major_oracle(d, n, S):
    L = 6
    rng = np.random.default_rng(100 * d + 10 * n + S)
    Z = rng.standard_normal((S, 2 * n) + (L,) * d)
    Y = sample_major(Z)
    offsets = [(0,) * d, (1,) + (0,) * (d - 1), (-1,) * d, (2,) + (-2,) * (d - 1),
               (L - 1,) * d]
    np.testing.assert_array_equal(offset_products(offsets)(Z),
                                  oracle_covariance_products(Y, offsets))
    psi = TestField(sites=[(0,) * d, (2,) + (-1,) * (d - 1), (-2,) * d],
                    values=rng.standard_normal((3, 2 * n)))
    np.testing.assert_array_equal(linear_functional_samples(Z, psi),
                                  oracle_linear_functional_samples(Y, psi))


def test_stream_ensemble_runs_the_public_steps_once_per_chunk():
    # gaussian_ensemble is its draw step and its colouring body; the stream
    # runs the same two, the draw a chunk ahead on its worker thread, and
    # evolves each chunk by the apply step of one prepared Propagator
    for module, name in ((fields, "_gaussian_chunk"), (fields, "_transform_chunk"),
                         (dynamics, "_evolve_chunk")):
        assert not hasattr(module, name)
    d, n, count, size = 1, 1, 10, 3
    grid = _grid(d, n)
    density = _random_density(d, n, 5)
    sample_bytes = 16 * grid.L**d * 2 * n
    steps = {fields: ("_white_noise_draws", "_coloured_noise"),
             stats: ("nonlinear_transform_sample",),
             dynamics.Propagator: ("apply",)}
    for transform, transformed in ((None, 0), ((0.7, 1.3), 4)):
        calls = {name: 0 for names in steps.values() for name in names}

        def counted(owner, name):
            original = getattr(owner, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            return wrapper

        with mock.patch.object(stats, "CHUNK_BYTES", size * sample_bytes), \
                mock.patch.dict(stats.MIN_SAMPLES, {"covariance error bars": 1}), \
                mock.patch.multiple(fields, **{name: counted(fields, name)
                                               for name in steps[fields]}), \
                mock.patch.multiple(stats, **{name: counted(stats, name)
                                              for name in steps[stats]}), \
                mock.patch.object(dynamics.Propagator, "apply",
                                  counted(dynamics.Propagator, "apply")):
            stream_ensemble(density, count, 0, grid, 1.0, lambda A, B: (A,),
                            "covariance error bars", transform=transform)
        assert calls == {"_white_noise_draws": 4, "_coloured_noise": 4,
                         "nonlinear_transform_sample": transformed, "apply": 4}
