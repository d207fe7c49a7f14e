"""The lattice Fourier helpers against the loops they replaced.

InteractionKernel.symbol_grid and density_from_covariance summed
phase(z)[..., None, None] * matrix over their offsets, TestField.fourier
summed phase(x)[..., None] * value over its sites, and
covariance_from_density took np.sum(phase(-z)[..., None, None] * matrix)
over the grid axes divided by L^d, each with its own copy of the phase grid
below.  fourier_series and fourier_coefficient must give the same bits, and
offset_cube the same offsets as the two cube forms it replaced.

evolve_density, limit_density, density_from_covariance and
InteractionKernel.symbol_grid each wrote the nodewise Hermitian part as the
whole-array expression in inline_hermitian_part; hermitian_part, which they
call now, and each of them must give the same bits.
"""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crystalstat import (
    density_from_covariance,
    dispersion_grid,
    evolve_density,
    random_finite_range_kernel,
)
from crystalstat._lattice import (
    eigen_compose,
    fourier_coefficient,
    fourier_series,
    hermitian_part,
    offset_cube,
    theta_axis,
    theta_step,
)
from crystalstat.dynamics import _propagator_grid_matrix


def inline_phase_grid(z, L, sign):
    z = np.asarray(z, dtype=int)
    d = z.size
    out = np.ones((L,) * d, dtype=complex)
    th = 2.0 * np.pi * np.arange(L) / L
    for axis in range(d):
        factor = np.exp(sign * 1j * z[axis] * th)
        shape = [1] * d
        shape[axis] = L
        out = out * factor.reshape(shape)
    return out


def inline_series(terms, L, d, value_shape):
    out = np.zeros((L,) * d + value_shape, dtype=complex)
    for z, c in terms:
        phase = inline_phase_grid(z, L, +1)
        out += (phase[..., None] if len(value_shape) == 1 else phase[..., None, None]) * c
    return out


def inline_coefficient(matrix, z, L, d):
    phase = inline_phase_grid(z, L, -1)
    return np.sum(phase[..., None, None] * matrix, axis=tuple(range(d))) / float(L) ** d


@st.composite
def fourier_case(draw):
    """d, L, a value shape, and terms whose offsets repeat and reach past L/2."""
    d = draw(st.integers(1, 3))
    L = draw(st.integers(1, (12, 8, 5)[d - 1]))
    n = draw(st.integers(1, 3))
    value_shape = draw(st.sampled_from([(2 * n,), (n, n), (2 * n, 2 * n)]))
    pool = draw(st.lists(st.tuples(*[st.integers(-2 * L - 1, 2 * L + 1)] * d),
                         min_size=1, max_size=4))
    offsets = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=7))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # the rows of an integer array, as TestField passes its sites, or tuples
    if draw(st.booleans()):
        offsets = list(np.asarray(offsets, dtype=int))
    terms = [(z, rng.standard_normal(value_shape)) for z in offsets]
    hat = (rng.standard_normal((L,) * d + value_shape)
           + 1j * rng.standard_normal((L,) * d + value_shape))
    return d, L, value_shape, terms, hat


@settings(max_examples=150, deadline=None)
@given(case=fourier_case())
def test_fourier_helpers_keep_the_bits_of_the_inline_loops(case):
    d, L, value_shape, terms, hat = case
    np.testing.assert_array_equal(fourier_series(terms, L, d, value_shape),
                                  inline_series(terms, L, d, value_shape))
    if len(value_shape) == 2:
        for z, _ in terms:
            z = tuple(int(c) for c in z)
            np.testing.assert_array_equal(fourier_coefficient(hat, z),
                                          inline_coefficient(hat, z, L, d))


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("r", [0, 1, 2, 3])
def test_offset_cube_matches_both_cube_forms(r, d):
    cube = offset_cube(r, d)
    meshgrid_sorted = sorted(map(tuple, np.array(
        np.meshgrid(*([np.arange(-r, r + 1)] * d), indexing="ij")).reshape(d, -1).T))
    ndindex_shifted = [tuple(int(c) - r for c in z) for z in np.ndindex(*((2 * r + 1,) * d))]
    assert cube == meshgrid_sorted == ndindex_shifted
    assert all(type(c) is int for z in cube for c in z)


@pytest.mark.parametrize("L", [1, 3, 16, 32, 128, 1024])
def test_theta_helpers_keep_the_inline_bits(L):
    k = np.arange(L)
    np.testing.assert_array_equal(theta_axis(L), 2.0 * np.pi * np.asarray(k) / L)
    assert theta_step(L) == 2.0 * np.pi / L


def inline_hermitian_part(a):
    return 0.5 * (a + np.conj(np.swapaxes(a, -1, -2)))


def same_bits(a, b):
    """a is C-contiguous and holds b's values bit for bit, signs of zeros
    included.  b's memory layout is numpy's choice for the whole-array
    expression, which varies with the shape (C order, or the last two axes
    swapped on some grids of three or more axes)."""
    return (a.flags.c_contiguous and a.dtype == b.dtype and a.shape == b.shape
            and a.tobytes() == np.ascontiguousarray(b).tobytes())


@settings(max_examples=100, deadline=None)
@given(d=st.integers(1, 3), L=st.integers(1, 6), k=st.integers(1, 6),
       seed=st.integers(0, 2**32 - 1), zeros=st.booleans())
def test_hermitian_part_keeps_the_bits_of_the_inline_expression(d, L, k, seed, zeros):
    rng = np.random.default_rng(seed)
    shape = (L,) * d + (k, k)
    a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    if zeros:  # signed zeros, whose signs the sum and the product must keep
        a[rng.random(shape) < 0.5] = complex(-0.0, -0.0)
    assert same_bits(hermitian_part(a), inline_hermitian_part(a))


@lru_cache(maxsize=None)
def random_grid(d, n, kernel_seed):
    return dispersion_grid(random_finite_range_kernel(d, n, 1, seed=kernel_seed), 16)


@settings(max_examples=30, deadline=None)
@given(d=st.integers(1, 3), n=st.integers(1, 2), kernel_seed=st.integers(0, 3),
       seed=st.integers(0, 2**32 - 1), t=st.floats(-50.0, 50.0))
def test_hermitian_part_callers_keep_the_bits_of_the_inline_expression(d, n, kernel_seed,
                                                                       seed, t):
    grid = random_grid(d, n, kernel_seed)
    kernel, L = grid.kernel, grid.L
    acc = fourier_series(kernel.entries.items(), L, d, (n, n))
    assert same_bits(kernel.symbol_grid(L), inline_hermitian_part(acc))

    # offsets in mirror pairs with q(-z) = q(z)^T and a symmetric q(0), so
    # that the mirror completion keeps the table, in its order, as it is
    rng = np.random.default_rng(seed)
    q = rng.standard_normal((2 * n, 2 * n))
    cov = {(0,) * d: q + q.T}
    for z in ((1,) + (0,) * (d - 1), (0,) * (d - 1) + (2,)):
        q = rng.standard_normal((2 * n, 2 * n))
        cov[z], cov[tuple(-c for c in z)] = q, q.T
    w, U = np.linalg.eigh(inline_hermitian_part(fourier_series(cov.items(), L, d,
                                                               (2 * n, 2 * n))))
    q0 = density_from_covariance(cov, L)
    assert same_bits(q0.matrix, eigen_compose(U, np.clip(w, 0.0, None)))

    G = _propagator_grid_matrix(grid, t)
    qt = np.einsum("...ij,...jk,...lk->...il", G, q0.matrix, G.conj())
    assert same_bits(evolve_density(q0, grid, t).matrix, inline_hermitian_part(qt))
