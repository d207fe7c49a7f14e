"""The lattice Fourier helpers against the loops they replaced.

InteractionKernel.symbol_grid and density_from_covariance summed
phase(z)[..., None, None] * matrix over their offsets, TestField.fourier
summed phase(x)[..., None] * value over its sites, and
covariance_from_density took np.sum(phase(-z)[..., None, None] * matrix)
over the grid axes divided by L^d, each with its own copy of the phase grid
below.  fourier_series and fourier_coefficient must give the same bits, and
offset_cube the same offsets as the two cube forms it replaced.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crystalstat._lattice import (
    fourier_coefficient,
    fourier_series,
    offset_cube,
    theta_axis,
    theta_step,
)


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
