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

fourier_coefficient and the nodewise kernels work on slabs of the first
grid axis from node_slabs; the slabwise sums, the reflected slabs and the
slabwise maxima must give the bits of the whole-array forms.

The FFTs and real_part_checked write into a caller's array when given one
(out=), and translated writes np.roll's values into one; each must give the
bits of the call that allocates.  real_inverse_fft replaced the inverse FFT
that divided the complex transform by L^d, followed by real_part_checked:
it must give that pair's bits, or raise its fault with the same message.
"""

from functools import lru_cache
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crystalstat import (
    Propagator,
    density_from_covariance,
    dispersion_grid,
    evolve_density,
    random_finite_range_kernel,
)
from crystalstat import _lattice
from crystalstat._lattice import (
    NumericalFault,
    check_ensemble,
    check_node_count,
    eigen_compose,
    forward_fft,
    fourier_coefficient,
    fourier_series,
    hermitian_part,
    largest_modulus,
    node_slabs,
    moved_axes,
    offset_cube,
    real_inverse_fft,
    real_part_checked,
    real_view,
    reflected,
    theta_axis,
    theta_step,
    translated,
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
    whole = fourier_series(terms, L, d, value_shape)
    np.testing.assert_array_equal(whole, inline_series(terms, L, d, value_shape))
    for start in range(L):  # a slab of rows has the whole grid's bits there
        rows = slice(start, start + 2)
        assert same_bits(fourier_series(terms, L, d, value_shape, rows), whole[rows])
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
       seed=st.integers(0, 2**32 - 1), t=st.floats(-50.0, 50.0),
       rows=st.sampled_from([1, 2, 16]))
def test_hermitian_part_callers_keep_the_bits_of_the_inline_expression(d, n, kernel_seed,
                                                                       seed, t, rows):
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

    # the whole-grid transport; evolve_density runs by slabs of rows rows
    G = Propagator(grid, t).rows()
    qt = np.einsum("...ij,...jk,...lk->...il", G, q0.matrix, G.conj())
    with mock.patch.object(_lattice, "SLAB_BYTES", rows * q0.matrix[0].nbytes):
        assert same_bits(evolve_density(q0, grid, t).matrix, inline_hermitian_part(qt))


@st.composite
def slab_sum_case(draw):
    """A complex grid function of value rank 0 to 3 on grids up to 32^1,
    16^2 or 10^3, with signed zeros, an offset, a skip mask and a slab of
    one to four rows of the first grid axis."""
    d = draw(st.integers(1, 3))
    L = draw(st.integers(1, (32, 16, 10)[d - 1]))
    value_shape = tuple(draw(st.lists(st.integers(1, 6), max_size=3)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (L,) * d + value_shape
    hat = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    hat[rng.random(shape) < 0.2] = complex(-0.0, -0.0)
    z = tuple(draw(st.integers(-2 * L - 1, 2 * L + 1)) for _ in range(d))
    skip = rng.random((L,) * d) < draw(st.sampled_from([0.0, 0.1, 1.0]))
    rows = draw(st.integers(1, 4))
    return d, L, hat, z, skip, rows


@settings(max_examples=200, deadline=None)
@given(case=slab_sum_case())
def test_slab_coefficient_keeps_the_bits_of_the_whole_product(case):
    # the whole-product sum over the grid axes, on a whole-matrix copy with
    # the skipped nodes zeroed, as covariance_from_density formed it
    d, L, hat, z, skip, rows = case
    values = (None,) * (hat.ndim - d)
    phase = inline_phase_grid(z, L, -1)[(...,) + values]
    with mock.patch.object(_lattice, "SLAB_BYTES", rows * hat[0].nbytes):
        whole = np.sum(phase * hat, axis=tuple(range(d))) / float(L) ** d
        assert np.shape(fourier_coefficient(hat, z)) == np.shape(whole)
        assert same_bits(np.asarray(fourier_coefficient(hat, z)), np.asarray(whole))
        zeroed = np.where(skip[(...,) + values], 0.0, hat)
        whole = np.sum(phase * zeroed, axis=tuple(range(d))) / float(L) ** d
        assert same_bits(np.asarray(fourier_coefficient(hat, z, skip)), np.asarray(whole))


@settings(max_examples=100, deadline=None)
@given(d=st.integers(1, 3), L=st.integers(1, 9), k=st.integers(1, 3),
       rows=st.integers(1, 9), seed=st.integers(0, 2**32 - 1), bad=st.booleans())
def test_slabs_reflect_and_bound_as_the_whole_array_does(d, L, k, rows, seed, bad):
    rng = np.random.default_rng(seed)
    shape = (L,) * d + (k, k)
    a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    if bad:  # a NaN past the first slab: Python's max would drop it
        a[(L - 1,) + (0,) * (d - 1) + (0, 0)] = np.nan
    skip = rng.random((L,) * d) < 0.3
    with mock.patch.object(_lattice, "SLAB_BYTES", rows * a[0].nbytes):
        slabs = list(node_slabs(a))
        # consecutive slabs of the chosen row count cover the first axis
        assert [(s.start, s.stop) for s in slabs] == [
            (i, min(i + rows, L)) for i in range(0, L, rows)]
        rev = a
        for axis in range(d):
            rev = np.flip(np.roll(rev, -1, axis=axis), axis=axis)
        for s in slabs:
            out = np.empty_like(a[s])
            np.testing.assert_array_equal(reflected(a, d, out, s.start), rev[s])
        whole = np.max(np.abs(a))
        np.testing.assert_array_equal(largest_modulus(a), whole)
        whole = np.max(np.abs(np.where(skip[..., None, None], 0.0, a)))
        np.testing.assert_array_equal(largest_modulus(a, skip), whole)


@pytest.mark.parametrize("L, d, fits", [
    (np.iinfo(np.intp).max, 1, True), (np.iinfo(np.intp).max + 1, 1, False),
    (2 ** 31, 2, True), (2 ** 32, 2, False), (2 ** 21 - 1, 3, True), (2 ** 21, 3, False),
])
def test_node_count_must_fit_an_array_index(L, d, fits):
    # arithmetic only: no array of L^d nodes is built
    if fits:
        check_node_count(L, d, "L")
    else:
        with pytest.raises(ValueError, match=rf"^L\^{d} must be at most "):
            check_node_count(L, d, "L")


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("L", [6, 8, 12])
def test_ffts_normalise_in_place_with_the_bits_of_the_product(d, L):
    # the FFTs scale their transform in place; the bits are those of the
    # expressions that formed a new product, over the grid axes of a
    # nodewise matrix and of an ensemble, on real and complex input
    rng = np.random.default_rng(10 * d + L)
    for shape, axes in (((L,) * d + (2, 2), tuple(range(d))),
                        ((3, 2) + (L,) * d, tuple(range(2, d + 2)))):
        real = rng.standard_normal(shape)
        for a in (real, real + 1j * rng.standard_normal(shape)):
            assert same_bits(forward_fft(a, axes), np.fft.ifftn(a, axes=axes) * float(L) ** d)
        # the transform of a real field, with an imaginary residue below tol
        hat = forward_fft(real, axes) + 1e-9j * rng.standard_normal(shape)
        assert same_bits(real_inverse_fft(hat.copy(), axes, 1e-6, "probe"),
                         divided_real_part(hat, axes, 1e-6, "probe"))


def divided_real_part(ahat, axes, tol, what):
    """The pair that real_inverse_fft replaced: the complex transform
    divided by L^d, then its real part checked."""
    L, d = ahat.shape[axes[0]], len(axes)
    return real_part_checked(np.fft.fftn(ahat, axes=axes) / float(L) ** d, tol, what)


def with_special_values(rng, shape):
    """Standard normal values with exact zeros of both signs and subnormals
    of both signs mixed in."""
    x = rng.standard_normal(shape).reshape(-1)
    k = x.size // 8
    x[:k] = 0.0
    x[k:2 * k] = -0.0
    x[2 * k:3 * k] = 5e-324 * rng.integers(1, 2**20, k)
    x[3 * k:4 * k] = -2.5e-310 * rng.random(k)
    rng.shuffle(x)
    return x.reshape(shape)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_fft_out_routes_keep_the_bits_of_the_allocating_route(d):
    # out given, out as the input, a real input cast into out, and a
    # transposed view of the input: each the bits of a call without out
    L = 6
    rng = np.random.default_rng(40 + d)
    for shape, axes in (((L,) * d + (2, 2), tuple(range(d))),
                        ((3, 2) + (L,) * d, tuple(range(2, d + 2)))):
        real = with_special_values(rng, shape)
        for a in (real, real + 1j * with_special_values(rng, shape)):
            want = forward_fft(a, axes)
            out = np.full(shape, np.nan, dtype=complex)
            assert forward_fft(a, axes, out=out) is out
            assert same_bits(out, want)
            inplace = a.astype(complex)
            assert forward_fft(inplace, axes, out=inplace) is inplace
            assert same_bits(inplace, want)
            # the inverse transforms its input in place and writes a real out;
            # the residue of these inputs is below 10
            want = real_inverse_fft(a.astype(complex), axes, 10.0, "probe")
            assert same_bits(want, divided_real_part(a, axes, 10.0, "probe"))
            out = np.full(shape, np.nan)
            assert real_inverse_fft(a.astype(complex), axes, 10.0, "probe", out=out) is out
            assert same_bits(out, want)
            spare = np.full(shape, np.nan, dtype=complex)
            assert same_bits(real_inverse_fft(a.astype(complex), axes, 10.0, "probe",
                                              out=real_view(spare)), want)
        W = with_special_values(rng, (3,) + (L,) * d + (2,))
        axes = tuple(range(2, d + 2))
        out = np.empty((3, 2) + (L,) * d, dtype=complex)
        assert same_bits(forward_fft(np.moveaxis(W, -1, 1), axes, out=out),
                         forward_fft(moved_axes(W, -1, 1), axes))


def test_real_part_checked_into_out_keeps_the_bits_and_the_errors():
    rng = np.random.default_rng(44)
    shape = (5, 2, 12)
    a = with_special_values(rng, shape) + 1e-9j * with_special_values(rng, shape)
    want = real_part_checked(a, 1e-6, "probe")
    assert same_bits(want, np.ascontiguousarray(a.real))
    out = np.full(shape, np.nan)
    assert real_part_checked(a, 1e-6, "probe", out=out) is out
    assert same_bits(out, want)
    # the spare half of a complex array holds the real part of another
    spare = np.full(shape, np.nan, dtype=complex)
    assert same_bits(real_part_checked(a, 1e-6, "probe", out=real_view(spare)), want)
    for c in (spare[..., ::2], np.asfortranarray(spare), spare.real):
        with pytest.raises(ValueError, match="C-contiguous complex"):
            real_view(c)
    for bad in (a + 1e-3j, a + np.nan * 1j, a + np.inf * 1j):
        with pytest.raises(NumericalFault) as allocated:
            real_part_checked(bad, 1e-6, "probe")
        with pytest.raises(NumericalFault) as written:
            real_part_checked(bad, 1e-6, "probe", out=np.empty(shape))
        assert str(written.value) == str(allocated.value)


@pytest.mark.parametrize("L", [3, 7, 16])
def test_real_inverse_fft_keeps_the_zero_signs_of_the_division(L):
    # the transforms of zeros of both signs hold real parts -0.0; where the
    # imaginary part is +0 or positive the division gives +0.0, which a
    # plain multiply by 1/L^d would not
    rng = np.random.default_rng(L)
    for _ in range(20):
        signs = rng.random((2, 2, L, L)) < 0.5
        a = np.where(signs[0], -0.0, 0.0) + 1j * np.where(signs[1], -0.0, 0.0)
        assert same_bits(real_inverse_fft(a.copy(), (1, 2), 1e-6, "probe"),
                         divided_real_part(a, (1, 2), 1e-6, "probe"))


# parts of the transform's entries that the inverse's arithmetic treats apart
_SPECIAL_PARTS = [0.0, -0.0, 5e-324, -5e-324, 2.5e-310, -2.5e-310, np.inf, -np.inf, np.nan]


@settings(max_examples=60, deadline=None)
@given(grid=st.sampled_from([(L, d) for L in (3, 7, 250, 256) for d in (1, 2, 3)
                             if L**d <= 2**16]),
       leading=st.booleans(), base=st.sampled_from(["real field", "complex", "signed zeros"]),
       seed=st.integers(0, 2**32 - 1), scale=st.integers(-16, 0), normals=st.integers(0, 3),
       tol=st.sampled_from([1e-8, 1e-6, 1.0, 10.0]),
       specials=st.lists(st.tuples(st.integers(0, 2**31), st.sampled_from(_SPECIAL_PARTS),
                                   st.sampled_from(_SPECIAL_PARTS)), max_size=3))
def test_real_inverse_fft_has_the_bits_and_faults_of_the_division(grid, leading, base, seed,
                                                                   scale, normals, tol,
                                                                   specials):
    # transforms of real fields (residue near roundoff), complex arrays whose
    # imaginary part is scaled by 10^scale (residue near tol) and arrays of
    # zeros of both signs with up to three normals, whose transforms hold
    # parts -0.0 (where a plain multiply by 1/L^d would keep the sign the
    # division clears), each with a few entries whose parts are zeros,
    # subnormals, infinities or NaN.  A tol of 10 lets every finite input
    # reach the bits.  A component axis leads or trails the grid axes.
    # L^3 at L = 250 and 256 is left out for its size (16M entries).
    L, d = grid
    shape, axes = ((2,) + (L,) * d, tuple(range(1, d + 1))) if leading else \
        ((L,) * d + (2,), tuple(range(d)))
    rng = np.random.default_rng(seed)
    if base == "real field":
        a = forward_fft(rng.standard_normal(shape), axes)
    elif base == "complex":
        a = rng.standard_normal(shape) + 10.0**scale * 1j * rng.standard_normal(shape)
    else:
        a = np.where(rng.random(shape) < 0.5, -0.0, 0.0) + 1j * np.where(
            rng.random(shape) < 0.5, -0.0, 0.0)
        a.reshape(-1)[rng.integers(0, a.size, normals)] = rng.standard_normal(normals)
    flat = a.reshape(-1)
    for index, re, im in specials:
        flat[index % a.size] = complex(re, im)
    with np.errstate(all="ignore"):
        try:
            want, fault = divided_real_part(a, axes, tol, "probe"), None
        except NumericalFault as error:
            fault = str(error)
        if fault is None:
            got = real_inverse_fft(a.copy(), axes, tol, "probe")
            assert same_bits(got, want)
            assert np.all(np.isfinite(got))
        else:
            with pytest.raises(NumericalFault) as raised:
                real_inverse_fft(a.copy(), axes, tol, "probe")
            assert str(raised.value) == fault


@pytest.mark.parametrize("part", [np.inf, -np.inf])
def test_real_inverse_fft_refuses_an_infinity_of_either_sign(part):
    # A length-2 transform of (part, 0) is part at both points, with a zero
    # imaginary part and no NaN, beside a finite component: the result's
    # maximum or its minimum alone would pass one of the two signs.
    a = np.array([[1.0 + 0j, 2.0 + 0j], [complex(part, 0.0), 0j]])
    with np.errstate(all="ignore"):
        with pytest.raises(NumericalFault) as want:
            divided_real_part(a, (1,), 1e-6, "probe")
        with pytest.raises(NumericalFault) as got:
            real_inverse_fft(a.copy(), (1,), 1e-6, "probe")
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", ["first", "middle", "last"])
def test_check_ensemble_refuses_a_value_that_is_not_finite(value, where):
    # the check reads the array's maximum and minimum: a NaN propagates
    # through both, and an infinity of either sign sets one of them
    Y = np.random.default_rng(19).standard_normal((3, 2, 8, 8))
    check_ensemble(Y)
    Y.reshape(-1)[{"first": 0, "middle": Y.size // 2, "last": -1}[where]] = value
    with pytest.raises(ValueError, match="^field values must be finite$"):
        check_ensemble(Y)


@settings(max_examples=30, deadline=None)
@given(d=st.integers(1, 3), L=st.integers(1, 7), data=st.data())
def test_translated_is_the_roll_by_minus_the_offset(d, L, data):
    z = tuple(data.draw(st.lists(st.integers(-3 * L, 3 * L), min_size=d, max_size=d),
                        label="z"))
    a = np.random.default_rng(L).standard_normal((2,) + (L,) * d + (3,))
    axes = tuple(range(1, d + 1))
    out = np.full(a.shape, np.nan)
    assert translated(a, z, axes, out=out) is out
    assert same_bits(out, np.roll(a, tuple(-c for c in z), axis=axes))
