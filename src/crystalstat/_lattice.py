"""Shared conventions for fields on the periodic lattice (Z/L)^d.

Fourier convention used throughout the package:

    ahat(theta_k) = sum_x a(x) exp(+i x . theta_k),   theta_k = 2 pi k / L,
    a(x) = L^-d sum_k ahat(theta_k) exp(-i x . theta_k).

With this convention a lattice convolution (K * a)(x) = sum_y K(x - y) a(y)
becomes nodewise multiplication by the symbol Khat(theta) = sum_z K(z) e^{i z.theta}.
This module is the only one that builds phase sums, grid angles and offset
cubes; the others call :func:`fourier_series`, :func:`fourier_coefficient`,
the FFTs, :func:`theta_axis`, :func:`theta_step` and :func:`offset_cube`.
Nodewise matrices (densities, symbols, eigenbases) carry the d grid axes
first and their component axes last.  An ensemble of fields is one array
(S, 2n, *grid), component-major: a leading sample axis, then the u
components followed by the v components, each one contiguous grid block, so
that the FFTs run over the trailing axes 2..d+1.  The nodewise matrices that
act on an ensemble are moved to (2n, 2n, *grid) or (n, n, *grid)
C-contiguous copies by :func:`moved_axes`.  A nodewise matrix whose grid axes
are broadcast holds one node, which :func:`one_node` returns, so that work
independent of the node is done once: a white-noise density, and the
eigenbasis of a dispersion grid whose nodes all have the same basis bits
(every nearest-neighbour kernel).  An einsum reads such a matrix through a
C-contiguous copy (:func:`moved_axes`, ``DispersionGrid.compose``), since
its summation order can depend on the strides of its operands.  An
eigenbasis whose one node is the identity (``DispersionGrid.identity_basis``)
is not multiplied by the einsum readers, since einsum sums from +0 and the
product is x + 0.0; ``limit_density`` skips its BLAS products by it on a
one-node density only.  :func:`forward_fft` normalises in place and writes
its transform into a caller's complex buffer when one is given (``out=``).
The inverse, :func:`real_inverse_fft`, transforms its complex input in place
and writes into a caller's real buffer only the bits that dividing by L^d
and then dropping the checked imaginary residue would keep; every field,
propagated ensemble and Green's function is real.  :func:`real_part_checked`
writes into a caller's real buffer likewise; on a fault, real_inverse_fft
hands it the buffer that it was given.
:func:`hermitian_part` is the one
place that forms the nodewise Hermitian part 0.5 (a + a^H).  The nodewise
kernels that would otherwise hold whole-grid temporaries work through
:func:`node_slabs`, slabs of the first grid axis of at most SLAB_BYTES each.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

import numpy as np

#: bytes of one slab of a nodewise array in :func:`node_slabs`: the kernels
#: that work slab by slab hold a few temporaries of about this size, not of
#: the whole grid
SLAB_BYTES = 1 << 20


class NumericalFault(ValueError):
    """A computation produced a result its guards reject: an imaginary residue
    above tolerance, an indefinite density or two routes to one number that
    disagree.  The input may be well formed; the numbers it leads to are not
    usable."""


class LowestEigenvalue(NamedTuple):
    """The smallest of eigenvalues that should be nonnegative: its grid node
    (plain ints), its value, the set's roundoff tolerance 1e-10 (1 + max |w|),
    and whether the value is negative beyond that tolerance."""

    node: tuple
    value: float
    tolerance: float
    negative: bool


def lowest_eigenvalue(w: np.ndarray) -> LowestEigenvalue:
    """The lowest of the eigenvalues w, shape (*grid, k): the one rule for when
    an eigenvalue is negative beyond roundoff."""
    node = tuple(int(i) for i in np.unravel_index(int(np.argmin(w.min(axis=-1))), w.shape[:-1]))
    value, tolerance = float(w.min()), 1e-10 * (1.0 + float(np.max(np.abs(w))))
    return LowestEigenvalue(node, value, tolerance, value < -tolerance)


def theta_axis(L: int) -> np.ndarray:
    """Grid angles 2 pi k / L for one axis."""
    return 2.0 * np.pi * np.arange(L) / L


def theta_step(L: int) -> float:
    """Spacing 2 pi / L of the grid angles."""
    return 2.0 * np.pi / L


def offset_cube(r: int, d: int) -> list:
    """Every offset in Z^d whose coordinates all lie in -r..r, as tuples of
    ints in lexicographic order."""
    return list(itertools.product(range(-r, r + 1), repeat=d))


def forward_fft(a: np.ndarray, axes: tuple, out: np.ndarray | None = None) -> np.ndarray:
    """Lattice Fourier transform over the grid axes (e^{+i x.theta} convention),
    written into out, a complex array of a's shape which may be a itself, or
    into a new array when out is None: the bits of the allocating transform
    either way.  A real a is cast into out first and transformed there in
    place, since numpy would cast it into a complex temporary of out's size.

    The L^d normalisation is applied in place: the same ufunc on the same
    operands as a new product, so the same bits, with one complex temporary
    of the transform's size fewer."""
    scale = float(a.shape[axes[0]]) ** len(axes)
    if out is not None and not np.iscomplexobj(a):
        np.copyto(out, a)
        a = out
    h = np.fft.ifftn(a, axes=axes, out=out)
    h *= scale
    return h


def translated(a: np.ndarray, z, axes: tuple, out: np.ndarray) -> np.ndarray:
    """out[x] = a[x + z] on the periodic lattice spanned by axes: the values of
    ``np.roll(a, -z, axes)``, written into out (which must not overlap a) by
    one block copy per wrapped or unwrapped part of each axis."""
    parts = []
    for c, axis in zip(z, axes):
        L = a.shape[axis]
        s = c % L
        parts.append(((slice(0, L - s), slice(s, L)), (slice(L - s, L), slice(0, s))))
    for blocks in itertools.product(*parts):
        dst, src = [slice(None)] * a.ndim, [slice(None)] * a.ndim
        for (to, frm), axis in zip(blocks, axes):
            dst[axis], src[axis] = to, frm
        out[tuple(dst)] = a[tuple(src)]
    return out


def real_view(c: np.ndarray) -> np.ndarray:
    """The first c.size floats of a C-contiguous complex array c, as a real
    array of c's shape: room for a real result once c's values are spent.
    Any other c is refused, as the reshape would copy it."""
    if not (np.iscomplexobj(c) and c.flags.c_contiguous):
        raise ValueError("real_view needs a C-contiguous complex array")
    return c.view(float).reshape(-1)[:c.size].reshape(c.shape)


def check_ensemble(Y) -> tuple:
    """Validate an ensemble array (S, 2n, *grid); return (Y, L, d, n).

    Samples run along the leading axis and components along the next one,
    u components first, then v.  The array comes back C-contiguous float.
    """
    Y = np.ascontiguousarray(Y, dtype=float)
    if Y.ndim < 3:
        raise ValueError("ensemble needs a sample axis, a component axis and grid axes")
    if Y.shape[0] < 1:
        raise ValueError("empty ensemble")
    grid = Y.shape[2:]
    if any(g != grid[0] for g in grid):
        raise ValueError(f"grid axes must have equal lengths, got {grid}")
    if Y.shape[1] % 2:
        raise ValueError("component axis must hold 2n entries (u block, then v block)")
    if not np.all(np.isfinite(Y)):
        raise ValueError("field values must be finite")
    return Y, grid[0], len(grid), Y.shape[1] // 2


def check_integers(doc: dict, keys, what: str) -> None:
    """Raise unless doc[key] is an integer for each key; int() would truncate
    a float and read a boolean as 0 or 1."""
    for key in keys:
        if type(doc[key]) is not int:
            raise ValueError(f"{what} {key} must be an integer, got {doc[key]!r}")


def number_array(value, what: str) -> np.ndarray:
    """value, a JSON array (nested lists) of numbers, as a float array.  Raise
    unless every entry is an int or a float within the float range:
    np.asarray would read a numeric string or a boolean as a number, and
    fail with a TypeError on an object."""
    entries = np.array(value, dtype=object)
    if set(map(type, entries.flat)) <= {int, float}:
        try:
            return entries.astype(float)
        except OverflowError:
            pass
    raise ValueError(f"{what} must be an array of numbers")


def check_node_count(L: int, d: int, what: str) -> None:
    """Raise unless the L^d nodes of (Z/L)^d fit in np.intp, so that an array
    of one entry per node has a shape numpy can build."""
    limit = np.iinfo(np.intp).max
    if L ** d > limit:
        raise ValueError(f"{what}^{d} must be at most {limit} lattice nodes, got {what}={L}")


def moved_axes(a: np.ndarray, source, destination) -> np.ndarray:
    """C-contiguous copy of a with axes moved as by np.moveaxis.

    The copy matters: einsum's summation order, and so its last bits, can
    depend on the strides of its operands, and a strided view is slower.
    """
    return np.ascontiguousarray(np.moveaxis(a, source, destination))


def one_node(a: np.ndarray) -> np.ndarray | None:
    """The single node of a nodewise matrix (*grid, k, k) whose grid axes are
    all broadcast (stride 0), such as a constant density: a (k, k) view that
    every grid node reads.  None if the array stores its nodes apart.

    This is the one reader of an array's strides: a caller does the work that
    does not depend on the node once on this node, and keeps the bits, since
    every node holds the same numbers."""
    if any(stride != 0 for stride in a.strides[:-2]):
        return None
    return a[(0,) * (a.ndim - 2)]


def eigen_compose(basis: np.ndarray, values: np.ndarray,
                  rows: slice = slice(None)) -> np.ndarray:
    """B diag(values) B^H at every node, B the eigenbasis (columns) per node;
    only the rows of the product that the slice rows selects."""
    return np.einsum("...ik,...k,...jk->...ij", basis[..., rows, :], values, basis.conj())


def hermitian_part(a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """0.5 (a + a^H) at every node of a complex (*grid, k, k) array, written
    into out (which must not overlap a) or into a new C-contiguous array,
    with no other temporary.  Its values are those of
    ``0.5 * (a + np.conj(np.swapaxes(a, -1, -2)))`` bit for bit; that
    expression's memory layout is numpy's choice and varies with the shape."""
    h = np.empty_like(a, order="C") if out is None else out
    np.conjugate(np.swapaxes(a, -1, -2), out=h)
    np.add(a, h, out=h)
    np.multiply(h, 0.5, out=h)
    return h


def node_slabs(a: np.ndarray, min_rows: int = 1):
    """Slices of the first grid axis of a, in order, that cut it into slabs of
    at most SLAB_BYTES each; a slab holds min_rows rows at least (a shorter
    remainder joins the slab before it), or the whole axis if that is
    shorter."""
    L = a.shape[0]
    step = max(min_rows, SLAB_BYTES // max(1, a.nbytes // max(1, L)))
    starts = list(range(0, L, step))
    if len(starts) > 1 and L - starts[-1] < min_rows:
        del starts[-1]
    for start, stop in zip(starts, starts[1:] + [L]):
        yield slice(start, stop)


def largest_modulus(a: np.ndarray, skip: np.ndarray | None = None) -> float:
    """max |a| over every entry of a nodewise array, taken slab by slab; the
    nodes where the boolean grid skip holds count as zero.  A NaN entry gives
    NaN, as the whole-array maximum would."""
    peaks = []
    for rows in node_slabs(a):
        modulus = np.abs(a[rows])
        if skip is not None:
            modulus[skip[rows]] = 0.0
        peaks.append(np.max(modulus))
    return float(np.max(peaks))


def reflected(a: np.ndarray, d: int, out: np.ndarray, start: int = 0) -> np.ndarray:
    """a at the negated grid angles, out[k] = a[-k mod L] over the first d
    axes, for the rows start .. start + len(out) - 1 of the first axis;
    written into out from the blocks of views that make it up."""
    L, m = a.shape[0], out.shape[0]
    head, tail = (slice(0, 1), slice(0, 1)), (slice(1, None), slice(None, 0, -1))
    # along the first axis row 0 is its own mirror and row k > 0 is row L - k
    if start == 0:
        first = [head, (slice(1, m), slice(L - 1, L - m, -1))]
    else:
        first = [(slice(0, m), slice(L - start, L - start - m, -1))]
    for parts in itertools.product(first, *((head, tail),) * (d - 1)):
        out[tuple(dst for dst, _ in parts)] = a[tuple(src for _, src in parts)]
    return out


def guarded_reciprocal(x: np.ndarray, ok: np.ndarray) -> np.ndarray:
    """1/x where ok holds and 0 elsewhere, without dividing by the masked entries."""
    return np.where(ok, 1.0 / np.where(ok, x, 1.0), 0.0)


def _phase_grid(z, L: int, sign: int, rows: slice = slice(None)) -> np.ndarray:
    """exp(sign * i * z.theta) on the theta grid, shape (L,)*d; only the rows
    of the first axis that the slice rows selects."""
    z = np.asarray(z, dtype=int)
    d = z.size
    th = theta_axis(L)
    out = np.ones((len(th[rows]),) + (L,) * (d - 1), dtype=complex)
    for axis in range(d):
        factor = np.exp(sign * 1j * z[axis] * th)
        if axis == 0:
            factor = factor[rows]
        shape = [1] * d
        shape[axis] = factor.size
        out = out * factor.reshape(shape)
    return out


def fourier_series(terms, L: int, d: int, value_shape: tuple,
                   rows: slice = slice(None)) -> np.ndarray:
    """sum_z c(z) e^{+i z.theta} on the theta grid, shape (L,)*d + value_shape;
    only the rows of the first grid axis that the slice rows selects.

    terms yields (z, c) pairs, c of shape value_shape; they are summed in the
    order given, which fixes the last bits of the sum.  Offsets are taken as
    they are, not reduced modulo L.  Every node is summed on its own, so a
    slab of rows has the bits of the same rows of the whole grid.
    """
    out = np.zeros((len(range(L)[rows]),) + (L,) * (d - 1) + value_shape, dtype=complex)
    values = (None,) * len(value_shape)
    for z, c in terms:
        out += _phase_grid(z, L, +1, rows)[(...,) + values] * c
    return out


def fourier_coefficient(hat: np.ndarray, z, skip: np.ndarray | None = None) -> np.ndarray:
    """L^-d sum_theta hat(theta) e^{-i z.theta}, the coefficient at offset z of a
    grid function hat of shape (L,)*d + value shape; the nodes where the
    boolean grid skip holds count as zero.

    The sum runs one slab of nodes at a time (:func:`node_slabs`): each slab's
    phases and products are formed and summed over its nodes in C order with
    the running sum carried into its first node.  numpy sums the whole
    product in that order, so the bits are the same and the temporaries are
    a slab's size.  A value of a single entry is summed whole, because numpy
    sums it pairwise.  The products take the memory order of their operands,
    and the sum its order from theirs, so each slab is read C-contiguous: a
    view of a C-contiguous hat, a copy of another layout (a broadcast one).
    """
    d = len(z)
    L = hat.shape[0]
    values = (None,) * (hat.ndim - d)
    total = None
    for rows in node_slabs(hat) if np.prod(hat.shape[d:]) > 1 else [slice(None)]:
        block = np.ascontiguousarray(hat[rows])
        if skip is not None:
            block = np.where(skip[rows][(...,) + values], 0.0, block)
        terms = (_phase_grid(z, L, -1, rows)[(...,) + values] * block).reshape(
            (-1,) + hat.shape[d:])
        if total is not None:
            terms[0] += total
        total = np.add.reduce(terms, axis=0)
        del terms  # spent before the next slab's products are formed
    return total / float(L) ** d


def real_part_checked(a: np.ndarray, tol: float, what: str,
                      out: np.ndarray | None = None) -> np.ndarray:
    """Drop an imaginary residue after verifying it is below tol (absolute).

    The real part is written into out, a real array of a's shape, or into a
    new C-contiguous one; the residue's moduli are formed in the same array
    first, so the check takes no temporary.  A NaN residue fails the check,
    as it cannot be shown to be below tol; out then holds no result.
    """
    if out is None:
        out = np.empty(a.shape)
    resid = float(np.max(np.abs(a.imag, out=out))) if np.iscomplexobj(a) else 0.0
    if not resid <= tol:
        raise NumericalFault(
            f"{what}: imaginary residue {resid:.3e} exceeds {tol:.1e}; "
            "input violates the reality symmetry"
        )
    np.copyto(out, a.real)
    return out


def real_inverse_fft(ahat: np.ndarray, axes: tuple, tol: float, what: str,
                     out: np.ndarray | None = None) -> np.ndarray:
    """Inverse of :func:`forward_fft` of the complex array ahat, whose
    imaginary residue is dropped after verifying it is below tol: the bits
    and the faults of ``real_part_checked(np.fft.fftn(ahat, axes=axes) /
    L**d, tol, what, out)``, computing only what that keeps.

    The transform runs in place, so ahat's values are spent.  numpy divides
    a complex a + ib by a real c as by c + 0j, which gives the real part
    (a + b*0) * (1/c) and the imaginary part (b - a*0) * (1/c); the first is
    written straight into out (a real array of ahat's shape that does not
    overlap it, or a new one).  Where every a and b is finite, the modulus
    of the second is |b| * (1/c), and since rounding is monotone its maximum
    is max |b| * (1/c).  A result that is not finite, or a residue above
    tol, is handed to the division and real_part_checked, which form the
    fault's message; a result that is not finite has a NaN or infinite
    residue, so under a finite tol every result returned is finite.
    """
    np.fft.fftn(ahat, axes=axes, out=ahat)
    scale = float(ahat.shape[axes[0]]) ** len(axes)
    r = 1.0 / scale
    if out is None:
        out = np.empty(ahat.shape)
    # the moduli |b| are formed in out first, where their maximum reads fast
    resid = float(np.max(np.abs(ahat.imag, out=out))) * r
    with np.errstate(invalid="ignore"):  # inf * 0: the division warns for it below
        np.multiply(ahat.imag, 0.0, out=out)
    np.add(ahat.real, out, out=out)
    np.multiply(out, r, out=out)
    if resid <= tol and np.isfinite(out).all():
        return out
    return real_part_checked(ahat / scale, tol, what, out)
