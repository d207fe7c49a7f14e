"""Covariance transport, its long-time limit, and equilibrium diagnostics.

The evolved spectral density is the exact conjugation qhat_t = Ghat qhat_0 Ghat*.
Its weak long-time limit averages out the oscillatory cross terms: in the
eigenbasis of the symbol only entries coupling equal-frequency clusters
survive, which is the nodewise projection formula implemented here.  Matching
velocity and displacement temperatures (white noise with T0 = 0) reproduce the
Gibbs density (T1/2) diag(Vhat^-1, I) as the limit.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._lattice import (
    NumericalFault,
    fourier_coefficient,
    fourier_series,
    guarded_reciprocal,
    hermitian_part,
    largest_modulus,
    node_slabs,
    one_node,
    real_part_checked,
)
from .dynamics import Propagator
from .fields import SpectralDensity
from .kernel import ConditionFailure, ConditionReport
from .spectral import DispersionGrid, check_ES

__all__ = [
    "TestField",
    "evolve_density",
    "limit_density",
    "gibbs_density",
    "covariance_from_density",
    "quadratic_form",
    "mixing_integral",
]


@dataclass(eq=False)
class TestField:
    """Finitely supported 2n-component test field.

    sites is an integer array (k, d); values is (k, 2n), row r being the
    (u-part, v-part) coefficients attached to site r.
    """

    __test__ = False  # not a test case despite the class name

    sites: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.sites = np.atleast_2d(np.asarray(self.sites, dtype=int))
        self.values = np.atleast_2d(np.asarray(self.values, dtype=float))
        if self.sites.shape[0] != self.values.shape[0]:
            raise ValueError("one value row per site required")

    @property
    def d(self) -> int:
        return self.sites.shape[1]

    def require_fits(self, d: int, n: int, partner: str) -> None:
        """Raise a ValueError unless the field has the dimension d and the
        2n components of the partner (a density or an ensemble) it is read
        against."""
        if self.d != d:
            raise ValueError(f"test field dimension does not match the {partner}")
        if self.values.shape[1] != 2 * n:
            raise ValueError("test field has wrong component count")

    @classmethod
    def delta(cls, d: int, n: int, component: int = 0, site=None) -> "TestField":
        """Unit mass on one site and one of the 2n components (u block first)."""
        if not 0 <= component < 2 * n:
            raise ValueError(f"component {component} is outside 0..{2 * n - 1}")
        if site is None:
            site = (0,) * d
        values = np.zeros((1, 2 * n))
        values[0, component] = 1.0
        return cls(sites=np.asarray([site]), values=values)

    def fourier(self, L: int, rows: slice = slice(None)) -> np.ndarray:
        """Psihat(theta) = sum_x Psi(x) e^{i x.theta} on the grid, (*grid, 2n);
        only the rows of the first grid axis that the slice rows selects."""
        return fourier_series(zip(self.sites, self.values), L, self.d,
                              (self.values.shape[1],), rows)


def evolve_density(q0: SpectralDensity, grid: DispersionGrid, t: float) -> SpectralDensity:
    """Transport a spectral density through time t: qhat_t = Ghat qhat_0 Ghat*.

    Each node is transported on its own, so the work runs one slab of nodes
    at a time, with the :meth:`Propagator.rows` of that slab only."""
    grid.require_match(q0.L, q0.d, q0.n)
    propagator = Propagator(grid, t)
    qt = np.empty(q0.matrix.shape, dtype=complex)
    for rows, q in _slabs(q0):
        G = propagator.rows(nodes=rows)
        hermitian_part(np.einsum("...ij,...jk,...lk->...il", G, q, G.conj()), out=qt[rows])
    return SpectralDensity(qt, provenance=f"evolved(t={t}):{q0.provenance}")


def limit_density(q0: SpectralDensity, grid: DispersionGrid,
                  es_report: Optional[ConditionReport] = None) -> SpectralDensity:
    """Long-time limit of the transported density.

    In the symbol eigenbasis the four blocks are averaged into

        M00 = (A00 + W^-1 A11 W^-1) / 2      M01 = (A01 - W^-1 A10 W) / 2
        M10 = (A10 - W A01 W^-1) / 2         M11 = (A11 + W A00 W) / 2

    with W = diag(omega), and only entries coupling equal-frequency clusters
    are kept.  Inverse frequencies are pseudoinverses, zero on the grid's null
    branches (decided at grid.delta_null); nodes of the grid's C_0 that
    genuinely need an unavailable inverse are marked excluded.  When degenerate
    nodes exist the summability check (ES) must not have failed (a failing
    report raises a ConditionFailure); it is evaluated here if no report is
    supplied.

    The transform to the eigenbasis and back, A_ij = Bh q_ij B and B M_ij Bh,
    runs as BLAS products by one rule (:func:`_node_product`), a one-node
    density or basis taking part as its one node.  On an identity basis
    (``grid.identity_basis``) with a one-node density the back products are
    skipped and written as M_ij + 0.0: the output has the bits of the
    products (a property test draws such densities, with entries of both
    signs, exact-zero blocks and T0 = 0).  A stored density keeps them:
    OpenBLAS can give a product's exact zero the sign bit that x + 0.0
    clears, and on stored densities at d = 3 that reached the output at
    10-66 entries per grid.
    """
    grid.require_match(q0.L, q0.d, q0.n)
    if np.any(grid.c0):
        report = es_report if es_report is not None else check_ES(grid, q0)
        if report.verdict == "fail":
            # the symbol degenerates and the covariance limit does not exist
            raise ConditionFailure([report])
    n = grid.n

    def block(i, j):
        return (Ellipsis, slice(i * n, (i + 1) * n), slice(j * n, (j + 1) * n))

    def stacked(k):
        # block k of the four stacked along the row axis
        return (Ellipsis, slice(k * n, (k + 1) * n), slice(None))

    def buffers(nodes):
        # two arrays of the four blocks stacked along the row axis per node
        return (np.empty(nodes + (4 * n, n), dtype=complex) for _ in range(2))

    blocks = ((0, 0), (0, 1), (1, 0), (1, 1))
    node, basis = one_node(q0.matrix), one_node(grid.basis)
    # an identity basis with a one-node density makes no back products (see
    # the docstring)
    identity = node is not None and grid.identity_basis
    out = np.empty(q0.matrix.shape, dtype=complex)
    # every step below is nodewise, so it runs one slab of nodes at a time
    # with the same operations as on the whole grid
    for rows in node_slabs(out):
        q = q0.matrix[rows] if node is None else node
        B = grid.basis[rows] if basis is None else basis
        # the stacked matmuls read contiguous copies, not strided views:
        # the same bits, in less time
        Bh = np.ascontiguousarray(np.conj(np.swapaxes(B, -1, -2)))
        omega = grid.omega[rows]
        winv = guarded_reciprocal(omega, ~grid.null[rows])
        wl = omega[..., :, None]   # left factor index k
        wr = omega[..., None, :]   # right factor index l
        wil = winv[..., :, None]
        wir = winv[..., None, :]
        cluster = grid.cluster_id[rows]
        same_cluster = cluster[..., :, None] == cluster[..., None, :]
        # A_ij = Bh q_ij B and back B M_ij Bh: the four products that share a
        # right factor run as one product of the blocks stacked along the row
        # axis.  A row of a BLAS matrix product does not depend on the rows
        # stacked with it (a test checks this), so this keeps the bits of four
        # products; stacking along the column axis (a shared left factor) or
        # a transposed form does not, so the left products stay one per
        # block.  With a one-node density and basis, A_ij is one node's
        left, right = buffers(np.broadcast_shapes(q.shape[:-2], B.shape[:-2]))
        for k, (i, j) in enumerate(blocks):
            _node_product(Bh, np.ascontiguousarray(q[block(i, j)]), left[stacked(k)])
        _node_product(left, B, right)
        A = {b: right[stacked(k)] for k, b in enumerate(blocks)}
        M = {
            (0, 0): lambda: 0.5 * (A[0, 0] + wil * A[1, 1] * wir),
            (0, 1): lambda: 0.5 * (A[0, 1] - wil * A[1, 0] * wr),
            (1, 0): lambda: 0.5 * (A[1, 0] - wl * A[0, 1] * wir),
            (1, 1): lambda: 0.5 * (A[1, 1] + wl * A[0, 0] * wr),
        }
        slab = np.empty(out[rows].shape, dtype=complex)
        if identity:
            for i, j in blocks:
                np.add(np.where(same_cluster, M[i, j](), 0.0), 0.0, out=slab[block(i, j)])
        else:
            if left.ndim < slab.ndim:  # A is one node's, the back products the slab's
                left, right = buffers(slab.shape[:-2])
            for k, (i, j) in enumerate(blocks):
                _node_product(B, np.where(same_cluster, M[i, j](), 0.0), left[stacked(k)])
            _node_product(left, Bh, right)  # A is spent; its buffer takes the result
            for k, (i, j) in enumerate(blocks):
                slab[block(i, j)] = right[stacked(k)]
        hermitian_part(slab, out=out[rows])
    # a degenerate node is excluded if any inverse-weighted source block is
    # live there: the pseudoinverse silently dropped part of the measure.
    # Only C_0 nodes can be excluded, so only they are inspected; the
    # tolerance is scaled by the whole density
    excluded = np.zeros(grid.c0.shape, dtype=bool)
    if np.any(grid.c0):
        tol = 1e-14 * (1.0 + largest_modulus(q0.matrix))
        q = q0.matrix[grid.c0]
        excluded[grid.c0] = np.any([np.max(np.abs(q[block(i, j)]), axis=(-2, -1)) > tol
                                    for i, j in ((0, 1), (1, 0), (1, 1))], axis=0)
    return SpectralDensity(out, provenance=f"limit:{q0.provenance}", excluded=excluded,
                           cluster_id=grid.cluster_id.copy())


def _node_product(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
    """a @ b at every node, written into out; either operand is a nodewise
    (*nodes, k, k) array or a one-node (k, k) matrix.  A one-node b
    right-multiplies the rows of a's nodes stacked, which keeps the bits of
    the per-node products (a test checks this), in at most four BLAS calls
    of a quarter of the nodes each: whole nodes, since numpy sends a one-row
    product to a BLAS kernel whose bits differ at k = 2, 3.  OpenBLAS runs a
    product four times that size on its thread pool, and on a busy host
    waking the pool cost 10-16 ms a call against 0.05 ms on one thread
    (2-vCPU host, two BLAS threads).  Any other pair is one np.matmul."""
    if b.ndim == 2:
        rows = a.reshape(-1, a.shape[-1])
        into = out.reshape(rows.shape[0], -1)  # a copy if out is a row block of a stack
        step = a.shape[-2] * -(-rows.shape[0] // (4 * a.shape[-2]))
        for start in range(0, rows.shape[0], step):
            np.matmul(rows[start:start + step], b, out=into[start:start + step])
        out[...] = into.reshape(out.shape)  # numpy skips the copy where into views out
        return out
    return np.matmul(a, b, out=out)


def gibbs_density(T1: float, grid: DispersionGrid) -> SpectralDensity:
    """Equilibrium density (T1/2) diag(Vhat^-1, I) at temperature T1.

    The grid's C_0 nodes (decided at grid.delta_null) have no inverse and are
    excluded; Vhat^-1 is zero on their null branches.
    """
    if not 0 <= T1 < np.inf:
        raise ValueError(f"temperature must be finite and nonnegative, got T1={T1}")
    Vinv = grid.compose(guarded_reciprocal(grid.omega**2, ~grid.null))
    n = grid.n
    out = np.zeros((grid.L,) * grid.d + (2 * n, 2 * n), dtype=complex)
    out[..., :n, :n] = 0.5 * T1 * Vinv
    idx = np.arange(n)
    out[..., n + idx, n + idx] = 0.5 * T1
    return SpectralDensity(out, provenance=f"gibbs(T1={T1})", excluded=grid.c0.copy(),
                           cluster_id=grid.cluster_id.copy())


def _slabs(density: SpectralDensity):
    """(rows, slab) for the nodewise einsums: slabs of the density's nodes,
    each of three nodes at least, since on operands of one or two nodes
    einsum can sum a node's terms in another order than on the whole grid;
    and each slab C-contiguous, a view of a contiguous matrix and a copy of
    a broadcast one, since einsum's summation order can depend on the
    strides of its operands too."""
    for rows in node_slabs(density.matrix, min_rows=-(-3 // density.L ** (density.d - 1))):
        yield rows, np.ascontiguousarray(density.matrix[rows])


def _excluded(density: SpectralDensity) -> np.ndarray | None:
    """The density's excluded nodes, None if there are none; each reader
    counts them as zero in its own slabs or nodewise results."""
    excluded = density.excluded
    return excluded if excluded is not None and np.any(excluded) else None


def _node_sum(density: SpectralDensity, integrand) -> complex:
    """sum over the unexcluded nodes of a nodewise integrand, which
    integrand(rows, slab, out) writes into out for each slab of
    :func:`_slabs`; the excluded nodes count as the einsum of a zero
    matrix, which sums from +0.  The readers divide it by L^d each: the
    quotient of a complex sum and the real part's quotient round apart
    unless L^d is a power of two."""
    values = np.empty((density.L,) * density.d, dtype=complex)
    for rows, slab in _slabs(density):
        integrand(rows, slab, out=values[rows])
    excluded = _excluded(density)
    if excluded is not None:
        values[excluded] = 0.0
    return values.sum()


def covariance_from_density(density: SpectralDensity, offsets) -> np.ndarray:
    """Inverse Fourier evaluation q(z) = L^-d sum_theta e^{-i z.theta} qhat(theta).

    Returns the real (len(offsets), 2n, 2n) array whose row k is q(offsets[k]).
    Excluded nodes contribute nothing; excluded_fraction gives their measure.
    """
    matrix, excluded = density.matrix, _excluded(density)
    scale = 1.0 + largest_modulus(matrix, excluded)
    out = np.empty((len(offsets),) + matrix.shape[-2:])
    for k, z in enumerate(offsets):
        z = tuple(int(c) for c in z)
        if len(z) != density.d:
            raise ValueError(f"offset {z} has wrong dimension")
        out[k] = real_part_checked(fourier_coefficient(matrix, z, excluded), 1e-8 * scale,
                                   f"covariance at offset {z}")
    return out


def quadratic_form(density: SpectralDensity, psi: TestField) -> float:
    """Variance <q Psi, Psi> of the linear functional <Y, Psi>.

    Computed along two independent routes, nodewise in Fourier space and from
    real-space covariance values at pairwise site differences, which must agree
    to 1e-8; any worse means broken conventions somewhere upstream, and is a
    NumericalFault, as is a form negative beyond 1e-8.
    """
    L, d = density.L, density.d
    psi.require_fits(d, density.n, "density")

    def integrand(rows, q, out):
        psihat = psi.fourier(L, rows)
        np.einsum("...i,...ij,...j->...", np.conj(psihat), q, psihat, out=out)

    q_spectral = float(np.real(_node_sum(density, integrand)) / float(L) ** d)

    # the covariance at each ordered pair's offset, pairs in product order
    table = covariance_from_density(density, [xa - xb for xa in psi.sites for xb in psi.sites])
    q_real = 0.0
    for (va, vb), q in zip(itertools.product(psi.values, repeat=2), table):
        q_real += float(va @ q @ vb)

    gap = abs(q_spectral - q_real)
    if gap > 1e-8 * (1.0 + abs(q_spectral)):
        raise NumericalFault(f"spectral and real-space quadratic forms disagree by {gap:.3e}")
    if q_spectral < -1e-8:
        raise NumericalFault(f"quadratic form is negative ({q_spectral:.3e}); density not PSD")
    return max(q_spectral, 0.0)


def _support(psi: TestField) -> slice:
    """The smallest range of components outside which the test field's
    values, and so Psihat at every node, are zero."""
    live = np.flatnonzero(np.any(psi.values != 0, axis=0))
    return slice(live[0], live[-1] + 1) if live.size else slice(0, 0)


def mixing_integral(limit: SpectralDensity, grid: DispersionGrid, psi1: TestField,
                    psi2: TestField, t: float) -> float:
    """Equilibrium cross-correlation E <Y(t), Psi1> <Y(0), Psi2>.

    Evaluated as the Riemann sum of Psihat1* Ghat(t) qhat_inf Psihat2 over
    unexcluded nodes; decays to zero as t grows, which is the mixing property
    of the limit measure.  Only the range of components where Psi1 is
    nonzero (rows of Ghat) and where Psi2 is nonzero (columns of qhat_inf)
    enters the sum; every term left out is an exact zero.  The integrand is
    nodewise, so it is written one slab of nodes at a time, with the test
    fields' transforms and the :meth:`Propagator.rows` of that slab only.
    """
    grid.require_match(limit.L, limit.d, limit.n)
    for psi in (psi1, psi2):
        psi.require_fits(limit.d, limit.n, "density")
    L = grid.L
    I, K = _support(psi1), _support(psi2)
    propagator = Propagator(grid, t)

    def integrand(rows, q, out):
        p1 = psi1.fourier(L, rows)
        # a field paired with itself is transformed once
        p2 = p1 if psi2 is psi1 else psi2.fourier(L, rows)
        G = propagator.rows(I, nodes=rows)
        # the kept terms, conjugated alone, sum to the bits of all 2n (tested)
        np.einsum("...i,...ij,...jk,...k->...", np.conj(p1[..., I]), G, q[..., :, K],
                  p2[..., K], out=out)

    total = complex(_node_sum(limit, integrand) / float(L) ** grid.d)
    return float(real_part_checked(np.array([total]), 1e-8 * (1.0 + abs(total.real)),
                                   "mixing integral")[0])
