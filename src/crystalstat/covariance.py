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
    eigen_compose,
    fourier_coefficient,
    fourier_series,
    guarded_reciprocal,
    real_part_checked,
)
from .dynamics import _propagator_grid_matrix
from .fields import SpectralDensity
from .kernel import ConditionFailure, ConditionReport
from .spectral import DispersionGrid, _require_match, check_ES

__all__ = [
    "TestField",
    "LimitDensity",
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

    def fourier(self, L: int) -> np.ndarray:
        """Psihat(theta) = sum_x Psi(x) e^{i x.theta} on the grid, (*grid, 2n)."""
        return fourier_series(zip(self.sites, self.values), L, self.d,
                              (self.values.shape[1],))


@dataclass(eq=False)
class LimitDensity(SpectralDensity):
    """Long-time covariance density plus quadrature exclusions.

    excluded marks nodes where the limit needed an inverse frequency that the
    degenerate symbol does not provide; they are skipped (with their measure
    fraction) wherever the density is integrated.  cluster_id records, per node
    and branch, the equal-frequency grouping the projection kept.
    """

    excluded: np.ndarray = None
    cluster_id: np.ndarray = None

    def __post_init__(self):
        super().__post_init__()
        if self.excluded is None:
            self.excluded = np.zeros((self.L,) * self.d, dtype=bool)
        if self.cluster_id is None:
            self.cluster_id = np.zeros((self.L,) * self.d + (self.n,), dtype=int)

    @property
    def excluded_fraction(self) -> float:
        return float(self.excluded.mean())


def evolve_density(q0: SpectralDensity, grid: DispersionGrid, t: float) -> SpectralDensity:
    """Transport a spectral density through time t: qhat_t = Ghat qhat_0 Ghat*."""
    _require_match(grid, q0.L, q0.d, q0.n)
    G = _propagator_grid_matrix(grid, float(t))
    qt = np.einsum("...ij,...jk,...lk->...il", G, q0.matrix, G.conj())
    qt = 0.5 * (qt + np.conj(np.swapaxes(qt, -1, -2)))
    return SpectralDensity(
        L=q0.L, d=q0.d, n=q0.n, matrix=qt,
        provenance=f"evolved(t={t}):{q0.provenance}",
    )


def limit_density(q0: SpectralDensity, grid: DispersionGrid,
                  es_report: Optional[ConditionReport] = None) -> LimitDensity:
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
    """
    _require_match(grid, q0.L, q0.d, q0.n)
    if np.any(grid.c0):
        report = es_report if es_report is not None else check_ES(grid, q0)
        if report.verdict == "fail":
            # the symbol degenerates and the covariance limit does not exist
            raise ConditionFailure([report])
    n, omega, B = grid.n, grid.omega, grid.basis
    # the stacked matmuls read contiguous copies, not strided views: the same
    # bits, in less time
    Bh = np.ascontiguousarray(np.conj(np.swapaxes(B, -1, -2)))
    A = {(i, j): Bh @ np.ascontiguousarray(q0.matrix[..., i * n:(i + 1) * n,
                                                     j * n:(j + 1) * n]) @ B
         for i in (0, 1) for j in (0, 1)}
    winv = guarded_reciprocal(omega, ~grid.null)
    wl = omega[..., :, None]   # left factor index k
    wr = omega[..., None, :]   # right factor index l
    wil = winv[..., :, None]
    wir = winv[..., None, :]
    M = {
        (0, 0): 0.5 * (A[0, 0] + wil * A[1, 1] * wir),
        (0, 1): 0.5 * (A[0, 1] - wil * A[1, 0] * wr),
        (1, 0): 0.5 * (A[1, 0] - wl * A[0, 1] * wir),
        (1, 1): 0.5 * (A[1, 1] + wl * A[0, 0] * wr),
    }
    same_cluster = grid.cluster_id[..., :, None] == grid.cluster_id[..., None, :]
    out = np.empty((grid.L,) * grid.d + (2 * n, 2 * n), dtype=complex)
    for (i, j), blk in M.items():
        masked = np.where(same_cluster, blk, 0.0)
        out[..., i * n:(i + 1) * n, j * n:(j + 1) * n] = B @ masked @ Bh
    out = 0.5 * (out + np.conj(np.swapaxes(out, -1, -2)))

    # a degenerate node is excluded if any inverse-weighted source block is
    # live there: the pseudoinverse silently dropped part of the measure
    tol = 1e-14 * (1.0 + float(np.max(np.abs(q0.matrix))))
    needs_inverse = (
        np.max(np.abs(q0.block(0, 1)), axis=(-2, -1)) > tol
    ) | (
        np.max(np.abs(q0.block(1, 0)), axis=(-2, -1)) > tol
    ) | (
        np.max(np.abs(q0.block(1, 1)), axis=(-2, -1)) > tol
    )
    excluded = grid.c0 & needs_inverse
    return LimitDensity(
        L=q0.L, d=q0.d, n=q0.n, matrix=out,
        provenance=f"limit:{q0.provenance}",
        excluded=excluded,
        cluster_id=grid.cluster_id.copy(),
    )


def gibbs_density(T1: float, grid: DispersionGrid) -> LimitDensity:
    """Equilibrium density (T1/2) diag(Vhat^-1, I) at temperature T1.

    The grid's C_0 nodes (decided at grid.delta_null) have no inverse and are
    excluded; Vhat^-1 is zero on their null branches.
    """
    if not 0 <= T1 < np.inf:
        raise ValueError(f"temperature must be finite and nonnegative, got T1={T1}")
    Vinv = eigen_compose(grid.basis, guarded_reciprocal(grid.omega**2, ~grid.null))
    n = grid.n
    out = np.zeros((grid.L,) * grid.d + (2 * n, 2 * n), dtype=complex)
    out[..., :n, :n] = 0.5 * T1 * Vinv
    idx = np.arange(n)
    out[..., n + idx, n + idx] = 0.5 * T1
    return LimitDensity(
        L=grid.L, d=grid.d, n=grid.n, matrix=out,
        provenance=f"gibbs(T1={T1})",
        excluded=grid.c0.copy(),
        cluster_id=grid.cluster_id.copy(),
    )


def _unexcluded_matrix(density: SpectralDensity) -> np.ndarray:
    """The density's matrix zeroed at the excluded nodes of a limit density;
    the density's own matrix if none are."""
    excluded = getattr(density, "excluded", None)
    if excluded is None or not np.any(excluded):
        return density.matrix
    return np.where(excluded[..., None, None], 0.0, density.matrix)


def covariance_from_density(density: SpectralDensity, offsets) -> np.ndarray:
    """Inverse Fourier evaluation q(z) = L^-d sum_theta e^{-i z.theta} qhat(theta).

    Returns the real (len(offsets), 2n, 2n) array whose row k is q(offsets[k]).
    Excluded nodes of a limit density contribute nothing; its
    excluded_fraction gives their measure.
    """
    matrix = _unexcluded_matrix(density)
    scale = 1.0 + float(np.max(np.abs(matrix)))
    out = np.empty((len(offsets),) + matrix.shape[-2:])
    for k, z in enumerate(offsets):
        z = tuple(int(c) for c in z)
        if len(z) != density.d:
            raise ValueError(f"offset {z} has wrong dimension")
        out[k] = real_part_checked(fourier_coefficient(matrix, z), 1e-8 * scale,
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
    psihat = psi.fourier(L)
    matrix = _unexcluded_matrix(density)
    nodewise = np.einsum("...i,...ij,...j->...", np.conj(psihat), matrix, psihat)
    q_spectral = float(np.real(nodewise.sum()) / float(L) ** d)

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


def _support(psihat: np.ndarray) -> slice:
    """The smallest range of components outside which psihat is zero at every node."""
    live = np.flatnonzero(np.any(psihat != 0, axis=tuple(range(psihat.ndim - 1))))
    return slice(live[0], live[-1] + 1) if live.size else slice(0, 0)


def mixing_integral(limit: LimitDensity, grid: DispersionGrid, psi1: TestField,
                    psi2: TestField, t: float) -> float:
    """Equilibrium cross-correlation E <Y(t), Psi1> <Y(0), Psi2>.

    Evaluated as the Riemann sum of Psihat1* Ghat(t) qhat_inf Psihat2 over
    unexcluded nodes; decays to zero as t grows, which is the mixing property
    of the limit measure.  Only the range of components where Psihat1 is
    nonzero (rows of Ghat) and where Psihat2 is nonzero (columns of qhat_inf)
    enters the sum; every term left out is an exact zero.
    """
    _require_match(grid, limit.L, limit.d, limit.n)
    p1 = psi1.fourier(grid.L)
    p2 = psi2.fourier(grid.L)
    I, K = _support(p1), _support(p2)
    G = _propagator_grid_matrix(grid, float(t), rows=I)
    matrix = _unexcluded_matrix(limit)
    # slices keep every operand's strides, so einsum sums the kept terms in
    # the order it sums them over all 2n components
    integrand = np.einsum("...i,...ij,...jk,...k->...", np.conj(p1)[..., I], G,
                          matrix[..., :, K], p2[..., K])
    total = complex(integrand.sum() / float(grid.L) ** grid.d)
    return float(real_part_checked(np.array([total]), 1e-8 * (1.0 + abs(total.real)),
                                   "mixing integral")[0])
