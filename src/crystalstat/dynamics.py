"""Time evolution of lattice displacement/velocity fields.

The second-order dynamics u'' = -V * u is solved exactly in Fourier space: at
each grid angle the state (uhat, vhat) rotates under the matrix exponential

    Ghat(t) = [[cos(Omega t),        Omega^-1 sin(Omega t)],
               [-Omega sin(Omega t), cos(Omega t)        ]],

where Omega is the positive square root of the symbol.  Omega^-1 sin(Omega t)
is realized as t * sinc(Omega t), which is regular at zero frequency and gives
the free block [[1, t], [0, 1]] there.  A real-space Runge-Kutta integrator is
kept as an independent cross-check of the spectral route.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from ._lattice import (
    check_ensemble,
    forward_fft,
    moved_axes,
    offset_cube,
    real_inverse_fft,
    theta_step,
)
from .kernel import InteractionKernel
from .spectral import DispersionGrid, _require_match

__all__ = [
    "Propagator",
    "evolve_ensemble",
    "reference_evolve_ode",
    "green_function",
    "green_cutoff",
    "hamiltonian",
]

_IMAG_TOL = 1e-6


def _check_field(Y, kernel: InteractionKernel) -> tuple:
    """:func:`check_ensemble` on Y, which must also match the kernel's d and n."""
    Y, L, d, n = check_ensemble(Y)
    if n != kernel.n or d != kernel.d:
        raise ValueError("field and kernel dimensions disagree")
    return Y, L


def _rotation_factors(omega: np.ndarray, t: float, sinc: bool = True, sin: bool = True):
    """cos, t*sinc and -omega*sin factors of the phase rotation, elementwise;
    the t*sinc factor is None unless sinc holds, the -omega*sin factor None
    unless sin holds."""
    c = np.cos(omega * t)
    s = t * np.sinc(omega * t / np.pi) if sinc else None
    ns = -omega * np.sin(omega * t) if sin else None
    return c, s, ns


class Propagator:
    """Ghat(t) on a dispersion grid, prepared once for any number of ensembles.

    :meth:`rows` composes rows of its matrix; :meth:`apply` propagates
    ensembles, with state built on its first call, so a propagator used only
    for rows allocates nothing of the grid's size.
    """

    def __init__(self, grid: DispersionGrid, t: float):
        self.grid = grid
        self.t = float(t)

    @cached_property
    def _prepared(self) -> tuple:
        """:meth:`apply`'s work that does not depend on the field: the rotation
        factors as complex rows [[C, S], [N, C]], (2, 2, n, *grid), and the
        basis and its adjoint moved to (n, n, *grid), None if the identity."""
        c, s, ns = (moved_axes(f, -1, 0) for f in _rotation_factors(self.grid.omega, self.t))
        # complex, as the products with a complex field cast them
        factors = np.array([[c, s], [ns, c]], dtype=complex)
        if self.grid.identity_basis:
            return factors, None
        B = moved_axes(self.grid.basis, (-2, -1), (0, 1))
        return factors, (B, moved_axes(B.conj(), 1, 0))

    def rows(self, rows: slice = slice(None), nodes: slice = slice(None)) -> np.ndarray:
        """Rows of Ghat(t) as (*grid, rows, 2n) complex; all 2n rows by default.

        Row r < n is [C, S][r] and row n + r is [N, C][r - n], with C, S and N
        the cos, t*sinc and -omega*sin factors composed in the symbol
        eigenbasis.  rows is a slice with unit step; each requested row is
        composed from the matching row of the basis only, and an empty half
        composes nothing and computes none of the factors that only it reads.
        nodes slices the first grid axis (a slab of `_lattice.node_slabs`):
        only that slab of the basis is read and composed, and each node has
        the bits it has on the whole grid.
        """
        grid, n = self.grid, self.grid.n
        r = range(2 * n)[rows]
        if r.step != 1:
            raise ValueError(f"rows must be a slice with unit step (got {rows})")
        start, stop = r.start, max(r.start, r.stop)
        top = slice(min(start, n), min(stop, n))
        bottom = slice(max(start, n) - n, max(stop, n) - n)
        k, count = top.stop - top.start, stop - start
        omega = grid.omega[nodes]
        c, s, ns = _rotation_factors(omega, self.t, sinc=k > 0, sin=count > k)
        G = np.empty(omega.shape[:-1] + (count, 2 * n), dtype=complex)
        if k:
            C = grid.compose(c, nodes, top)
            G[..., :k, :n] = C
            G[..., :k, n:] = grid.compose(s, nodes, top)
        if count > k:
            G[..., k:, :n] = grid.compose(ns, nodes, bottom)
            G[..., k:, n:] = C if bottom == top else grid.compose(c, nodes, bottom)
        return G

    def apply(self, Y, out: np.ndarray | None = None,
              work: np.ndarray | None = None) -> np.ndarray:
        """Propagate an ensemble array (S, 2n, *grid) by time t through the spectral solver.

        The field must live on the dispersion grid (same L, d and n).  Ghat(t)
        is applied nodewise in the symbol eigenbasis; all samples share the
        grid's diagonalization and batched FFTs, and each sample's result does
        not depend on the others.  work, a complex array (2, S, 2n, *grid),
        holds the forward transform and the rotated field, which the
        inverse transform (:func:`_lattice.real_inverse_fft`) spends in
        place, and the result is written into out, a real (S, 2n, *grid)
        array; either is allocated when not given, with the same bits.  out
        may share memory with work[0], whose transform is spent before out
        is written.  The rotation reads and writes work[0] and work[1]
        through reshaped views, so a work whose two arrays are not
        C-contiguous is refused.
        """
        Y, L, d, n = check_ensemble(Y)
        _require_match(self.grid, L, d, n, what="field")
        axes = tuple(range(2, d + 2))
        if work is None:
            work = np.empty((2,) + Y.shape, dtype=complex)
        elif not (work[0].flags.c_contiguous and work[1].flags.c_contiguous):
            raise ValueError("work must hold two C-contiguous arrays")
        zhat, rotated = forward_fft(Y, axes, out=work[0]), work[1]
        pairs = (Y.shape[0], 2, n) + Y.shape[2:]
        basis = self._prepared[1]
        if basis is None:
            self._rotate(zhat.reshape(pairs), rotated.reshape(pairs))
        else:
            B, Bh = basis
            for half in (slice(None, n), slice(n, None)):
                np.einsum("kj...,sj...->sk...", Bh, zhat[:, half], out=rotated[:, half])
            self._rotate(rotated.reshape(pairs), zhat.reshape(pairs))
            for half in (slice(None, n), slice(n, None)):
                np.einsum("jk...,sk...->sj...", B, zhat[:, half], out=rotated[:, half])
        return real_inverse_fft(rotated, axes, _IMAG_TOL, "evolve_ensemble", out=out)

    def _rotate(self, pair: np.ndarray, out: np.ndarray) -> None:
        """Rows C a + S b and N a + C b of a field pair (a, b), each (S, 2, n,
        *grid), in the eigenbasis.

        Each row is one einsum over the pair, with the two products and the
        sum of the ufuncs f * a + g * b.  einsum sums from +0, so a row that
        sums to zero is +0: on an identity basis that is the x + 0.0 of the
        basis change by B, which is skipped, and on another basis the sign of
        a zero changes no value of that basis change, which sums from +0 too.
        A ufunc that broadcast the factors over the samples would allocate
        buffers of its own; einsum does not.
        """
        factors = self._prepared[0]
        for row in range(2):
            np.einsum("hk...,shk...->sk...", factors[row], pair, out=out[:, row])


def evolve_ensemble(Y, grid: DispersionGrid, t: float) -> np.ndarray:
    """:meth:`Propagator.apply` of Y by Ghat(t) on grid, in new arrays."""
    return Propagator(grid, t).apply(Y)


def reference_evolve_ode(Y, kernel: InteractionKernel, t: float, dt: float) -> np.ndarray:
    """Classical RK4 integration of u' = v, v' = -V * u in real space.

    Takes and returns an ensemble array (S, 2n, *grid).  Independent of the
    Fourier route: the force is evaluated by direct periodic convolution with
    the kernel stencil.  dt must satisfy dt <= 0.1 / omega_max.
    """
    Y, L = _check_field(Y, kernel)
    if dt <= 0:
        raise ValueError("dt must be positive")
    w = np.linalg.eigvalsh(kernel.symbol_grid(L))
    omega_max = float(np.sqrt(max(w.max(), 0.0)))
    if omega_max > 0 and dt > 0.1 / omega_max:
        raise ValueError(
            f"dt={dt} too large for max frequency {omega_max:.3f}; need dt <= {0.1 / omega_max:.3e}"
        )
    steps = max(1, int(math.ceil(abs(t) / dt)))
    h = float(t) / steps
    u, v = Y[:, :kernel.n], Y[:, kernel.n:]
    force = lambda uu: -kernel.convolve(uu)
    for _ in range(steps):
        k1u, k1v = v, force(u)
        k2u, k2v = v + 0.5 * h * k1v, force(u + 0.5 * h * k1u)
        k3u, k3v = v + 0.5 * h * k2v, force(u + 0.5 * h * k2u)
        k4u, k4v = v + h * k3v, force(u + h * k3u)
        u = u + (h / 6.0) * (k1u + 2.0 * k2u + 2.0 * k3u + k4u)
        v = v + (h / 6.0) * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
    return np.concatenate([u, v], axis=1)


def _chebyshev_distance_steps(mask: np.ndarray, max_steps: int) -> np.ndarray:
    """Grid Chebyshev distance (in steps, periodic) to the flagged set,
    saturated at max_steps + 1."""
    d = mask.ndim
    INF = np.iinfo(np.int32).max // 2
    dist = np.where(mask, 0, INF).astype(np.int32)
    shifts = [s for s in offset_cube(1, d) if any(s)]
    for _ in range(max_steps):
        best = dist
        for shift in shifts:
            best = np.minimum(best, np.roll(dist, shift, axis=tuple(range(d))) + 1)
        if np.array_equal(best, dist):
            break
        dist = best
    return np.minimum(dist, max_steps + 1)


def _smooth_ramp(x: np.ndarray) -> np.ndarray:
    """C-infinity ramp: 0 below 1/2, 1 above 1, strictly increasing between."""
    u = np.clip((x - 0.5) * 2.0, 0.0, 1.0)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        a = np.where(u > 0.0, np.exp(-1.0 / np.where(u > 0.0, u, 1.0)), 0.0)
        b = np.where(u < 1.0, np.exp(-1.0 / np.where(u < 1.0, 1.0 - u, 1.0)), 0.0)
    return a / (a + b)


def green_cutoff(grid: DispersionGrid, eps: float) -> np.ndarray | None:
    """Theta multiplier that cuts the grid's critical set out of the Green's function.

    The flagged cells are the grid's critical flags, C0, C* and Ck at its
    thresholds.  g(theta) = ramp(dist(theta, flagged cells) / eps) vanishes
    within eps/2 of every flagged cell and equals one beyond eps (distances
    in the grid Chebyshev metric scaled to angle units).  Returns None when
    eps is zero or nothing is flagged: the plain propagator.  Away from the
    cut the phase is stationary only on nondegenerate sets, so the sup norm
    decays at the dimensional rate t^{-d/2}.
    """
    if not (eps >= 0 and math.isfinite(eps)):
        raise ValueError(f"eps must be finite and nonnegative (got {eps})")
    if eps == 0 or not np.any(grid.critical):
        return None
    h = theta_step(grid.L)
    max_steps = int(math.ceil(eps / h)) + 1
    dist = _chebyshev_distance_steps(grid.critical, max_steps).astype(float) * h
    g = _smooth_ramp(dist / eps)
    if not np.any(g > 0):
        raise ValueError("cutoff removes the entire grid; reduce eps")
    return g


def green_function(grid: DispersionGrid, t: float,
                   cutoff: np.ndarray | None = None) -> np.ndarray:
    """Real-space propagator kernel G(t, x), shape (L,)*d + (2n, 2n).

    The inverse FFT of all 2n :meth:`Propagator.rows`.  Columns are the
    response to unit initial data; x is indexed modulo L with the propagation
    cone guarded against wraparound, here only, as the rows' spectral readers
    are exact at any t.  A cutoff from :func:`green_cutoff` multiplies the
    propagator nodewise in theta first.  The rows are formed for this call
    alone, so they are cut off and transformed in place.
    """
    vmax = grid.max_group_velocity()
    if vmax * abs(t) >= grid.L / 2.0:
        raise ValueError(f"propagation cone v_max*|t| = {vmax * abs(t):.1f} reaches the "
                         f"periodic boundary (L/2 = {grid.L / 2:.0f}); enlarge L or reduce t")
    Ghat = Propagator(grid, t).rows()
    if cutoff is not None:
        if cutoff.shape != Ghat.shape[:-2]:
            raise ValueError(f"cutoff of shape {cutoff.shape} does not match "
                             f"grid of shape {Ghat.shape[:-2]}")
        Ghat *= cutoff[..., None, None]
    return real_inverse_fft(Ghat, tuple(range(grid.d)), _IMAG_TOL, "green_function")


def hamiltonian(Y, kernel: InteractionKernel) -> np.ndarray:
    """Per-sample energy 0.5 sum |v|^2 + 0.5 sum u . (V * u), shape (S,);
    conserved by :func:`evolve_ensemble`."""
    Y, _ = _check_field(Y, kernel)
    u, v = Y[:, :kernel.n], Y[:, kernel.n:]
    axes = tuple(range(1, Y.ndim))
    return 0.5 * np.sum(v**2, axis=axes) + 0.5 * np.sum(u * kernel.convolve(u), axis=axes)
