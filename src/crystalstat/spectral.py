"""Dispersion analysis of an interaction kernel on a periodic theta grid.

The symbol Vhat(theta) is diagonalized at every node of the uniform grid
(2 pi / L) Z^d.  Eigenvalue branches omega_k = sqrt(eigenvalue) are continued
across grid edges by eigenvector-overlap matching, branch derivatives come from
central finite differences, and the critical sets (degenerate symbol, branch
crossings, degenerate curvature) are flagged per node.  All flags are grid
surrogates for measure-zero continuum sets: their defining property is that the
flagged fraction shrinks under grid refinement.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._lattice import (
    eigen_compose,
    finite_symbol,
    guarded_reciprocal,
    lowest_eigenvalue,
    one_node,
    theta_step,
)
from .kernel import (
    ConditionFailure,
    ConditionReport,
    InteractionKernel,
    e3_report,
)

__all__ = [
    "DELTA_CROSS",
    "DELTA_HESS",
    "DELTA_NULL",
    "DispersionGrid",
    "dispersion_grid",
    "check_E4_E5",
    "check_ES",
]

DELTA_CROSS = 1e-6
DELTA_HESS = 1e-6
DELTA_NULL = 1e-8
DELTA_CONST = 1e-8

# gap below which two branches count as one constant-multiplicity family rather
# than a crossing (relative to 1 + omega_max); see the crossing flag below
_DEGENERATE_REL = 1e-12

# branch continuation: permutations are scored in bulk up to this many
# branches, and an edge whose best two permutation scores differ by at most
# this relative margin goes to the exact assignment solver
_MAX_SCORED_BRANCHES = 4
_TIE_REL = 1e-9


@dataclass(eq=False)
class DispersionGrid:
    """Symbol eigendata on the full grid plus branch continuation bookkeeping.

    labels[node, b] is the local (ascending) eigenvalue index carried by global
    branch b at that node (trivial for n == 1).  crossing flags the nodes whose
    ascending frequency gap falls in the suspected-crossing band set by
    delta_cross.  null[node, k] flags omega_k <= delta_null, where the symbol
    has no usable inverse, and c0 the nodes with such a branch (the set C_0).
    ck flags degenerate branch curvature at delta_hess (the set C_k) and
    critical the union C_0 | C_* | C_k.  Every consumer of the critical set
    reads these flags.

    When every node's eigenbasis has the bits of node 0's, as on every
    nearest-neighbour kernel, basis holds that one node broadcast to the grid
    (read-only, see :func:`_lattice.one_node`) and labels is arange(n)
    broadcast likewise.  An einsum reads the basis through a C-contiguous
    copy (:meth:`compose`, or ``_lattice.moved_axes`` for an ensemble),
    never through the broadcast view.  When that one node is the identity
    (:attr:`identity_basis`, as on every nearest-neighbour kernel with
    ascending masses), :meth:`compose` (so ``dynamics.Propagator.rows``) and
    ``Propagator.apply`` skip their einsums by it and write x + 0.0
    instead: einsum sums from +0, so a product by the identity turns -0.0
    into +0.0 and keeps every other value's bits.  ``limit_density`` skips
    its BLAS products by it on a one-node density only (see there).
    """

    kernel: InteractionKernel
    L: int
    delta_cross: float
    delta_null: float
    delta_hess: float
    omega: np.ndarray
    basis: np.ndarray
    cluster_id: np.ndarray
    crossing: np.ndarray
    null: np.ndarray
    labels: np.ndarray
    omega_max: float

    @property
    def d(self) -> int:
        return self.kernel.d

    @property
    def n(self) -> int:
        return self.kernel.n

    def require_match(self, L: int, d: int, n: int, what: str = "density") -> None:
        """Raise unless an object of resolution L, dimension d and n components
        lives on the grid."""
        if L != self.L or d != self.d or n != self.n:
            raise ValueError(
                f"{what} (L={L}, d={d}, n={n}) does not match "
                f"grid (L={self.L}, d={self.d}, n={self.n})"
            )

    @cached_property
    def identity_basis(self) -> bool:
        """True when basis is one node (:func:`_lattice.one_node`) with the bits
        of np.eye(n); -0.0 in place of a zero, or the identity stored node by
        node, is not."""
        node = one_node(self.basis)
        return node is not None and node.tobytes() == np.eye(self.n, dtype=node.dtype).tobytes()

    def compose(self, values: np.ndarray, nodes=slice(None),
                rows: slice = slice(None)) -> np.ndarray:
        """B diag(values) B^H at the nodes that nodes selects, values given at
        those nodes; only the rows of the product that the slice rows selects.

        The einsum reads the basis C-contiguous: a view of a stored slab, a
        copy of a strided or broadcast one.  einsum's summation order, and so
        its last bits, can depend on the strides of its operands, so the bits
        do not depend on how the basis is stored.  An identity basis skips
        the einsum: values + 0.0 on the diagonal and +0 elsewhere are the
        einsum's bits."""
        if not self.identity_basis:
            return eigen_compose(np.ascontiguousarray(self.basis[nodes]), values, rows)
        diagonal = np.arange(self.n)[rows]
        out = np.zeros(values.shape[:-1] + (diagonal.size, self.n), dtype=complex)
        out[..., np.arange(diagonal.size), diagonal] = values[..., diagonal] + 0.0
        return out

    @cached_property
    def c0(self) -> np.ndarray:
        return np.any(self.null, axis=-1)

    @cached_property
    def branch_values(self) -> np.ndarray:
        """Continued branch frequencies W[..., b] = omega at the label of branch b."""
        return np.take_along_axis(self.omega, self.labels, axis=-1)

    @cached_property
    def branch_gradients(self) -> np.ndarray:
        """Central-difference gradients of continued branches, shape (*grid, n, d)."""
        W = self.branch_values
        grads = np.empty(W.shape + (self.d,))
        for axis in range(self.d):
            grads[..., axis] = (
                np.roll(W, -1, axis=axis) - np.roll(W, 1, axis=axis)
            ) / (2.0 * theta_step(self.L))
        return grads

    @property
    def branch_hessians(self) -> np.ndarray:
        """Central-difference Hessians of continued branches, shape (*grid, n, d, d),
        computed on each read: the cached hessian_determinants read them once."""
        W = self.branch_values
        h = theta_step(self.L)
        H = np.empty(W.shape + (self.d, self.d))
        for a in range(self.d):
            H[..., a, a] = (
                np.roll(W, -1, axis=a) - 2.0 * W + np.roll(W, 1, axis=a)
            ) / h**2
            for b in range(a + 1, self.d):
                pp = np.roll(np.roll(W, -1, axis=a), -1, axis=b)
                pm = np.roll(np.roll(W, -1, axis=a), 1, axis=b)
                mp = np.roll(np.roll(W, 1, axis=a), -1, axis=b)
                mm = np.roll(np.roll(W, 1, axis=a), 1, axis=b)
                H[..., a, b] = H[..., b, a] = (pp - pm - mp + mm) / (4.0 * h**2)
        return H

    @cached_property
    def hessian_determinants(self) -> np.ndarray:
        """det of the branch Hessians, shape (*grid, n)."""
        H = self.branch_hessians
        return H[..., 0, 0] if self.d == 1 else np.linalg.det(H)

    @cached_property
    def ck(self) -> np.ndarray:
        """Nodes off the crossings where a branch has |det Hess| <= delta_hess,
        or a determinant that changes sign across an incident edge, which
        certifies a root between nodes that the finite-difference error floor
        would hide."""
        D = self.hessian_determinants
        valid = ~self.crossing
        ck_branch = (np.abs(D) <= self.delta_hess) & valid[..., None]
        for axis in range(self.d):
            Dn = np.roll(D, -1, axis=axis)
            vn = np.roll(valid, -1, axis=axis)
            change = (D * Dn < 0.0) & valid[..., None] & vn[..., None]
            ck_branch |= change
            ck_branch |= np.roll(change, 1, axis=axis)
        return np.any(ck_branch, axis=-1)

    @cached_property
    def critical(self) -> np.ndarray:
        return self.c0 | self.crossing | self.ck

    def max_group_velocity(self) -> float:
        """Max |grad omega| over branches and nodes away from crossing flags."""
        speeds = np.linalg.norm(self.branch_gradients, axis=-1)
        ok = ~self.crossing
        if not np.any(ok):
            return float(speeds.max())
        return float(speeds[ok].max())


def _edge_permutation(B_here: np.ndarray, B_next: np.ndarray) -> np.ndarray:
    """Match eigenvector columns across one edge by maximal total overlap.

    scipy is imported here, not at module level: only tied edges and n > 4
    reach the assignment solver, and loading scipy is most of a cold CLI
    start-up.
    """
    from scipy.optimize import linear_sum_assignment

    overlap = np.abs(B_next.conj().T @ B_here)  # rows: next-local, cols: here-local
    rows, cols = linear_sum_assignment(-overlap)
    perm = np.empty(B_here.shape[1], dtype=np.int64)
    perm[cols] = rows
    return perm


def _edge_permutations(B_next: np.ndarray, B_here: np.ndarray) -> np.ndarray:
    """The permutation of each edge e, between the bases B_here[e] and
    B_next[e] (shape (edges, n, n)), that maximises the total eigenvector
    overlap: row e holds the next-local index that each here-local column
    takes.  Every edge is scored at once against every permutation; an edge
    whose best two scores lie within a relative _TIE_REL is matched by
    :func:`_edge_permutation`, so near-ties break exactly as the assignment
    solver breaks them.
    """
    edges, n = B_here.shape[0], B_here.shape[-1]
    # overlap[e, r, c] = |B_next^H B_here| for edge e: rows next-local, cols here-local
    overlap = np.abs(np.einsum("ekr,ekc->erc", B_next.conj(), B_here))
    if n <= _MAX_SCORED_BRANCHES:
        # candidate[p, c]: next-local index that here-local column c takes under p
        candidate = np.asarray(list(itertools.permutations(range(n))), dtype=np.int64)
        scores = overlap[:, candidate, np.arange(n)].sum(axis=-1)
        ranked = np.sort(scores, axis=-1)
        best, second = ranked[:, -1], ranked[:, -2]
        perms = candidate[np.argmax(scores, axis=-1)]
        tied = np.flatnonzero(best - second <= _TIE_REL * best)
    else:
        perms = np.empty((edges, n), dtype=np.int64)
        tied = np.arange(edges)
    for e in tied:
        perms[e] = _edge_permutation(B_here[e], B_next[e])
    return perms


def _branch_labels(B: np.ndarray) -> np.ndarray:
    """Continue branch labels along a spanning tree of the grid.

    Node x takes its labels from x - e_a, a the last axis with x_a != 0,
    through the permutation of that edge (:func:`_edge_permutations`).  The
    labels are composed along the tree one axis at a time, in L vectorised
    steps per axis.  A one-node basis joins every edge to a copy of itself,
    so one edge is scored and its permutation holds on every edge; it is the
    identity, as the overlap of a basis with itself is the identity matrix
    to roundoff, and then every node's labels are arange(n), broadcast.
    """
    shape, n = B.shape[:-2], B.shape[-1]
    d, L = len(shape), shape[0]
    node = one_node(B)
    if node is not None:
        perm = _edge_permutations(node[None], node[None])[0]
        perms = np.broadcast_to(perm, shape + (n,))
        if np.array_equal(perm, np.arange(n)):
            return perms
    else:
        flat_B = B.reshape(-1, n, n)
        nodes = np.arange(1, L**d)
        step = np.ones_like(nodes)
        while np.any(hit := nodes % (step * L) == 0):
            step[hit] *= L
        perms = np.empty((L**d, n), dtype=np.int64)
        perms[1:] = _edge_permutations(flat_B[nodes], flat_B[nodes - step])
        perms = perms.reshape(shape + (n,))
    labels = np.empty(shape + (n,), dtype=np.int64)
    labels[(0,) * d] = np.arange(n)
    for a in range(d):
        # the nodes whose later coordinates are all zero; x_a = 0 is labelled
        tail = (slice(None),) * (a + 1) + (0,) * (d - a - 1)
        lab, per = labels[tail], perms[tail]
        for i in range(1, L):
            lab[..., i, :] = np.take_along_axis(per[..., i, :], lab[..., i - 1, :], axis=-1)
    return labels


def dispersion_grid(kernel: InteractionKernel, L: int, delta_cross: float = DELTA_CROSS,
                    delta_null: float = DELTA_NULL,
                    delta_hess: float = DELTA_HESS,
                    symbol: np.ndarray | None = None) -> DispersionGrid:
    """Diagonalize the symbol on the (2 pi / L) Z^d grid and continue branches,
    flagging crossings at delta_cross, null frequencies at delta_null and,
    on first read of ck, flat curvature at delta_hess.  The flagged
    fractions are the measure estimate of the critical set: they must shrink
    under grid refinement for the continuum sets to have measure zero.

    L must be even and at least 16 so that subgrid refinement comparisons and
    the theta -> -theta symmetry are available.  A symbol with a non-finite
    entry (finite kernel entries can overflow) raises a NumericalFault before
    the eigensolver runs.  A symbol eigenvalue negative beyond roundoff
    raises a ConditionFailure with a failing E3 report of this grid.  symbol
    is the kernel's symbol_grid(L), if the caller holds it; else it is built
    here.  An eigenbasis with the same bits at every node is stored as one
    broadcast node, and its branch labels are scored on one edge.
    """
    if L < 16 or L % 2 != 0:
        raise ValueError("grid resolution L must be even and >= 16")
    d, n = kernel.d, kernel.n
    S = kernel.symbol_grid(L) if symbol is None else finite_symbol(symbol)
    if S.shape != (L,) * d + (n, n):
        raise ValueError(f"symbol grid of shape {S.shape} does not match L={L}")
    w, B = np.linalg.eigh(S)
    lowest = lowest_eigenvalue(w)
    if lowest.negative:
        # E3 fails on this grid, although it may pass on the scan grid
        raise ConditionFailure([e3_report(lowest, L, d)])
    omega = np.sqrt(np.clip(w, 0.0, None))  # clamp eigensolver roundoff
    omega_max = float(omega.max())
    split = delta_cross * (1.0 + omega_max)
    degen = _DEGENERATE_REL * (1.0 + omega_max)
    gaps = np.diff(omega, axis=-1)
    # equal ids within a node mark one cluster of near-degenerate frequencies;
    # a new cluster starts wherever the ascending gap reaches split
    ids = np.zeros(omega.shape, dtype=np.int8)
    ids[..., 1:] = np.cumsum(gaps >= split, axis=-1)
    crossing = np.any((gaps > degen) & (gaps < split), axis=-1)
    # a basis whose nodes all have node 0's bits (0.0 and -0.0 apart) is
    # stored once, as white_noise_density stores its node
    bits = B.reshape(-1, n * n).view(np.uint64)
    if np.all(bits == bits[0]):
        B = np.broadcast_to(B[(0,) * d].copy(), B.shape)
    # _branch_labels ranks the best two permutations; n == 1 has only one
    labels = np.broadcast_to(np.arange(1), B.shape[:-1]) if n == 1 else _branch_labels(B)
    return DispersionGrid(
        kernel=kernel,
        L=L,
        delta_cross=delta_cross,
        delta_null=delta_null,
        delta_hess=delta_hess,
        omega=omega,
        basis=B,
        cluster_id=ids,
        crossing=crossing,
        null=omega <= delta_null,
        labels=labels,
        omega_max=omega_max,
    )


def check_E4_E5(grid: DispersionGrid) -> list[ConditionReport]:
    """Numerical surrogates for the dispersion nondegeneracy conditions.

    E4: every branch must show nondegenerate curvature somewhere, i.e. some
    node outside the grid's C_0 and C_* flags with |det Hess omega_k| above the
    grid's delta_hess.  E5: no pair of branches may satisfy omega_k +- omega_l
    == const with const != 0, detected as a variance collapse (DELTA_CONST) of
    the pointwise sums/differences.
    """
    valid = ~(grid.crossing | grid.c0)
    D, W = grid.hessian_determinants, grid.branch_values
    witnesses4, witnesses5 = [], []
    for b in range(grid.n if np.any(valid) else 0):
        best = float(np.abs(D[..., b])[valid].max())
        if best <= grid.delta_hess:
            witnesses4.append({"branch": b, "value": best,
                               "note": "max |det Hess| over unflagged nodes is below threshold"})
        for c in range(b + 1, grid.n):
            for sign, tag in ((1.0, "+"), (-1.0, "-")):
                s = (W[..., b] + sign * W[..., c])[valid]
                mean, var = float(s.mean()), float(s.var())
                if var < DELTA_CONST**2 and abs(mean) > DELTA_CONST:
                    witnesses5.append({"branches": [b, c], "relation": tag,
                                       "value": mean, "variance": var})

    def report(condition, witnesses, tolerances, note):
        """Inconclusive when every node is flagged, else failing on a witness."""
        if not np.any(valid):
            witnesses = [{"value": 0.0, "note": "every node flagged; no usable evidence"}]
            return ConditionReport(condition, "inconclusive", witnesses, tolerances, note)
        return ConditionReport(condition, "fail" if witnesses else "pass", witnesses,
                               tolerances, note)

    return [report("E4", witnesses4, {"delta_hess": grid.delta_hess},
                   "curvature nondegeneracy per branch"),
            report("E5", witnesses5, {"delta_const": DELTA_CONST},
                   "no branch pair with constant nonzero sum or difference")]


def _inverse_frequency_weight(grid: DispersionGrid, density_matrix: np.ndarray,
                              stride: int) -> float:
    """Mean over a subgrid of ||Omega^-i qhat^{ij} Omega^-j||_F summed over blocks."""
    d, n = grid.d, grid.n
    sl = (slice(None, None, stride),) * d
    q = density_matrix[sl]
    Oinv = grid.compose(guarded_reciprocal(grid.omega[sl], ~grid.null[sl]), sl)
    total = 0.0
    for i in (0, 1):
        for j in (0, 1):
            block = q[..., i * n:(i + 1) * n, j * n:(j + 1) * n]
            if i == 1:
                block = Oinv @ block
            if j == 1:
                block = block @ Oinv
            total += float(np.sqrt((np.abs(block) ** 2).sum(axis=(-2, -1))).mean())
    return total


def check_ES(grid: DispersionGrid, density) -> ConditionReport:
    """Summability surrogate for the inverse-frequency-weighted spectral density.

    The quantity ||Omega^-i qhat0^{ij} Omega^-j|| must be integrable for the
    covariance limit to exist when the symbol degenerates.  Riemann sums on the
    stride-subsampled grids (resolutions L/4, L/2, L share their nodes with the
    full grid) either stabilize (ratio < 1.5: pass) or grow geometrically
    (ratio >= 1.8, the divergent benchmark approaches 2: fail); in between the
    test is inconclusive.  When the symbol never degenerates the weights are
    bounded and the check is skipped with a pass; when every sum is zero, the
    weighted density is zero, trivially summable, and passes.  A refinement
    whose coarser sum is zero has no ratio; the verdict reads the finest ratio
    that exists, and is inconclusive when none does.  The degenerate
    nodes and the inverse frequencies are the grid's, decided at
    grid.delta_null.
    """
    grid.require_match(density.L, density.d, density.n)
    c0_fraction = float(grid.c0.mean())
    if c0_fraction == 0.0:
        return ConditionReport(
            condition="ES",
            verdict="pass",
            witnesses=[{"value": 0.0, "note": "no degenerate nodes; weights bounded"}],
            tolerances={"delta_null": grid.delta_null},
            note="skipped: C_0 fraction is zero",
        )
    strides = [4, 2, 1] if grid.L % 4 == 0 else [2, 1]
    sums = [_inverse_frequency_weight(grid, density.matrix, s) for s in strides]
    tolerances = {"pass_below": 1.5, "fail_at": 1.8, "delta_null": grid.delta_null}
    if not any(sums):
        # no refinement ratio exists, and none is needed
        return ConditionReport(
            condition="ES",
            verdict="pass",
            witnesses=[{"value": 0.0, "sums": sums,
                        "note": "zero weighted density; trivially summable"}],
            tolerances=tolerances,
            note=f"every Riemann sum over strides {strides} is zero; "
                 f"C0 fraction {c0_fraction:.3e}",
        )
    # a step whose coarser sum is zero has no ratio (None)
    ratios = [fine / coarse if coarse else None for coarse, fine in zip(sums, sums[1:])]
    final = next((r for r in reversed(ratios) if r is not None), None)
    if final is None:
        verdict = "inconclusive"
        note = (f"no refinement ratio: every coarser Riemann sum over strides {strides} "
                f"is zero; C0 fraction {c0_fraction:.3e}")
    else:
        verdict = "pass" if final < 1.5 else "fail" if final >= 1.8 else "inconclusive"
        note = f"refinement ratios over strides {strides}; C0 fraction {c0_fraction:.3e}"
    return ConditionReport(
        condition="ES",
        verdict=verdict,
        witnesses=[{"value": final, "sums": sums, "ratios": ratios}],
        tolerances=tolerances,
        note=note,
    )

