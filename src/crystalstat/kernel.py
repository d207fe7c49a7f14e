"""Finite-range interaction kernels on the integer lattice.

A kernel V assigns an n x n real matrix V(z) to finitely many offsets z in Z^d
and drives the second-order dynamics  u''(x) = -sum_y V(x - y) u(y).  The class
stores the full offset map closed under the symmetry V(-z) = V(z)^T, which makes
the Fourier symbol Vhat(theta) = sum_z V(z) e^{i z.theta} Hermitian at every theta.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

import numpy as np

from ._lattice import (
    check_integers,
    finite_symbol,
    fourier_series,
    hermitian_part,
    lowest_eigenvalue,
    number_array,
    offset_cube,
    theta_axis,
)

__all__ = [
    "InteractionKernel",
    "ConditionReport",
    "ConditionFailure",
    "build_nn_kernel",
    "random_finite_range_kernel",
    "check_E123",
    "e3_report",
    "kernel_from_json",
]


def _scan_resolution(d: int) -> int:
    """The default per-axis resolution of an eigenvalue scan in dimension d."""
    return {1: 1024, 2: 128, 3: 32}.get(d, 8)


def canonical_offset(z) -> bool:
    """True for the representative of an offset pair {z, -z}.

    The canonical half-space keeps z = 0 and every z whose first nonzero
    coordinate is positive.
    """
    for c in z:
        if c > 0:
            return True
        if c < 0:
            return False
    return True


@dataclass
class ConditionReport:
    """Outcome of one numerical condition check.

    verdict is one of "pass", "fail", "inconclusive".  A fail always carries at
    least one witness; a witness is a dict with a "value" and, when meaningful,
    a grid "location".
    """

    condition: str
    verdict: str
    witnesses: list = field(default_factory=list)
    tolerances: dict = field(default_factory=dict)
    note: str = ""

    def __post_init__(self):
        if self.verdict not in ("pass", "fail", "inconclusive"):
            raise ValueError(f"unknown verdict {self.verdict!r}")
        if self.verdict == "fail" and not self.witnesses:
            raise ValueError(f"{self.condition}: fail verdict requires a witness")

    def to_jsonable(self) -> dict:
        return asdict(self)


class ConditionFailure(ValueError):
    """A condition of the theorem fails: reports holds the reports of the
    check that raised it, the failing ones among them."""

    def __init__(self, reports):
        self.reports = list(reports)
        super().__init__(", ".join(r.condition for r in self.reports if r.verdict == "fail"))


class InteractionKernel:
    """Finite-range matrix kernel, closed under V(-z) = V(z)^T.

    Parameters
    ----------
    d : spatial dimension (>= 1)
    n : number of field components (>= 1)
    entries : mapping offset tuple -> (n, n) array_like.  Missing mirrors are
        filled in as exact transposes; if both members of a pair are supplied
        they must agree bitwise with the transpose relation.  V(0), if present,
        must be exactly symmetric.
    """

    def __init__(self, d: int, n: int, entries):
        if d < 1 or n < 1:
            raise ValueError("d and n must be positive")
        self.d = int(d)
        self.n = int(n)
        store: dict[tuple, np.ndarray] = {}
        for z, mat in entries.items():
            z = tuple(int(c) for c in z)
            if len(z) != self.d:
                raise ValueError(f"offset {z} does not have dimension {d}")
            mat = np.array(mat, dtype=float)
            if mat.shape != (self.n, self.n):
                raise ValueError(f"entry at {z} has shape {mat.shape}, expected {(n, n)}")
            if not np.all(np.isfinite(mat)):
                raise ValueError(f"entry at {z} has non-finite values")
            store[z] = mat
        zero = (0,) * self.d
        if zero in store and not np.array_equal(store[zero], store[zero].T):
            raise ValueError("V(0) must be exactly symmetric")
        full: dict[tuple, np.ndarray] = {}
        for z, mat in store.items():
            mz = tuple(-c for c in z)
            if mz in store and not np.array_equal(store[mz], mat.T):
                raise ValueError(f"entries at {z} and {mz} violate V(-z) = V(z)^T")
            full[z] = mat
            full.setdefault(mz, mat.T.copy())
        for mat in full.values():
            mat.flags.writeable = False
        # deterministic iteration order
        self.entries = {z: full[z] for z in sorted(full)}

    @property
    def range(self) -> int:
        """Largest Chebyshev radius max_i |z_i| over stored offsets."""
        return max((max(abs(c) for c in z) for z in self.entries), default=0)

    def symbol(self, theta) -> np.ndarray:
        """Fourier symbol Vhat(theta) = sum_z V(z) e^{i z.theta}, Hermitian (n, n)."""
        theta = np.asarray(theta, dtype=float)
        if theta.shape != (self.d,):
            raise ValueError(f"theta must have shape ({self.d},)")
        acc = np.zeros((self.n, self.n), dtype=complex)
        for z, mat in self.entries.items():
            acc += mat * np.exp(1j * float(np.dot(z, theta)))
        return 0.5 * (acc + acc.conj().T)

    def symbol_grid(self, L: int) -> np.ndarray:
        """Symbol on the full theta grid, shape (L,)*d + (n, n).  Finite
        entries can sum past the float range: a symbol with a non-finite
        entry raises a NumericalFault (``_lattice.finite_symbol``), and numpy's
        overflow warnings on the way are not printed."""
        if L < 1:
            raise ValueError("L must be positive")
        with np.errstate(over="ignore", invalid="ignore"):
            S = hermitian_part(fourier_series(self.entries.items(), L, self.d, (self.n, self.n)))
        return finite_symbol(S)

    def convolve(self, u: np.ndarray) -> np.ndarray:
        """(V * u)(x) = sum_z V(z) u(x - z) on a periodic field (n, *grid) or a
        batch of them (S, n, *grid), component-major as ensembles are; the grid
        axes are the last d."""
        out = np.zeros_like(u)
        axes = tuple(range(u.ndim - self.d, u.ndim))
        flat = u.shape[:u.ndim - self.d] + (-1,)
        for z, mat in self.entries.items():
            shifted = np.roll(u, shift=z, axis=axes)
            out += (mat @ shifted.reshape(flat)).reshape(u.shape)
        return out

    def __eq__(self, other):
        if not isinstance(other, InteractionKernel):
            return NotImplemented
        return (
            self.d == other.d
            and self.n == other.n
            and self.entries.keys() == other.entries.keys()
            and all(np.array_equal(self.entries[z], other.entries[z]) for z in self.entries)
        )

    def __repr__(self):
        return (
            f"InteractionKernel(d={self.d}, n={self.n}, range={self.range}, "
            f"offsets={len(self.entries)})"
        )


def build_nn_kernel(d: int, n: int, masses) -> InteractionKernel:
    """Nearest-neighbour elastic kernel with optional on-site masses.

    Component i follows a discrete wave equation with frequency
    omega_i(theta)^2 = 2 sum_j (1 - cos theta_j) + m_i^2, realized by
    V(0) = 2 d I + diag(m_i^2) and V(+-e_j) = -I.

    masses may be a scalar or a length-n sequence.
    """
    m = np.asarray(masses, dtype=float)
    if m.ndim == 0:
        m = np.full(n, float(m))
    if m.shape != (n,):
        raise ValueError(f"masses must be scalar or length {n}")
    if np.any(m < 0):
        raise ValueError("masses must be nonnegative")
    entries = {(0,) * d: 2.0 * d * np.eye(n) + np.diag(m**2)}
    for axis in range(d):
        e = [0] * d
        e[axis] = 1
        entries[tuple(e)] = -np.eye(n)
    return InteractionKernel(d, n, entries)


def random_finite_range_kernel(d: int, n: int, N: int, seed: int) -> InteractionKernel:
    """Random kernel supported on the Chebyshev ball of radius N.

    Free coordinates (the symmetric part of V(0) and the full matrices at
    canonical offsets) are drawn iid standard normal from a generator seeded
    with `seed`; the remaining entries follow from V(-z) = V(z)^T.  The
    on-site matrix is then shifted by c I so the symbol is nonnegative on the
    E3 scan grid, with a margin clear of the E3 inconclusive band.
    """
    if N < 0:
        raise ValueError("range N must be >= 0")
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n))
    entries = {(0,) * d: 0.5 * (A + A.T)}
    for z in offset_cube(N, d):
        if z == (0,) * d or not canonical_offset(z):
            continue
        entries[z] = rng.standard_normal((n, n))
    kernel = InteractionKernel(d, n, entries)
    w = np.linalg.eigvalsh(kernel.symbol_grid(_scan_resolution(d)))
    c = max(0.0, -float(w.min())) + 1e-4
    entries = dict(kernel.entries)
    entries[(0,) * d] = entries[(0,) * d] + c * np.eye(n)
    return InteractionKernel(d, n, entries)


def check_E123(kernel: InteractionKernel,
               symbol: np.ndarray | None = None) -> list[ConditionReport]:
    """Check the structural kernel conditions; returns reports for E1, E2, E3.

    E1 (finite range): every stored offset lies in a finite Chebyshev ball and
    every entry is finite.  E2 (symmetry): V(-z) = V(z)^T bitwise over stored
    entries.  E3 (nonnegative symbol): min eigenvalue of Vhat over the theta
    grid of the dimension's scan resolution (_scan_resolution), judged by
    :func:`e3_report`.  A dispersion grid of another resolution judges its own
    eigenvalues by the same rule.  symbol is a symbol grid of the kernel that
    the caller holds to diagonalise next; the check reads it when it is at
    the scan resolution, else builds its own.  A symbol with a non-finite
    entry, whose eigenvalues no tolerance can judge, raises a NumericalFault.
    """
    grid_resolution = _scan_resolution(kernel.d)
    scan_shape = (grid_resolution,) * kernel.d + (kernel.n, kernel.n)
    held = symbol is not None and symbol.shape == scan_shape
    symbol = finite_symbol(symbol) if held else kernel.symbol_grid(grid_resolution)
    reports = []

    N = kernel.range
    finite = all(np.all(np.isfinite(m)) for m in kernel.entries.values())
    reports.append(
        ConditionReport(
            condition="E1",
            verdict="pass" if finite else "fail",
            witnesses=[{"value": float(N), "note": "Chebyshev support radius"}],
            tolerances={},
            note="finite-range specialization; stored support is finite by construction",
        )
    )

    bad = [
        list(z)
        for z, mat in kernel.entries.items()
        if not np.array_equal(kernel.entries[tuple(-c for c in z)], mat.T)
    ]
    reports.append(
        ConditionReport(
            condition="E2",
            verdict="fail" if bad else "pass",
            witnesses=[{"location": z, "value": 0.0} for z in bad],
            tolerances={"exact": 0.0},
            note="V(-z) = V(z)^T checked bitwise on stored entries",
        )
    )

    w = np.linalg.eigvalsh(symbol)
    reports.append(e3_report(lowest_eigenvalue(w), grid_resolution, kernel.d))
    return reports


def e3_report(lowest, L: int, d: int) -> ConditionReport:
    """E3 report of the :func:`lowest_eigenvalue` of the symbol over the L^d
    theta grid.

    A minimum negative beyond roundoff fails; an exact zero touch (|min|
    within roundoff) passes, since frequencies are allowed to vanish on a null
    set; a strictly positive margin below 1e-6 is inconclusive because the
    grid cannot certify the continuum inequality.
    """
    if lowest.negative:
        verdict = "fail"
    elif lowest.tolerance < lowest.value < 1e-6:
        verdict = "inconclusive"  # positive but below certifiable margin
    else:
        verdict = "pass"
    return ConditionReport(
        condition="E3",
        verdict=verdict,
        witnesses=[{"location": theta_axis(L)[np.asarray(lowest.node)].tolist(),
                    "value": lowest.value}],
        tolerances={"zero_tolerance": lowest.tolerance, "margin": 1e-6},
        note=f"min symbol eigenvalue over {L}^{d} grid",
    )


def kernel_to_jsonable(kernel: InteractionKernel) -> dict:
    """JSON-ready dict listing only canonical offsets; mirrors are implied."""
    entries = [
        {"z": list(z), "matrix": kernel.entries[z].tolist()}
        for z in sorted(kernel.entries)
        if canonical_offset(z)
    ]
    return {"d": kernel.d, "n": kernel.n, "N": kernel.range, "entries": entries}


def kernel_from_json(text: str) -> InteractionKernel:
    """The kernel of the JSON text of :func:`kernel_to_jsonable`'s dict;
    validates ranges and closes mirrors."""
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise ValueError("kernel file must contain a JSON object")
    keys = ("d", "n", "N", "entries")
    for key in doc:
        if key not in keys:
            raise ValueError(f"unknown kernel file key {key!r}")
    missing = [key for key in keys if key not in doc]
    if missing:
        raise ValueError(f"kernel file lacks keys {missing}")
    check_integers(doc, ("d", "n", "N"), "kernel file")
    if not isinstance(doc["entries"], list):
        raise ValueError("kernel file entries must be a list")
    entries = {}
    for item in doc["entries"]:
        if not isinstance(item, dict) or not {"z", "matrix"} <= item.keys():
            raise ValueError("each kernel file entry needs keys 'z' and 'matrix'")
        z = item["z"]
        if not isinstance(z, list) or any(type(c) is not int for c in z):
            raise ValueError(f"kernel file offsets must be lists of integers, got {z!r}")
        bounds = np.iinfo(np.intp)
        if any(not bounds.min <= c <= bounds.max for c in z):
            raise ValueError(f"kernel file offset coordinates must lie in "
                             f"{bounds.min}..{bounds.max}, got {z!r}")
        z = tuple(z)
        if not canonical_offset(z):
            raise ValueError(f"kernel file must list canonical offsets only, got {z}")
        if z in entries:
            raise ValueError(f"duplicate offset {z}")
        entries[z] = number_array(item["matrix"], f"kernel file matrix at {z}")
    kernel = InteractionKernel(doc["d"], doc["n"], entries)
    if kernel.range > doc["N"]:
        raise ValueError(f"stored range {kernel.range} exceeds declared N={doc['N']}")
    return kernel
