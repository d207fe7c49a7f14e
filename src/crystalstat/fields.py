"""Translation-invariant random initial measures and their samplers.

A measure is described by its spectral density: per grid angle a Hermitian PSD
2n x 2n matrix qhat(theta) whose blocks are the Fourier transforms of the
displacement/velocity correlation functions.  Gaussian fields with that
covariance are drawn by colouring iid real white noise in Fourier space with
the nodewise Hermitian square root; reality of the samples is automatic since
white noise drawn in real space carries the exact conjugate pairing
What(-theta) = conj(What(theta)), including the self-conjugate nodes.

Samplers and transforms work on whole ensembles: one float array of shape
(S, 2n, *grid) whose leading axis indexes samples and whose second axis holds
the u components followed by the v components, each a contiguous grid block.

Sampling contract: the white noise of sample i under a seed is

    Generator(PCG64(SeedSequence(entropy=seed, spawn_key=(i,)))).standard_normal((*grid, 2n))

coloured as above, so stock numpy reproduces any single sample.  The package
computes the PCG64 seed words of a whole chunk with one vectorised pass of
SeedSequence's hash (:func:`_seed_states`) and hands each generator its row.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ._lattice import (
    NumericalFault,
    check_ensemble,
    check_integers,
    eigen_compose,
    forward_fft,
    fourier_series,
    hermitian_part,
    largest_modulus,
    lowest_eigenvalue,
    moved_axes,
    node_slabs,
    number_array,
    one_node,
    real_inverse_fft,
    reflected,
    theta_axis,
)

__all__ = [
    "SpectralDensity",
    "triangular_density",
    "white_noise_density",
    "density_from_covariance",
    "density_to_jsonable",
    "density_from_jsonable",
    "gaussian_ensemble",
    "nonlinear_transform_sample",
]

@dataclass(eq=False)
class SpectralDensity:
    """Spectral density of a translation-invariant measure on the L^d lattice.

    matrix has shape (L,)*d + (2n, 2n); the (i, j) block (i, j in {0, 1}) is
    the density of the (u, v) cross-covariance.

    excluded marks nodes that the integrals of the density count as zero: a
    long-time limit marks those where it needed an inverse frequency that the
    degenerate symbol does not provide, and excluded_fraction is their measure.
    cluster_id records, per node and branch, the equal-frequency grouping a
    limit kept.  Both are None on a plain measure; setting one fills the other
    with all-False or all-0.
    """

    L: int
    d: int
    n: int
    matrix: np.ndarray
    provenance: str = "analytic"
    excluded: Optional[np.ndarray] = None
    cluster_id: Optional[np.ndarray] = None
    _sqrt_cache: Optional[np.ndarray] = field(default=None, init=False, repr=False)

    def __post_init__(self):
        nodes = (self.L,) * self.d
        expected = nodes + (2 * self.n, 2 * self.n)
        if self.matrix.shape != expected:
            raise ValueError(f"density matrix must have shape {expected}")
        if self.excluded is not None or self.cluster_id is not None:
            if self.excluded is None:
                self.excluded = np.zeros(nodes, dtype=bool)
            if self.cluster_id is None:
                self.cluster_id = np.zeros(nodes + (self.n,), dtype=int)
        # the scale and both gaps are maxima of the same elementwise moduli
        # as the whole-array expressions, taken slab by slab; np.max keeps a
        # NaN, where Python's max would drop it.  One NaN or infinite entry
        # makes the scale non-finite, and is refused before any difference
        # is formed: a NaN gap would compare false and pass the gates below.
        # A one-node density is checked on its node, which every node reads:
        # the same moduli, so the same scale, gaps and verdicts
        matrix, d = self.matrix, self.d
        node = one_node(matrix)
        if node is not None:
            matrix = node[(None,) * d]
        scale = 1.0 + largest_modulus(matrix)
        if not np.isfinite(scale):
            raise ValueError("density matrix must be finite")
        slabs = list(node_slabs(matrix))
        buf = np.empty(matrix[slabs[0]].shape, dtype=complex)
        herm, reality = [], []
        for rows in slabs:
            slab, b = matrix[rows], buf[:rows.stop - rows.start]
            np.conjugate(np.swapaxes(slab, -1, -2), out=b)
            np.subtract(slab, b, out=b)
            herm.append(np.max(np.absolute(b, out=b).real))
            # reality of the underlying field: qhat(-theta) = conj(qhat(theta)),
            # measured as |conj(qhat(-theta)) - qhat(theta)|, the same moduli
            np.conjugate(reflected(matrix, d, b, rows.start), out=b)
            np.subtract(b, slab, out=b)
            reality.append(np.max(np.absolute(b, out=b).real))
        herm_gap = float(np.max(herm))
        if herm_gap > 1e-8 * scale:
            raise ValueError(f"density is not Hermitian (gap {herm_gap:.3e})")
        reality_gap = float(np.max(reality))
        if reality_gap > 1e-8 * scale:
            raise ValueError(f"density violates reality symmetry (gap {reality_gap:.3e})")

    @property
    def excluded_fraction(self) -> float:
        return 0.0 if self.excluded is None else float(self.excluded.mean())

    def hermitian_sqrt(self) -> np.ndarray:
        """Nodewise PSD square root, cached; raises a NumericalFault if any
        node has an eigenvalue negative beyond roundoff.  A one-node density
        is diagonalised at its node, and its root is that node's broadcast to
        the grid (read-only)."""
        if self._sqrt_cache is None:
            node = one_node(self.matrix)
            matrix = self.matrix if node is None else node[(None,) * self.d]
            w, U = np.linalg.eigh(matrix)
            lowest = lowest_eigenvalue(w)
            if lowest.negative:
                raise NumericalFault(
                    f"density is not positive semidefinite at node {lowest.node} "
                    f"(eigenvalue {lowest.value:.3e})"
                )
            root = eigen_compose(U, np.sqrt(np.clip(w, 0.0, None)))
            self._sqrt_cache = (root if node is None
                                else np.broadcast_to(root, self.matrix.shape))
        return self._sqrt_cache


def triangular_density(nu0: int, d: int, T0: float, T1: float, L: int) -> SpectralDensity:
    """Scalar (n = 1) density with hat-function correlations.

    Per axis the correlation spectrum is (1 - cos(nu0 theta)) / (1 - cos theta),
    the Fourier transform of the triangular hat max(nu0 - |z|, 0); the value at
    theta = 0 is the removable limit nu0^2.  Displacements and velocities are
    uncorrelated with temperatures T0 and T1.
    """
    if nu0 < 1 or int(nu0) != nu0:
        raise ValueError("nu0 must be a positive integer")
    if not (0 <= T0 < np.inf and 0 <= T1 < np.inf):
        raise ValueError(f"temperatures must be finite and nonnegative, got T0={T0} T1={T1}")
    th = theta_axis(L)
    denom = 1.0 - np.cos(th)
    numer = 1.0 - np.cos(nu0 * th)
    axis_profile = np.where(denom > 1e-12, numer / np.where(denom > 1e-12, denom, 1.0),
                            float(nu0) ** 2)
    profile = np.ones((L,) * d)
    for axis in range(d):
        shape = [1] * d
        shape[axis] = L
        profile = profile * axis_profile.reshape(shape)
    matrix = np.zeros((L,) * d + (2, 2), dtype=complex)
    matrix[..., 0, 0] = T0 * profile
    matrix[..., 1, 1] = T1 * profile
    return SpectralDensity(
        L=L, d=d, n=1, matrix=matrix,
        provenance=f"analytic:triangular(nu0={nu0},T0={T0},T1={T1})",
    )


def white_noise_density(T0: float, T1: float, n: int, d: int, L: int) -> SpectralDensity:
    """Site-uncorrelated measure: constant density diag(T0 I, T1 I).

    The matrix is one node broadcast to every grid node: a read-only view
    that holds 2n x 2n entries, not one copy per node."""
    if not (0 <= T0 < np.inf and 0 <= T1 < np.inf):
        raise ValueError(f"temperatures must be finite and nonnegative, got T0={T0} T1={T1}")
    node = np.diag(np.repeat([complex(T0), complex(T1)], n))
    return SpectralDensity(
        L=L, d=d, n=n, matrix=np.broadcast_to(node, (L,) * d + node.shape),
        provenance=f"analytic:white(T0={T0},T1={T1})",
    )


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx), on Python ints
# or on uint64 arrays that hold uint32 values
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def _words(value: int) -> list:
    """Little-endian uint32 words of a non-negative int; [0] for zero."""
    words = [value & _MASK32]
    while value > _MASK32:
        value >>= 32
        words.append(value & _MASK32)
    return words


def _mix(x, y):
    result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return result ^ (result >> 16)


def _seed_states(seed, indices) -> np.ndarray:
    """SeedSequence(entropy=seed, spawn_key=(i,)).generate_state(4, np.uint64)
    for every index i, shape (S, 4), from one vectorised hash per key length.

    The seed's words fill the pool the same way for every sample, so only the
    spawn-key words (one below 2**32, two below 2**64, ...) are hashed per row.
    """
    if not isinstance(seed, (int, np.integer)):
        raise TypeError(f"seed must be an integer, got {seed!r}")
    index = np.array(indices, dtype=object)
    if seed < 0 or (index < 0).any():
        raise ValueError("expected non-negative integer")
    entropy = _words(int(seed))
    entropy += [0] * (_POOL_SIZE - len(entropy))
    key_words, rest = [], index
    lengths = np.ones(len(index), dtype=int)
    while True:
        key_words.append((rest & _MASK32).astype(np.uint64))
        rest = rest >> 32
        longer = rest > 0
        if not longer.any():
            break
        lengths += longer
    states = np.empty((len(index), _POOL_SIZE), dtype=np.uint64)
    # np.unique would import numpy.ma on every call (numpy 2.4)
    for length in sorted(set(lengths.tolist())):
        rows = lengths == length
        words = entropy + [column[rows] for column in key_words[:length]]
        states[rows] = _hashed_state(words)
    return states


def _hasher(hash_const: int, mult: int):
    """SeedSequence's hashmix: each call xors in the running constant, steps
    the constant and multiplies by it."""
    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = (hash_const * mult) & _MASK32
        value = (value * hash_const) & _MASK32
        return value ^ (value >> 16)
    return hashmix


def _hashed_state(entropy: list) -> np.ndarray:
    """SeedSequence's mix_entropy into a pool of 4, then generate_state(4,
    np.uint64), over entropy words that are ints or equal-length uint64 arrays.
    At least one word is an array, so every pool word is one after the mixing."""
    hashmix = _hasher(_INIT_A, _MULT_A)
    pool = [hashmix(word) for word in entropy[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(word))
    output = _hasher(_INIT_B, _MULT_B)
    state = [output(pool[dst % _POOL_SIZE]) for dst in range(2 * _POOL_SIZE)]
    return np.stack([lo | (hi << 32) for lo, hi in zip(state[0::2], state[1::2])], axis=-1)


class _Seeded(np.random.bit_generator.ISeedSequence):
    """Seed sequence that hands PCG64 its precomputed generate_state(4, uint64)."""

    def __init__(self, state: np.ndarray):
        self._state = state

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError("only the PCG64 seed request (4, np.uint64) is precomputed")
        return self._state


def _white_noise_draws(L: int, d: int, n: int, seed: int, indices,
                       out: Optional[np.ndarray] = None) -> np.ndarray:
    """Stacked standard-normal fields, one generator per (seed, sample index),
    shape (S, *grid, 2n): each generator fills its sample in this order, in
    out when it is given (an array of that shape)."""
    shape = (L,) * d + (2 * n,)
    states = _seed_states(seed, indices)
    if out is None:
        out = np.empty((len(states),) + shape)
    for row, state in enumerate(states):
        np.random.Generator(np.random.PCG64(_Seeded(state))).standard_normal(shape, out=out[row])
    return out


def gaussian_ensemble(density: SpectralDensity, count: int, seed: int,
                      start_index: int = 0) -> np.ndarray:
    """count iid Gaussian samples drawn at sample indices start_index, ...

    Returns the ensemble array (count, 2n, *grid): white noise coloured in
    Fourier space by the nodewise Hermitian square root.  Each sample is
    deterministic per (seed, index) and independent of generation order, so
    consecutive index blocks concatenate to the array of the whole range.
    """
    if count < 1:
        raise ValueError("count must be positive")
    R = _colouring_root(density)
    W = _white_noise_draws(density.L, density.d, density.n, seed,
                           range(start_index, start_index + count))
    return _coloured_noise(R, W)


def _colouring_root(density: SpectralDensity) -> np.ndarray:
    """The density's nodewise Hermitian square root as the colouring reads
    it: a C-contiguous (2n, 2n, *grid) copy, or, when every off-diagonal
    entry is zero (white, triangular), a C-contiguous (2n, *grid) copy of
    its diagonal."""
    root = density.hermitian_sqrt()
    diagonal = np.diagonal(root, axis1=-2, axis2=-1)
    if np.count_nonzero(root) == np.count_nonzero(diagonal):
        return moved_axes(diagonal, -1, 0)
    return moved_axes(root, (-2, -1), (0, 1))


def _coloured_noise(R: np.ndarray, W: np.ndarray, out: Optional[np.ndarray] = None,
                    work: Optional[np.ndarray] = None) -> np.ndarray:
    """The ensemble array (S, 2n, *grid) of white noise W (S, *grid, 2n)
    coloured in Fourier space by R, a density's :func:`_colouring_root`.

    A diagonal root multiplies each component by its own entry, with the
    bits of the full product: einsum sums from +0, and each off-diagonal
    term of the full sum is a signed zero, as the noise's transform is
    finite.  work, a complex array (2, S, 2n, *grid), holds the noise's
    transform and the coloured transform, whose values the inverse
    transform spends, and the result is written into out, a real
    (S, 2n, *grid) array; either is allocated when not given, with the same
    bits."""
    noise = np.moveaxis(W, -1, 1)
    if work is None:
        work = np.empty((2,) + noise.shape, dtype=complex)
    axes = tuple(range(2, W.ndim))
    # the transform reads the noise through a transposed view: the copy into
    # its complex array is the layout change
    What = forward_fft(noise, axes, out=work[0])
    subscripts = "i...,si...->si..." if R.ndim < W.ndim else "ij...,sj...->si..."
    zhat = np.einsum(subscripts, R, What, out=work[1])
    return real_inverse_fft(zhat, axes, 1e-6, "gaussian_ensemble", out=out)


def nonlinear_transform_sample(Y, a0: float, a1: float,
                               out: Optional[np.ndarray] = None) -> np.ndarray:
    """Apply the bounded odd map y -> a tanh(y / a) componentwise to an ensemble.

    Displacements use amplitude a0, velocities a1.  The transform preserves
    translation invariance and zero mean while destroying gaussianity.  The
    result is written into out (which may be Y) when it is given.
    """
    Y, _, d, n = check_ensemble(Y)
    if not (0.0 < a0 < np.inf and 0.0 < a1 < np.inf):
        raise ValueError("transform amplitudes must be finite and positive")
    amplitude = np.repeat([float(a0), float(a1)], n).reshape((2 * n,) + (1,) * d)
    # amplitude * tanh(Y / amplitude): the same ufuncs and operand order in one buffer
    out = np.divide(Y, amplitude, out=out)
    np.tanh(out, out=out)
    return np.multiply(amplitude, out, out=out)


def density_from_covariance(cov: dict, L: int,
                            provenance: str = "empirical") -> SpectralDensity:
    """Assemble a density from finitely many real-space covariance matrices.

    cov maps offsets z (integer tuples, all of one length d) to real (2n, 2n) matrices;
    qhat(theta) = sum_z q(z) e^{i z.theta}.  The input is symmetrized with its
    mirror q(-z) = q(z)^T, so supplying either half or both is fine, and the
    result is Hermitized, and nodewise negative eigenvalues (estimation
    noise) are projected to zero.
    """
    if not cov:
        raise ValueError("empty covariance table")
    half = L // 2

    def reduce_offset(z):
        return tuple(((int(c) + half) % L) - half for c in z)

    d = len(next(iter(cov)))
    table = {}
    for z, mat in cov.items():
        if len(z) != d:
            raise ValueError(f"offset {tuple(z)} has wrong dimension")
        key = reduce_offset(z)
        if key in table:
            raise ValueError(f"duplicate offset {key} (offsets are periodic modulo L)")
        table[key] = np.asarray(mat, dtype=float)
    two_n = next(iter(table.values())).shape[0]
    if two_n % 2:
        raise ValueError("covariance matrices must be (2n, 2n)")
    n = two_n // 2
    for z, mat in table.items():
        if mat.shape != (two_n, two_n):
            raise ValueError(f"covariance at {z} has wrong shape {mat.shape}")
    # mirror completion: pairs present on both sides are averaged, lone
    # entries induce q(-z) = q(z)^T, z = 0 is symmetrized
    merged = {}
    for z, mat in table.items():
        if z in merged:
            continue
        mz = reduce_offset(tuple(-c for c in z))
        if mz == z:
            merged[z] = 0.5 * (mat + mat.T)
        elif mz in table:
            avg = 0.5 * (mat + table[mz].T)
            merged[z] = avg
            merged[mz] = avg.T
        else:
            merged[z] = mat
            merged[mz] = mat.T
    w, U = np.linalg.eigh(hermitian_part(fourier_series(merged.items(), L, d, (two_n, two_n))))
    out = eigen_compose(U, np.clip(w, 0.0, None))
    return SpectralDensity(L=L, d=d, n=n, matrix=out, provenance=provenance)


def density_to_jsonable(density: SpectralDensity) -> dict:
    """Binary-free JSON form: nested lists of node arrays, split re/im."""
    doc = {
        "L": density.L,
        "d": density.d,
        "n": density.n,
        "provenance": density.provenance,
        "matrix_re": density.matrix.real.tolist(),
        "matrix_im": density.matrix.imag.tolist(),
    }
    if density.excluded is not None:
        doc["excluded"] = density.excluded.tolist()
        doc["cluster_id"] = density.cluster_id.tolist()
    return doc


def density_from_jsonable(doc: dict) -> SpectralDensity:
    """The density of a :func:`density_to_jsonable` form, read as a measure.

    A limit's excluded and cluster_id are checked, so that a malformed file is
    refused, and dropped: a measure's own limit recomputes them.
    """
    if not isinstance(doc, dict):
        raise ValueError("density file must contain a JSON object")
    required = ("L", "d", "n", "matrix_re", "matrix_im")
    missing = [key for key in required if key not in doc]
    if missing:
        raise ValueError(f"density file lacks fields {missing}")
    extra = set(doc) - set(required) - {"provenance", "excluded", "cluster_id"}
    if extra:
        raise ValueError(f"unknown density fields: {sorted(extra)}")
    check_integers(doc, ("L", "d", "n"), "density file")
    matrix = number_array(doc["matrix_re"], "density file matrix_re") + 1j * number_array(
        doc["matrix_im"], "density file matrix_im")
    nodes = (doc["L"],) * doc["d"]
    if "excluded" in doc:
        _check_node_array(doc, "excluded", bool, nodes)
    if "cluster_id" in doc:
        _check_node_array(doc, "cluster_id", int, nodes + (doc["n"],))
    return SpectralDensity(L=doc["L"], d=doc["d"], n=doc["n"], matrix=matrix,
                           provenance=str(doc.get("provenance", "file")))


def _check_node_array(doc: dict, key: str, kind: type, shape: tuple) -> None:
    """Refuse doc[key] unless it is an array of this shape whose every entry is
    of this kind, bool or a 64-bit int: a boolean is not an integer here, nor
    a float."""
    entries = np.array(doc[key], dtype=object)
    if entries.shape == shape and all(type(v) is kind for v in entries.flat):
        try:
            entries.astype(kind)
        except OverflowError:  # an integer beyond 64 bits
            pass
        else:
            return
    name = {bool: "boolean", int: "integer"}[kind]
    raise ValueError(f"density file {key} must be an all-{name} array of shape {shape}")
