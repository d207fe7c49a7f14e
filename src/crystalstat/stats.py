"""Ensemble estimators: covariances, characteristic functionals, moment checks.

Everything here consumes ensemble arrays (S, 2n, *grid), u components first,
or plain sample arrays, and produces numbers with Monte Carlo error bars
attached, so that comparisons against the transported and limiting densities
can be gated at 3 sigma.

Each estimator refuses fewer samples than MIN_SAMPLES names for what it
estimates (require_samples).  Estimators that average over samples come as a
per-sample step and one reduction (offset_products, then
covariance_summary).  stream_ensemble
draws, transforms and evolves an ensemble in fixed-byte chunks and keeps only
per-sample statistics, so that peak memory does not grow with the sample
count and the reduction sees the same arrays as for the whole ensemble at once.
It samples one chunk ahead, with the same bytes: a helper process, forked
for the call and kept off the calling thread's CPU, draws and colours chunk
k+1 into the second of two real slots while the calling thread transforms,
evolves and reduces chunk k.  The two processes do not share an interpreter
lock, so the helper's per-sample generator fills do not wait on the calling
thread's interpreter work, nor it on theirs.  Where forking is unsafe
(_lattice.fork_is_safe), the calling thread samples each chunk in line
before it handles it, with the same bytes.

Every chunk-sized array of the loop is allocated once per stream and reused
by each chunk: on the sampling side, two complex work arrays in which the
colouring transforms in place; the two real slots of the initial field, in
one shared anonymous mapping, each of which takes a chunk's white noise and
then its colouring; and on the calling side two complex work arrays in
which the propagator (one dynamics.Propagator per stream) transforms in
place; the evolved field is the real part written over the spent first of
these.  offset_products, the per-sample step of the covariance estimators
as one callable, keeps its two sample-major arrays likewise.  So no chunk
after the first allocates an array of its size, and malloc does not fault
the same pages in again for each chunk.
"""

from __future__ import annotations

import math
import mmap
import pickle
from functools import partial

import numpy as np

from ._lattice import (
    Helper,
    check_ensemble,
    current_cpu,
    fork_is_safe,
    pickled,
    real_view,
    translated,
)
from .covariance import quadratic_form
from .dynamics import Propagator
from .fields import GaussianSampler, nonlinear_transform_sample

__all__ = [
    "require_samples",
    "stream_ensemble",
    "offset_products",
    "covariance_summary",
    "empirical_covariance",
    "empirical_mixing_support",
    "linear_functional_samples",
    "characteristic_functional",
    "gaussianity_report",
]


# Fewest samples each estimator accepts, by what it estimates.
MIN_SAMPLES = {
    "covariance error bars": 100,
    "moment diagnostics": 1000,
    "the characteristic functional": 1000,
}

# The lam values at which characteristic_functional compares E[exp(i lam X)].
LAMBDAS = (0.25, 0.5, 1.0, 2.0)

# Bytes of one complex copy of a chunk, (chunk, 2n, *grid) complex128, that
# stream_ensemble aims for.  It allocates its working set once per stream:
# four such complex arrays (two for the colouring on the sampling side, two
# for the propagator) and two real slots of half that size each, in a shared
# mapping, which take a chunk's white noise and then its coloured Y0 (one
# chunk is sampled ahead); clt's statistics keep two more real chunk arrays
# in offset_products.  tracemalloc sees only the calling process, and not
# the mapping: for clt at d=1 L=256 (128 samples a chunk) the stream of 1024
# samples peaks at 3.3 MB traced there when the helper process samples, and
# at 5.4 MB when it samples in line, whose colouring arrays are traced too
# (6.5 MB when the slots were traced as well, 7.0 MB when the sampling side
# drew into a noise array of its own, 5.9 MB when each chunk allocated its
# own arrays).
# The README's clt line (10000 samples at d=1 L=256) on a shared 2-vCPU
# host, with every chunk reusing the stream's arrays and only the draws on
# the worker, took 0.51-0.57 s at 256 KiB, 0.40-0.42 s at 512 KiB,
# 0.34-0.38 s at 1 MiB and 0.32-0.39 s at 2 MiB (best of eight in-process
# calls of cli.main, in three rounds): 2 MiB is within the noise of 1 MiB
# and doubles the working set.  When each chunk allocated its own arrays,
# 4 MiB was the slowest at d=1, and 1 MiB and 4 MiB were within the noise
# at d=2 L=64 (white noise, n = 1 and 2).
CHUNK_BYTES = 2**20


def require_samples(count: int, purpose: str) -> None:
    """Raise unless count reaches MIN_SAMPLES[purpose]."""
    minimum = MIN_SAMPLES[purpose]
    if count < minimum:
        raise ValueError(f"need at least {minimum} samples for {purpose}")


def stream_ensemble(density, count: int, seed: int, grid, t: float, statistics, *,
                    transform=None) -> tuple:
    """Per-sample statistics of count samples, drawn and evolved chunk by chunk.

    Each chunk of consecutive sample indices holds the samples that a
    fields.GaussianSampler draws and colours at those indices, mapped by
    nonlinear_transform_sample when transform is (a0, a1), and evolved to
    time t by one dynamics.Propagator's apply on the dispersion grid.  statistics(Y0, Yt)
    maps the chunk's initial and evolved arrays (S, 2n, *grid) to a tuple of
    arrays with a leading sample axis; only these are kept, and each is
    concatenated over the chunks.  Since every step treats samples
    independently, the result does not depend on the chunk size, while peak
    memory does not grow with count.  A count below 1 is refused, and the
    density is checked against the grid, before the first draw; whether
    count is enough for an estimator is that estimator's check.

    Every chunk-sized array is allocated once per call and reused by every
    chunk, the short last one through its leading samples.  The next chunk
    is drawn and coloured while this thread transforms, evolves and reduces
    the current one, by a helper process forked for the call (_forked) and
    kept off the CPU this thread runs on when the call begins; where forking
    is unsafe (_lattice.fork_is_safe), this thread samples each chunk before
    it handles it (_inline).  Both call only the sampler's methods and give
    the same bytes.  The sampling side owns two complex arrays for the
    colouring's transforms, and uses one of two real slots, which sit in
    one shared anonymous mapping, in turn, each only after the chunk that
    read it is done: it draws the chunk's white noise into the slot, viewed
    as (S, *grid, 2n), and writes the coloured Y0 over it.  This thread owns
    two complex arrays for the propagator's transforms; Yt is the real part
    of the evolved field, written over the first of them once its transform
    is spent.  Y0 and Yt are overwritten by later chunks, so a column that
    statistics returns is copied when it may share memory with them.  A
    failure on either side is raised here once the sampling side has
    stopped, and a helper process is reaped before this call returns or
    raises.
    """
    if count < 1:
        raise ValueError("count must be positive")
    L, d, n = density.L, density.d, density.n
    grid.require_match(L, d, n, what="field")
    size = min(count, max(1, CHUNK_BYTES // (16 * L**d * 2 * n)))
    starts = range(0, count, size)
    sampler = GaussianSampler(density, seed)
    propagator = Propagator(grid, t)
    work = np.empty((2, size, 2 * n) + (L,) * d, dtype=complex)
    shape = (len(starts[:2]),) + work.shape[1:]
    # shared, so that what a forked helper writes there is seen here
    slots = np.frombuffer(mmap.mmap(-1, 8 * math.prod(shape)), dtype=float).reshape(shape)
    colouring = None  # allocated on the sampling side

    def slot(k):
        return slots[k % 2, :min(size, count - starts[k])]

    def sample(k):
        nonlocal colouring
        if colouring is None:
            colouring = np.empty(work.shape, dtype=complex)
        Y0 = slot(k)
        # the noise is drawn into the slot that its colouring overwrites
        W = sampler.white_noise(range(starts[k], starts[k] + len(Y0)),
                                out=Y0.reshape((len(Y0),) + sampler.shape))
        sampler.colour(W, out=Y0, work=colouring[:, :len(Y0)])

    def kept(column):
        reused = np.may_share_memory(column, work) or np.may_share_memory(column, slots)
        return np.copy(column) if reused else column

    if fork_is_safe():
        ahead = _forked(sample, len(starts), current_cpu())
    else:
        ahead = _inline(sample, len(starts))
    parts = []
    try:
        for k in ahead:
            Y0 = slot(k)
            if transform is not None:
                Y0 = nonlinear_transform_sample(Y0, *transform, out=Y0)
            chunk = work[:, :len(Y0)]
            Yt = propagator.apply(Y0, out=real_view(chunk[0]), work=chunk)
            parts.append(tuple(kept(column) for column in statistics(Y0, Yt)))
    finally:
        ahead.close()
    return tuple(np.concatenate(column) for column in zip(*parts))


def _inline(sample, chunks: int):
    """Yield 0, ..., chunks - 1, each once sample(k) has run on this thread."""
    for k in range(chunks):
        sample(k)
        yield k


def _forked(sample, chunks: int, cpu):
    """Yield 0, ..., chunks - 1 as _inline does, with sample run in a
    helper process (_lattice.Helper) forked on the first chunk and kept off
    cpu.

    The helper reports each chunk, as an empty message or a pickled
    failure, and waits for the caller's word that chunk k is done before it
    samples chunk k + 2 into its slot.  A failure is raised at the chunk it
    failed on, with its class and message; a helper that exits before its
    chunks are reported raises RuntimeError with its exit status.  The
    helper is reaped on every path, killed first unless every chunk was
    reported.
    """
    helper = Helper(partial(_help, sample, chunks), cpu)
    finished = False
    try:
        for k in range(chunks):
            failure = helper.receive()
            if failure is None:
                raise RuntimeError(f"the sampling process {helper.ended()} before chunk {k} "
                                   f"of {chunks} was drawn")
            if failure:
                raise pickle.loads(failure)
            yield k
            # chunk k is done with its slot, which chunk k + 2 takes
            if k + 2 < chunks:
                helper.tell()
        finished = True
    finally:
        helper.close(finish=finished)


def _help(sample, chunks: int, helper) -> None:
    """The body of _forked's helper: sample every chunk it is let, and
    report each; stop after a failure or once the caller has gone."""
    for k in range(chunks):
        if k >= 2 and not helper.heard():
            break  # the caller has gone
        try:
            sample(k)
            failure = b""
        except BaseException as exc:
            failure = pickled(exc, "sampling process")
        helper.send(failure)
        if failure:
            break


def offset_products(offsets):
    """Per-sample step of :func:`empirical_covariance` at these offsets as
    one callable, products(Y), that keeps its two sample-major arrays from
    call to call.

    products(Y) has shape (S, len(offsets), 2n, 2n).  Entry [s, k] is sample
    s's translation average L^-d sum_x Y_s(x+z) (x) Y_s(x) at offset
    z = offsets[k].  Samples do not interact, so blocks of samples
    concatenate to the products of the whole ensemble.

    A stream's chunks reuse them, a shorter chunk through their leading
    samples; an ensemble of more samples or another shape replaces them.
    The callable is for one thread at a time.
    """
    work = None

    def products(Y) -> np.ndarray:
        nonlocal work
        Y, L, d, _ = check_ensemble(Y)
        S, two_n = Y.shape[0], Y.shape[1]
        # Sample-major (S, *grid, 2n) for the products: every component-major
        # form of the matmul below tried (matmul(shifted, flat.T), the flipped
        # product, einsum) rounds differently, by up to 6e-15, and the CLI's
        # bytes would move.
        shape = (L,) * d + (two_n,)
        if work is None or work.shape[2:] != shape or work.shape[1] < S:
            work = np.empty((2, S) + shape)
        moved, shifted = work[0, :S], work[1, :S]
        np.copyto(moved, np.moveaxis(Y, 1, -1))
        axes = tuple(range(1, 1 + d))
        norm = float(L) ** d
        flat = moved.reshape(S, -1, two_n)
        out = np.empty((S, len(offsets), two_n, two_n))
        for k, z in enumerate(offsets):
            z = tuple(int(c) for c in z)
            if len(z) != d:
                raise ValueError(f"offset {z} has wrong dimension")
            translated(moved, z, axes, out=shifted)
            out[:, k] = np.matmul(shifted.reshape(S, -1, two_n).transpose(0, 2, 1),
                                  flat) / norm
        return out

    return products


def covariance_summary(products) -> tuple:
    """Reduction step of :func:`empirical_covariance`: (mean, se), each
    (K, 2n, 2n) and aligned with the products' offsets, of the mean over
    samples of each offset's products and its leave-one-out jackknife
    standard error."""
    S = products.shape[0]
    require_samples(S, "covariance error bars")
    mean = np.empty(products.shape[1:])
    se = np.empty(products.shape[1:])
    for k in range(products.shape[1]):
        per_sample = np.ascontiguousarray(products[:, k])
        mean[k] = per_sample.mean(axis=0)
        dev = per_sample - mean[k]
        se[k] = np.sqrt(np.sum(dev * dev, axis=0) / (S * (S - 1)))
    return mean, se


# Kept as a name of its own for the benchmark's memory pass (bench/child.py MEMORY_FUNCTIONS).
def empirical_covariance(Y, offsets) -> tuple:
    """Translation-averaged covariance estimate q(z) = E[Y(x+z) (x) Y(x)] at
    each offset, as the (mean, se) of :func:`covariance_summary`.

    Averages over base points x (stationarity makes every one an unbiased
    probe) and over samples; the quoted standard error is the leave-one-out
    jackknife of the sample mean, entrywise.
    """
    return covariance_summary(offset_products(offsets)(Y))


def empirical_mixing_support(offsets, mean, se) -> dict:
    """Estimate the correlation support radius from a covariance summary.

    mean and se are :func:`covariance_summary`'s arrays at the offsets.
    Returns the largest Chebyshev radius of a nonzero offset at which the
    covariance block differs from zero by more than three standard errors,
    together with the per-radius significance table.
    """
    table = {}
    for z, m, s in zip(offsets, mean, se):
        r = max(abs(int(c)) for c in z)
        if r:
            significant = bool(np.any(np.abs(m) > 3.0 * np.maximum(s, 1e-300)))
            table[r] = table.get(r, False) or significant
    return {"radius": max((r for r, significant in table.items() if significant), default=0),
            "per_radius_significant": dict(sorted(table.items()))}


def linear_functional_samples(Y, psi) -> np.ndarray:
    """One real <Y_s, Psi> = sum_x Y_s(x) . Psi(x) per sample, vectorized over the ensemble.

    Each sample's value does not depend on the other samples of the batch.
    """
    Y, L, d, n = check_ensemble(Y)
    psi.require_fits(d, n, "ensemble")
    half = L // 2
    out = np.zeros(Y.shape[0])
    for x, val in zip(psi.sites, psi.values):
        if any(c < -half or c >= half for c in x):
            raise ValueError(
                f"test-field site {tuple(int(c) for c in x)} outside the lattice window"
            )
        idx = (slice(None), slice(None)) + tuple(int(c) % L for c in x)
        # an elementwise product summed per row, not a BLAS matrix-vector
        # product, whose rounding depends on a row's place in the batch
        out += np.sum(Y[idx] * val, axis=-1)
    return out


def characteristic_functional(samples, density_limit, psi) -> dict:
    """Empirical E[exp(i lam <Y,Psi>)] against the Gaussian exp(-lam^2 Q/2),
    for each lam of LAMBDAS.

    Q is the limit quadratic form of psi.  Each sweep row carries the absolute
    gap and a Monte Carlo error bar from the cos/sin sample variances.
    """
    s = np.asarray(samples, dtype=float).ravel()
    N = s.size
    require_samples(N, "the characteristic functional")
    Q = quadratic_form(density_limit, psi)
    sweep = []
    for lam in LAMBDAS:
        c = np.cos(lam * s)
        sn = np.sin(lam * s)
        emp_re = float(c.mean())
        emp_im = float(sn.mean())
        se = float(np.sqrt((c.var(ddof=1) + sn.var(ddof=1)) / N))
        theory = float(np.exp(-0.5 * lam * lam * Q))
        gap = abs(complex(emp_re, emp_im) - theory)
        sweep.append({
            "lam": float(lam),
            "empirical_re": emp_re,
            "empirical_im": emp_im,
            "theory": theory,
            "gap": float(gap),
            "se": se,
        })
    at_one = sweep[LAMBDAS.index(1.0)]
    return {
        "count": N,
        "Q": float(Q),
        "empirical_at_1": complex(at_one["empirical_re"], at_one["empirical_im"]),
        "theory_at_1": at_one["theory"],
        "sweep": sweep,
    }


def gaussianity_report(samples) -> dict:
    """Standardized skewness and excess kurtosis with null-hypothesis z-scores.

    Under Gaussianity skew and excess kurtosis are asymptotically normal with
    standard deviations sqrt(6/N) and sqrt(24/N).  Zero-variance input is
    flagged degenerate instead of dividing by it.
    """
    s = np.asarray(samples, dtype=float).ravel()
    N = s.size
    require_samples(N, "moment diagnostics")
    mean = float(s.mean())
    var = float(s.var(ddof=1))
    if var <= (1e-15 * (1.0 + abs(mean))) ** 2:
        return {"count": N, "mean": mean, "variance": var, "degenerate": True}
    z = (s - mean) / np.sqrt(var)
    skew = float(np.mean(z**3))
    exkurt = float(np.mean(z**4) - 3.0)
    return {
        "count": N,
        "mean": mean,
        "variance": var,
        "skewness": skew,
        "excess_kurtosis": exkurt,
        "z_skewness": skew / np.sqrt(6.0 / N),
        "z_kurtosis": exkurt / np.sqrt(24.0 / N),
        "degenerate": False,
    }
