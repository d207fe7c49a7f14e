"""Ensemble estimators: covariances, characteristic functionals, moment checks.

Everything here consumes ensemble arrays (S, 2n, *grid), u components first,
or plain sample arrays, and produces numbers with Monte Carlo error bars
attached, so that comparisons against the transported and limiting densities
can be gated at 3 sigma.

Estimators that average over samples come as a per-sample step and one
reduction (offset_products, then covariance_summary).  stream_ensemble
draws, transforms and evolves an ensemble in fixed-byte chunks and keeps only
per-sample statistics, so that peak memory does not grow with the sample
count and the reduction sees the same arrays as for the whole ensemble at once.
It draws one chunk ahead: one worker thread fills the white noise of chunk
k+1 into the second of two draw buffers while the calling thread colours,
transforms, evolves and reduces chunk k, with the same bytes.

Every chunk-sized array of the loop is allocated once per stream and reused
by each chunk: the two draw buffers, two complex work arrays in which the
colouring and then the propagator (one dynamics.Propagator per stream)
transform in place, and the real initial field; the evolved field is the
real part written over the spent first work array.  offset_products, the
per-sample step of the covariance estimators as one callable, keeps its
two sample-major arrays likewise.  So no chunk after the first allocates an
array of its size, and malloc does not fault the same pages in again for
each chunk.
"""

from __future__ import annotations

import numpy as np

from . import fields
from ._lattice import check_ensemble, real_view, translated
from .covariance import quadratic_form
from .dynamics import Propagator
from .fields import nonlinear_transform_sample
from .spectral import _require_match

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
# two such complex arrays, the real Y0 and two real draw buffers of half that
# size each (one chunk is drawn ahead); clt's statistics keep two more real
# chunk arrays in offset_products.  For clt at d=1 L=256 (128 samples
# a chunk) the whole stream of 1024 samples peaks at 4.9 MB traced, against
# 5.9 MB when each chunk allocated its own arrays.
# The README's clt line (10000 samples at d=1 L=256) on a shared 2-vCPU
# host, with every chunk reusing the stream's arrays, took 0.51-0.57 s at
# 256 KiB, 0.40-0.42 s at 512 KiB, 0.34-0.38 s at 1 MiB and 0.32-0.39 s at
# 2 MiB (best of eight in-process calls of cli.main, in three rounds): 2 MiB
# is within the noise of 1 MiB and doubles the working set.  When each chunk
# allocated its own arrays, 4 MiB was the slowest at d=1, and 1 MiB and
# 4 MiB were within the noise at d=2 L=64 (white noise, n = 1 and 2).
CHUNK_BYTES = 2**20


def require_samples(count: int, purpose: str) -> None:
    """Raise unless count reaches MIN_SAMPLES[purpose]."""
    minimum = MIN_SAMPLES[purpose]
    if count < minimum:
        raise ValueError(f"need at least {minimum} samples for {purpose}")


def stream_ensemble(density, count: int, seed: int, grid, t: float, statistics,
                    purpose: str, transform=None) -> tuple:
    """Per-sample statistics of count samples, drawn and evolved chunk by chunk.

    Each chunk of consecutive sample indices holds the samples that
    gaussian_ensemble draws at its start index, mapped by
    nonlinear_transform_sample when transform is (a0, a1), and evolved to
    time t by evolve_ensemble on the dispersion grid.  statistics(Y0, Yt)
    maps the chunk's initial and evolved arrays (S, 2n, *grid) to a tuple of
    arrays with a leading sample axis; only these are kept, and each is
    concatenated over the chunks.  Since every step treats samples
    independently, the result does not depend on the chunk size, while peak
    memory does not grow with count.  The count is checked against the
    estimator that will consume the result (purpose, a key of MIN_SAMPLES),
    and the density against the grid, before the first draw.

    Every chunk-sized array is allocated once per call and reused by every
    chunk, the short last one through its leading samples: two draw buffers,
    two complex arrays that hold the colouring's and then the propagator's
    transforms, and the real Y0.  Yt is the real part of the evolved field,
    written over the first complex array once its transform is spent.  Y0
    and Yt are overwritten by the next chunk, so a column that statistics
    returns is copied when it may share memory with them.

    The white noise of the next chunk is drawn on one worker thread while
    this thread colours, transforms, evolves and reduces the current one.
    The worker fills two draw buffers in turn, each only after the chunk
    that read it is done, and touches nothing else; a failure on either
    thread is raised here once the worker has stopped.
    """
    # imported here, not at module level: concurrent.futures loads logging,
    # about 5 ms of every CLI start-up
    from concurrent.futures import ThreadPoolExecutor

    require_samples(count, purpose)
    L, d, n = density.L, density.d, density.n
    _require_match(grid, L, d, n, what="field")
    size = min(count, max(1, CHUNK_BYTES // (16 * L**d * 2 * n)))
    starts = range(0, count, size)
    root = fields._colouring_root(density)
    propagator = Propagator(grid, t)
    buffers = [np.empty((size,) + (L,) * d + (2 * n,)) for _ in starts[:2]]
    work = np.empty((2, size, 2 * n) + (L,) * d, dtype=complex)
    initial = np.empty(work.shape[1:])

    def draw(k):
        indices = range(starts[k], min(starts[k] + size, count))
        return fields._white_noise_draws(L, d, n, seed, indices,
                                         out=buffers[k % 2][:len(indices)])

    def kept(column):
        reused = np.may_share_memory(column, work) or np.may_share_memory(column, initial)
        return np.copy(column) if reused else column

    parts = []
    with ThreadPoolExecutor(max_workers=1) as worker:
        ahead = worker.submit(draw, 0)
        for k in range(len(starts)):
            W = ahead.result()
            # buffer (k + 1) % 2 was read by chunk k - 1, which is done
            if k + 1 < len(starts):
                ahead = worker.submit(draw, k + 1)
            chunk = work[:, :len(W)]
            Y0 = fields._coloured_noise(root, W, out=initial[:len(W)], work=chunk)
            if transform is not None:
                Y0 = nonlinear_transform_sample(Y0, *transform, out=Y0)
            Yt = propagator.apply(Y0, out=real_view(chunk[0]), work=chunk)
            parts.append(tuple(kept(column) for column in statistics(Y0, Yt)))
    return tuple(np.concatenate(column) for column in zip(*parts))


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
    if psi.d != d:
        raise ValueError("test field dimension does not match the ensemble")
    if psi.values.shape[1] != 2 * n:
        raise ValueError("test field has wrong component count")
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
