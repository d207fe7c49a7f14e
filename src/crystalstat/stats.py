"""Ensemble estimators: covariances, characteristic functionals, moment checks.

Everything here consumes ensemble arrays (S, 2n, *grid), u components first,
or plain sample arrays, and produces numbers with Monte Carlo error bars
attached, so that comparisons against the transported and limiting densities
can be gated at 3 sigma.

Estimators that average over samples come as a per-sample step and one
reduction (covariance_products, then covariance_summary).  stream_ensemble
draws, transforms and evolves an ensemble in fixed-byte chunks and keeps only
per-sample statistics, so that peak memory does not grow with the sample
count and the reduction sees the same arrays as for the whole ensemble at once.
"""

from __future__ import annotations

import numpy as np

from ._lattice import check_ensemble, moved_axes
from .covariance import quadratic_form
from .dynamics import evolve_ensemble
from .fields import gaussian_ensemble, nonlinear_transform_sample
from .spectral import _require_match

__all__ = [
    "require_samples",
    "stream_ensemble",
    "covariance_products",
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
# stream_ensemble aims for; its working set is a few such copies.  For clt at
# d=1 L=256 (128 samples a chunk) one evolve_ensemble call peaks at 4.5 MB
# traced and the whole stream at 6.3 MB, against 18 and 23 MB at 4 MiB.
# Streaming clt's 10000 samples at d=1 L=256 on a shared 2-vCPU host took,
# as the median of six fresh processes each timed best of three, 0.64 s at
# 4 MiB, 0.49 s at 2 MiB, 0.54 s at 1 MiB and at 512 KiB, and 0.60 s at
# 256 KiB, with a spread of about 0.1 s between processes.  At d=2 L=64
# (white noise, n = 1 and 2) 1 MiB and 4 MiB were within the noise.
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
    """
    require_samples(count, purpose)
    L, d, n = density.L, density.d, density.n
    _require_match(grid, L, d, n, what="field")
    size = max(1, CHUNK_BYTES // (16 * L**d * 2 * n))
    parts = []
    for start in range(0, count, size):
        Y0 = gaussian_ensemble(density, min(size, count - start), seed, start)
        if transform is not None:
            Y0 = nonlinear_transform_sample(Y0, *transform)
        # Y0 and Yt stay bound until the next chunk replaces them.  Freed at
        # the end of each chunk, they let malloc trim the heap, and the next
        # chunk faults its pages in again: for clt's 10000 samples at d=1
        # L=256 on a 2-vCPU glibc host, 8 minor page faults against 5 and no
        # time measurably lost at 1 MiB, but 6.6 times the faults (88000)
        # and up to a fifth more time at 4 MiB.
        Yt = evolve_ensemble(Y0, grid, t)
        parts.append(statistics(Y0, Yt))
    return tuple(np.concatenate(column) for column in zip(*parts))


def covariance_products(Y, offsets) -> np.ndarray:
    """Per-sample step of :func:`empirical_covariance`, shape (S, len(offsets), 2n, 2n).

    Entry [s, k] is sample s's translation average L^-d sum_x Y_s(x+z) (x) Y_s(x)
    at offset z = offsets[k].  Samples do not interact, so blocks of samples
    concatenate to the products of the whole ensemble.
    """
    Y, L, d, _ = check_ensemble(Y)
    # Sample-major (S, *grid, 2n) for the products: every component-major form
    # of the matmul below tried (matmul(shifted, flat.T), the flipped product,
    # einsum) rounds differently, by up to 6e-15, and the CLI's bytes would move.
    Y = moved_axes(Y, 1, -1)
    S, two_n = Y.shape[0], Y.shape[-1]
    axes = tuple(range(1, 1 + d))
    norm = float(L) ** d
    flat = Y.reshape(S, -1, two_n)
    products = np.empty((S, len(offsets), two_n, two_n))
    for k, z in enumerate(offsets):
        z = tuple(int(c) for c in z)
        if len(z) != d:
            raise ValueError(f"offset {z} has wrong dimension")
        # roll by -z puts Y(x+z) in slot x
        shifted = np.roll(Y, shift=tuple(-c for c in z), axis=axes)
        shifted = shifted.reshape(S, -1, two_n)
        products[:, k] = np.matmul(shifted.transpose(0, 2, 1), flat) / norm
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
    return covariance_summary(covariance_products(Y, offsets))


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
