"""Ensemble estimators: covariances, characteristic functionals, moment checks.

Everything here consumes ensemble arrays (S, *grid, 2n), u components first,
or plain sample arrays, and produces numbers with Monte Carlo error bars
attached, so that comparisons against the transported and limiting densities
can be gated at 3 sigma.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._lattice import check_ensemble, minimal_image
from .covariance import quadratic_form

__all__ = [
    "EnsembleSummary",
    "empirical_covariance",
    "linear_functional_samples",
    "characteristic_functional",
    "gaussianity_report",
    "weighted_norm",
]


@dataclass(eq=False)
class EnsembleSummary:
    """Per-offset empirical covariance blocks with jackknife standard errors."""

    count: int
    offsets: list
    mean: dict
    se: dict


def empirical_covariance(Y, offsets) -> EnsembleSummary:
    """Translation-averaged covariance estimate q(z) = E[Y(x+z) (x) Y(x)].

    Averages over base points x (stationarity makes every one an unbiased
    probe) and over samples; the quoted standard error is the leave-one-out
    jackknife of the sample mean, entrywise.
    """
    Y, L, d, _ = check_ensemble(Y)
    S = Y.shape[0]
    if S < 100:
        raise ValueError("need at least 100 samples for covariance error bars")
    axes = tuple(range(1, 1 + d))
    norm = float(L) ** d
    offsets = [tuple(int(c) for c in z) for z in offsets]
    mean, se = {}, {}
    flat = Y.reshape(S, -1, Y.shape[-1])
    for z in offsets:
        if len(z) != d:
            raise ValueError(f"offset {z} has wrong dimension")
        # roll by -z puts Y(x+z) in slot x
        shifted = np.roll(Y, shift=tuple(-c for c in z), axis=axes)
        shifted = shifted.reshape(S, -1, Y.shape[-1])
        per_sample = np.matmul(shifted.transpose(0, 2, 1), flat) / norm
        m = per_sample.mean(axis=0)
        dev = per_sample - m
        mean[z] = m
        se[z] = np.sqrt(np.sum(dev * dev, axis=0) / (S * (S - 1)))
    return EnsembleSummary(count=S, offsets=offsets, mean=mean, se=se)


def linear_functional_samples(Y, psi) -> np.ndarray:
    """One real <Y_s, Psi> = sum_x Y_s(x) . Psi(x) per sample, vectorized over the ensemble."""
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
        idx = (slice(None),) + tuple(int(c) % L for c in x)
        out += Y[idx] @ val
    return out


def characteristic_functional(samples, density_limit, psi,
                              lambdas=(0.25, 0.5, 1.0, 2.0)) -> dict:
    """Empirical E[exp(i lam <Y,Psi>)] against the Gaussian exp(-lam^2 Q/2).

    Q is the limit quadratic form of psi.  Each sweep row carries the absolute
    gap and a Monte Carlo error bar from the cos/sin sample variances.
    """
    s = np.asarray(samples, dtype=float).ravel()
    N = s.size
    if N < 1000:
        raise ValueError("need at least 1000 samples for the characteristic functional")
    Q = quadratic_form(density_limit, psi)
    sweep = []
    for lam in lambdas:
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
    at_one = next((row for row in sweep if row["lam"] == 1.0), sweep[-1])
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
    if N < 1000:
        raise ValueError("need at least 1000 samples for moment diagnostics")
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


def weighted_norm(Y, alpha: float) -> np.ndarray:
    """Per-sample sum of |Y_s(x)|^2 (1+|x|^2)^alpha with minimal-image |x|, shape (S,)."""
    Y, L, d, _ = check_ensemble(Y)
    x = minimal_image(L, d).astype(float)
    weights = (1.0 + np.sum(x * x, axis=-1)) ** alpha
    return np.sum(weights * np.sum(Y**2, axis=-1), axis=tuple(range(1, d + 1)))
