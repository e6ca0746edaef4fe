"""Rank-normalized split-chain bulk effective sample size.

This is the benchmark's own estimator, kept apart from
`ldmlang.analysis.effective_sample_size` so that `ess_per_s` keeps its
meaning when the library's diagnostics change. It follows Vehtari, Gelman,
Simpson, Carpenter and Bürkner, "Rank-normalization, folding, and
localization: an improved R-hat" (arXiv 1903.08008): split every chain in
half, replace the pooled draws by normal scores of their ranks, and apply
the multi-chain autocorrelation estimator truncated by Geyer's initial
monotone sequence.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special, stats


def _normal_scores(x: np.ndarray) -> np.ndarray:
    """Blom normal scores of the pooled ranks (average rank for ties)."""
    ranks = stats.rankdata(x, axis=None).reshape(x.shape)
    return special.ndtri((ranks - 0.375) / (x.size + 0.25))


def _split(x: np.ndarray) -> np.ndarray:
    """(m, n) -> (2m, n // 2); an odd middle draw is dropped."""
    half = x.shape[1] // 2
    return np.concatenate([x[:, :half], x[:, x.shape[1] - half:]], axis=0)


def _autocov(x: np.ndarray) -> np.ndarray:
    """Biased autocovariance of each row, by FFT."""
    n = x.shape[1]
    xc = x - x.mean(axis=1, keepdims=True)
    size = 1 << (2 * n - 1).bit_length()
    f = np.fft.rfft(xc, size, axis=1)
    return np.fft.irfft(f * np.conj(f), size, axis=1)[:, :n] / n


def _ess(z: np.ndarray) -> float:
    """Multi-chain ESS of (chains, draws) with Geyer's monotone truncation."""
    m, n = z.shape
    acov = _autocov(z)
    mean_var = acov[:, 0].mean() * n / (n - 1)
    var_plus = mean_var * (n - 1) / n
    if m > 1:
        var_plus += z.mean(axis=1).var(ddof=1)
    rho = 1.0 - (mean_var - acov.mean(axis=0)) / var_plus
    rho[0] = 1.0
    # sum autocorrelation pairs while positive, each pair no larger than
    # the one before it
    tau = -1.0
    prev = math.inf
    for t in range(0, n - 1, 2):
        pair = rho[t] + rho[t + 1]
        if pair <= 0.0:
            break
        prev = min(prev, pair)
        tau += 2.0 * prev
    total = m * n
    return total / max(tau, 1.0 / math.log10(total))


def bulk_ess(x: np.ndarray) -> float:
    """Bulk ESS of one site's draws, shape (chains, draws)."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[1] < 4:
        raise ValueError("bulk ESS needs (chains, draws) with >= 4 draws")
    if np.all(x == x.flat[0]):
        return math.nan
    return _ess(_normal_scores(_split(x)))


def min_bulk_ess(draws: np.ndarray) -> float:
    """Smallest bulk ESS over the sites of (chains, draws, sites)."""
    values = [bulk_ess(draws[:, :, k]) for k in range(draws.shape[2])]
    return float(np.nanmin(values))


def self_test() -> list[str]:
    """Check the estimator on chains whose ESS is known; returns failures.

    iid normal draws have ESS equal to their count; an AR(1) chain with
    coefficient phi has ESS = N (1 - phi) / (1 + phi)."""
    rng = np.random.default_rng(20190305)
    failures = []
    iid = rng.standard_normal((4, 1000))
    got = bulk_ess(iid)
    if not 0.85 * iid.size <= got <= 1.15 * iid.size:
        failures.append(f"iid normal: ESS {got:.0f}, expected ~{iid.size}")
    phi, m, n = 0.5, 4, 2000
    ar = np.empty((m, n))
    ar[:, 0] = rng.standard_normal(m) / math.sqrt(1 - phi * phi)
    for t in range(1, n):
        ar[:, t] = phi * ar[:, t - 1] + rng.standard_normal(m)
    want = m * n * (1 - phi) / (1 + phi)
    got = bulk_ess(ar)
    if not 0.85 * want <= got <= 1.15 * want:
        failures.append(f"AR(1) phi={phi}: ESS {got:.0f}, expected ~{want:.0f}")
    return failures
