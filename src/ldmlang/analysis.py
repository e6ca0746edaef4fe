"""Posterior summaries and model scoring.

Split-chain R-hat and autocorrelation-based effective sample size per site,
empirical quantiles via linear interpolation, extraction of per-missing-cell
imputation series, and plug-in NLL/AIC/BIC scores.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NoImputedSitesError
from .plan import LATENT_PARAM, MISSING_IMPUTED


def _constant(x: np.ndarray) -> np.ndarray:
    """Per site of x (sites, chains, draws): whether every draw equals the
    first."""
    return (x == x[:, :1, :1]).all(axis=(1, 2))


def _split_rhat_sites(x: np.ndarray) -> np.ndarray:
    """Potential scale reduction over split chains per site of x (sites,
    chains, draws); NaN where undefined. Each chain is halved, dropping the
    middle odd draw."""
    k, m, n = x.shape
    if m < 2 or n < 4:
        return np.full(k, math.nan)
    half = n // 2
    s = np.concatenate([x[:, :, :half], x[:, :, n - half:]], axis=1)
    with np.errstate(all="ignore"):
        w = s.var(axis=2, ddof=1).mean(axis=1)
        b = half * s.mean(axis=2).var(axis=1, ddof=1)
        var_plus = (half - 1) / half * w + b / half
        r_hat = np.sqrt(var_plus / w)
    return np.where(np.isfinite(w) & (w > 0.0) & ~_constant(x), r_hat,
                    math.nan)


def _ess_sites(x: np.ndarray) -> np.ndarray:
    """Autocorrelation-based effective draw count across chains per site of
    x (sites, chains, draws); NaN where undefined.

    Combined autocorrelation sequence truncated at the first non-positive
    consecutive pair sum, with the pair sums forced non-increasing."""
    k, m, n = x.shape
    if n < 4:
        return np.full(k, math.nan)
    with np.errstate(all="ignore"):
        # biased (1/n) autocovariance of every chain by one batched FFT
        xc = x - x.mean(axis=2, keepdims=True)
        size = 1 << (2 * n - 1).bit_length()
        f = np.fft.rfft(xc, size).reshape(k * m, -1)
        # one product per chain: NumPy's complex multiply rounds the
        # imaginary part differently on long arrays, and per-chain calls
        # give each site the bits it gets on its own
        for fj in f:
            np.multiply(fj, np.conjugate(fj), out=fj)
        acov = np.fft.irfft(f, size)[:, :n].reshape(k, m, n) / n
        mean_var = acov[:, :, 0].mean(axis=1) * n / (n - 1)
        var_plus = mean_var * (n - 1) / n
        if m > 1:
            var_plus += x.mean(axis=2).var(axis=1, ddof=1)
        rho = 1.0 - ((mean_var[:, None] - acov.mean(axis=1))
                     / var_plus[:, None])
        rho[:, 0] = 1.0
        # Geyer pairing: keep the pair sums rho[2t] + rho[2t+1] before the
        # first non-positive one, each capped by the one before; tau is -1
        # plus twice each kept sum, added in order
        pairs = rho[:, 0:n - 1:2] + rho[:, 1::2]
        stop = pairs <= 0.0
        kept = np.where(stop.any(axis=1), stop.argmax(axis=1), n // 2)
        terms = np.empty((k, n // 2 + 1))
        terms[:, 0] = -1.0
        terms[:, 1:] = 2.0 * np.minimum.accumulate(pairs, axis=1)
        tau = np.cumsum(terms, axis=1)[np.arange(k), kept]
        ess = m * n / np.maximum(tau, 1.0 / math.log10(m * n + 10.0))
    ok = np.isfinite(var_plus) & (var_plus > 0.0) & ~_constant(x)
    return np.where(ok, ess, math.nan)


def split_rhat(x: np.ndarray) -> float:
    """Potential scale reduction over split chains of x (chains, draws);
    NaN when undefined."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        return math.nan
    return float(_split_rhat_sites(x[None])[0])


def effective_sample_size(x: np.ndarray) -> float:
    """Autocorrelation-based effective draw count of x (chains, draws), or
    of one chain's draws."""
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = x[None, :]
    return float(_ess_sites(x[None])[0])


def quantile(x, q) -> float:
    return float(np.quantile(np.asarray(x, dtype=float).ravel(), q,
                             method="linear"))


@dataclass(frozen=True)
class SummaryRow:
    site: str
    mean: float
    std: float
    median: float
    q05: float
    q95: float
    n_eff: float
    r_hat: float

    def to_dict(self) -> dict:
        return {"site": self.site, "mean": self.mean, "std": self.std,
                "median": self.median, "5.0%": self.q05, "95.0%": self.q95,
                "n_eff": self.n_eff, "r_hat": self.r_hat}


def summarize(drawset) -> list:
    """One SummaryRow per site, in the draw layout's site order."""
    # (sites, chains, draws), each site's draws contiguous in chain order
    x = np.ascontiguousarray(np.moveaxis(drawset.draws, 2, 0))
    flat = x.reshape(x.shape[0], -1)
    std = (flat.std(axis=1, ddof=1) if flat.shape[1] > 1
           else np.zeros(flat.shape[0]))
    q50, q05, q95 = np.quantile(flat, (0.5, 0.05, 0.95), axis=1,
                                method="linear")
    columns = zip(drawset.site_names, flat.mean(axis=1).tolist(),
                  std.tolist(), q50.tolist(), q05.tolist(), q95.tolist(),
                  _ess_sites(x).tolist(), _split_rhat_sites(x).tolist())
    return [SummaryRow(*row) for row in columns]


def format_summary(rows) -> str:
    """Fixed-width diagnostic table."""
    header = f"{'':>16} {'mean':>9} {'std':>9} {'median':>9} " \
             f"{'5.0%':>9} {'95.0%':>9} {'n_eff':>8} {'r_hat':>7}"
    lines = [header]
    for r in rows:
        lines.append(
            f"{r.site:>16} {r.mean:>9.3f} {r.std:>9.3f} {r.median:>9.3f} "
            f"{r.q05:>9.3f} {r.q95:>9.3f} {r.n_eff:>8.0f} {r.r_hat:>7.2f}")
    return "\n".join(lines)


def extract_imputations(plan, drawset) -> dict:
    """Per-missing-cell posterior sample series, keyed by site name.

    Each value is the flattened (chains x draws) series for one imputed
    scalar cell; parameter sites are not included."""
    names = plan.site_names
    imputed = [names[i] for run in plan.runs if run.kind == MISSING_IMPUTED
               for i in run.offsets.tolist()]
    if not imputed:
        raise NoImputedSitesError(
            "model run had no missing cells to impute")
    name_to_col = {n: k for k, n in enumerate(drawset.site_names)}
    return {name: drawset.draws[:, :, name_to_col[name]].reshape(-1).copy()
            for name in imputed}


@dataclass(frozen=True)
class ModelScore:
    nll: float
    aic: float
    bic: float
    k: int
    n: int
    runtime_seconds: float = 0.0

    def to_dict(self) -> dict:
        return {"nll": self.nll, "aic": self.aic, "bic": self.bic,
                "k": self.k, "n": self.n,
                "runtime_seconds": self.runtime_seconds}


def score(plan, drawset, runtime_seconds: float = 0.0) -> ModelScore:
    """Plug-in fit at the posterior mean of every latent site.

    nll sums the log densities of observed cells only; k counts parameter
    slots (imputation slots excluded); n counts observed scalar cells."""
    theta_bar = drawset.draws.reshape(-1, drawset.draws.shape[2]).mean(axis=0)
    u_bar = plan.unconstrain(theta_bar)
    nll = -plan.observed_loglik(u_bar)
    k = plan.n_latent_params
    n = plan.n_observed
    return ModelScore(nll=float(nll), aic=2.0 * k + 2.0 * nll,
                      bic=k * math.log(n) + 2.0 * nll, k=k, n=n,
                      runtime_seconds=runtime_seconds)
