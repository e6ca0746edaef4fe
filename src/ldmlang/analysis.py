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


def _split_chains(x: np.ndarray) -> np.ndarray:
    """Halve each chain; (m, n) -> (2m, n//2). Drops the middle odd draw."""
    m, n = x.shape
    half = n // 2
    return np.concatenate([x[:, :half], x[:, n - half:]], axis=0)


def split_rhat(x: np.ndarray) -> float:
    """Potential scale reduction over split chains; NaN when undefined."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[0] < 2 or x.shape[1] < 4:
        return math.nan
    if np.all(x == x.flat[0]):
        return math.nan
    s = _split_chains(x)
    m, n = s.shape
    within = s.var(axis=1, ddof=1)
    w = within.mean()
    if not math.isfinite(w) or w <= 0.0:
        return math.nan
    b = n * s.mean(axis=1).var(ddof=1)
    var_plus = (n - 1) / n * w + b / n
    return math.sqrt(var_plus / w)


def _autocovariance(x: np.ndarray) -> np.ndarray:
    """Biased (1/n) autocovariance of one chain via FFT."""
    n = len(x)
    xc = x - x.mean()
    size = 1 << (2 * n - 1).bit_length()
    f = np.fft.rfft(xc, size)
    acov = np.fft.irfft(f * np.conjugate(f), size)[:n].real
    return acov / n


def effective_sample_size(x: np.ndarray) -> float:
    """Autocorrelation-based effective draw count across chains.

    Combined autocorrelation sequence truncated at the first non-positive
    consecutive pair sum, with the pair sums forced non-increasing."""
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = x[None, :]
    m, n = x.shape
    if n < 4 or np.all(x == x.flat[0]):
        return math.nan
    acov = np.array([_autocovariance(x[j]) for j in range(m)])
    chain_means = x.mean(axis=1)
    mean_var = acov[:, 0].mean() * n / (n - 1)
    var_plus = mean_var * (n - 1) / n
    if m > 1:
        var_plus += chain_means.var(ddof=1)
    if not math.isfinite(var_plus) or var_plus <= 0.0:
        return math.nan

    rho = 1.0 - (mean_var - acov.mean(axis=0)) / var_plus
    rho[0] = 1.0
    # Geyer pairing: keep while rho[2k] + rho[2k+1] > 0, enforce monotone
    tau = -1.0
    prev_pair = math.inf
    t = 0
    while t + 1 < n:
        pair = rho[t] + rho[t + 1]
        if pair <= 0.0:
            break
        pair = min(pair, prev_pair)
        prev_pair = pair
        tau += 2.0 * pair
        t += 2
    tau = max(tau, 1.0 / math.log10(m * n + 10.0))
    return m * n / tau


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
    rows = []
    for k, name in enumerate(drawset.site_names):
        x = drawset.draws[:, :, k]
        flat = x.ravel()
        rows.append(SummaryRow(
            site=name,
            mean=float(flat.mean()),
            std=float(flat.std(ddof=1)) if flat.size > 1 else 0.0,
            median=quantile(flat, 0.5),
            q05=quantile(flat, 0.05),
            q95=quantile(flat, 0.95),
            n_eff=effective_sample_size(x),
            r_hat=split_rhat(x)))
    return rows


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
