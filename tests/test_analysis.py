"""Convergence diagnostics, summaries, imputation extraction, and scoring."""

import math

import numpy as np
import pytest

from ldmlang import analysis as an
from ldmlang import plan as pl
from ldmlang import sampler as smp
from ldmlang.datatable import make_table
from ldmlang.errors import NoImputedSitesError


def test_rhat_near_one_for_iid_chains():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(4, 5000))
    r = an.split_rhat(x)
    assert 0.99 < r < 1.01


def test_rhat_flags_disjoint_chains():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(2, 500))
    x[1] += 10.0
    assert an.split_rhat(x) > 1.2


def test_rhat_flags_within_chain_drift():
    # split halves expose a trend even with a single... two chains
    t = np.linspace(0, 5, 400)
    x = np.stack([t, t + 0.01])
    assert an.split_rhat(x) > 1.2


def test_rhat_undefined_cases():
    assert math.isnan(an.split_rhat(np.zeros((1, 100))))
    assert math.isnan(an.split_rhat(np.zeros((3, 3))))
    assert math.isnan(an.split_rhat(np.full((2, 100), 3.7)))


def test_ess_close_to_n_for_iid_draws():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(4, 5000))
    ess = an.effective_sample_size(x)
    assert ess > 0.8 * x.size


def test_ess_shrinks_under_autocorrelation():
    rng = np.random.default_rng(3)
    rho, m, n = 0.9, 2, 20000
    x = np.empty((m, n))
    for c in range(m):
        e = rng.normal(size=n)
        x[c, 0] = e[0]
        for t in range(1, n):
            x[c, t] = rho * x[c, t - 1] + math.sqrt(1 - rho * rho) * e[t]
    ess = an.effective_sample_size(x)
    want = x.size * (1 - rho) / (1 + rho)  # AR(1) asymptotic ESS
    assert ess == pytest.approx(want, rel=0.2)


def test_ess_undefined_for_constant_or_tiny_input():
    assert math.isnan(an.effective_sample_size(np.full((2, 100), 1.0)))
    assert math.isnan(an.effective_sample_size(np.zeros((2, 3))))


def test_quantile_linear_interpolation():
    x = np.arange(1.0, 101.0)
    assert an.quantile(x, 0.05) == pytest.approx(5.95)
    assert an.quantile(x, 0.5) == pytest.approx(50.5)
    assert an.quantile(x, 0.95) == pytest.approx(95.05)


# The reference diagnostics: one site at a time, as first written.


def _ref_split_rhat(x):
    if x.ndim != 2 or x.shape[0] < 2 or x.shape[1] < 4:
        return math.nan
    if np.all(x == x.flat[0]):
        return math.nan
    half = x.shape[1] // 2
    s = np.concatenate([x[:, :half], x[:, x.shape[1] - half:]], axis=0)
    m, n = s.shape
    within = s.var(axis=1, ddof=1)
    w = within.mean()
    if not math.isfinite(w) or w <= 0.0:
        return math.nan
    b = n * s.mean(axis=1).var(ddof=1)
    var_plus = (n - 1) / n * w + b / n
    return math.sqrt(var_plus / w)


def _ref_autocovariance(x):
    n = len(x)
    xc = x - x.mean()
    size = 1 << (2 * n - 1).bit_length()
    f = np.fft.rfft(xc, size)
    acov = np.fft.irfft(f * np.conjugate(f), size)[:n].real
    return acov / n


def _ref_effective_sample_size(x):
    m, n = x.shape
    if n < 4 or np.all(x == x.flat[0]):
        return math.nan
    acov = np.array([_ref_autocovariance(x[j]) for j in range(m)])
    chain_means = x.mean(axis=1)
    mean_var = acov[:, 0].mean() * n / (n - 1)
    var_plus = mean_var * (n - 1) / n
    if m > 1:
        var_plus += chain_means.var(ddof=1)
    if not math.isfinite(var_plus) or var_plus <= 0.0:
        return math.nan
    rho = 1.0 - (mean_var - acov.mean(axis=0)) / var_plus
    rho[0] = 1.0
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


def _ref_summarize(drawset):
    rows = []
    for k, name in enumerate(drawset.site_names):
        x = drawset.draws[:, :, k]
        flat = x.ravel()
        rows.append(an.SummaryRow(
            site=name, mean=float(flat.mean()),
            std=float(flat.std(ddof=1)) if flat.size > 1 else 0.0,
            median=an.quantile(flat, 0.5), q05=an.quantile(flat, 0.05),
            q95=an.quantile(flat, 0.95),
            n_eff=_ref_effective_sample_size(x), r_hat=_ref_split_rhat(x)))
    return rows


def _bits(v):
    return np.float64(v).tobytes()


@pytest.mark.parametrize("chains, draws", [
    (1, 3), (1, 257), (2, 4), (2, 50), (2, 51), (3, 100), (4, 129),
    (9, 1000)])
def test_summarize_matches_the_reference_bit_for_bit(chains, draws):
    # 40 sites: white noise, random walks at scales 1e-5..1e5, AR(0.95)
    # chains, a constant site and a site with NaN draws; with 4 x 129 and
    # more the sites' spectra hold over 16384 complex numbers
    rng = np.random.default_rng(chains * 1000 + draws)
    x = rng.standard_normal((chains, draws, 40))
    x[:, :, 10:20] = np.cumsum(x[:, :, 10:20], axis=1) \
        * 10.0 ** rng.uniform(-5, 5, 10)
    for t in range(1, draws):
        x[:, t, 20:30] = 0.95 * x[:, t - 1, 20:30] + x[:, t, 20:30]
    x[:, :, 30] = 1.5
    x[0, :, 31] = np.nan
    ds = make_drawset({f"s{k}": x[:, :, k] for k in range(40)})
    with np.errstate(all="ignore"):
        want = _ref_summarize(ds)
    got = an.summarize(ds)

    def fields(rows):
        return np.array([[r.mean, r.std, r.median, r.q05, r.q95, r.n_eff,
                          r.r_hat] for r in rows]).tobytes()

    assert [r.site for r in got] == [r.site for r in want]
    assert fields(got) == fields(want)
    for k in (0, 15, 25, 30, 31):
        assert _bits(an.effective_sample_size(x[:, :, k])) == \
            _bits(want[k].n_eff)
        assert _bits(an.split_rhat(x[:, :, k])) == _bits(want[k].r_hat)


def make_drawset(draws_by_site, n_warmup=0):
    names = list(draws_by_site)
    arrs = [np.asarray(draws_by_site[k], dtype=float) for k in names]
    draws = np.stack(arrs, axis=-1)
    return smp.DrawSet(draws=draws, site_names=names, stats={},
                       n_warmup=n_warmup, seed=0)


def test_summarize_fields_and_order():
    rng = np.random.default_rng(4)
    ds = make_drawset({
        "b": rng.normal(2.0, 0.5, size=(4, 500)),
        "a": rng.normal(-1.0, 1.0, size=(4, 500)),
    })
    rows = an.summarize(ds)
    assert [r.site for r in rows] == ["b", "a"]  # slot order, not sorted
    row = rows[0]
    assert row.mean == pytest.approx(2.0, abs=0.05)
    assert row.std == pytest.approx(0.5, abs=0.03)
    assert row.q05 < row.median < row.q95
    assert row.n_eff > 1000
    assert row.r_hat == pytest.approx(1.0, abs=0.02)
    d = row.to_dict()
    assert "5.0%" in d and "95.0%" in d and d["site"] == "b"


def test_format_summary_is_a_table():
    ds = make_drawset({"x": np.random.default_rng(5).normal(size=(2, 100))})
    text = an.format_summary(an.summarize(ds))
    lines = text.splitlines()
    assert lines[0].split() == ["mean", "std", "median", "5.0%", "95.0%",
                                "n_eff", "r_hat"]
    assert lines[1].split()[0] == "x"
    assert len(lines) == 2


def test_imputation_bridge_recovers_the_gap():
    # random walk with tight steps: the missing middle cell's posterior mean
    # sits halfway between its observed neighbours
    T = 11
    src = """ProgramName: Bridge
Indices: t 0 10
y[0] ~ N(0, 10)
y[t] ~ N(y[t-1], 0.1)
"""
    rng = np.random.default_rng(6)
    y = np.cumsum(rng.normal(0, 0.1, size=T))
    y_miss = y.copy()
    y_miss[5] = np.nan
    table = make_table(("t",), [[t] for t in range(T)], {"y": y_miss})
    plan = pl.compile_model(src, tables=(table,), obs=("y",))
    assert plan.latent_dim == 1
    out = smp.run(plan, n_chains=2, n_warmup=400, n_samples=1500, seed=7)
    imp = an.extract_imputations(plan, out)
    assert list(imp) == ["y[5]"]
    series = imp["y[5]"]
    assert series.shape == (2 * 1500,)
    bridge_mean = (y[4] + y[6]) / 2
    bridge_sd = 0.1 / math.sqrt(2)
    assert np.mean(series) == pytest.approx(bridge_mean, abs=3 * bridge_sd)
    assert np.std(series) == pytest.approx(bridge_sd, rel=0.25)


def test_extract_imputations_requires_missing_cells():
    plan = pl.compile_model("ProgramName: M\nx ~ N(0, 1)\n")
    ds = make_drawset({"x": np.zeros((2, 10))})
    with pytest.raises(NoImputedSitesError):
        an.extract_imputations(plan, ds)


def test_score_formulas():
    src = "ProgramName: M\nIndices: i 0 9\nmu ~ N(0, 5)\ny[i] ~ N(mu, 1)\n"
    rng = np.random.default_rng(8)
    y = rng.normal(1.0, 1.0, size=10)
    table = make_table(("i",), [[i] for i in range(10)], {"y": y})
    plan = pl.compile_model(src, tables=(table,), obs=("y",))
    out = smp.run(plan, n_chains=2, n_warmup=300, n_samples=500, seed=9)
    sc = an.score(plan, out, runtime_seconds=1.5)
    assert sc.k == 1
    assert sc.n == 10
    # plug-in NLL at the posterior mean of mu
    mu_bar = float(np.mean(out.site("mu")))
    want_nll = 0.5 * np.sum((y - mu_bar) ** 2) + 10 * 0.5 * math.log(2 * math.pi)
    assert sc.nll == pytest.approx(want_nll, abs=1e-9)
    assert sc.aic == pytest.approx(2 * sc.k + 2 * sc.nll)
    assert sc.bic == pytest.approx(sc.k * math.log(sc.n) + 2 * sc.nll)
    assert sc.runtime_seconds == 1.5
    # deterministic in the drawset
    again = an.score(plan, out, runtime_seconds=1.5)
    assert again.nll == sc.nll
    d = sc.to_dict()
    assert set(d) >= {"nll", "aic", "bic", "k", "n"}


def test_bic_oracle():
    s = an.ModelScore(nll=10.0, aic=2 * 2 + 20.0,
                      bic=2 * math.log(100) + 20.0, k=2, n=100,
                      runtime_seconds=0.0)
    assert s.bic == pytest.approx(29.210340371976184, abs=1e-12)
