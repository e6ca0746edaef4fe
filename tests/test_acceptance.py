"""Release gate: end-to-end checks, one test per shipping requirement.

Each test is self-contained and prints nothing on success; `pytest -v` gives
one pass/fail line per requirement. Budgets are wall-clock on a single core.
"""

import math
import time

import numpy as np
import pytest

from ldmlang import analysis as an
from ldmlang import plan as pl
from ldmlang import sampler as smp
from ldmlang.cli import main as cli_main
from ldmlang.datatable import make_table
from ldmlang.distributions import draw as dist_draw
from ldmlang.distributions import log_prob
from ldmlang.frontend import parse_program, validate

from conftest import CORPUS, model_text


# --- shared model/data builders -------------------------------------------------

def capped_ast(name, cap=12):
    """Corpus model with every index extent clipped to `cap` (None: the
    model's full size)."""
    ast = parse_program(model_text(name))
    for d in ast.indices:
        if cap is not None:
            d.hi = min(d.hi, d.lo + cap - 1)
    return ast, {d.name: (d.lo, d.hi) for d in ast.indices}


def corpus_case(name, seed=0, cap=12):
    """(ast, tables, obs, inputs) with in-support random data + missingness.

    Continuous observations get ~20% MCAR cells; discrete observations stay
    fully observed (missing discrete cells are rejected by design)."""
    rng = np.random.default_rng(seed)
    ast, ranges = capped_ast(name, cap)
    ext = {k: hi - lo + 1 for k, (lo, hi) in ranges.items()}

    def rows(*axes):
        grids = np.meshgrid(*[np.arange(ranges[a][0], ranges[a][1] + 1)
                              for a in axes], indexing="ij")
        return np.stack([x.ravel() for x in grids], axis=1).tolist()

    def mcar(x, rate=0.2):
        x = x.astype(float).copy()
        x[rng.random(x.shape) < rate] = np.nan
        return x

    if name == "linear_regression.ldm":
        return ast, (make_table((), [()], {"y": [0.9]}),), ("y",), {"x": 1.7}
    if name in ("binomial_logits.ldm", "multilevel_a.ldm"):
        nI, nJ = ext["i"], ext["j"]
        D = rng.integers(5, 20, nI)
        t = make_table(("i",), rows("i"), {
            "S": rng.binomial(D, 0.5).astype(float),
            "D": D.astype(float),
            "tank": rng.integers(0, nJ, nI).astype(float)})
        return ast, (t,), ("S",), None
    if name == "multilevel_b.ldm":
        nI = ext["i"]
        t = make_table(("i",), rows("i"), {
            "pulled_left": rng.integers(0, 2, nI).astype(float),
            "actor": rng.integers(0, ext["j"], nI).astype(float),
            "block_id": rng.integers(0, ext["k"], nI).astype(float),
            "treatment": rng.integers(0, ext["l"], nI).astype(float)})
        return ast, (t,), ("pulled_left",), None
    if name == "zero_inflated.ldm":
        return ast, (make_table((), [()], {"y": [float(rng.poisson(2.0))]}),), \
            ("y",), None
    if name in ("ar1.ldm", "ar2.ldm"):
        t = make_table(("t",), rows("t"),
                       {"y": mcar(rng.normal(size=ext["t"]))})
        return ast, (t,), ("y",), None
    if name == "dbn.ldm":
        cells = ext["n"] * ext["t"]
        cols = {v: mcar(rng.normal(size=cells))
                for v in ("A", "C", "EM", "IM", "P")}
        return ast, (make_table(("n", "t"), rows("n", "t"), cols),), \
            ("A", "C", "EM", "IM", "P"), None
    raise KeyError(name)


AR1_TRUTH = (0.9, 0.1, 0.5)


def ar1_series(T=300, seed=0):
    a, b, sig = AR1_TRUTH
    rng = np.random.default_rng(seed)
    y = np.empty(T)
    y[0] = rng.normal(b / (1 - a), sig / math.sqrt(1 - a * a))
    for t in range(1, T):
        y[t] = a * y[t - 1] + b + rng.normal(0, sig)
    return y


def ar1_table(y):
    return make_table(("t",), [[t] for t in range(len(y))], {"y": y})


def credible_interval(out, name, lo=0.025, hi=0.975):
    d = out.site(name).ravel()
    return an.quantile(d, lo), an.quantile(d, hi)


# --- 1. corpus coverage ----------------------------------------------------------

def test_corpus_models_compile_and_classify():
    t0 = time.perf_counter()
    for name in CORPUS:
        src = model_text(name)
        ast = parse_program(src)
        assert validate(ast) == [], name
        for mode in (pl.FUSED, pl.UNROLLED):
            plan = pl.compile_model(src, mode=mode)
            assert plan.latent_dim > 0, name
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"corpus sweep took {elapsed:.2f}s"


# --- 2. fused/unrolled agreement ---------------------------------------------------

def test_fused_unrolled_agree_across_corpus():
    for name in CORPUS:
        ast, tables, obs, inputs = corpus_case(name)
        fused = pl.compile_model(ast, tables, obs, inputs, mode=pl.FUSED)
        ast2, tables2, obs2, inputs2 = corpus_case(name)
        unrolled = pl.compile_model(ast2, tables2, obs2, inputs2,
                                    mode=pl.UNROLLED)
        assert fused.site_names == unrolled.site_names, name
        rng = np.random.default_rng(99)
        for _ in range(50):
            u = rng.uniform(-2, 2, fused.latent_dim)
            lf, gf = fused.logdensity_and_grad(u)
            lu, gu = unrolled.logdensity_and_grad(u)
            assert lf == pytest.approx(lu, abs=1e-9), name
            np.testing.assert_allclose(gf, gu, atol=1e-7,
                                       err_msg=f"{name} gradients disagree")


def test_fused_unrolled_agree_across_corpus_at_full_size():
    for name in CORPUS:
        fused, unrolled = [
            pl.compile_model(*corpus_case(name, cap=None), mode=mode)
            for mode in (pl.FUSED, pl.UNROLLED)]
        assert fused.site_names == unrolled.site_names, name
        rng = np.random.default_rng(17)
        for _ in range(3):
            u = rng.uniform(-2, 2, fused.latent_dim)
            lf, gf = fused.logdensity_and_grad(u)
            lu, gu = unrolled.logdensity_and_grad(u)
            assert lf == pytest.approx(lu, abs=1e-9), name
            np.testing.assert_allclose(gf, gu, atol=1e-7,
                                       err_msg=f"{name} gradients disagree")


# --- 3. gradient correctness -------------------------------------------------------

def test_gradients_match_finite_differences_across_corpus():
    h = 1e-5
    for name in CORPUS:
        for mode in (pl.FUSED, pl.UNROLLED):
            ast, tables, obs, inputs = corpus_case(name)
            plan = pl.compile_model(ast, tables, obs, inputs, mode=mode)
            rng = np.random.default_rng(7)
            for _ in range(20):
                u = rng.uniform(-2, 2, plan.latent_dim)
                _, grad = plan.logdensity_and_grad(u)
                # directional derivative along a random unit vector
                d = rng.normal(size=plan.latent_dim)
                d /= np.linalg.norm(d)
                fd = (plan.logdensity(u + h * d)
                      - plan.logdensity(u - h * d)) / (2 * h)
                ad = float(grad @ d)
                assert abs(ad - fd) / max(abs(fd), 1e-8) < 1e-4, (name, mode)
                # plus a few raw coordinates
                for i in rng.choice(plan.latent_dim,
                                    size=min(3, plan.latent_dim),
                                    replace=False):
                    up, dn = u.copy(), u.copy()
                    up[i] += h
                    dn[i] -= h
                    fd_i = (plan.logdensity(up)
                            - plan.logdensity(dn)) / (2 * h)
                    assert abs(grad[i] - fd_i) / max(abs(fd_i), 1e-8) \
                        < 1e-4, (name, mode)


# --- 4. conjugate oracle -----------------------------------------------------------

def test_conjugate_normal_posterior_matches_closed_form():
    t0 = time.perf_counter()
    n = 50
    rng = np.random.default_rng(21)
    y = rng.normal(1.0, 1.0, size=n)
    src = f"ProgramName: Conj\nIndices: i 0 {n - 1}\n" \
          "mu ~ N(0, 1)\ny[i] ~ N(mu, 1)\n"
    table = make_table(("i",), [[i] for i in range(n)], {"y": y})
    plan = pl.compile_model(src, tables=(table,), obs=("y",))
    out = smp.run(plan, seed=4)  # default SamplerConfig
    mu = out.site("mu")
    post_mean = y.sum() / (n + 1)
    post_sd = 1 / math.sqrt(n + 1)
    ess = an.effective_sample_size(mu)
    sd_hat = float(np.std(mu, ddof=1))
    mcse_mean = sd_hat / math.sqrt(ess)
    mcse_sd = sd_hat / math.sqrt(2 * ess)
    assert abs(float(np.mean(mu)) - post_mean) < 3 * mcse_mean
    assert abs(sd_hat - post_sd) < 3 * mcse_sd
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"conjugate fit took {elapsed:.2f}s"


# --- 5. AR(1) recovery with and without missing data ---------------------------------

def test_ar1_parameter_recovery_and_imputation():
    t0 = time.perf_counter()
    src = model_text("ar1.ldm")
    y = ar1_series(T=300, seed=0)

    plan = pl.compile_model(src, tables=(ar1_table(y),), obs=("y",))
    out = smp.run(plan, n_chains=2, n_warmup=500, n_samples=500, seed=100)
    for site, truth in zip(("a", "b", "sigma"), AR1_TRUTH):
        lo, hi = credible_interval(out, site)
        assert lo <= truth <= hi, f"full data: {site} CI ({lo:.3f},{hi:.3f})"

    holdout = np.random.default_rng(1000).random(300) < 0.20
    y_miss = y.copy()
    y_miss[holdout] = np.nan
    plan2 = pl.compile_model(src, tables=(ar1_table(y_miss),), obs=("y",))
    out2 = smp.run(plan2, n_chains=2, n_warmup=500, n_samples=500, seed=200)
    for site, truth in zip(("a", "b", "sigma"), AR1_TRUTH):
        lo, hi = credible_interval(out2, site)
        assert lo <= truth <= hi, f"missing data: {site} CI ({lo:.3f},{hi:.3f})"

    imputations = an.extract_imputations(plan2, out2)
    assert len(imputations) == int(holdout.sum())
    means = np.array([v.mean() for v in imputations.values()])
    truth = np.array([y[int(k[2:-1])] for k in imputations])
    rmse = math.sqrt(float(np.mean((means - truth) ** 2)))
    # beat the marginal-mean baseline: the process sd around its own mean
    assert rmse < 1.147078669352809, f"imputation rmse {rmse:.3f}"

    elapsed = time.perf_counter() - t0
    assert elapsed < 180.0, f"recovery runs took {elapsed:.1f}s"


# --- 6. vectorization speedup ---------------------------------------------------------

def test_fused_mode_is_at_least_twice_as_fast():
    src = model_text("ar1.ldm")
    y = ar1_series(T=300, seed=0)
    y[np.random.default_rng(1000).random(300) < 0.20] = np.nan
    table = ar1_table(y)
    times = {}
    for mode in (pl.FUSED, pl.UNROLLED):
        t0 = time.perf_counter()
        plan = pl.compile_model(src, tables=(table,), obs=("y",), mode=mode)
        smp.run(plan, n_chains=1, n_warmup=100, n_samples=100, seed=5)
        times[mode] = time.perf_counter() - t0
    assert times[pl.FUSED] <= 0.5 * times[pl.UNROLLED], times


# --- 7. coupled-chain case study ------------------------------------------------------

DBN_WEIGHTS = dict(
    w_ee=0.7, b_e=0.3, s_e=0.3,
    w_ci=0.2, w_ii=0.6, b_i=0.2, s_i=0.3,
    w_pp=0.5, w_ep=0.2, w_ip=0.15, b_p=0.1, s_p=0.3,
    w_pa=0.3, w_aa=0.5, b_a=0.2, s_a=0.3,
    w_ac=0.2, w_cc=0.6, b_c=0.1, s_c=0.3,
)

MISS_RATES = {"C": 0.20, "EM": 0.16, "IM": 0.16, "A": 0.02, "P": 0.0}


def simulate_coupled_chains(n=10, T=38, seed=0):
    w = DBN_WEIGHTS
    rng = np.random.default_rng(seed)
    EM, IM, P, A, C = (np.zeros((n, T)) for _ in range(5))
    for v in (EM, IM, P, A, C):
        v[:, 0] = rng.normal(0, 1, n)
    for t in range(1, T):
        EM[:, t] = w["w_ee"] * EM[:, t - 1] + w["b_e"] \
            + rng.normal(0, w["s_e"], n)
        IM[:, t] = w["w_ci"] * C[:, t - 1] + w["w_ii"] * IM[:, t - 1] \
            + w["b_i"] + rng.normal(0, w["s_i"], n)
        P[:, t] = w["w_pp"] * P[:, t - 1] + w["w_ep"] * EM[:, t - 1] \
            + w["w_ip"] * IM[:, t - 1] + w["b_p"] + rng.normal(0, w["s_p"], n)
        A[:, t] = w["w_pa"] * P[:, t] + w["w_aa"] * A[:, t - 1] \
            + w["b_a"] + rng.normal(0, w["s_a"], n)
        C[:, t] = w["w_ac"] * A[:, t - 1] + w["w_cc"] * C[:, t - 1] \
            + w["b_c"] + rng.normal(0, w["s_c"], n)
    return {"EM": EM, "IM": IM, "P": P, "A": A, "C": C}


def test_coupled_chain_study_beats_independent_baseline():
    t0 = time.perf_counter()
    n, T = 10, 38
    data = simulate_coupled_chains(n, T, seed=0)
    rng = np.random.default_rng(1)
    cols = {}
    for name, v in data.items():
        v = v.copy()
        v[rng.random(v.shape) < MISS_RATES[name]] = np.nan
        cols[name] = v.ravel()
    table = make_table(("n", "t"),
                       [[i, t] for i in range(n) for t in range(T)], cols)

    scores = {}
    for model in ("ar1_multi", "dbn", "dbn_simplified"):
        plan = pl.compile_model(model_text(f"{model}.ldm"), tables=(table,),
                                obs=("A", "C", "EM", "IM", "P"))
        out = smp.run(plan, n_chains=2, n_warmup=400, n_samples=400, seed=11)
        assert not np.all(out.stats["divergent"]), model
        rhats = [r.r_hat for r in an.summarize(out)]
        assert np.nanmax(rhats) <= 1.05, f"{model}: max r_hat {max(rhats):.3f}"
        scores[model] = an.score(plan, out)

    # the coupled model explains the held-in cells better than independent
    # per-variable chains fit to the same table
    assert scores["dbn"].nll < scores["ar1_multi"].nll, scores
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0, f"case study took {elapsed:.1f}s"


# --- 8. draw distribution checks ------------------------------------------------------

def test_sampler_draws_match_target_distributions():
    # standard normal via the full pipeline, Kolmogorov-Smirnov at 1%
    plan = pl.compile_model("ProgramName: Std\nx ~ N(0, 1)\n")
    out = smp.run(plan, n_chains=4, n_warmup=500, n_samples=2000, seed=17)
    x = np.sort(out.site("x").ravel())
    m = x.size
    assert m == 8000
    cdf = 0.5 * (1 + np.vectorize(math.erf)(x / math.sqrt(2)))
    d_plus = np.max(np.arange(1, m + 1) / m - cdf)
    d_minus = np.max(cdf - np.arange(0, m) / m)
    ks = max(d_plus, d_minus)
    assert ks < 1.6276 / math.sqrt(m), f"KS statistic {ks:.5f}"

    # zero-inflated Poisson: mass sums to 1 and sampled moments match
    gate, rate = 0.3, 4.0
    v = np.arange(0, 200, dtype=float)
    pmf = np.exp(np.asarray(log_prob("ZeroInflatedPoisson", (gate, rate), v)))
    assert pmf.sum() >= 0.999
    rng = np.random.default_rng(23)
    z = dist_draw(rng, "ZeroInflatedPoisson", (gate, rate), size=100_000)
    mean = (1 - gate) * rate
    var = (1 - gate) * rate * (1 + gate * rate)
    assert abs(z.mean() - mean) < 4 * math.sqrt(var / z.size)
    m4 = np.mean((z - z.mean()) ** 4)
    se_var = math.sqrt((m4 - var ** 2) / z.size)
    assert abs(z.var() - var) < 4 * se_var


# --- 9. determinism --------------------------------------------------------------------

def test_identical_seeds_produce_identical_output_files(tmp_path):
    model = tmp_path / "m.ldm"
    model.write_text("""ProgramName: Repro
Indices: t 0 19
a ~ N(0, 1)
sigma ~ HalfNormal(1)
y[0] ~ N(0, 1)
y[t] ~ N(a*y[t-1], sigma)
""")
    y = ar1_series(T=20, seed=3)
    y[6] = np.nan
    lines = ["t,y"] + [f"{t},{'' if np.isnan(v) else repr(float(v))}"
                       for t, v in enumerate(y)]
    data = tmp_path / "d.csv"
    data.write_text("\n".join(lines) + "\n")

    outs = []
    for tag in ("one", "two"):
        out = tmp_path / f"{tag}.csv"
        rc = cli_main(["sample", str(model), "--data", str(data),
                       "--seed", "7", "--chains", "2", "--warmup", "200",
                       "--samples", "200", "-o", str(out)])
        assert rc == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
