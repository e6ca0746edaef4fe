"""Lowered log-density plans: layout, oracle values, and mode equivalence."""

import itertools
import math
import re
import warnings

import numpy as np
import pytest
import scipy.stats as st

from ldmlang import plan as pl
from ldmlang import sampler as smp
from ldmlang.datatable import make_table
from ldmlang.errors import (
    BindError, GraphError, MissingDiscreteUnsupportedError,
    NonFiniteDensityError, UndefinedReferenceError,
)

from conftest import model_text

EXAMPLE1 = """ProgramName: E1
b = 1
s ~ Exp(b)
x ~ N(0, 4*s)
"""

IID5 = """ProgramName: IID5
Indices: t 0 4
x[t] ~ N(0, 1)
"""

AR1_SMALL = """ProgramName: AR1Small
Indices: t 0 59
a ~ N(0, 10)
b ~ N(0, 10)
sigma ~ HalfNormal(10)
y[0] ~ N(0, 10)
y[t] ~ N(a*y[t-1] + b, sigma)
"""


def ar1_table(T=60, missing=()):
    rng = np.random.default_rng(3)
    y = rng.normal(size=T)
    y[list(missing)] = np.nan
    return make_table(("t",), [[t] for t in range(T)], {"y": y})


def test_oracle_value_and_gradient_both_modes():
    want = -3.3052328943245633
    for mode in (pl.FUSED, pl.UNROLLED):
        plan = pl.compile_model(EXAMPLE1, mode=mode)
        assert plan.site_names == ["s", "x"]
        u = np.zeros(2)
        assert plan.logdensity(u) == pytest.approx(want, abs=1e-12)
        ld, grad = plan.logdensity_and_grad(u)
        assert ld == pytest.approx(want, abs=1e-12)
        np.testing.assert_allclose(grad, [-1.0, 0.0], atol=1e-12)


def test_iid_block_value_and_structure():
    plan = pl.compile_model(IID5)
    assert plan.latent_dim == 5
    assert plan.logdensity(np.zeros(5)) == pytest.approx(
        5 * st.norm.logpdf(0.0), abs=1e-12)
    assert plan.blocks == []


def test_missing_cells_become_latent_slots():
    missing = list(range(10, 25))
    plan = pl.compile_model(AR1_SMALL, tables=(ar1_table(missing=missing),),
                            obs=("y",))
    assert plan.site_names[:3] == ["a", "b", "sigma"]
    assert plan.latent_dim == 3 + len(missing)
    assert plan.n_latent_params == 3
    assert plan.n_observed == 60 - len(missing)
    # imputed slots sit in one contiguous run after the parameters
    imputed = [run for run in plan.runs if run.kind == pl.MISSING_IMPUTED]
    assert [(run.variable, run.offset, len(run.pos)) for run in imputed] == [
        ("y", 3, len(missing))]
    assert plan.site_names[3:] == [f"y[{t}]" for t in missing]


PANEL_AR1 = """ProgramName: PanelAR1
Indices: n 0 2, t 0 4
a ~ N(0, 1)
s ~ HalfNormal(1)
y[n,0] ~ N(0, 1)
y[n,t] ~ N(a * y[n,t-1], s)
"""


def test_table_binds_by_index_names_whatever_the_row_and_column_order():
    # the table for y[n,t] as (t, n) columns, its rows shuffled and the
    # missing cells' rows left out, binds as the sorted (n, t) table with
    # NaN cells; read by column position instead, its t values 3 and 4
    # would fall outside n's range and its cells land on the wrong keys
    rng = np.random.default_rng(12)
    keys = list(itertools.product(range(3), range(5)))
    y = rng.normal(size=len(keys))
    y[[2, 6, 13]] = np.nan
    full = make_table(("n", "t"), keys, {"y": y})
    rows = rng.permutation(np.flatnonzero(~np.isnan(y)))
    sparse = make_table(("t", "n"), [keys[i][::-1] for i in rows],
                        {"y": y[rows]})
    plans = [pl.compile_model(PANEL_AR1, tables=(t,), obs=("y",))
             for t in (full, sparse)]
    a, b = plans
    assert a.site_names == b.site_names == ["a", "s", "y[0,2]", "y[1,1]",
                                            "y[2,3]"]
    assert ([(r.kind, r.offset, len(r.pos)) for r in a.runs]
            == [(r.kind, r.offset, len(r.pos)) for r in b.runs])
    assert a.n_observed == b.n_observed == len(keys) - 3
    for seed in range(3):
        u = np.random.default_rng(seed).normal(size=a.latent_dim)
        assert a.logdensity(u) == b.logdensity(u)


def test_fully_observed_data_leaves_only_parameters():
    plan = pl.compile_model(AR1_SMALL, tables=(ar1_table(),), obs=("y",))
    assert plan.latent_dim == 3
    assert all(run.kind == pl.LATENT_PARAM for run in plan.runs)


def test_fused_plan_emits_scan_for_recurrences():
    plan = pl.compile_model(AR1_SMALL, tables=(ar1_table(),), obs=("y",))
    # the recurrence is one vectorized term; only unindexed statements and
    # the base case are one-site terms
    assert [b.name for b in plan.blocks] == ["a", "b", "sigma", "y[0]"]
    assert all(isinstance(b, pl.ScalarSite) for b in plan.blocks)
    u = np.array([0.5, 0.1, -0.3])
    a, b, sigma = 0.5, 0.1, math.exp(-0.3)
    y = ar1_table().column("y")
    want = (st.norm.logpdf([a, b], 0, 10).sum()
            + st.halfnorm.logpdf(sigma, scale=10) - 0.3
            + st.norm.logpdf(y[0], 0, 10)
            + st.norm.logpdf(y[1:], a * y[:-1] + b, sigma).sum())
    assert plan.logdensity(u) == pytest.approx(want, rel=1e-12)


def modes_agree(source, tables=(), obs=(), inputs=None, n_points=20, seed=0):
    fused = pl.compile_model(source, tables, obs, inputs, mode=pl.FUSED)
    unrolled = pl.compile_model(source, tables, obs, inputs, mode=pl.UNROLLED)
    assert fused.site_names == unrolled.site_names
    rng = np.random.default_rng(seed)
    for _ in range(n_points):
        u = rng.uniform(-2, 2, fused.latent_dim)
        lf, gf = fused.logdensity_and_grad(u)
        lu, gu = unrolled.logdensity_and_grad(u)
        assert lf == pytest.approx(lu, abs=1e-9)
        np.testing.assert_allclose(gf, gu, atol=1e-7)
    return fused


def test_modes_agree_on_ar1_with_missing_data():
    modes_agree(AR1_SMALL, tables=(ar1_table(missing=[5, 6, 30]),), obs=("y",))


def test_modes_agree_on_lookup_model():
    src = """ProgramName: Tanks
Indices: j 0 3, i 0 9
Inputs: tank, D
a[j] ~ N(0, 1.5)
S[i] ~ BinomialLogits(D[i], a[tank[i]])
"""
    rng = np.random.default_rng(1)
    tank = rng.integers(0, 4, size=10)
    D = rng.integers(5, 20, size=10)
    S = rng.binomial(D, 0.5).astype(float)
    table = make_table(("i",), [[i] for i in range(10)],
                       {"tank": tank.astype(float), "D": D.astype(float),
                        "S": S})
    fused = modes_agree(src, tables=(table,), obs=("S",))
    # ten rows over four tanks repeat positions of a: one gather, whose
    # adjoint scatters through np.bincount
    assert fused.blocks == []
    assert "np.bincount(" in fused._program.source


@pytest.mark.parametrize("mode", [pl.FUSED, pl.UNROLLED])
def test_lookup_outside_range_names_the_index_value(mode):
    src = """ProgramName: Tanks
Indices: j 0 3, i 0 4
Inputs: tank
a[j] ~ N(0, 1.5)
S[i] ~ N(a[tank[i]], 1)
"""
    table = make_table(("i",), [[i] for i in range(5)],
                       {"tank": [0.0, 1.0, 9.0, 2.0, 7.0],
                        "S": [0.1, 0.2, 0.3, 0.4, 0.5]})
    with pytest.raises(UndefinedReferenceError,
                       match=r"^a\[9\] lies outside the declared range$"):
        pl.compile_model(src, tables=(table,), obs=("S",), mode=mode)


# statements that read per-unit parameters or deterministics with several
# governing statements; each is one vectorized term, so the only one-site
# terms are the unindexed parameters
VECTORIZED = {
    "hierarchical_recurrence": ("""ProgramName: Panel
Indices: n 0 2, t 0 3
s ~ HalfNormal(1)
mu[n] ~ N(0, 1)
y[n,0] ~ N(0, 1)
y[n,t] ~ N(mu[n] + 0.5 * y[n,t-1], s)
""", {"n": 3, "t": 4}, ["s"]),
    "per_unit_iid": ("""ProgramName: PerUnit
Indices: n 0 2, t 0 3
s ~ HalfNormal(1)
mu[n] ~ N(0, 1)
y[n,t] ~ N(mu[n], s)
""", {"n": 3, "t": 4}, ["s"]),
    "two_governor_deterministic": ("""ProgramName: TwoGovernors
Indices: t 0 4
mu ~ N(0, 1)
r ~ N(0, 1)
s ~ HalfNormal(1)
m[0] = mu
m[t] = r * mu + 1
y[t] ~ N(m[t], s)
""", {"t": 5}, ["mu", "r", "s"]),
    "deterministic_recurrence": ("""ProgramName: DetRecurrence
Indices: t 0 6
s ~ HalfNormal(1)
x[t] ~ N(0, 1)
m[0] = x[0]
m[t] = 0.5 * m[t-1] + x[t]
y[t] ~ N(m[t], s)
""", {"t": 7}, ["s"]),
}


@pytest.mark.parametrize("name", sorted(VECTORIZED))
def test_modes_agree_on_vectorized_statements(name):
    src, extents, scalar_sites = VECTORIZED[name]
    rows = list(itertools.product(*(range(e) for e in extents.values())))
    y = np.random.default_rng(4).normal(size=len(rows))
    y[[1, len(rows) - 2]] = np.nan
    table = make_table(tuple(extents), rows, {"y": y})
    fused = modes_agree(src, tables=(table,), obs=("y",))
    assert [b.name for b in fused.blocks] == scalar_sites


# m[t] reads y[t-1] on an axis that the lookup makes GENERAL; UNROLLED and
# prior simulation make each cell when it is first read, so no statement
# order is needed
GENERAL_LAG = """ProgramName: GeneralLag
Indices: k 0 1, t 0 5
Inputs: grp
mu ~ N(0, 1)
r ~ N(0, 0.5)
s ~ HalfNormal(1)
e[k] ~ N(0, s)
m[0] = mu
m[t] = r * y[t-1] + mu
y[t] ~ N(m[t] + e[grp[t]], s)
"""
GRP = [0.0, 1.0, 1.0, 0.0, 1.0, 0.0]


def test_modes_agree_on_lagged_deterministic_over_general_axis():
    y = np.random.default_rng(6).normal(size=6)
    y[[2, 4]] = np.nan
    table = make_table(("t",), [[t] for t in range(6)], {"y": y, "grp": GRP})
    modes_agree(GENERAL_LAG, tables=(table,), obs=("y",))


def test_prior_simulate_lagged_deterministic_over_general_axis():
    plan = pl.compile_model(GENERAL_LAG, inputs={"grp": GRP})
    out = pl.prior_simulate(plan, np.random.default_rng(4), 5)
    assert out.index_names == ("draw", "k", "t")
    assert out.n_rows == 5 * 2 * 6
    for v in ("mu", "r", "s", "e", "m", "y"):
        assert np.all(np.isfinite(out.column(v)))
    # m and y depend on t only: read them on the k = 0 rows, (draw, t)
    rows = out.column("k") == 0
    m, y, r, mu = (out.column(v)[rows].reshape(5, 6)
                   for v in ("m", "y", "r", "mu"))
    assert np.array_equal(m[:, 0], mu[:, 0])
    assert np.array_equal(m[:, 1:], r[:, 1:] * y[:, :-1] + mu[:, 1:])


def test_prior_simulate_unresolved_lookup_input_is_an_ldm_error():
    plan = pl.compile_model(GENERAL_LAG)
    with pytest.raises(UndefinedReferenceError,
                       match="input 'grp' has no value"):
        pl.prior_simulate(plan, np.random.default_rng(0), 2)


def deterministic_recurrence(T):
    src = VECTORIZED["deterministic_recurrence"][0].replace(
        "t 0 6", f"t 0 {T - 1}")
    y = np.random.default_rng(8).normal(size=T)
    y[::5] = np.nan
    return src, (make_table(("t",), [[t] for t in range(T)], {"y": y}),)


def test_deterministic_recurrence_compiles_at_length():
    # FUSED builds m from its cells, one generated value per step: no
    # recursion, and source that grows linearly in T
    src, tables = deterministic_recurrence(300)
    modes_agree(src, tables=tables, obs=("y",), n_points=3)
    lines = {T: len(pl.compile_model(*deterministic_recurrence(T), ("y",))
                    ._program.source.splitlines()) for T in (300, 600)}
    assert lines[600] <= 2.1 * lines[300], lines


def test_gradient_matches_finite_differences():
    for mode in (pl.FUSED, pl.UNROLLED):
        plan = pl.compile_model(AR1_SMALL, tables=(ar1_table(missing=[7]),),
                                obs=("y",), mode=mode)
        rng = np.random.default_rng(5)
        u = rng.uniform(-1, 1, plan.latent_dim)
        _, grad = plan.logdensity_and_grad(u)
        h = 1e-6
        for i in range(plan.latent_dim):
            up, dn = u.copy(), u.copy()
            up[i] += h
            dn[i] -= h
            fd = (plan.logdensity(up) - plan.logdensity(dn)) / (2 * h)
            assert grad[i] == pytest.approx(fd, rel=1e-4, abs=1e-7), mode


def test_constrain_round_trip():
    plan = pl.compile_model(AR1_SMALL, tables=(ar1_table(),), obs=("y",))
    u = np.array([0.3, -1.2, 0.7])
    v = plan.constrain(u)
    assert v[2] == pytest.approx(math.exp(0.7))  # sigma is positive
    np.testing.assert_allclose(plan.unconstrain(v), u, atol=1e-12)


def test_observed_loglik_excludes_priors():
    src = "ProgramName: M\nmu ~ N(0, 1)\ny ~ N(mu, 1)\n"
    # scalar variables bind through a table with no index columns
    plan = pl.compile_model(src, tables=(make_table((), [()], {"y": [2.0]}),),
                            obs=("y",))
    assert plan.latent_dim == 1
    u = np.zeros(1)
    assert plan.observed_loglik(u) == pytest.approx(st.norm.logpdf(2.0))
    assert plan.logdensity(u) == pytest.approx(
        st.norm.logpdf(0.0) + st.norm.logpdf(2.0))


def test_prior_simulate_matches_moments():
    plan = pl.compile_model(EXAMPLE1)
    rng = np.random.default_rng(11)
    out = plan_draws = pl.prior_simulate(plan, rng, 4000)
    assert out.index_names == ("draw",)
    x = out.column("x")
    s = out.column("s")
    assert x.shape == (4000,)
    # var(x) = E[(4 s)^2] with s ~ Exp(1), so 16 * E[s^2] = 32
    assert np.mean(s) == pytest.approx(1.0, abs=4 * 1.0 / math.sqrt(4000))
    assert np.mean(x) == pytest.approx(0.0, abs=4 * math.sqrt(32 / 4000))
    assert np.var(x) == pytest.approx(32.0, rel=0.2)
    assert np.all(out.column("b") == 1.0)


def test_prior_simulate_indexed_layout():
    plan = pl.compile_model(IID5)
    out = pl.prior_simulate(plan, np.random.default_rng(0), 3)
    assert out.index_names == ("draw", "t")
    assert out.n_rows == 15
    t = out.column("t")
    assert list(t[:5]) == [0, 1, 2, 3, 4]
    # two axes: rows run draw-major, then n, then t; each variable is
    # projected onto the axes it has
    src = """ProgramName: TwoAxes
Indices: n 0 2, t 0 3
Inputs: x
e[n] ~ N(0, 1)
m[n,t] = x[n,t]
y[n,t] ~ N(m[n,t] + e[n], 1)
"""
    x = np.arange(12.0).reshape(3, 4) / 7
    plan = pl.compile_model(src, inputs={"x": x})
    out = pl.prior_simulate(plan, np.random.default_rng(1), 4)
    assert out.index_names == ("draw", "n", "t")
    assert out.n_rows == 4 * 12
    want = [(d, n, t) for d in range(4) for n in range(3) for t in range(4)]
    assert out.index_rows.tolist() == [list(k) for k in want]
    n, t = out.column("n"), out.column("t")
    assert np.array_equal(out.column("m"), x[n, t])
    e = out.column("e").reshape(4, 3, 4)
    assert np.all(e == e[:, :, :1])
    assert len(np.unique(e[:, :, 0])) == 12


LINEAR_DBN = """ProgramName: LinearDBN
Indices: n 0 1, t 0 4
X[n,0] ~ N(2, 1)
Y[n,0] ~ N(0, 1)
X[n,t] ~ N(0.5 * X[n,t-1] + 0.3 * Y[n,t-1] + 1, 1)
Y[n,t] ~ N(0.4 * X[n,t] + 0.2 * Y[n,t-1], 0.5)
"""


def test_prior_simulate_linear_gaussian_dbn_matches_closed_form():
    # z_t = (X_t, Y_t) = A z_{t-1} + c + L eps_t with Y_t's within-slice
    # read of X_t substituted in, so mean_t = A mean_{t-1} + c and
    # cov_t = A cov_{t-1} A' + L L'
    A = np.array([[0.5, 0.3], [0.4 * 0.5, 0.4 * 0.3 + 0.2]])
    c = np.array([1.0, 0.4])
    L = np.array([[1.0, 0.0], [0.4, 0.5]])
    mean, cov = np.array([2.0, 0.0]), np.eye(2)
    for _ in range(4):
        mean, cov = A @ mean + c, A @ cov @ A.T + L @ L.T
    plan = pl.compile_model(LINEAR_DBN)
    assert pl._replicate_axes(plan.graph) == {"n"}   # blocks over n
    out = pl.prior_simulate(plan, np.random.default_rng(21), 4000)
    last = out.column("t") == 4
    z = np.column_stack([out.column("X")[last], out.column("Y")[last]])
    n = len(z)
    assert n == 4000 * 2
    se_mean = np.sqrt(np.diag(cov) / n)
    assert np.all(np.abs(z.mean(axis=0) - mean) < 4 * se_mean)
    # standard error of a sample covariance of Gaussians:
    # sqrt((cov_ii cov_jj + cov_ij^2) / n)
    d = np.diag(cov)
    se_cov = np.sqrt((np.outer(d, d) + cov ** 2) / n)
    assert np.all(np.abs(np.cov(z.T) - cov) < 4 * se_cov)


@pytest.mark.parametrize("name,axes", [
    ("ar1.ldm", set()), ("ar1_multi.ldm", {"n"}), ("dbn.ldm", {"n"}),
    ("binomial_logits.ldm", {"i"}), ("multilevel_b.ldm", {"i"}),
    ("linear_regression.ldm", set()), ("dbn_simplified.ldm", {"n"}),
    ("ar2.ldm", set()), ("multilevel_a.ldm", {"i"}),
    ("zero_inflated.ldm", set())])
def test_replicate_axes(name, axes):
    # an axis read with a lag, a literal or a lookup is walked cell by cell
    graph = pl.build_graph(pl.parse_program(model_text(name)))
    assert pl._replicate_axes(graph) == axes


def test_prior_simulate_draws_blocks_cell_major():
    # a block's draws come from one call over (cells, draws), so each
    # cell's draws are consecutive in the RNG stream, as in a cell walk
    src = """ProgramName: Blocks
Indices: n 0 2, t 0 3
mu ~ N(0, 1)
x[n,t] ~ N(mu, 2)
"""
    out = pl.prior_simulate(pl.compile_model(src), np.random.default_rng(9), 5)
    rng = np.random.default_rng(9)
    mu = rng.normal(0, 1, 5)
    x = rng.normal(mu, 2, (12, 5))           # rows are (n, t), row major
    assert np.array_equal(out.column("mu").reshape(5, 12), np.repeat(
        mu[:, None], 12, axis=1))
    assert np.array_equal(out.column("x").reshape(5, 12), x.T)


def test_prior_simulate_ar1_multi_residuals_are_standard_normal():
    # every series of ar1_multi is an AR(1) over t, one block per t over
    # the replicate axis n: rebuilt from the table, (y[n,t] - a y[n,t-1] -
    # b) / s is N(0, 1) for each variable
    plan = pl.compile_model(model_text("ar1_multi.ldm"))
    draws = 300
    out = pl.prior_simulate(plan, np.random.default_rng(17), draws)
    assert out.index_names == ("draw", "n", "t")

    def col(name):
        return out.column(name).reshape(draws, 10, 38)

    for var, p in (("EM", "e"), ("IM", "i"), ("P", "p"), ("A", "a"),
                   ("C", "c")):
        y, a, b, s = col(var), col(f"a_{p}"), col(f"b_{p}"), col(f"s_{p}")
        mean = a[:, :, 1:] * y[:, :, :-1] + b[:, :, 1:]
        z = (y[:, :, 1:] - mean) / s[:, :, 1:]
        # explosive paths lose the residual to cancellation; keeping the
        # cells whose mean is small against s does not depend on the
        # residual itself
        keep = np.abs(mean) < 1e3 * s[:, :, 1:]
        assert keep.sum() > 10000, var
        assert st.kstest(z[keep], "norm").pvalue > 1e-3, var


def test_prior_simulate_lookup_into_a_walked_variable():
    # a[tank[i]] gathers rows of a for every i of the block over i
    src = """ProgramName: Lookup
Indices: j 0 3, i 0 9, k 0 1
Inputs: tank, off
mu ~ N(0, 1)
a[j] ~ N(mu, 1)
m[i] = a[tank[i]]
y[i,k] ~ N(a[tank[i]] + off[k], 0.5)
"""
    tank = [3.0, 0.0, 0.0, 2.0, 1.0, 3.0, 3.0, 2.0, 0.0, 1.0]
    plan = pl.compile_model(src, inputs={"tank": tank, "off": [0.0, 1.0]})
    assert pl._replicate_axes(plan.graph) == {"i", "k"}
    draws = 4000
    out = pl.prior_simulate(plan, np.random.default_rng(5), draws)
    assert out.index_names == ("draw", "j", "i", "k")
    shape = (draws, 4, 10, 2)
    a = out.column("a").reshape(shape)[:, :, 0, 0]
    m = out.column("m").reshape(shape)[:, 0, :, 0]
    y = out.column("y").reshape(shape)[:, 0]
    tank = np.asarray(tank, dtype=int)
    assert np.array_equal(m, a[:, tank])
    z = (y - a[:, tank, None] - np.arange(2)) / 0.5
    assert st.kstest(z.ravel(), "norm").pvalue > 1e-3
    # a[j] = mu + e_j: variance 2, covariance 1 between any two j
    cov = np.cov(a.T)
    assert np.allclose(np.diag(cov), 2.0, atol=0.25)
    assert np.allclose(cov[np.triu_indices(4, 1)], 1.0, atol=0.2)


def test_latent_discrete_sites_are_simulate_only():
    src = "ProgramName: M\nc ~ Bernoulli(0.5)\ny ~ N(c, 1)\n"
    plan = pl.compile_model(src)
    assert plan.simulate_only
    with pytest.raises(MissingDiscreteUnsupportedError):
        plan.logdensity(np.zeros(plan.latent_dim))
    out = pl.prior_simulate(plan, np.random.default_rng(2), 500)
    c = out.column("c")
    assert set(np.unique(c)) <= {0.0, 1.0}
    assert 0.3 < np.mean(c) < 0.7


def test_observed_discrete_sites_are_fine():
    src = "ProgramName: M\np ~ Beta(2, 2)\nx ~ Bernoulli(p)\n"
    plan = pl.compile_model(src, tables=(make_table((), [()], {"x": [1.0]}),),
                            obs=("x",))
    assert not plan.simulate_only
    u = np.array([0.4])
    p = 1 / (1 + math.exp(-0.4))
    jac = math.log(p * (1 - p))
    want = st.beta.logpdf(p, 2, 2) + jac + math.log(p)
    assert plan.logdensity(u) == pytest.approx(want, abs=1e-12)


def test_missing_discrete_cell_is_rejected():
    src = """ProgramName: M
Indices: i 0 3
p ~ Beta(2, 2)
x[i] ~ Bernoulli(p)
"""
    vals = [1.0, 0.0, np.nan, 1.0]
    table = make_table(("i",), [[i] for i in range(4)], {"x": vals})
    with pytest.raises(MissingDiscreteUnsupportedError):
        pl.compile_model(src, tables=(table,), obs=("x",))


def test_unresolved_input_raises_lazily():
    src = "ProgramName: M\nInputs: x\na ~ N(0, 1)\ny ~ N(a + x, 1)\n"
    plan = pl.compile_model(src)  # compiles fine
    with pytest.raises(UndefinedReferenceError, match="has no value"):
        plan.logdensity(np.zeros(plan.latent_dim))


def test_inputs_dict_supplies_values():
    src = "ProgramName: M\nInputs: x\na ~ N(0, 1)\ny ~ N(a + x, 1)\n"
    plan = pl.compile_model(src, inputs={"x": 3.0})
    val = plan.logdensity(np.zeros(2))
    assert val == pytest.approx(st.norm.logpdf(0.0) + st.norm.logpdf(0.0, 3.0, 1.0))


def test_validation_failures_surface_as_graph_error():
    with pytest.raises(GraphError, match="UndefinedVariable"):
        pl.compile_model("ProgramName: M\ny ~ N(zz, 1)\n")


def test_observing_deterministic_or_unknown_vars_fails():
    table = make_table((), [()], {"b": [1.0]})
    with pytest.raises(BindError, match="deterministic"):
        pl.compile_model(EXAMPLE1, tables=(table,), obs=("b",))
    with pytest.raises(BindError, match="not a model variable"):
        pl.compile_model(EXAMPLE1, tables=(table,), obs=("qq",))
    with pytest.raises(BindError, match="no supplied table"):
        pl.compile_model(EXAMPLE1, tables=(table,), obs=("x",))


@pytest.mark.parametrize("cell", [math.inf, -math.inf])
def test_infinite_data_cells_are_rejected_at_bind(cell):
    table = ar1_table()
    table.columns["y"][1] = cell
    with pytest.raises(BindError, match=r"y\[1\]"):
        pl.compile_model(AR1_SMALL, tables=(table,), obs=("y",))
    src = """ProgramName: M
Indices: i 0 3
Inputs: x
a ~ N(0, 1)
y[i] ~ N(a * x[i], 1)
"""
    x = np.array([0.5, 1.0, cell, 2.0])
    table = make_table(("i",), [[i] for i in range(4)],
                       {"x": x, "y": np.zeros(4)})
    with pytest.raises(BindError, match=r"x\[2\]"):
        pl.compile_model(src, tables=(table,), obs=("y",))


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_infinite_scalar_input_is_rejected_at_bind(value):
    src = "ProgramName: M\nInputs: x\na ~ N(0, 1)\ny ~ N(a * x, 1)\n"
    with pytest.raises(BindError,
                       match=rf"^input x is {value}; a cell must be finite$"):
        pl.compile_model(src, inputs={"x": value})


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_infinite_array_input_is_rejected_at_bind(value):
    src = """ProgramName: M
Indices: i 0 3
Inputs: x
a ~ N(0, 1)
y[i] ~ N(a * x[i], 1)
"""
    with pytest.raises(BindError,
                       match=rf"^input x\[2\] is {value}; a cell must be "
                             "finite$"):
        pl.compile_model(src, inputs={"x": [0.5, 1.0, value, 2.0]})


@pytest.mark.parametrize("mode", [pl.FUSED, pl.UNROLLED])
def test_scalar_for_an_indexed_input_is_rejected_at_bind(mode):
    src = """ProgramName: M
Indices: i 0 3
Inputs: x
a ~ N(0, 1)
y[i] ~ N(a * x[i], 1)
"""
    with pytest.raises(BindError,
                       match=r"^input 'x' is indexed by \('i',\) and needs 4 "
                             "values, got a scalar$"):
        pl.compile_model(src, inputs={"x": 2.0}, mode=mode)


@pytest.mark.parametrize("mode", [pl.FUSED, pl.UNROLLED])
def test_array_for_a_scalar_input_is_rejected_at_bind(mode):
    src = "ProgramName: M\nInputs: x\na ~ N(0, 1)\ny ~ N(a * x, 1)\n"
    with pytest.raises(BindError,
                       match=r"^input 'x' is not indexed and takes one "
                             r"value, got an array of shape \(2,\)$"):
        pl.compile_model(src, inputs={"x": [1.0, 2.0]}, mode=mode)


def dbn_panel(n):
    return re.sub(r"Indices:.*", f"Indices: n 0 {n - 1}, t 0 37",
                  model_text("dbn.ldm"))


def test_compile_and_simulate_make_no_per_cell_names_or_slots(monkeypatch):
    """Compiling and prior-simulating the DBN makes as many site names at
    n=5 as at n=50: they do not grow with the cells."""
    from ldmlang import graph as g
    calls = 0
    instance_name = g.instance_name

    def counted(*args, **kwargs):
        nonlocal calls
        calls += 1
        return instance_name(*args, **kwargs)

    monkeypatch.setattr(g, "instance_name", counted)
    monkeypatch.setattr(pl, "instance_name", counted)
    counts = []
    for n in (5, 50):
        calls = 0
        plan = pl.compile_model(dbn_panel(n))
        pl.prior_simulate(plan, np.random.default_rng(1), 2)
        counts.append(calls)
    assert plan.latent_dim == 20 + 5 * 50 * 38
    assert counts[0] == counts[1]


def test_latent_vector_shape_and_nan_checks():
    plan = pl.compile_model(EXAMPLE1)
    with pytest.raises(ValueError):
        plan.logdensity(np.zeros(3))
    with pytest.raises(NonFiniteDensityError):
        plan.logdensity(np.array([0.0, np.nan]))


GUARDED = """ProgramName: Guarded
Indices: i 0 3
p ~ Beta(2, 2)
z ~ N(0, 1)
x[i] ~ Bernoulli(expit(z))
"""


@pytest.mark.parametrize("mode", [pl.FUSED, pl.UNROLLED])
def test_logdensity_and_grad_rejects_nan_slots(mode):
    plan = pl.compile_model(IID5, mode=mode)
    with pytest.raises(NonFiniteDensityError):
        plan.logdensity_and_grad(np.array([0.0, 0.0, np.nan, 0.0, 0.0]))
    # NaN slots whose terms go through a support guard to -inf: the unit
    # interval of a Beta, and a Bernoulli's expit parameter
    table = make_table(("i",), [[i] for i in range(4)],
                       {"x": [0.0, 1.0, 1.0, 0.0]})
    plan = pl.compile_model(GUARDED, tables=(table,), obs=("x",), mode=mode)
    assert plan.site_names == ["p", "z"]
    assert math.isfinite(plan.logdensity_and_grad(np.zeros(2))[0])
    for u in ([np.nan, 0.0], [0.0, np.nan], [np.nan, np.nan]):
        with pytest.raises(NonFiniteDensityError):
            plan.logdensity_and_grad(np.array(u))


@pytest.mark.parametrize("mode", [pl.FUSED, pl.UNROLLED])
def test_both_wrappers_check_shape_and_nan_without_warnings(mode):
    table = make_table(("i",), [[i] for i in range(4)],
                       {"x": [0.0, 1.0, 1.0, 0.0]})
    plans = [pl.compile_model(IID5, mode=mode),
             pl.compile_model(GUARDED, tables=(table,), obs=("x",),
                              mode=mode)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for plan in plans:
            dim = plan.latent_dim
            for fn in (plan.logdensity, plan.logdensity_and_grad):
                for shape in ((dim - 1,), (dim + 1,), (dim, 1), (1, dim)):
                    with pytest.raises(ValueError):
                        fn(np.zeros(shape))
                for k in range(dim):
                    u = np.zeros(dim)
                    u[k] = np.nan
                    with pytest.raises(NonFiniteDensityError):
                        fn(u)
                with pytest.raises(NonFiniteDensityError):
                    fn(np.full(dim, np.nan))


# at x = 1e-110 the observed terms are finite, but their gradients in x
# overflow: z's to +inf, and y's to -inf, so that the two make NaN
STEEP = {"inf": ("z ~ N(x, 1e-210)\n", {"z": [2e-110]}),
         "nan": ("y ~ N(x, 1e-210)\nz ~ N(x, 1e-210)\n",
                 {"y": [0.0], "z": [2e-110]})}


@pytest.mark.parametrize("mode", [pl.FUSED, pl.UNROLLED])
@pytest.mark.parametrize("entry", sorted(STEEP))
def test_overflowing_gradient_is_minus_inf_with_zero_gradient(mode, entry):
    terms, cells = STEEP[entry]
    plan = pl.compile_model("ProgramName: M\nx ~ N(0, 1)\n" + terms,
                            tables=(make_table((), [()], cells),),
                            obs=tuple(cells), mode=mode)
    u = np.array([1e-110])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value, grad = plan.logdensity_and_grad(u)
        assert math.isfinite(plan.logdensity(u))
    assert value == -math.inf
    assert grad.tolist() == [0.0]


@pytest.mark.parametrize("mode", [pl.FUSED, pl.UNROLLED])
def test_sampler_calls_the_wrappers_set_on_the_plan(mode, monkeypatch):
    # a wrapper set on the plan instance, as a profiler sets one, sees
    # every gradient call of the chains and every Pathfinder value call
    plan = pl.compile_model(AR1_SMALL, tables=(ar1_table(missing=(5, 9)),),
                            obs=("y",), mode=mode)
    calls = {"logdensity": 0, "logdensity_and_grad": 0}
    for name in calls:
        def counted(u, inner=getattr(plan, name), name=name):
            calls[name] += 1
            return inner(u)
        setattr(plan, name, counted)
    monkeypatch.setattr(smp, "_worker_count", lambda n_chains: 1)
    out = smp.run(plan, n_chains=2, n_warmup=30, n_samples=20, seed=3)
    assert calls["logdensity_and_grad"] == (sum(out.gradients["warmup"])
                                            + sum(out.gradients["sampling"]))
    assert calls["logdensity"] == sum(w["pathfinder"]["values"]
                                      for w in out.warmup) > 0


@pytest.mark.parametrize("mode", [pl.FUSED, pl.UNROLLED])
def test_finite_point_off_the_support_is_minus_inf_with_zero_gradient(mode):
    # no value of p explains x = 0.5 under a Bernoulli
    src = "ProgramName: M\np ~ Beta(2, 2)\nx ~ Bernoulli(p)\n"
    table = make_table((), [()], {"x": [0.5]})
    plan = pl.compile_model(src, tables=(table,), obs=("x",), mode=mode)
    value, grad = plan.logdensity_and_grad(np.array([0.3]))
    assert value == -math.inf
    assert grad.tolist() == [0.0]
