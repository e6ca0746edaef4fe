"""Generated value-and-gradient code: both modes, their oracles, and codegen.

Both modes run code that `ldmlang.codegen` generates from closed-form
rules: FUSED one vectorized term per statement, UNROLLED one scalar term
per cell. Agreement between them checks the vectorized lowering against the
per-cell one. The rules themselves are checked against oracles that share
no code with them: each distribution's term value against its NumPy kernel
in `ldmlang.distributions`, and the gradients of both modes against central
differences.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from ldmlang import autodiff as ad
from ldmlang import codegen
from ldmlang import distributions as dist
from ldmlang import plan as pl
from ldmlang.datatable import make_table

# in-support observations per support kind; the last cell of a continuous
# variable is missing, so it is imputed as a latent slot
CELLS = {
    dist.REAL: [0.3, -1.1, 2.0, math.nan],
    dist.POSITIVE: [0.7, 1.3, 2.1, math.nan],
    dist.UNIT_INTERVAL: [0.2, 0.5, 0.8, math.nan],
    dist.BINARY: [0.0, 1.0, 1.0, 0.0],
    dist.BOUNDED_INTEGER: [0.0, 2.0, 5.0, 3.0],
    dist.NONNEG_INTEGER: [0.0, 1.0, 3.0, 0.0],
}

# an off-support observation per support kind
OFF_SUPPORT = {
    dist.POSITIVE: -0.5,
    dist.UNIT_INTERVAL: 1.5,
    dist.BINARY: 0.5,
    dist.BOUNDED_INTEGER: 6.0,
    dist.NONNEG_INTEGER: -1.0,
}

HEADER = """ProgramName: Rule
Indices: i 0 3
a ~ N(0, 1)
b ~ N(0, 1)
c ~ N(0, 1)
m[i] ~ N(0, 1)
"""


def argument(kind, latent):
    """A parameter of constraint `kind` as a valid expression of `latent`."""
    return {dist.P_REAL: f"2 * {latent} - 0.5",
            dist.P_POSITIVE: f"exp(0.5 * {latent})",
            dist.P_UNIT: f"expit({latent} + 0.3)",
            dist.P_COUNT: "5"}[kind]


def rule_model(spec, args, cells):
    src = HEADER + f"x[i] ~ {spec.name}({', '.join(args)})\n"
    table = make_table(("i",), [[i] for i in range(4)], {"x": cells})
    return [pl.compile_model(src, tables=(table,), obs=("x",), mode=mode)
            for mode in (pl.FUSED, pl.UNROLLED)]


def assert_modes_agree(fused, unrolled, points):
    assert fused.site_names == unrolled.site_names
    for u in points:
        lf, gf = fused.logdensity_and_grad(u)
        lu, gu = unrolled.logdensity_and_grad(u)
        assert lf == pytest.approx(lu, rel=1e-12, abs=1e-9)
        np.testing.assert_allclose(gf, gu, rtol=1e-9, atol=1e-7)
        assert fused.logdensity(u) == lf


def assert_matches_central_differences(plan, u, h=1e-6):
    _, grad = plan.logdensity_and_grad(u)
    for i in range(plan.latent_dim):
        up, dn = u.copy(), u.copy()
        up[i] += h
        dn[i] -= h
        fd = (plan.logdensity(up) - plan.logdensity(dn)) / (2 * h)
        assert grad[i] == pytest.approx(fd, rel=1e-5, abs=1e-6), i


@pytest.mark.parametrize("name", sorted(dist.TABLE))
@pytest.mark.parametrize("shape", ["scalar", "vector"])
def test_rule_matches_unrolled_tape_and_differences(name, shape):
    spec = dist.TABLE[name]
    scalars = iter(["a", "b", "c"])
    args = [argument(kind, "m[i]" if shape == "vector" else next(scalars))
            for _, kind in spec.params]
    fused, unrolled = rule_model(spec, args, CELLS[spec.support])
    rng = np.random.default_rng(sorted(dist.TABLE).index(name))
    points = [rng.uniform(-1.5, 1.5, fused.latent_dim) for _ in range(5)]
    assert_modes_agree(fused, unrolled, points)
    assert_matches_central_differences(fused, points[0])
    assert_matches_central_differences(unrolled, points[0])


@pytest.mark.parametrize("name", sorted(dist.TABLE))
def test_rule_value_matches_numpy_kernel(name):
    # one generated term over four cells, each parameter a latent vector
    # under the transform of its constraint, against the NumPy kernel
    spec = dist.TABLE[name]
    rng = np.random.default_rng(sorted(dist.TABLE).index(name))
    src = codegen.Source(4 * (spec.arity + 1))
    u = rng.uniform(-1.5, 1.5, src.dim)
    values = []      # per argument, its value in the term and in the kernel

    def latent(support):
        name = dist.transform_for(support)
        constrain = codegen.function(codegen.TRANSFORMS[name][0], 1)
        offs = np.arange(4) + 4 * len(values)
        values.append((src.latent(offs, name), constrain(u[offs])))

    for _, kind in spec.params:
        if kind == dist.P_COUNT:
            values.append((src.const(5.0), 5.0))
        else:
            latent({dist.P_REAL: dist.REAL, dist.P_POSITIVE: dist.POSITIVE,
                    dist.P_UNIT: dist.UNIT_INTERVAL}[kind])
    if spec.is_discrete:
        cells = np.array(CELLS[spec.support])
        values.append((src.const(cells), cells))
    else:
        latent(spec.support)
    (v, cells), params = values[-1], values[:-1]
    src.term(name, v, [p for p, _ in params], True)
    want = np.sum(spec.logp(cells, *(x for _, x in params)))
    assert src.build().observed(u) == pytest.approx(want, rel=1e-12)


def invalid_parameter_cases():
    for name, spec in sorted(dist.TABLE.items()):
        for p, (_, kind) in enumerate(spec.params):
            if kind in (dist.P_POSITIVE, dist.P_UNIT):
                yield name, p


@pytest.mark.parametrize("name,p", list(invalid_parameter_cases()))
def test_invalid_parameter_gives_minus_inf_and_zero_gradient(name, p):
    spec = dist.TABLE[name]
    # parameter p is the real-valued latent a itself; a = -0.7 lies outside
    # both (0, inf) and [0, 1]
    args = ["a" if q == p else argument(kind, "b")
            for q, (_, kind) in enumerate(spec.params)]
    fused, unrolled = rule_model(spec, args, CELLS[spec.support])
    u = np.full(fused.latent_dim, 0.4)
    u[fused.site_names.index("a")] = -0.7
    for plan in (fused, unrolled):
        value, grad = plan.logdensity_and_grad(u)
        assert value == -math.inf, plan.mode
        assert not grad.any(), plan.mode
    assert fused.logdensity(u) == -math.inf


@pytest.mark.parametrize("name", sorted(n for n, s in dist.TABLE.items()
                                        if s.support in OFF_SUPPORT))
def test_observed_value_off_support_gives_minus_inf(name):
    spec = dist.TABLE[name]
    args = [argument(kind, "b") for _, kind in spec.params]
    cells = list(CELLS[spec.support])
    cells[1] = OFF_SUPPORT[spec.support]
    fused, unrolled = rule_model(spec, args, cells)
    u = np.full(fused.latent_dim, 0.2)
    for plan in (fused, unrolled):
        value, grad = plan.logdensity_and_grad(u)
        assert value == -math.inf, plan.mode
        assert not grad.any(), plan.mode
        assert plan.observed_loglik(u) == -math.inf, plan.mode


def test_fused_plan_is_one_tape_entry():
    # given an autodiff.Node, a plan of either mode records its whole
    # density as one tape entry whose partial is the generated gradient;
    # perfbench counts tape entries through this
    src = HEADER + "x[i] ~ N(a + m[i], exp(b))\n"
    table = make_table(("i",), [[i] for i in range(4)],
                       {"x": CELLS[dist.REAL]})
    for mode in (pl.FUSED, pl.UNROLLED):
        plan = pl.compile_model(src, tables=(table,), obs=("x",), mode=mode)
        u = np.random.default_rng(0).uniform(-1, 1, plan.latent_dim)
        tape = ad.Tape()
        x = tape.input(u)
        out = plan.eval_logdensity(x)
        assert len(tape.entries) == 2
        value, grad = plan.logdensity_and_grad(u)
        assert out.value == value
        _, parents, partials = tape.entries[out.idx]
        assert parents == (x.idx,)
        np.testing.assert_array_equal(partials[0], grad)


@pytest.mark.parametrize("name,scatter", [("N", "np.bincount("),
                                           ("Exp", "c_")])
def test_repeated_positions_scatter_with_counts(name, scatter):
    # both scatter forms of a gather at repeated positions, on a source
    # built directly: x ~ name(...) at x[pos] for a latent positive vector
    # x. A vector adjoint scatters through np.bincount; a scalar one (Exp's
    # partial in its value, -rate) through the counts. Lowering gathers at
    # repeated positions only for parameters, whose adjoints are vectors:
    # test_plan.py::test_modes_agree_on_lookup_model covers that case
    pos = np.array([0, 2, 2, 1, 0])
    src = codegen.Source(3)
    x = src.assemble(np.zeros(3), [(np.arange(3), src.latent(np.arange(3),
                                                             "exp"))])
    params = [src.const(0.5), src.const(2.0)][:dist.TABLE[name].arity]
    src.term(name, src.index(x, pos), params, True)
    program = src.build()
    assert f"d_{x.code} += {scatter}" in program.source
    u = np.array([0.3, -0.4, 0.8])
    want = np.sum(dist.log_prob(name, [0.5, 2.0][:len(params)],
                                np.exp(u)[pos])) + u.sum()
    value, grad = program.value_and_grad(u)
    assert value == pytest.approx(want, rel=1e-12)
    h = 1e-6
    for i in range(3):
        e = np.eye(3)[i] * h
        fd = (program.value(u + e) - program.value(u - e)) / (2 * h)
        assert grad[i] == pytest.approx(fd, rel=1e-6)


# --- generated programs ------------------------------------------------------

# (distribution, in-support sampler) for a continuous series w[t] driven by
# the recurrence y[t]
SERIES = {
    "N(y[t], s)": lambda rng, n: rng.normal(size=n),
    "StudentT(3, y[t], s)": lambda rng, n: rng.normal(size=n),
    "HalfNormal(s)": lambda rng, n: rng.uniform(0.1, 2.0, n),
    "Gamma(2, exp(0.3 * y[t]))": lambda rng, n: rng.uniform(0.1, 2.0, n),
    "Beta(exp(r) + 1, 2)": lambda rng, n: rng.uniform(0.05, 0.95, n),
}

# discrete, fully observed counts z[t]
COUNTS = {
    "Poisson(exp(0.3 * y[t]))": lambda rng, n: rng.integers(0, 4, n),
    "BernoulliLogits(y[t] - mu)": lambda rng, n: rng.integers(0, 2, n),
    "BinomialLogits(4, y[t])": lambda rng, n: rng.integers(0, 5, n),
    "ZeroInflatedPoisson(expit(r), exp(0.3 * y[t]))":
        lambda rng, n: rng.integers(0, 3, n),
}


@hs.composite
def programs(draw):
    T = draw(hs.integers(4, 8))
    K = draw(hs.integers(2, 3))
    lags = draw(hs.integers(1, 3))
    scale = draw(hs.sampled_from(["HalfNormal(1)", "Exp(2)", "Gamma(2, 2)"]))
    lagged = " + ".join(["r * y[t-1]", "0.5 * r * y[t-2]",
                         "0.25 * r * y[t-3]"][:lags])
    noise = draw(hs.sampled_from(["s", "exp(0.5 * mu) * s", "sqrt(s)"]))
    series = draw(hs.sampled_from(sorted(SERIES)))
    counts = draw(hs.sampled_from(sorted(COUNTS)))
    # an optional lookup e[grp[t]] enters y[t]'s mean through the
    # deterministic m[t], directly, or both; m[t] may also read y[t-1]
    in_m, in_mean = draw(hs.sampled_from(
        [(False, False), (True, False), (False, True), (True, True)]))
    m_rhs = "mu + e[grp[t]]" if in_m else "mu * r"
    m_lines = draw(hs.sampled_from(
        [[f"m[t] = {m_rhs}"], ["m[0] = mu", f"m[t] = r * y[t-1] + {m_rhs}"]]))
    lookup = in_m or in_mean
    mean = lagged + " + m[t]" + (" + e[grp[t]]" if in_mean else "")
    lines = ["ProgramName: Gen",
             f"Indices: k 0 {K - 1}, t 0 {T - 1}"]
    lines += ["Inputs: grp"] if lookup else []
    lines += ["mu ~ N(0, 1)",
             "r ~ N(0, 0.5)",
             f"s ~ {scale}",
             "e[k] ~ N(0, s)"]
    lines += [f"y[{t}] ~ N(mu, 1)" for t in range(lags)]
    lines += m_lines
    lines += [f"y[t] ~ N({mean}, {noise})",
              f"w[t] ~ {series}",
              f"z[t] ~ {counts}"]
    rng = np.random.default_rng(draw(hs.integers(0, 2**32 - 1)))
    miss = draw(hs.floats(0.0, 0.5))
    y = rng.normal(size=T)
    w = SERIES[series](rng, T).astype(float)
    y[rng.random(T) < miss] = np.nan
    w[rng.random(T) < miss] = np.nan
    columns = {"y": y, "w": w, "z": COUNTS[counts](rng, T).astype(float)}
    if lookup:
        columns["grp"] = rng.integers(0, K, T).astype(float)
    table = make_table(("t",), [[t] for t in range(T)], columns)
    return "\n".join(lines) + "\n", table, rng


@settings(max_examples=60, deadline=None)
@given(programs())
def test_generated_programs_agree_across_modes(case):
    src, table, rng = case
    fused, unrolled = [
        pl.compile_model(src, tables=(table,), obs=("y", "w", "z"), mode=mode)
        for mode in (pl.FUSED, pl.UNROLLED)]
    points = [rng.uniform(-2, 2, fused.latent_dim) for _ in range(3)]
    assert_modes_agree(fused, unrolled, points)
    for plan in (fused, unrolled):      # values(U): each row as value(u)
        want = np.array([plan.logdensity(u) for u in points])
        assert plan.logdensities(points).tobytes() == want.tobytes()
    assert fused.observed_loglik(points[0]) == pytest.approx(
        unrolled.observed_loglik(points[0]), rel=1e-12, abs=1e-9)
    assert_matches_central_differences(fused, points[0])
    assert_matches_central_differences(unrolled, points[0])
