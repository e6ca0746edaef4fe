"""Pathfinder: the L-BFGS path, the normal approximation it scores, and the
start and metric it gives each NUTS chain."""

import math

import numpy as np
import pytest

from ldmlang import analysis as an
from ldmlang import pathfinder as pf
from ldmlang import plan as pl
from ldmlang import sampler as smp
from ldmlang.datatable import make_table

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def run_path(fg, x0):
    f0, g0 = fg(x0)
    return list(pf.lbfgs(fg, x0, f0, g0))


def test_lbfgs_solves_an_ill_conditioned_quadratic():
    rng = np.random.default_rng(17)
    q, _ = np.linalg.qr(rng.standard_normal((20, 20)))
    A = q @ np.diag(np.logspace(0, -4, 20)) @ q.T      # condition 1e4
    x0 = rng.standard_normal(20)

    def fg(x):
        return 0.5 * float(x @ A @ x), A @ x

    path = run_path(fg, x0)
    assert np.linalg.norm(path[-1][2]) <= 1e-6 * np.linalg.norm(A @ x0)
    assert len(path) < pf.MAX_ITERATIONS


def test_lbfgs_backs_off_from_a_minus_inf_region():
    # N(1, 1) cut off at u > 0, where the density is -inf as in
    # half_line_plan: the second step aims at the mode and must back off
    visited = []

    def fg(x):
        visited.append(float(x[0]))
        if x[0] > 0:
            return math.inf, np.zeros_like(x)
        return 0.5 * float((x[0] - 1.0) ** 2), x - 1.0

    path = run_path(fg, np.array([-2.0]))
    assert any(u > 0 for u in visited)
    assert path and all(math.isfinite(f) for _, f, _, _, _ in path)
    assert all(x[0] <= 0 for x, _, _, _, _ in path)


def std_normal_plan(dim):
    return pl.compile_model(f"ProgramName: V\nIndices: i 0 {dim - 1}\n"
                            "x[i] ~ N(0, 1)\n")


def test_approximation_of_independent_normals_is_exact():
    plan = std_normal_plan(10)
    rng = np.random.default_rng(3)
    u = rng.uniform(-2.0, 2.0, 10)
    v, g = plan.logdensity_and_grad(u)
    start, _, _, inv_mass, info = pf.pathfinder(
        rng, plan.logdensity_and_grad, plan.logdensity, u, v, g)
    assert info["elbo"] == pytest.approx(0.0, abs=1e-9)
    np.testing.assert_allclose(inv_mass, 1.0, rtol=0, atol=1e-9)
    assert info["best_iteration"] >= 1
    assert info["values"] == pf.ELBO_DRAWS * info["iterations"]
    assert not np.array_equal(start, u)


def test_no_finite_elbo_starts_the_chain_at_its_initialization(monkeypatch):
    plan = std_normal_plan(3)
    plan.logdensity = lambda u: -math.inf
    rng = np.random.default_rng(5)
    u = rng.uniform(-2.0, 2.0, 3)
    v, g = plan.logdensity_and_grad(u)
    got = pf.pathfinder(rng, plan.logdensity_and_grad, plan.logdensity,
                        u, v, g)
    assert got[0] is u and got[1] == v and got[2] is g
    np.testing.assert_array_equal(got[3], np.ones(3))
    assert got[4]["best_iteration"] is None and got[4]["elbo"] is None

    # in a chain: the first step-size search runs from the first
    # initialization candidate under the unit metric
    searched = []
    search = smp.find_reasonable_epsilon

    def record(rng, grad_fn, u, v, g, inv_mass):
        searched.append((u.copy(), inv_mass.copy()))
        return search(rng, grad_fn, u, v, g, inv_mass)

    monkeypatch.setattr(smp, "find_reasonable_epsilon", record)
    monkeypatch.setattr(smp, "_worker_count", lambda n_chains: 1)
    out = smp.run(plan, n_chains=1, n_warmup=20, n_samples=10, seed=9)
    first = smp.RngStream(9).chain(0).uniform(-2.0, 2.0, 3)
    np.testing.assert_array_equal(searched[0][0], first)
    np.testing.assert_array_equal(searched[0][1], np.ones(3))
    assert out.warmup[0]["pathfinder"]["best_iteration"] is None


def test_a_start_draw_the_gradient_rejects_falls_back_to_its_iterate():
    # the value is finite everywhere but the gradient rejects u > 0, as in
    # half_line_plan: the best approximation is centred at 0, and the
    # chain starts at its iterate when the draw lands above 0
    plan = std_normal_plan(1)
    calls = []

    def grad(u):
        calls.append(float(u[0]))
        return ((-math.inf, np.zeros_like(u)) if u[0] > 0
                else plan.logdensity_and_grad(u))

    u = np.array([-1.5])
    v, g = grad(u)
    start, vs, gs, _, info = pf.pathfinder(np.random.default_rng(0), grad,
                                           plan.logdensity, u, v, g)
    assert calls[-1] > 0 and info["best_iteration"] is not None
    assert start[0] in calls[1:-1]
    want_v, want_g = plan.logdensity_and_grad(start)
    assert vs == want_v and np.array_equal(gs, want_g)


def test_warmup_spends_a_third_of_the_unit_metric_gradients():
    # AR(1), T=300, 60 of the cells missing, one chain of 50+50 at seed 3:
    # warmup made 5442 gradient calls when it began under the unit metric
    src = ("ProgramName: AR1\nIndices: t 0 299\na ~ N(0, 10)\nb ~ N(0, 10)\n"
           "sigma ~ HalfNormal(10)\ny[0] ~ N(0, 10)\n"
           "y[t] ~ N(a*y[t-1] + b, sigma)\n")
    rng = np.random.default_rng(31)
    y = np.empty(300)
    y[0] = rng.normal(1.0, 0.5 / math.sqrt(1 - 0.81))
    for t in range(1, 300):
        y[t] = 0.9 * y[t - 1] + 0.1 + rng.normal(0, 0.5)
    y[rng.choice(300, 60, replace=False)] = np.nan
    table = make_table(("t",), [[t] for t in range(300)], {"y": y})
    plan = pl.compile_model(src, tables=(table,), obs=("y",))
    out = smp.run(plan, n_chains=1, n_warmup=50, n_samples=50, seed=3)
    assert out.gradients["warmup"][0] <= 5442 // 3


def test_strongly_correlated_regression_matches_its_exact_posterior():
    # b0, b1 ~ N(0, 10), y[i] ~ N(b0 + b1 * x[i], 0.5) with x in 10..20:
    # the posterior is Gaussian with corr(b0, b1) about -0.99
    rng = np.random.default_rng(41)
    n, sd = 20, 0.5
    x = rng.uniform(10.0, 20.0, n)
    y = 1.0 + 0.3 * x + rng.normal(0.0, sd, n)
    src = (f"ProgramName: Line\nIndices: i 0 {n - 1}\nInputs: x\n"
           "b0 ~ N(0, 10)\nb1 ~ N(0, 10)\ny[i] ~ N(b0 + b1 * x[i], 0.5)\n")
    table = make_table(("i",), [[i] for i in range(n)], {"x": x, "y": y})
    plan = pl.compile_model(src, tables=(table,), obs=("y",))
    out = smp.run(plan, n_chains=2, n_warmup=300, n_samples=600, seed=12)

    X = np.column_stack([np.ones(n), x])
    cov = np.linalg.inv(X.T @ X / sd ** 2 + np.eye(2) / 100.0)
    mean = cov @ X.T @ y / sd ** 2
    rho = cov[0, 1] / math.sqrt(cov[0, 0] * cov[1, 1])
    assert rho < -0.98
    draws = [out.site("b0"), out.site("b1")]
    ess = []
    for k, d in enumerate(draws):
        var = cov[k, k]
        ess_mean = an.effective_sample_size(d)
        z_mean = (d.mean() - mean[k]) / math.sqrt(var / ess_mean)
        sq = (d - mean[k]) ** 2
        ess_var = an.effective_sample_size(sq)
        z_var = (sq.mean() - var) / (var * math.sqrt(2.0 / ess_var))
        assert abs(z_mean) < 4.0, (k, d.mean(), mean[k], ess_mean)
        assert abs(z_var) < 4.0, (k, sq.mean(), var, ess_var)
        ess.append(ess_mean)
    r = np.corrcoef(draws[0].ravel(), draws[1].ravel())[0, 1]
    z_corr = (math.atanh(r) - math.atanh(rho)) * math.sqrt(min(ess) - 3)
    assert abs(z_corr) < 4.0, (r, rho, min(ess))
