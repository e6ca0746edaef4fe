"""Pathfinder: the L-BFGS path, the normal approximation it scores, and the
start and metric it gives each NUTS chain."""

import functools
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
        rng, plan.logdensity_and_grad, plan.logdensities, u, v, g)
    assert info["elbo"] == pytest.approx(0.0, abs=1e-9)
    np.testing.assert_allclose(inv_mass, 1.0, rtol=0, atol=1e-9)
    assert info["best_iteration"] >= 1
    assert info["values"] == pf.ELBO_DRAWS * info["iterations"]
    assert not np.array_equal(start, u)


def test_no_finite_elbo_starts_the_chain_at_its_initialization(monkeypatch):
    plan = std_normal_plan(3)
    plan.logdensities = lambda U: np.full(len(U), -math.inf)
    rng = np.random.default_rng(5)
    u = rng.uniform(-2.0, 2.0, 3)
    v, g = plan.logdensity_and_grad(u)
    got = pf.pathfinder(rng, plan.logdensity_and_grad, plan.logdensities,
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
                                           plan.logdensities, u, v, g)
    assert calls[-1] > 0 and info["best_iteration"] is not None
    assert start[0] in calls[1:-1]
    want_v, want_g = plan.logdensity_and_grad(start)
    assert vs == want_v and np.array_equal(gs, want_g)


def ar1_missing_plan():
    """AR(1), T=300, 60 of the cells missing."""
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
    return pl.compile_model(src, tables=(table,), obs=("y",))


def test_warmup_spends_a_third_of_the_unit_metric_gradients():
    # one chain of 50+50 at seed 3: warmup made 5442 gradient calls when it
    # began under the unit metric
    out = smp.run(ar1_missing_plan(), n_chains=1, n_warmup=50,
                  n_samples=50, seed=3)
    assert out.gradients["warmup"][0] <= 5442 // 3


# The reference Pathfinder: lbfgs, _two_loop, _update_diagonal,
# approximation, draw and pathfinder as first written, with the
# curvature pairs as plain (s, y) tuples and every product computed where
# it is used. The module's version must give the same bytes.


def _ref_two_loop(g, pairs):
    q = g.copy()
    coef = []
    for s, y in reversed(pairs):
        a = (s @ q) / (s @ y)
        q -= a * y
        coef.append(a)
    s, y = pairs[-1]
    r = q * ((s @ y) / (y @ y))
    for (s, y), a in zip(pairs, reversed(coef)):
        r += (a - (y @ r) / (s @ y)) * s
    return -r


def _ref_lbfgs(fg, x, f, g):
    pairs = []
    g_stop = pf._GRAD_TOL * float(np.linalg.norm(g))
    for _ in range(pf.MAX_ITERATIONS):
        if pairs:
            d = _ref_two_loop(g, pairs)
        else:
            d = -g / max(1.0, float(np.linalg.norm(g)))
        if not np.all(np.isfinite(d)):
            return
        step = pf._line_search(fg, x, f, g, d)
        if step is None:
            return
        x_new, f_new, g_new = step
        s, y = x_new - x, g_new - g
        sy = float(s @ y)
        new_pair = sy > 0.0 and float(y @ y) <= 1e12 * sy
        if new_pair:
            pairs = (pairs + [(s, y)])[-pf.HISTORY:]
        x, f, g = x_new, f_new, g_new
        yield x, f, g, pairs, new_pair
        if np.linalg.norm(g) <= g_stop:
            return


def _ref_update_diagonal(alpha, s, y):
    y_a_y = float(y @ (alpha * y))
    s_y = float(s @ y)
    s_a_s = float(s @ (s / alpha))
    new = s_y / (y_a_y / alpha + y * y - (y_a_y / s_a_s) * (s / alpha) ** 2)
    return new if np.all(np.isfinite(new) & (new > 0)) else alpha


def _ref_approximation(x, grad, alpha, pairs):
    S = np.column_stack([s for s, _ in pairs])
    Y = np.column_stack([y for _, y in pairs])
    m = len(pairs)
    SY = S.T @ Y
    r_inv = np.linalg.inv(np.triu(SY))
    AY = alpha[:, None] * Y
    beta = np.hstack([AY, S])
    gamma = np.block([
        [np.zeros((m, m)), -r_inv],
        [-r_inv.T, r_inv.T @ (np.diag(np.diag(SY)) + Y.T @ AY) @ r_inv]])
    sqrt_alpha = np.sqrt(alpha)
    Q, R = np.linalg.qr(beta / sqrt_alpha[:, None])
    try:
        L = np.linalg.cholesky(np.eye(Q.shape[1]) + R @ gamma @ R.T)
    except np.linalg.LinAlgError:
        return None
    mean = x + alpha * grad + beta @ (gamma @ (beta.T @ grad))
    logdet = float(np.sum(np.log(alpha)) + 2.0 * np.sum(np.log(np.diag(L))))
    diagonal = alpha * (1.0 + np.sum((Q @ L) ** 2, axis=1)
                        - np.sum(Q * Q, axis=1))
    if not (np.all(np.isfinite(mean)) and math.isfinite(logdet)
            and np.all(np.isfinite(diagonal) & (diagonal > 0))):
        return None
    return pf.Approximation(mean, sqrt_alpha, Q, L, logdet, diagonal)


def _ref_draw(rng, approx, n):
    mean, sqrt_alpha, Q, L, logdet, _ = approx
    z = rng.standard_normal((n, mean.shape[0]))
    x = mean + sqrt_alpha * (z + (z @ Q @ (L - np.eye(L.shape[0])).T) @ Q.T)
    log_q = -0.5 * (logdet + np.sum(z * z, axis=1)
                    + mean.shape[0] * pf._LOG_2PI)
    return x, log_q


def _ref_pathfinder(rng, grad_fn, value_fn, u, v, g):
    n_grads = n_values = 0

    def fg(x):
        nonlocal n_grads
        n_grads += 1
        lp, grad = grad_fn(x)
        return (-float(lp), -grad) if math.isfinite(lp) else (math.inf, grad)

    alpha = np.ones(u.shape[0])
    best = None
    iteration = 0
    with np.errstate(all="ignore"):
        for x, f, gf, pairs, new_pair in _ref_lbfgs(fg, u, -float(v), -g):
            iteration += 1
            if new_pair:
                alpha = _ref_update_diagonal(alpha, *pairs[-1])
            approx = (_ref_approximation(x, -gf, alpha, pairs) if pairs
                      else None)
            if approx is not None:
                x_draws, log_q = _ref_draw(rng, approx, pf.ELBO_DRAWS)
                log_p = np.array([value_fn(xd) for xd in x_draws])
                n_values += pf.ELBO_DRAWS
                elbo = float(np.mean(log_p - log_q))
                if math.isfinite(elbo) and (best is None or elbo > best[0]):
                    best = (elbo, iteration, approx, x_draws[0], (x, f, gf))
            if iteration - (best[1] if best else 0) >= pf.PATIENCE:
                break
        info = {"iterations": iteration, "gradients": n_grads,
                "values": n_values, "best_iteration": None, "elbo": None}
        if best is None:
            return u, v, g, np.ones(u.shape[0]), info
        info["elbo"], info["best_iteration"], approx, start, (x, f, gf) = best
        vs, gs = grad_fn(start)
        info["gradients"] += 1
        if not math.isfinite(vs):
            start, vs, gs = x, -f, -gf
    return start, float(vs), gs, approx.diagonal, info


# A target is (grad_fn, value_fn, values_fn, dim): the gradient call, the
# one-point value that the reference scores each draw with, and the K-point
# value that the module scores a stack with


def _rows(value_fn):
    return lambda X: np.array([value_fn(x) for x in X])


def quadratic_target(dim=20, seed=17, condition=4):
    # log p = -x'Ax / 2 with condition number 10**condition
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    A = q @ np.diag(np.logspace(0, -condition, dim)) @ q.T

    def grad(x):
        return -0.5 * float(x @ A @ x), -(A @ x)

    def value(x):
        return grad(x)[0]

    return grad, value, _rows(value), dim


def cut_target(mode):
    # a 5-dim Gaussian of condition 100 whose mode has first coordinate
    # `mode`, cut off where u[0] > 0: the gradient call and the value are
    # -inf there. With the mode inside, ELBO draws fall beyond the cut; with it
    # outside, the line search backs off from the cut and no ELBO is finite
    rng = np.random.default_rng(17)
    q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
    A = q @ np.diag(np.logspace(0, -2, 5)) @ q.T
    mu = np.array([mode, 1.0, -1.0, 0.5, 2.0])

    def grad(x):
        if x[0] > 0:
            return -math.inf, np.zeros_like(x)
        return -0.5 * float((x - mu) @ A @ (x - mu)), -(A @ (x - mu))

    def value(x):
        return grad(x)[0]

    return grad, value, _rows(value), 5


def no_elbo_target():
    plan = std_normal_plan(3)
    return (plan.logdensity_and_grad, lambda u: -math.inf,
            lambda U: np.full(len(U), -math.inf), 3)


def ar1_missing_target():
    plan = ar1_missing_plan()
    return (plan.logdensity_and_grad, plan.logdensity, plan.logdensities,
            plan.latent_dim)


def _bytes(a):
    return np.asarray(a, dtype=float).tobytes()


def both_paths(target, seed):
    """The reference's and the module's start, its value, gradient and
    inverse metric, the path's info and the state of the chain's RNG after
    it, as bytes."""
    grad_fn, value_fn, values_fn, dim = target
    results = []
    for path, fn in ((_ref_pathfinder, value_fn), (pf.pathfinder, values_fn)):
        rng = np.random.default_rng(seed)
        u = rng.uniform(-2.0, 2.0, dim)
        u[0] = -abs(u[0])       # inside the cut target's support
        v, g = grad_fn(u)
        start, vs, gs, inv_mass, info = path(rng, grad_fn, fn, u, v, g)
        results.append((_bytes(start), _bytes([vs]), _bytes(gs),
                        _bytes(inv_mass), info, rng.random()))
    return results


@pytest.mark.parametrize("target, seed", [
    (quadratic_target, 2),
    (functools.partial(cut_target, -0.2), 4),
    (functools.partial(cut_target, 0.2), 4),
    (no_elbo_target, 6),
    (ar1_missing_target, 8), (ar1_missing_target, 9)],
    ids=["quadratic", "minus_inf_beyond_the_mode",
         "minus_inf_before_the_mode", "no_finite_elbo", "ar1_missing_a",
         "ar1_missing_b"])
def test_pathfinder_matches_the_reference_bit_for_bit(target, seed):
    ref, got = both_paths(target(), seed)
    assert got == ref


def record_blocks(monkeypatch):
    """The iterations of each block that Pathfinder scores, in order."""
    blocks = []
    score = pf._score

    def recorded(rng, values_fn, block, best):
        blocks.append([it.iteration for it in block])
        return score(rng, values_fn, block, best)

    monkeypatch.setattr(pf, "_score", recorded)
    return blocks


def test_a_path_that_ends_inside_its_first_block_matches_the_reference(
        monkeypatch):
    # dim 4 < 2 * HISTORY, so Q and L are 4 x 4 once the history is full;
    # L-BFGS converges at iteration 32, before 23 + PATIENCE, so the one
    # block is scored when the path ends
    blocks = record_blocks(monkeypatch)
    target = quadratic_target(dim=4)
    ref, got = both_paths(target, 2)
    assert got == ref
    info = got[4]
    assert target[3] < 2 * pf.HISTORY
    assert info["iterations"] < info["best_iteration"] + pf.PATIENCE
    assert blocks == [list(range(1, info["iterations"] + 1))]


def test_a_best_iterate_three_blocks_in_matches_the_reference(monkeypatch):
    # each new best ELBO moves the stop on, and each stop ends a block
    blocks = record_blocks(monkeypatch)
    ref, got = both_paths(quadratic_target(dim=60, condition=6), 3)
    assert got == ref
    info = got[4]
    assert sum(blocks, []) == list(range(1, info["iterations"] + 1))
    assert blocks[0][-1] == pf.PATIENCE
    assert info["best_iteration"] in blocks[2]
    assert info["iterations"] == info["best_iteration"] + pf.PATIENCE


def test_a_block_split_into_stacks_by_the_float_budget_matches_the_reference(
        monkeypatch):
    # at dim 150 a stacked (dim, 2m) array of 6 pairs holds 1800 floats, so
    # a stack holds two iterates
    sizes = []
    stacks = pf._stacks

    def recorded(block):
        for run in stacks(block):
            sizes.append(len(run))
            yield run

    monkeypatch.setattr(pf, "_stacks", recorded)
    ref, got = both_paths(quadratic_target(dim=150, condition=5), 2)
    assert got == ref
    assert max(sizes) == 2 == pf._STACK_FLOATS // (150 * 2 * pf.HISTORY)
    assert len(sizes) > 2


def test_a_cholesky_failure_inside_a_stack_matches_the_reference(monkeypatch):
    # LAPACK fails a whole stack when one of its matrices is not positive
    # definite. Failing each matrix whose first entry has a chosen digit
    # fails some iterates of a stack, the same ones on both paths
    cholesky = np.linalg.cholesky
    failed = []

    def flaky(a):
        a = np.asarray(a)
        if np.any(np.floor(a[..., 0, 0] * 1e6) % 3 == 0):
            failed.append(a.shape)
            raise np.linalg.LinAlgError("Matrix is not positive definite")
        return cholesky(a)

    monkeypatch.setattr(np.linalg, "cholesky", flaky)
    ref, got = both_paths(ar1_missing_target(), 8)
    assert got == ref
    info = got[4]
    assert info["best_iteration"] is not None
    assert info["values"] < pf.ELBO_DRAWS * (info["iterations"] - 1)
    assert any(len(shape) == 3 and shape[0] > 1 for shape in failed)


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
