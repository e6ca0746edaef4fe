"""NUTS engine: integrator properties, adaptation, and posterior accuracy."""

import itertools
import math
import os
import signal
import struct
import time
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from ldmlang import analysis as an
from ldmlang import plan as pl
from ldmlang import sampler as smp
from ldmlang.datatable import make_table
from ldmlang.errors import (AllDivergentError, InitializationFailedError,
                            SamplerError)

# the sampler handles overflow itself (huge momenta are a reject signal):
# a floating-point warning reaching the caller is a bug
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

STD_NORMAL = "ProgramName: StdNormal\nx ~ N(0, 1)\n"


def std_normal_grad(u):
    return -0.5 * float(u @ u), -u


def test_leapfrog_conserves_energy_at_small_steps():
    rng = np.random.default_rng(0)
    u = rng.normal(size=3)
    p = rng.normal(size=3)
    inv_mass = np.ones(3)
    h0 = -std_normal_grad(u)[0] + 0.5 * float(p @ p)
    for _ in range(100):
        u, p, v, _ = smp.leapfrog(std_normal_grad, u, p, 0.01, inv_mass)
    h1 = -v + 0.5 * float(p @ p)
    assert abs(h1 - h0) < 1e-3


def test_leapfrog_is_reversible():
    rng = np.random.default_rng(1)
    u0 = rng.normal(size=4)
    p0 = rng.normal(size=4)
    inv_mass = np.full(4, 1.7)
    u, p, _, g = smp.leapfrog(std_normal_grad, u0, p0, 0.3, inv_mass)
    ub, pb, _, _ = smp.leapfrog(std_normal_grad, u, -p, 0.3, inv_mass, g=g)
    np.testing.assert_allclose(ub, u0, atol=1e-12)
    np.testing.assert_allclose(-pb, p0, atol=1e-12)


def test_find_reasonable_epsilon_is_sane():
    rng = np.random.default_rng(2)
    u = np.zeros(2)
    v, g = std_normal_grad(u)
    eps, _ = smp.find_reasonable_epsilon(rng, std_normal_grad, u, v, g,
                                         np.ones(2))
    # a standard normal is well behaved; anything near O(1) is acceptable
    assert 0.05 < eps < 10.0


def test_mass_window_schedule():
    assert smp.mass_windows(500) == [(75, 100), (100, 150), (150, 250),
                                     (250, 450)]
    # the windows tile (init, n_warmup - term] without gaps
    for n in (120, 500, 1000, 37):
        wins = smp.mass_windows(n)
        for (a, b), (c, _) in zip(wins, wins[1:]):
            assert b == c
        assert all(a < b for a, b in wins)


def sample(source, tables=(), obs=(), **cfg):
    plan = pl.compile_model(source, tables=tables, obs=obs)
    return smp.run(plan, **cfg)


def test_standard_normal_moments():
    out = sample(STD_NORMAL, n_chains=2, n_warmup=400, n_samples=2000, seed=3)
    x = out.site("x").ravel()
    n = x.size
    assert np.mean(x) == pytest.approx(0.0, abs=3 * 1.0 / math.sqrt(n / 10))
    assert np.std(x) == pytest.approx(1.0, abs=0.05)
    assert not np.any(out.stats["divergent"])


def test_correlated_pair_recovers_correlation():
    src = """ProgramName: Pair
a ~ N(0, 1)
b ~ N(0.9 * a, 0.4358898943540674)
"""
    # cov(a, b) = 0.9, var(b) = 0.81 + 0.19 = 1, so corr = 0.9
    out = sample(src, n_chains=2, n_warmup=500, n_samples=3000, seed=4)
    a = out.site("a").ravel()
    b = out.site("b").ravel()
    assert np.corrcoef(a, b)[0, 1] == pytest.approx(0.9, abs=0.05)
    assert np.std(b) == pytest.approx(1.0, abs=0.06)


def test_conjugate_normal_posterior():
    # prior N(0, 1), 4 obs of y at sigma=1: posterior N(sum(y)/5, 1/sqrt(5))
    y = np.array([1.2, 0.8, 1.9, 0.5])
    src = "ProgramName: Conj\nIndices: i 0 3\nmu ~ N(0, 1)\ny[i] ~ N(mu, 1)\n"
    table = make_table(("i",), [[i] for i in range(4)], {"y": y})
    out = sample(src, tables=(table,), obs=("y",),
                 n_chains=2, n_warmup=400, n_samples=2000, seed=5)
    mu = out.site("mu").ravel()
    post_mean = y.sum() / 5
    post_sd = 1 / math.sqrt(5)
    mcse = post_sd / math.sqrt(mu.size / 10)
    assert np.mean(mu) == pytest.approx(post_mean, abs=3 * mcse)
    assert np.std(mu) == pytest.approx(post_sd, abs=0.05)


def test_positive_support_stays_positive():
    src = "ProgramName: Scale\ns ~ HalfNormal(2)\n"
    out = sample(src, n_chains=2, n_warmup=300, n_samples=1000, seed=6)
    s = out.site("s")
    assert np.all(s > 0)


def test_acceptance_tracks_target():
    # step-size adaptation responds to the knob; the averaged iterate tends to
    # land a little above the target on easy posteriors
    src = "ProgramName: V\nIndices: i 0 19\nx[i] ~ N(0, 1)\n"
    lo = sample(src, n_chains=2, n_warmup=500, n_samples=500, seed=7,
                target_accept=0.6)
    hi = sample(src, n_chains=2, n_warmup=500, n_samples=500, seed=7,
                target_accept=0.95)
    a_lo = float(np.mean(lo.stats["accept_stat"]))
    a_hi = float(np.mean(hi.stats["accept_stat"]))
    assert a_lo < a_hi
    assert abs(a_lo - 0.6) < 0.15
    assert abs(a_hi - 0.95) < 0.05
    # the post-warmup step size is frozen
    assert np.unique(lo.stats["step_size"][0]).size == 1


def test_depth_zero_is_single_step_metropolis():
    out = sample(STD_NORMAL, n_chains=1, n_warmup=400, n_samples=3000, seed=8,
                 max_tree_depth=0)
    assert int(out.stats["depth"].max()) <= 1
    assert int(out.stats["n_leapfrog"].max()) == 1
    x = out.site("x").ravel()
    assert np.mean(x) == pytest.approx(0.0, abs=0.1)
    assert np.std(x) == pytest.approx(1.0, abs=0.08)


def test_runs_are_deterministic_given_seed():
    a = sample(STD_NORMAL, n_chains=2, n_warmup=200, n_samples=300, seed=9)
    b = sample(STD_NORMAL, n_chains=2, n_warmup=200, n_samples=300, seed=9)
    c = sample(STD_NORMAL, n_chains=2, n_warmup=200, n_samples=300, seed=10)
    assert np.array_equal(a.draws, b.draws)
    assert not np.array_equal(a.draws, c.draws)
    assert np.array_equal(a.stats["energy"], b.stats["energy"])


def test_chains_differ_from_each_other():
    out = sample(STD_NORMAL, n_chains=2, n_warmup=200, n_samples=200, seed=11)
    assert not np.array_equal(out.draws[0], out.draws[1])


def test_drawset_csv_round_trip(tmp_path):
    out = sample(STD_NORMAL, n_chains=2, n_warmup=100, n_samples=50, seed=12)
    path = tmp_path / "draws.csv"
    out.to_csv(str(path))
    back = smp.DrawSet.from_csv(str(path))
    assert back.site_names == out.site_names
    np.testing.assert_array_equal(back.draws, out.draws)  # repr() is lossless


def test_from_csv_rejects_foreign_files(tmp_path):
    path = tmp_path / "other.csv"
    path.write_text("t,y\n0,1.0\n")
    with pytest.raises(SamplerError, match="chain,draw"):
        smp.DrawSet.from_csv(str(path))


def test_stats_shapes_and_keys():
    out = sample(STD_NORMAL, n_chains=3, n_warmup=100, n_samples=40, seed=13)
    want = {"divergent", "accept_stat", "depth", "energy", "n_leapfrog",
            "step_size"}
    assert want <= set(out.stats)
    for key in want:
        assert out.stats[key].shape == (3, 40)
    assert out.draws.shape == (3, 40, 1)


def test_check_all_divergent():
    smp.check_all_divergent(np.zeros((2, 5), dtype=bool))  # fine
    smp.check_all_divergent(np.array([], dtype=bool))      # vacuous
    with pytest.raises(AllDivergentError):
        smp.check_all_divergent(np.ones((2, 5), dtype=bool))


def test_initialization_failure_is_reported():
    # an observation no latent value can explain: Bernoulli support mismatch
    src = "ProgramName: Bad\np ~ Beta(2, 2)\nx ~ Bernoulli(p)\n"
    table = make_table((), [()], {"x": [0.5]})
    plan = pl.compile_model(src, tables=(table,), obs=("x",))
    with pytest.raises(InitializationFailedError):
        smp.run(plan, n_chains=1, n_warmup=50, n_samples=50, seed=14)


def test_config_validation():
    with pytest.raises(SamplerError):
        smp.SamplerConfig(n_samples=0)
    with pytest.raises(SamplerError):
        smp.SamplerConfig(n_chains=-1)


def test_rng_streams_are_independent():
    s = smp.RngStream(0)
    a = s.chain(0).standard_normal(4)
    b = s.chain(1).standard_normal(4)
    a2 = smp.RngStream(0).chain(0).standard_normal(4)
    assert not np.array_equal(a, b)
    np.testing.assert_array_equal(a, a2)


# --- the iterative tree against the recursive one ------------------------------
# The recursive multinomial NUTS that the iterative tree replaced, kept as the
# reference: the same RNG calls and the same float operations in the same
# order. `events` records which stopping paths a case took.


def _ref_kinetic(p, inv_mass):
    with np.errstate(over="ignore"):
        return 0.5 * float(np.dot(p * p, inv_mass))


def _ref_uturn(p_first, p_last, rho, inv_mass):
    return (float(np.dot(inv_mass * p_first, rho)) <= 0.0
            or float(np.dot(inv_mass * p_last, rho)) <= 0.0)


def _ref_turned(checks, inv_mass, events, where):
    """The generalized U-turn check on the whole, then the two extra checks
    across the halves; records which one fired first."""
    for k, (p_first, p_last, rho) in enumerate(checks):
        if _ref_uturn(p_first, p_last, rho, inv_mass):
            events.add(f"check {k} turns {where}")
            return True
    return False


def _ref_build_tree(rng, grad_fn, depth, direction, u, p, g, h0, eps,
                    inv_mass, events):
    if depth == 0:
        u1, p1, v1, g1 = smp.leapfrog(grad_fn, u, p, direction * eps,
                                      inv_mass, g)
        k1 = _ref_kinetic(p1, inv_mass)
        h1 = -v1 + k1 if math.isfinite(v1) else math.inf
        dh = h0 - h1
        return SimpleNamespace(
            u_end=u1, p_end=p1, g_end=g1, p_beg=p1, rho=p1.copy(),
            log_sum_w=dh if math.isfinite(dh) else -math.inf,
            prop=(u1, v1, g1),
            alpha_sum=math.exp(min(0.0, dh)) if math.isfinite(dh) else 0.0,
            n=1, turned=False,
            divergent=not math.isfinite(h1) or (h1 - h0) > 1000.0)
    first = _ref_build_tree(rng, grad_fn, depth - 1, direction, u, p, g, h0,
                            eps, inv_mass, events)
    if first.divergent or first.turned:
        return first
    second = _ref_build_tree(rng, grad_fn, depth - 1, direction, first.u_end,
                             first.p_end, first.g_end, h0, eps, inv_mass,
                             events)
    first.alpha_sum += second.alpha_sum
    first.n += second.n
    if second.divergent or second.turned:
        events.add("stop in a right subtree")
        first.divergent, first.turned = second.divergent, second.turned
        return first
    comb = np.logaddexp(first.log_sum_w, second.log_sum_w)
    if math.log(max(rng.random(), 1e-300)) < second.log_sum_w - comb:
        first.prop = second.prop
    rho = first.rho + second.rho
    first.turned = _ref_turned(
        [(first.p_beg, second.p_end, rho),
         (first.p_beg, first.p_end, first.rho + second.p_beg),
         (second.p_beg, second.p_end, first.p_end + second.rho)],
        inv_mass, events, "in a subtree")
    first.log_sum_w = comb
    first.rho = rho
    first.u_end, first.p_end, first.g_end = \
        second.u_end, second.p_end, second.g_end
    return first


def _ref_nuts_draw(rng, grad_fn, u0, v0, g0, eps, inv_mass, max_depth,
                   events):
    p0 = rng.standard_normal(u0.shape[0]) / np.sqrt(inv_mass)
    h0 = -v0 + _ref_kinetic(p0, inv_mass)
    u_minus = u_plus = u0
    p_minus = p_plus = p0
    g_minus = g_plus = g0
    prop, rho, log_sum_w = (u0, v0, g0), p0.copy(), 0.0
    alpha_sum, n, divergent, depth = 0.0, 0, False, 0
    while depth < max(1, max_depth):
        direction = 1 if rng.random() < 0.5 else -1
        if direction == 1:
            sub = _ref_build_tree(rng, grad_fn, depth, 1, u_plus, p_plus,
                                  g_plus, h0, eps, inv_mass, events)
        else:
            sub = _ref_build_tree(rng, grad_fn, depth, -1, u_minus, p_minus,
                                  g_minus, h0, eps, inv_mass, events)
        alpha_sum += sub.alpha_sum
        n += sub.n
        if sub.divergent or sub.turned:
            divergent = sub.divergent
            events.add("divergence" if divergent else "stop in a subtree")
            break
        if math.log(max(rng.random(), 1e-300)) < sub.log_sum_w - log_sum_w:
            prop = sub.prop
        if direction == 1:
            lf, ll, lr = p_minus, p_plus, rho
            rf, rl, rr = sub.p_beg, sub.p_end, sub.rho
            u_plus, p_plus, g_plus = sub.u_end, sub.p_end, sub.g_end
        else:
            lf, ll, lr = sub.p_end, sub.p_beg, sub.rho
            rf, rl, rr = p_minus, p_plus, rho
            u_minus, p_minus, g_minus = sub.u_end, sub.p_end, sub.g_end
        log_sum_w = float(np.logaddexp(log_sum_w, sub.log_sum_w))
        rho = lr + rr
        depth += 1
        if _ref_turned([(lf, rl, rho), (lf, ll, lr + rf), (rf, rl, ll + rr)],
                       inv_mass, events, "at the root"):
            break
    stats = (depth, n, divergent, alpha_sum / n, h0)
    return prop, stats


def _bits(x) -> bytes:
    return struct.pack("<d", x)


def _gaussian(scales):
    prec = 1.0 / scales ** 2

    def grad_fn(u):
        return -0.5 * float(u @ (prec * u)), -prec * u
    return grad_fn


def _boxed(grad_fn, half_width):
    """-inf with a zero gradient outside the box, as a plan reports a point
    off its support."""
    def boxed(u):
        if np.any(np.abs(u) > half_width):
            return -math.inf, np.zeros_like(u)
        return grad_fn(u)
    return boxed


def _assert_same_draw(seed, grad_fn, u0, eps, inv_mass, max_depth, events):
    v0, g0 = grad_fn(u0)
    rng_ref = np.random.default_rng(seed)
    rng_new = np.random.default_rng(seed)
    (u1, v1, g1), stats = _ref_nuts_draw(rng_ref, grad_fn, u0, v0, g0, eps,
                                         inv_mass, max_depth, events)
    u2, v2, g2, st = smp.nuts_draw(rng_new, grad_fn, u0, v0, g0, eps,
                                   inv_mass, max_depth)
    assert u1.tobytes() == u2.tobytes(), seed
    assert _bits(v1) == _bits(v2), seed
    assert g1.tobytes() == g2.tobytes(), seed
    depth, n, divergent, accept, energy = stats
    assert (st.depth, st.n_leapfrog, st.divergent) == (depth, n, divergent)
    assert _bits(st.accept_stat) == _bits(accept), seed
    assert _bits(st.energy) == _bits(energy), seed
    assert rng_ref.random() == rng_new.random(), seed
    return st


def test_iterative_tree_matches_recursive_tree_bit_for_bit():
    events = set()
    depths = (0, 1, 3, 10)
    for case in range(2000):
        rng = np.random.default_rng([17, case])
        dim = (2, 6, 20)[case % 3]
        # anisotropy from nearly none to a factor of 20; the extra U-turn
        # checks decide more often on the rounder targets
        scales = np.exp(rng.uniform(-1.5, 1.5, dim) * rng.uniform(0.1, 1.0))
        inv_mass = np.exp(rng.uniform(-0.5, 0.5, dim))
        eps = math.exp(rng.uniform(math.log(0.05), math.log(2.0)))
        u0 = rng.normal(size=dim) * scales
        grad_fn = _gaussian(scales)
        if case % 2:
            # a divergent leaf wherever the trajectory leaves the box
            u0 = np.clip(u0, -scales, scales)
            grad_fn = _boxed(grad_fn, 1.5 * scales)
        _assert_same_draw([case, 1], grad_fn, u0, eps, inv_mass,
                          depths[case % 4] if case < 160 else 10, events)
    assert events == {"divergence", "stop in a subtree",
                      "stop in a right subtree"} | {
        f"check {k} turns {where}" for k in range(3)
        for where in ("in a subtree", "at the root")}


def test_logaddexp_matches_numpy_bit_for_bit():
    special = [0.0, -0.0, 1.0, -1.0, 1e-300, 36.0, -36.0, 709.0, -745.0,
               1e308, -1e308, math.inf, -math.inf, math.nan]
    rng = np.random.default_rng(3)
    pairs = list(itertools.product(special, repeat=2))
    pairs += [(x, x) for x in rng.normal(0.0, 50.0, 200)]
    pairs += list(zip(rng.normal(0.0, 5.0, 5000), rng.normal(0.0, 5.0, 5000)))
    pairs += list(zip(rng.normal(0.0, 1e3, 5000), rng.normal(0.0, 1.0, 5000)))
    for x, y in pairs:
        x, y = float(x), float(y)
        with np.errstate(all="ignore"):
            want = float(np.logaddexp(x, y))
        got = smp._logaddexp(x, y)
        assert type(got) is float
        assert _bits(got) == _bits(want), (x, y, got, want)


def test_momentum_overflow_raises_no_warning():
    # a gradient of about 1e300 on a density that stays finite everywhere:
    # a leapfrog step sends the momenta to about 1e300 and their squares
    # overflow, which rejects the step without a warning
    def steep(u):
        return 1e300 * float(np.sum(np.cos(u))), -1e300 * np.sin(u)

    u0 = np.full(3, 0.5)
    v0, g0 = steep(u0)
    rng = np.random.default_rng(4)
    eps, _ = smp.find_reasonable_epsilon(rng, steep, u0, v0, g0, np.ones(3))
    assert eps < 1e-9
    st = _assert_same_draw(5, steep, u0, 1.0, np.ones(3), 10, set())
    assert st.divergent and st.n_leapfrog == 1


def test_imputed_ar1_cells_match_exact_gaussian_conditioning():
    # with a, b and sigma fixed, the missing cells of an AR(1) are jointly
    # Gaussian given the observed ones: y = m + A^-1 D z, so the precision
    # is A' D^-2 A, and conditioning on the observed cells is exact
    a, b, sigma, T = 0.8, 0.5, 1.0, 40
    src = (f"ProgramName: AR1Fixed\nIndices: t 0 {T - 1}\n"
           "Inputs: a, b, sigma\ny[0] ~ N(0, 10)\n"
           "y[t] ~ N(a*y[t-1] + b, sigma)\n")
    rng = np.random.default_rng(21)
    y = np.empty(T)
    y[0] = rng.normal(0.0, 10.0)
    for t in range(1, T):
        y[t] = a * y[t - 1] + b + rng.normal(0.0, sigma)
    miss = np.array([0, 5, 6, 7, 18, 25, 31, 39])   # the ends and a run
    obs = np.setdiff1d(np.arange(T), miss)
    y_obs = y.copy()
    y_obs[miss] = np.nan
    table = make_table(("t",), [[t] for t in range(T)], {"y": y_obs})
    plan = pl.compile_model(src, tables=(table,), obs=("y",),
                            inputs={"a": a, "b": b, "sigma": sigma})
    out = smp.run(plan, n_chains=2, n_warmup=300, n_samples=1000, seed=22)

    m = np.empty(T)
    m[0] = 0.0
    for t in range(1, T):
        m[t] = a * m[t - 1] + b
    A = np.eye(T) - a * np.eye(T, k=-1)
    prec = A.T @ np.diag(1.0 / np.r_[10.0, np.full(T - 1, sigma)] ** 2) @ A
    cov = np.linalg.inv(prec[np.ix_(miss, miss)])
    mean = m[miss] - cov @ prec[np.ix_(miss, obs)] @ (y[obs] - m[obs])

    for k, t in enumerate(miss):
        x = out.site(f"y[{t}]")
        var = cov[k, k]
        ess_mean = an.effective_sample_size(x)
        z_mean = (x.mean() - mean[k]) / math.sqrt(var / ess_mean)
        sq = (x - mean[k]) ** 2
        ess_var = an.effective_sample_size(sq)
        z_var = (sq.mean() - var) / (var * math.sqrt(2.0 / ess_var))
        assert abs(z_mean) < 4.0, (t, x.mean(), mean[k], ess_mean)
        assert abs(z_var) < 4.0, (t, sq.mean(), var, ess_var)


# --- chains in forked workers ---------------------------------------------------

AR1_SMALL = ("ProgramName: AR1Small\nIndices: t 0 29\na ~ N(0, 1)\n"
             "sigma ~ HalfNormal(1)\ny[0] ~ N(0, 1)\n"
             "y[t] ~ N(a*y[t-1], sigma)\n")


def ar1_small_plan():
    y = np.random.default_rng(5).normal(size=30)
    y[[3, 17, 18]] = np.nan
    table = make_table(("t",), [[t] for t in range(30)], {"y": y})
    return pl.compile_model(AR1_SMALL, tables=(table,), obs=("y",))


@pytest.fixture()
def deadline():
    """Fail a test that waits more than a minute instead of hanging the
    suite; forked workers do not inherit the alarm."""
    def expire(signum, frame):
        raise TimeoutError("the sampler did not return within 60 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def array_bits(a):
    return a.dtype, a.shape, a.tobytes()


def with_workers(monkeypatch, n_workers):
    monkeypatch.setattr(smp, "_worker_count",
                        lambda n_chains: min(n_chains, n_workers))


@pytest.mark.parametrize("n_chains", [2, 3, 4])
def test_draws_do_not_depend_on_worker_count(monkeypatch, deadline,
                                             n_chains):
    plan = ar1_small_plan()
    runs = []
    for n_workers in sorted({1, 2, n_chains}):  # 2 < n_chains: round-robin
        with_workers(monkeypatch, n_workers)
        runs.append(smp.run(plan, n_chains=n_chains, n_warmup=60,
                            n_samples=40, seed=7))
        assert_no_children()
    first = runs[0]
    assert first.workers == 1
    for other in runs[1:]:
        assert other.workers > 1
        assert array_bits(other.draws) == array_bits(first.draws)
        assert set(other.stats) == set(first.stats)
        for name, values in first.stats.items():
            assert array_bits(other.stats[name]) == array_bits(values), name
        assert other.gradients == first.gradients


def test_gradient_counts_match_counted_calls(monkeypatch):
    with_workers(monkeypatch, 1)
    plan = ar1_small_plan()
    calls = []                          # gradient calls per chain, in order
    inner = plan.logdensity_and_grad

    def counted(u):
        calls[-1] += 1
        return inner(u)

    chain = smp.RngStream.chain

    def start(self, chain_id, purpose=0):
        calls.append(0)
        return chain(self, chain_id, purpose)

    plan.logdensity_and_grad = counted
    monkeypatch.setattr(smp.RngStream, "chain", start)
    out = smp.run(plan, n_chains=3, n_warmup=60, n_samples=40, seed=8)
    warmup, sampling = out.gradients["warmup"], out.gradients["sampling"]
    assert sampling == [int(n) for n in out.stats["n_leapfrog"].sum(axis=1)]
    assert [w + s for w, s in zip(warmup, sampling)] == calls
    assert all(w > s for w, s in zip(warmup, sampling))


def chains_failing_at_start(failing, n_chains=4):
    """A seed at which exactly the chains in `failing` start in u > 0."""
    for seed in range(1000):
        starts = [smp.RngStream(seed).chain(c).uniform(-2.0, 2.0, 1)[0]
                  for c in range(n_chains)]
        if {c for c, x in enumerate(starts) if x > 0} == set(failing):
            return seed
    raise AssertionError(failing)


def half_line_plan():
    """A standard normal whose density is -inf for u > 0: with one
    initialization attempt, a chain whose first candidate lands there
    cannot start."""
    plan = pl.compile_model(STD_NORMAL)
    inner = plan.logdensity_and_grad

    def grad(u):
        return (-math.inf, np.zeros_like(u)) if u[0] > 0 else inner(u)

    plan.logdensity_and_grad = grad
    return plan


def raised(plan, **cfg):
    with pytest.raises(Exception) as info:
        smp.run(plan, n_chains=4, n_warmup=20, n_samples=10,
                init_attempts=1, **cfg)
    assert_no_children()
    return info.value


@pytest.mark.parametrize("failing", [(1,), (2,), (1, 2), (0, 3), (2, 3)])
def test_failing_chain_raises_what_the_sequential_run_raises(
        monkeypatch, deadline, failing):
    # one chain fails to initialize while the others are fine, or several
    # fail: the lowest-numbered failing chain's error reaches the caller,
    # whichever process ran it
    plan = half_line_plan()
    seed = chains_failing_at_start(failing)
    with_workers(monkeypatch, 1)
    want = raised(plan, seed=seed)
    assert type(want) is InitializationFailedError
    assert str(want).startswith(f"chain {failing[0]}:")
    for n_workers in (2, 3, 4):
        with_workers(monkeypatch, n_workers)
        got = raised(plan, seed=seed)
        assert (type(got), str(got)) == (type(want), str(want)), n_workers


@pytest.mark.parametrize("n_workers", [1, 2, 3, 4])
def test_any_exception_in_a_chain_reaches_the_caller(monkeypatch, deadline,
                                                     n_workers):
    # chain 2 warns (an error under this module's warning filter) and
    # chain 3 raises: chain 2's RuntimeWarning comes back unchanged
    chain = smp.RngStream.chain

    def misbehave(self, chain_id, purpose=0):
        if chain_id == 2:
            warnings.warn("chain 2 misbehaved", RuntimeWarning)
        if chain_id == 3:
            raise ValueError("chain 3 misbehaved")
        return chain(self, chain_id, purpose)

    monkeypatch.setattr(smp.RngStream, "chain", misbehave)
    with_workers(monkeypatch, n_workers)
    got = raised(pl.compile_model(STD_NORMAL), seed=3)
    assert type(got) is RuntimeWarning
    assert str(got) == "chain 2 misbehaved"


@pytest.mark.parametrize("how, message", [
    ("kill", "was killed by signal 9"),
    ("exit", "exited with status 0"),
])
def test_worker_that_dies_raises_sampler_error(monkeypatch, deadline, how,
                                               message):
    # the worker running chains 1 and 3 ends without sending anything;
    # chain 2, run by this process, fails too but has the higher number
    parent = os.getpid()
    chain = smp.RngStream.chain

    def die(self, chain_id, purpose=0):
        if chain_id == 1 and os.getpid() != parent:
            if how == "kill":
                os.kill(os.getpid(), signal.SIGKILL)
            os._exit(0)
        if chain_id == 2:
            raise ValueError("chain 2 misbehaved")
        return chain(self, chain_id, purpose)

    monkeypatch.setattr(smp.RngStream, "chain", die)
    with_workers(monkeypatch, 2)
    got = raised(pl.compile_model(STD_NORMAL), seed=3)
    assert type(got) is SamplerError
    assert str(got) == (f"the worker running chains 1, 3 {message} before "
                        "sending their draws")


def test_interrupted_run_stops_and_reaps_its_workers(monkeypatch, deadline):
    # Ctrl-C in this process while a worker is still busy with its chain
    parent = os.getpid()

    def interrupt(self, chain_id, purpose=0):
        if os.getpid() != parent:
            time.sleep(60)
        raise KeyboardInterrupt

    monkeypatch.setattr(smp.RngStream, "chain", interrupt)
    with_workers(monkeypatch, 2)
    t0 = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        smp.run(pl.compile_model(STD_NORMAL), n_chains=2, n_warmup=20,
                n_samples=10, seed=3)
    assert time.perf_counter() - t0 < 30
    assert_no_children()
