"""Output checks, run outside the timed region.

Every check returns (name, ok, detail). A failed check counts against the
run in `failed` and makes `correct` false.
"""

from __future__ import annotations

import filecmp
import math

import numpy as np
from scipy import stats

import ldmlang.plan
from ldmlang.frontend import parse_program

import ess


def _result(name, ok, detail=""):
    return (name, bool(ok), detail)


def fused_unrolled_agree(w, res, rng, n_points=3):
    """FUSED and UNROLLED log densities agree to 1e-9 (relative to the
    density's size once it exceeds 1); UNROLLED is the reference."""
    fused, unrolled = res.plan, unrolled_plan(w, res)
    worst = 0.0
    for _ in range(n_points):
        u = rng.uniform(-2.0, 2.0, fused.latent_dim)
        lf, lu = fused.logdensity(u), unrolled.logdensity(u)
        worst = max(worst, abs(lf - lu) / max(1.0, abs(lu)))
    return _result("fused_unrolled_agree", worst <= 1e-9,
                   f"max rel diff {worst:.2e}"), unrolled


def unrolled_plan(w, res):
    """The CLI's plan compiled again, from a fresh parse and the same
    tables and observed variables, in UNROLLED mode."""
    with open(w.model, encoding="utf-8") as fh:
        ast = parse_program(fh.read())
    kwargs = dict(res.compile_kwargs, mode=ldmlang.plan.UNROLLED)
    return ldmlang.plan.compile_model(ast, **kwargs)


def gradient_matches_fd(plan, rng, n_points=3, h=1e-5, tol=1e-4):
    """logdensity_and_grad against central differences along a random unit
    direction and along three coordinates, at seeded points."""
    worst = 0.0
    for _ in range(n_points):
        u = rng.uniform(-2.0, 2.0, plan.latent_dim)
        _, grad = plan.logdensity_and_grad(u)
        d = rng.standard_normal(plan.latent_dim)
        dirs = [d / np.linalg.norm(d)]
        for i in rng.choice(plan.latent_dim, size=min(3, plan.latent_dim),
                            replace=False):
            e = np.zeros(plan.latent_dim)
            e[i] = 1.0
            dirs.append(e)
        for d in dirs:
            fd = (plan.logdensity(u + h * d) - plan.logdensity(u - h * d)) / (2 * h)
            worst = max(worst, abs(float(grad @ d) - fd) / max(abs(fd), 1e-8))
    return _result("gradient_matches_fd", worst < tol,
                   f"max rel error {worst:.2e}")


def ar1_recovery(w, res):
    """Parameters recovered and missing cells imputed.

    Each of a, b and sigma must lie within 3.29 posterior standard
    deviations of its posterior mean (the central 99.9% interval of a normal
    posterior). Posterior-mean imputation must beat imputing every held-out
    cell with the mean of the observed cells."""
    out = []
    names = res.draws.site_names
    for site, truth in w.truth.items():
        d = res.draws.draws[:, :, names.index(site)].ravel()
        z = abs(float(d.mean()) - truth) / float(d.std(ddof=1))
        out.append(_result(f"ar1_{site}_covers_truth", z <= 3.29,
                           f"|mean - truth| = {z:.2f} sd"))
    cells = list(w.hidden)
    truth = np.array([w.hidden[c] for c in cells])
    post = np.array([res.draws.draws[:, :, names.index(c)].mean()
                     for c in cells])
    observed = _observed_mean(w)
    rmse = math.sqrt(float(np.mean((post - truth) ** 2)))
    base = math.sqrt(float(np.mean((observed - truth) ** 2)))
    out.append(_result("ar1_imputation_beats_marginal_mean", rmse < base,
                       f"rmse {rmse:.3f} vs baseline {base:.3f}"))
    return out


def _observed_mean(w) -> float:
    ys = []
    with open(w.data[0], encoding="utf-8") as fh:
        next(fh)
        for line in fh:
            cell = line.rstrip("\n").split(",")[1]
            if cell:
                ys.append(float(cell))
    return float(np.mean(ys))


def draws_finite(res):
    ok = bool(np.all(np.isfinite(res.draws.draws)))
    return _result("draws_finite", ok, f"{res.draws.draws.size} values")


def simulation_output(w, res, plan):
    """Row count, finiteness, and root parameters distributed as their
    priors (pooled probability integral transform, KS at 0.1%)."""
    table = res.table
    grid = 1
    for lo, hi in plan.ranges.values():
        grid *= hi - lo + 1
    out = [_result("simulate_row_count", table.n_rows == w.draws * grid,
                   f"{table.n_rows} rows, expected {w.draws * grid}")]
    values = np.stack([table.columns[c] for c in table.value_names])
    out.append(_result("simulate_finite", np.all(np.isfinite(values)),
                       f"{values.size} values"))
    pit = []
    for name in _root_params(plan):
        spec = plan.bound.graph.by_var[name][0].stmt.dist
        x = table.columns[name][::grid]    # scalars repeat over the grid
        args = [p.value for p in spec.params]
        pit.append(_prior_cdf(spec.name, args, x))
    pit = np.concatenate(pit)
    ks = stats.kstest(pit, "uniform")
    out.append(_result("simulate_roots_match_prior", ks.pvalue > 1e-3,
                       f"KS p={ks.pvalue:.3f} over {pit.size} draws"))
    return out


def _root_params(plan) -> list:
    """Scalar variables whose prior arguments are all constants."""
    from ldmlang.frontend.nodes import Const
    graph = plan.bound.graph
    roots = []
    for var, axes in graph.var_axes.items():
        nodes = graph.by_var[var]
        if axes or len(nodes) != 1 or nodes[0].kind == "deterministic":
            continue
        if all(isinstance(p, Const) for p in nodes[0].stmt.dist.params):
            roots.append(var)
    return roots


def _prior_cdf(dist: str, args, x):
    if dist in ("N", "Normal"):
        return stats.norm.cdf(x, loc=args[0], scale=args[1])
    if dist in ("Exp", "Exponential"):
        return stats.expon.cdf(x, scale=1.0 / args[0])
    if dist == "HalfNormal":
        return stats.halfnorm.cdf(x, scale=args[0])
    raise ValueError(f"no prior CDF for {dist}")


def ess_self_test():
    failures = ess.self_test()
    return _result("bulk_ess_self_test", not failures, "; ".join(failures))


def same_bytes(name, path_a, path_b):
    # compared block by block, so the check adds nothing to peak_rss_mb
    same = filecmp.cmp(path_a, path_b, shallow=False)
    return _result(name, same, "" if same else f"{path_a} != {path_b}")
