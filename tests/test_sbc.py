"""Simulation-based calibration (Talts, Betancourt, Simpson, Vehtari and
Gelman, arXiv 1804.06788) of the sampler on a small AR(1) with missing cells.

Each replication draws parameters and a series from the prior with
`prior_simulate`, hides a few cells, samples the posterior with `run`, and
ranks each true value among thinned posterior draws. If the sampler draws
from the posterior, every rank is uniform on 0..L; a chi-square test on
binned ranks checks that for a, b, sigma and one imputed cell.

Opt-in: about a minute on two cores. Run with `pytest -m slow`.
"""

import numpy as np
import pytest
from scipy import stats

from ldmlang import plan as pl
from ldmlang import sampler as smp
from ldmlang.datatable import make_table

pytestmark = pytest.mark.slow

MODEL = """ProgramName: AR1SBC
Indices: t 0 19
a ~ N(0.5, 0.2)
b ~ N(0, 0.5)
sigma ~ Gamma(10, 20)
y[0] ~ N(0, 1)
y[t] ~ N(a*y[t-1] + b, sigma)
"""
T = 20
MISSING = [3, 10, 11, 19]
TRACKED = {"a": "a", "b": "b", "sigma": "sigma", "y[10]": ("y", 10)}
REPLICATIONS = 100
CHAINS, WARMUP, SAMPLES, THIN = 2, 150, 240, 20
BINS = 5            # ranks 0..L with L = CHAINS * SAMPLES / THIN = 24


def test_ranks_of_the_truth_are_uniform():
    prior = pl.compile_model(MODEL)
    sims = pl.prior_simulate(prior, np.random.default_rng(2024),
                             REPLICATIONS)
    draw, t = sims.column("draw"), sims.column("t")
    n_draws = CHAINS * SAMPLES // THIN
    ranks = {name: [] for name in TRACKED}
    for r in range(REPLICATIONS):
        rows = draw == r
        y = sims.column("y")[rows][np.argsort(t[rows])]
        truth = {name: (y[where[1]] if isinstance(where, tuple)
                        else sims.column(where)[rows][0])
                 for name, where in TRACKED.items()}
        y_obs = y.copy()
        y_obs[MISSING] = np.nan
        table = make_table(("t",), [[k] for k in range(T)], {"y": y_obs})
        plan = pl.compile_model(MODEL, tables=(table,), obs=("y",))
        out = smp.run(plan, n_chains=CHAINS, n_warmup=WARMUP,
                      n_samples=SAMPLES, seed=r)
        for name in TRACKED:
            kept = out.site(name)[:, THIN - 1::THIN].ravel()
            assert kept.size == n_draws
            ranks[name].append(int(np.sum(kept < truth[name])))
    p_values = {}
    for name, rk in ranks.items():
        counts = np.bincount(np.array(rk) * BINS // (n_draws + 1),
                             minlength=BINS)
        p_values[name] = stats.chisquare(counts).pvalue
    print(f"SBC, {REPLICATIONS} replications, chi-square p-values:",
          {k: round(float(v), 4) for k, v in p_values.items()})
    assert all(p > 1e-3 for p in p_values.values()), p_values
