"""Seeded input generators for the benchmark's workloads.

Each generator draws its data from the benchmark seed, writes it as CSV into
a scratch directory and returns a list of `Workload`s, one per `ldm` call:
the model file, the data files, and the `ldm sample` / `ldm simulate`
settings. The program under test only ever sees these files, which the CLI
reads back with `read_table`.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass, field

import numpy as np

AR1_TRUTH = {"a": 0.9, "b": 0.1, "sigma": 0.5}
AR1_SERIES = 4

# the coupled-chain case study: true weights and per-variable miss rates
DBN_WEIGHTS = dict(
    w_ee=0.7, b_e=0.3, s_e=0.3,
    w_ci=0.2, w_ii=0.6, b_i=0.2, s_i=0.3,
    w_pp=0.5, w_ep=0.2, w_ip=0.15, b_p=0.1, s_p=0.3,
    w_pa=0.3, w_aa=0.5, b_a=0.2, s_a=0.3,
    w_ac=0.2, w_cc=0.6, b_c=0.1, s_c=0.3,
)
DBN_MISS_RATES = {"C": 0.20, "EM": 0.16, "IM": 0.16, "A": 0.02, "P": 0.0}


@dataclass(frozen=True)
class Workload:
    name: str
    model: str                        # path of the model file
    data: tuple = ()                  # paths of the CSV inputs
    index: tuple = ()                 # index columns of the CSV inputs
    obs: tuple = ()                   # observed variables (sampling only)
    seed: int = 0                     # the `--seed` given to ldm
    sampler: dict = field(default_factory=dict)   # ldm sample settings
    draws: int = 0                    # ldm simulate --draws
    truth: dict = field(default_factory=dict)
    hidden: dict = field(default_factory=dict)    # held-out cell -> value

    @property
    def simulate(self) -> bool:
        return not self.data

    def cli_args(self, out: str) -> list:
        """The `ldm` command line that does what the benchmark times."""
        if self.simulate:
            return ["simulate", self.model, "--draws", str(self.draws),
                    "--seed", str(self.seed), "-o", out]
        args = ["sample", self.model]
        for path in self.data:
            args += ["--data", path]
        args += ["--obs", ",".join(self.obs), "--seed", str(self.seed),
                 "--chains", str(self.sampler["n_chains"]),
                 "--warmup", str(self.sampler["n_warmup"]),
                 "--samples", str(self.sampler["n_samples"]), "-o", out]
        return args


def _rng(seed: int, tag: str) -> np.random.Generator:
    return np.random.default_rng([int(seed), sum(map(ord, tag))])


def _mcar(rng, shape, rate: float) -> np.ndarray:
    """Boolean mask with exactly round(rate * size) cells set, placed at
    random, so every seed has the same number of missing cells."""
    size = int(np.prod(shape))
    mask = np.zeros(size, dtype=bool)
    mask[rng.choice(size, size=int(round(rate * size)), replace=False)] = True
    return mask.reshape(shape)


def _cell(v: float) -> str:
    return "" if math.isnan(v) else repr(float(v))


def _write_csv(path: str, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def _write_model(models_dir: str, name: str, out_dir: str,
                 indices: str | None = None) -> str:
    """Copy a model from the repository, optionally replacing its
    `Indices:` line, and return the copy's path."""
    with open(os.path.join(models_dir, name), encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if indices is not None:
        lines = [indices if ln.startswith("Indices:") else ln for ln in lines]
    path = os.path.join(out_dir, name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


def ar1_missing(seed: int, models_dir: str, out_dir: str) -> list:
    """AR1_SERIES independent series, each fitted by its own `ldm sample`
    call. Sampler work for one series varies by about 10% between seeds;
    a pass over several averages that down."""
    model = _write_model(models_dir, "ar1.ldm", out_dir)
    return [_ar1_series(seed, k, model, out_dir) for k in range(AR1_SERIES)]



def _ar1_series(seed: int, k: int, model: str, out_dir: str) -> Workload:
    T, rate = 300, 0.20
    a, b, sigma = AR1_TRUTH["a"], AR1_TRUTH["b"], AR1_TRUTH["sigma"]
    rng = _rng(seed, f"ar1_missing/{k}")
    y = np.empty(T)
    y[0] = rng.normal(b / (1 - a), sigma / math.sqrt(1 - a * a))
    for t in range(1, T):
        y[t] = a * y[t - 1] + b + rng.normal(0.0, sigma)
    miss = _mcar(rng, (T,), rate)
    hidden = {f"y[{t}]": float(y[t]) for t in np.flatnonzero(miss)}
    y_obs = np.where(miss, np.nan, y)
    data = os.path.join(out_dir, f"ar1_series_{k}.csv")
    _write_csv(data, ["t", "y"], ([t, _cell(v)] for t, v in enumerate(y_obs)))
    return Workload(
        name="ar1_missing", model=model, data=(data,), index=("t",),
        obs=("y",), seed=seed,
        sampler=dict(n_chains=2, n_warmup=50, n_samples=50),
        truth=dict(AR1_TRUTH), hidden=hidden)


def coupled_chains(rng, n: int, T: int) -> dict:
    """The case-study generator: five coupled AR processes per unit."""
    w = DBN_WEIGHTS
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


def dbn_coupled(seed: int, models_dir: str, out_dir: str) -> list:
    n, T = 10, 38
    rng = _rng(seed, "dbn_coupled")
    series = coupled_chains(rng, n, T)
    cols = {}
    for name, v in series.items():
        cols[name] = np.where(_mcar(rng, v.shape, DBN_MISS_RATES[name]),
                              np.nan, v).ravel()
    names = list(cols)
    data = os.path.join(out_dir, "coupled_chains.csv")
    _write_csv(data, ["n", "t"] + names,
               ([i, t] + [_cell(cols[c][i * T + t]) for c in names]
                for i in range(n) for t in range(T)))
    return [Workload(
        name="dbn_coupled",
        model=_write_model(models_dir, "dbn.ldm", out_dir),
        data=(data,), index=("n", "t"), obs=tuple(names), seed=seed,
        sampler=dict(n_chains=1, n_warmup=150, n_samples=150))]


def simulate_dbn_panel(seed: int, models_dir: str, out_dir: str) -> list:
    return [Workload(
        name="simulate_dbn_panel",
        model=_write_model(models_dir, "dbn.ldm", out_dir,
                           indices="Indices: n 0 49, t 0 37"),
        seed=seed, draws=10)]


def multilevel_b_full(seed: int, models_dir: str, out_dir: str) -> list:
    """`models/multilevel_b.ldm` at its full 504 rows: 7 actors x 6 blocks
    x 12 trials, treatments cycling 0..3, and a binary outcome drawn from
    the model's own logit."""
    rng = _rng(seed, "multilevel_b_full")
    actor = np.repeat(np.arange(7), 72)
    block = np.tile(np.repeat(np.arange(6), 12), 7)
    treatment = np.tile(np.arange(4), 126)
    logit = (rng.normal(0.3, 1.5, 7)[actor] + rng.normal(0, 0.3, 6)[block]
             + rng.normal(0, 0.5, 4)[treatment])
    pulled = (rng.random(logit.size) < 1 / (1 + np.exp(-logit))).astype(int)
    data = os.path.join(out_dir, "multilevel_b.csv")
    _write_csv(data, ["i", "pulled_left", "actor", "block_id", "treatment"],
               zip(range(logit.size), pulled, actor, block, treatment))
    return [Workload(
        name="multilevel_b_full",
        model=_write_model(models_dir, "multilevel_b.ldm", out_dir),
        data=(data,), index=("i",), obs=("pulled_left",), seed=seed,
        sampler=dict(n_chains=1, n_warmup=60, n_samples=60))]


# A run cycles through a workload's list, one `ldm` call per operation.
# dbn_coupled is runnable by name but is not in BENCHMARK.json: one
# 150+150 run takes about a minute, and its gradient count varies by about
# 20% between seeds, so no set of runs that fits the benchmark's time budget
# gives it a steady wall time.
GENERATORS = {
    "ar1_missing": ar1_missing,
    "simulate_dbn_panel": simulate_dbn_panel,
    "dbn_coupled": dbn_coupled,
}

# Only the gradient microbenchmark (`python3 perfbench/microbench.py`) runs
# this one: 60+60 draws take about three minutes, and shorter warmups end
# with every draw divergent.
MICROBENCH_ONLY = {"multilevel_b_full": multilevel_b_full}
