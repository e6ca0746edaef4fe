"""Gradient microbenchmark: FUSED gradient and value, UNROLLED gradient.

The three calls are interleaved at each of a few seeded points, round after
round, so that drift in machine speed hits every mode alike. Each timed call
follows an untimed call of the same mode at the same point. The traced run
calls `gradient_costs`; on its own,

    python3 perfbench/microbench.py --workload NAME --seed N [--seconds S]

generates a workload's inputs (any workload of run.py, or
multilevel_b_full), compiles its model in both modes and prints the costs.
"""

from __future__ import annotations

import os
import shutil
import sys
import time

import numpy as np


def gradient_costs(fused, unrolled, rng, seconds=2.0, min_rounds=1,
                   n_points=3) -> dict:
    points = [rng.uniform(-2.0, 2.0, fused.latent_dim) for _ in range(n_points)]
    calls = {
        "autodiff.grad_us": fused.logdensity_and_grad,
        "autodiff.value_us": fused.logdensity,
        "autodiff.grad_us_unrolled": unrolled.logdensity_and_grad,
    }
    for f in calls.values():
        f(points[0])
    samples = {name: [] for name in calls}
    end = time.perf_counter() + seconds
    rounds = 0
    while rounds < min_rounds or time.perf_counter() < end:
        for u in points:
            for name, f in calls.items():
                f(u)    # untimed: the other modes' calls leave caches cold
                t0 = time.perf_counter()
                f(u)
                samples[name].append(time.perf_counter() - t0)
        rounds += 1
    out = {name: float(np.median(s)) * 1e6 for name, s in samples.items()}
    out["autodiff.tape_entries"] = tape_entries(fused, points[0])
    out["microbench.calls"] = len(samples["autodiff.grad_us"])
    return out


def tape_entries(plan, u) -> int:
    """Entries one FUSED evaluation records on the autodiff tape."""
    import ldmlang.autodiff
    tape = ldmlang.autodiff.Tape()
    with np.errstate(all="ignore"):
        plan.eval_logdensity(tape.input(np.asarray(u, dtype=float)))
    return len(tape.entries)


def scalar_sites(plan) -> int:
    """Blocks FUSED lowering left as one site each."""
    return sum(type(b).__name__ == "ScalarSite" for b in plan.blocks)


def main(argv=None) -> int:
    import argparse

    import run
    run._require_checkout()
    import ldmlang.plan
    import workloads
    from ldmlang.datatable import read_table
    from ldmlang.frontend import parse_program

    names = {**workloads.GENERATORS, **workloads.MICROBENCH_ONLY}
    ap = argparse.ArgumentParser(description="gradient microbenchmark")
    ap.add_argument("--workload", required=True, choices=sorted(names))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=6.0)
    args = ap.parse_args(argv)
    work = os.path.join(run.ROOT, ".perfbench_work",
                        f"microbench-{os.getpid()}")
    os.makedirs(work)
    try:
        w = names[args.workload](args.seed, os.path.join(run.ROOT, "models"),
                                 work)[0]
        plans = []
        for mode in (ldmlang.plan.FUSED, ldmlang.plan.UNROLLED):
            with open(w.model, encoding="utf-8") as fh:
                ast = parse_program(fh.read())
            tables = [read_table(path, w.index) for path in w.data]
            plans.append(ldmlang.plan.compile_model(
                ast, tables=tables, obs=list(w.obs), mode=mode))
        costs = gradient_costs(*plans, np.random.default_rng(args.seed),
                               seconds=args.seconds)
        fused = plans[0]
        costs["plan.latent_dim"] = fused.latent_dim
        costs["plan.scalar_sites"] = scalar_sites(fused)
        for name, value in costs.items():
            print(f"{args.workload:<20} {name:<28} {value:>14.6g}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
