"""End-to-end and per-layer benchmark for `ldm sample` and `ldm simulate`.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from anywhere inside a checkout of the repository: the library is
imported from the checkout's `src/` and the models from `models/`. A run
generates its workload's CSV inputs from the seed, times set-up in fresh
processes, then runs the workload's calls round-robin in a closed loop, one
operation at a time in one process, for S seconds and until each call has
run. An operation is one call: `ldm sample` + `ldm summary` on one data
set, or `ldm simulate`, run through `ldmlang.cli.main` in this process.
wall_s is the time of one pass over the calls, each call timed by the
median of its operations. The run checks the outputs outside the timed
region, prints one row of metrics and, as its last line, a JSON object.

With `--trace 0` the JSON holds the end-to-end metrics. With `--trace 1` the
run alternates untraced and traced operations, reports per-layer metrics from
the traced ones and the wall-time difference as tracing overhead, and adds
the gradient microbenchmark. Spans are kept in memory and written to
.perfbench_out/ at the end.
`--workload all` runs every workload in turn, untraced, and prints one row
each.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

SETUP_PROBES = 5
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0)


def _require_checkout() -> None:
    """The benchmark measures the library of its own checkout and nothing
    else; without the sources and models there is nothing to run."""
    missing = [p for p in ("src/ldmlang/__init__.py", "models/ar1.ldm",
                           "models/dbn.ldm")
               if not os.path.isfile(os.path.join(ROOT, p))]
    if missing:
        sys.exit(f"perfbench: not inside a checkout of the repository "
                 f"(missing {', '.join(missing)} under {ROOT})")
    sys.path.insert(0, os.path.join(ROOT, "src"))


def tail(samples) -> str:
    """Median plus the highest percentile with at least ten samples beyond
    it, and the sample count."""
    import numpy as np
    n = len(samples)
    text = f"p50 {np.median(samples):.4g}"
    for p in TAIL_PERCENTILES:
        if n * (1 - p / 100) >= 10:
            text += f", p{p:g} {np.percentile(samples, p):.4g}"
            break
    return f"{text}, n={n}"


@dataclass
class Op:
    """One operation: which of the workload's calls it ran, its wall time,
    its result with the plan and outputs dropped (timings and sampler stats
    only), and its tracer run id."""
    call: int
    wall_s: float
    res: object
    run: tuple


def pass_time(ops) -> float:
    """Time of one pass over the workload's calls: the sum over the calls
    of the median wall time of their operations."""
    import numpy as np
    by_call = {}
    for op in ops:
        by_call.setdefault(op.call, []).append(op.wall_s)
    return float(sum(np.median(v) for v in by_call.values()))


class Run:
    def __init__(self, args):
        import numpy as np

        import workloads
        from cliops import Cli
        self.args = args
        self.work = os.path.join(ROOT, ".perfbench_work",
                                 f"{args.workload}-{args.seed}-{os.getpid()}")
        os.makedirs(self.work)
        self.calls = workloads.GENERATORS[args.workload](
            args.seed, os.path.join(ROOT, "models"), self.work)
        self.rng = np.random.default_rng([args.seed, 1903])
        self.cli = Cli()
        self.checks = []
        self.attempted = 0
        self.failed = 0

    def out_path(self, op, k) -> str:
        return os.path.join(self.work, f"op{op}_{k}.csv")

    def setup_times(self):
        """setup_s and import times from SETUP_PROBES fresh processes, each
        setting up the workload's first `ldm` call."""
        argv = self.calls[0].cli_args(os.path.join(self.work, "probe.csv"))
        setup, imports = [], []
        for _ in range(SETUP_PROBES):
            self.attempted += 1
            t0 = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "setup_probe.py"), ROOT,
                 json.dumps(argv)], capture_output=True, text=True,
                timeout=120)
            if proc.returncode != 0:
                self.failed += 1
                sys.stderr.write(proc.stderr)
                continue
            out = json.loads(proc.stdout.strip().splitlines()[-1])
            setup.append(out["ready"] - t0)
            imports.append(out["import_s"])
        return setup, imports

    def loop(self, traced: bool):
        """Run the workload's calls round-robin, one operation (one call)
        at a time, for --seconds and until every call has run; a traced run
        alternates untraced and traced passes over the calls and goes on
        until every call has been traced. A repeated call must write the
        bytes it wrote the first time. Only each call's latest result stays
        alive, so every repeat starts from the same heap. A failed
        operation ends the loop and returns None for the results.
        Returns (latest result per call, untraced Ops, traced Ops, tracer)."""
        import checks
        from spans import Tracer
        tracer = Tracer()
        n = len(self.calls)
        latest, first_out = [None] * n, [None] * n
        plain, traced_ops = [], []
        start = time.perf_counter()
        i = 0
        while True:
            k, with_trace = i % n, traced and (i // n) % 2 == 1
            latest[k] = None
            out = self.out_path(i, k)
            self.attempted += 1
            if with_trace:
                tracer.run = (i, k)
            try:
                res = self.cli.call(self.calls[k], out,
                                    tracer if with_trace else None)
            except Exception as e:  # a failed operation is counted, not fatal
                self.failed += 1
                print(f"operation {i} failed: {e!r}", file=sys.stderr)
                return None, plain, traced_ops, tracer
            latest[k] = res
            if first_out[k] is None:
                first_out[k] = out
            else:
                self.checks.append(checks.same_bytes(
                    "repeat_writes_same_file", first_out[k], out))
                os.remove(out)
            op = Op(k, res.wall_s, res.light(), (i, k))
            (traced_ops if with_trace else plain).append(op)
            del res          # else the next operation runs with two alive
            i += 1
            if time.perf_counter() - start >= self.args.seconds and \
                    i >= (2 * n if traced else n):
                return latest, plain, traced_ops, tracer

    def check_outputs(self, results):
        """Checks on the latest result of each call; returns the first
        call's UNROLLED plan for the microbenchmark."""
        import checks
        first, w = results[0], self.calls[0]
        c = self.checks
        c.append(checks.ess_self_test())
        c.append(checks.gradient_matches_fd(first.plan, self.rng))
        agree, unrolled = checks.fused_unrolled_agree(w, first, self.rng)
        c.append(agree)
        if w.simulate:
            c.extend(checks.simulation_output(w, first, first.plan))
        else:
            c.extend(checks.draws_finite(r) for r in results)
        if w.name == "ar1_missing":
            c.extend(checks.ar1_recovery(w, first))
        return unrolled


def ess_per_second(results) -> float:
    """Median over the `ldm sample` calls of minimum bulk ESS per second of
    sampler.run."""
    import numpy as np

    import ess
    return float(np.median([ess.min_bulk_ess(r.draws.draws) / r.core_s
                            for r in results]))


def run_one(args) -> int:
    import numpy as np
    run = Run(args)
    name = args.workload
    try:
        setup, imports = run.setup_times()
        last, plain, traced_ops, tracer = run.loop(bool(args.trace))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if last is None or not setup:
            print("perfbench: an operation or every set-up failed",
                  file=sys.stderr)
            return 1
        unrolled = run.check_outputs(last)
        sampling = not run.calls[0].simulate
        ess_per_s = ess_per_second(last) if sampling else 0.0
        wall = pass_time(plain)
        row = (f"{name:<20} wall_s {wall:.4f} s (sum over {len(run.calls)} "
               f"calls of their median, n={len(plain)}) | "
               f"setup_s {np.median(setup):.4f} s ({tail(setup)}) | "
               + (f"ess_per_s {ess_per_s:.4g} 1/s | " if sampling else "")
               + f"peak_rss_mb {peak_rss_mb:.1f} MB | ")
        if args.trace:
            import layers
            from microbench import gradient_costs
            costs = gradient_costs(last[0].plan, unrolled, run.rng)
            metrics, self_times, grad_checks = layers.per_layer(
                traced_ops, tracer, last[0].plan, costs, imports, ess_per_s,
                pass_time(traced_ops) / wall - 1.0)
            run.checks.extend(grad_checks)
            out_dir = os.path.join(ROOT, ".perfbench_out")
            os.makedirs(out_dir, exist_ok=True)
            tracer.dump(os.path.join(out_dir,
                                     f"{name}-seed{args.seed}.spans.jsonl"))
        else:
            metrics = {
                "wall_s": (wall, "s"),
                "setup_s": (float(np.median(setup)), "s"),
                "peak_rss_mb": (peak_rss_mb, "MB"),
            }
        attempted = run.attempted + len(run.checks)
        failed = run.failed + sum(1 for _, ok, _ in run.checks if not ok)
        for check, ok, detail in run.checks:
            if not ok:
                print(f"check failed: {check}: {detail}", file=sys.stderr)
        print(row + f"fail_frac {failed / attempted:.4g} "
              f"({failed}/{attempted})")
        if args.trace:
            layers.print_table(metrics, self_times)
        print(json.dumps({
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()},
        }))
        return 0
    finally:
        run.cli.close()
        shutil.rmtree(run.work, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(run.work))


def run_all(args) -> int:
    """Every workload, one after another, untraced; one row each."""
    import workloads
    rc = 0
    for name in workloads.GENERATORS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", "0"], capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            print(f"{name:<20} failed (exit {proc.returncode})")
            sys.stderr.write(proc.stderr)
            rc = 1
            continue
        print(lines[-2])
    return rc


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    _require_checkout()
    import workloads
    if args.workload == "all":
        return run_all(args)
    if args.workload not in workloads.GENERATORS:
        ap.error(f"unknown workload {args.workload!r}; choose from "
                 f"{', '.join(workloads.GENERATORS)} or all")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
