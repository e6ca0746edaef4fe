"""Command-line front end.

Subcommands cover the pipeline: check and graph inspect a model, simulate
draws from the prior, sample runs posterior inference, summary and ic
post-process a draws file, bench times the fused plan against the unrolled
one across series lengths and missingness rates. Every file-writing command
drops a JSON run manifest next to its output.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import resource
import sys
import time

import numpy as np

from . import __version__
from . import analysis, sampler
from .datatable import DataTable, read_table, write_csv
from .errors import LdmError
from .frontend import parse_program, render, validate
from .graph import assign_domains, build_graph, resolve_indices, to_dot
from .plan import FUSED, UNROLLED, compile_model, prior_simulate
from .sampler import DrawSet, SamplerConfig


def _read_text(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _load_tables(paths, ast):
    declared = {d.name for d in ast.indices}
    tables = []
    for path in paths:
        with open(path, newline="") as fh:
            header = next(csv.reader(fh), [])
        index_names = [c for c in header if c in declared]
        tables.append(read_table(path, index_names))
    return tables


def _stochastic_vars(ast):
    return {s.lhs.name for s in ast.statements if hasattr(s, "dist")}


def _default_obs(ast, tables):
    stoch = _stochastic_vars(ast)
    seen = []
    for t in tables:
        for name in t.columns:
            if name in stoch and name not in seen:
                seen.append(name)
    return seen


def _manifest_path(out_path: str) -> str:
    return os.path.splitext(out_path)[0] + ".manifest.json"


def _peak_rss_mb() -> dict:
    """Peak resident set size of this process and of the largest child it
    has reaped (the sampler's chain workers), in MB."""
    unit = 2 ** 20 if sys.platform == "darwin" else 2 ** 10  # bytes / KiB
    return {who: resource.getrusage(which).ru_maxrss / unit
            for who, which in (("process", resource.RUSAGE_SELF),
                               ("workers", resource.RUSAGE_CHILDREN))}


def _write_manifest(out_path: str, command: str, *, model=None, data=(),
                    obs=(), config=None, mode=None, seed=None, phases=None,
                    **extra):
    payload = {
        "tool": "ldm",
        "version": __version__,
        "command": command,
        "model": model,
        "data": list(data),
        "obs": list(obs),
        "config": config,
        "mode": mode,
        "seed": seed,
        "wall_clock_seconds": phases or {},
        **extra,
        "output": out_path,
    }
    with open(_manifest_path(out_path), "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def _parse_checked(path: str):
    """Parse + validate; prints diagnostics and returns None on failure."""
    ast = parse_program(_read_text(path))
    diags = validate(ast)
    if diags:
        for d in diags:
            print(f"{path}:{d}", file=sys.stderr)
        return None
    return ast


def _rng(seed, *salt) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(
        np.random.SeedSequence((int(seed),) + tuple(int(s) for s in salt))))


# --- subcommands -------------------------------------------------------------------


def cmd_check(args) -> int:
    try:
        ast = parse_program(_read_text(args.model))
    except LdmError as e:
        print(f"{args.model}: {e}", file=sys.stderr)
        return 1
    diags = validate(ast)
    for d in diags:
        print(f"{args.model}:{d}", file=sys.stderr)
    if not diags:
        print(f"{args.model}: ok ({ast.name}, "
              f"{len(ast.statements)} statements)")
    return 0 if not diags else 1


def cmd_graph(args) -> int:
    ast = _parse_checked(args.model)
    if ast is None:
        return 1
    tables = _load_tables(args.data, ast)
    graph = build_graph(ast)
    ranges = resolve_indices(ast, tables)
    assign_domains(graph, ranges)
    dot = to_dot(graph)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(dot)
        _write_manifest(args.out, "graph", model=args.model, data=args.data)
        print(f"wrote {args.out}")
    else:
        print(dot, end="")
    return 0


def cmd_simulate(args) -> int:
    ast = _parse_checked(args.model)
    if ast is None:
        return 1
    t0 = time.perf_counter()
    tables = _load_tables(args.data, ast)
    phases = {}
    plan = compile_model(ast, tables=tables, phases=phases)
    phases["compile"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    table = prior_simulate(plan, _rng(args.seed), args.draws)
    phases["simulate"] = time.perf_counter() - t0
    nonfinite = {v: k for v, col in table.columns.items()
                 if (k := int(np.count_nonzero(~np.isfinite(col))))}
    if nonfinite:
        counts = ", ".join(f"{v} {k} of {table.n_rows}"
                           for v, k in nonfinite.items())
        print(f"warning: non-finite prior draws (overflow or invalid "
              f"arithmetic) in {counts} CSV cells, written as inf, -inf or "
              "empty cells", file=sys.stderr)
    t0 = time.perf_counter()
    write_csv(table, args.out, float_repr=True)
    phases["write"] = time.perf_counter() - t0
    _write_manifest(args.out, "simulate", model=args.model, data=args.data,
                    seed=args.seed,
                    config={"draws": args.draws},
                    phases=phases, nonfinite_cells=nonfinite)
    print(f"wrote {args.out} ({args.draws} prior draws)")
    return 0


def _sampler_config(args) -> SamplerConfig:
    return SamplerConfig(n_warmup=args.warmup, n_samples=args.samples,
                         n_chains=args.chains, seed=args.seed,
                         target_accept=args.target_accept,
                         max_tree_depth=args.max_depth)


def cmd_sample(args) -> int:
    if not args.data:
        print("sample: no data files given; posterior sampling needs "
              "observations (to draw from the prior use `ldm simulate`)",
              file=sys.stderr)
        return 1
    ast = _parse_checked(args.model)
    if ast is None:
        return 1
    tables = _load_tables(args.data, ast)
    obs = args.obs.split(",") if args.obs else _default_obs(ast, tables)
    if not obs:
        print("sample: no observed variables (pass --obs or name data "
              "columns after model variables)", file=sys.stderr)
        return 1
    mode = UNROLLED if args.no_optimize else FUSED
    t0 = time.perf_counter()
    phases = {}
    plan = compile_model(ast, tables=tables, obs=obs, mode=mode,
                         phases=phases)
    phases["compile"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    plan.compile_gradient()
    phases["compile_gradient"] = time.perf_counter() - t0
    cfg = _sampler_config(args)
    ds = sampler.run(plan, cfg)
    phases["sample"] = ds.sampling_time
    t0 = time.perf_counter()
    ds.to_csv(args.out)
    phases["write"] = time.perf_counter() - t0
    _write_manifest(args.out, "sample", model=args.model, data=args.data,
                    obs=obs, mode=mode, seed=args.seed,
                    config={"n_warmup": cfg.n_warmup,
                            "n_samples": cfg.n_samples,
                            "n_chains": cfg.n_chains,
                            "target_accept": cfg.target_accept,
                            "max_tree_depth": cfg.max_tree_depth},
                    phases=phases,
                    workers=ds.workers, gradients=ds.gradients,
                    peak_rss_mb=_peak_rss_mb())
    n_div = int(ds.stats["divergent"].sum())
    print(f"wrote {args.out} ({cfg.n_chains} chains x {cfg.n_samples} draws, "
          f"{plan.latent_dim} sites, {n_div} divergent)")
    return 0


def cmd_summary(args) -> int:
    ds = DrawSet.from_csv(args.draws)
    rows = analysis.summarize(ds)
    print(analysis.format_summary(rows))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump([r.to_dict() for r in rows], fh, indent=2)
            fh.write("\n")
        _write_manifest(args.out, "summary", data=[args.draws])
    return 0


def cmd_ic(args) -> int:
    ast = _parse_checked(args.model)
    if ast is None:
        return 1
    tables = _load_tables(args.data, ast)
    obs = args.obs.split(",") if args.obs else _default_obs(ast, tables)
    mode = UNROLLED if args.no_optimize else FUSED
    plan = compile_model(ast, tables=tables, obs=obs, mode=mode)
    ds = DrawSet.from_csv(args.draws)
    if ds.site_names != list(plan.site_names):
        print("ic: draws file does not match the model's site layout",
              file=sys.stderr)
        return 1
    ms = analysis.score(plan, ds)
    text = json.dumps(ms.to_dict(), indent=2)
    print(text)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        _write_manifest(args.out, "ic", model=args.model, data=args.data,
                        obs=obs, mode=mode)
    return 0


def cmd_bench(args) -> int:
    ast = _parse_checked(args.model)
    if ast is None:
        return 1
    tables = _load_tables(args.data, ast)
    if len(tables) != 1:
        print("bench: exactly one data file required", file=sys.stderr)
        return 1
    base = tables[0]
    obs = args.obs or (_default_obs(ast, tables) or [None])[0]
    if obs is None:
        print("bench: no observed variable found", file=sys.stderr)
        return 1
    graph = build_graph(ast)
    time_axis = graph.var_axes[obs][-1]
    if time_axis is None:
        print(f"bench: {obs} has no index to scale over", file=sys.stderr)
        return 1
    decl = {d.name: d for d in ast.indices}[time_axis]
    t_col = base.index_names.index(time_axis)
    sizes = [int(s) for s in args.sizes.split(",")]
    rates = [float(r) for r in args.rates.split(",")]
    source = _read_text(args.model)

    rows = []
    for size in sizes:
        keep = base.index_rows[:, t_col] < decl.lo + size
        idx_rows = base.index_rows[keep]
        for rate in rates:
            cols = {name: col[keep].copy()
                    for name, col in base.columns.items()}
            rng = _rng(args.seed, size, int(rate * 100))
            mask = rng.random(idx_rows.shape[0]) < rate / 100.0
            cols[obs][mask] = np.nan
            sub = DataTable(index_names=base.index_names,
                            index_rows=idx_rows, columns=cols)
            sub_ast = parse_program(source)
            for d in sub_ast.indices:
                if d.name == time_axis:
                    d.hi = decl.lo + size - 1
            for mode in (FUSED, UNROLLED):
                t0 = time.perf_counter()
                plan = compile_model(sub_ast, tables=[sub], obs=[obs],
                                     mode=mode)
                ds = sampler.run(plan, _sampler_config(args))
                dt = time.perf_counter() - t0
                rows.append((size, rate, mode, plan.latent_dim, dt))
                print(f"T={size:4d} rate={rate:4.1f}% {mode:8s} "
                      f"dim={plan.latent_dim:4d} {dt:8.2f}s")

    with open(args.out, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["size", "miss_rate_pct", "mode", "latent_dim", "seconds"])
        w.writerows(rows)
    _write_manifest(args.out, "bench", model=args.model, data=args.data,
                    obs=[obs], seed=args.seed,
                    config={"sizes": sizes, "rates": rates,
                            "n_warmup": args.warmup,
                            "n_samples": args.samples,
                            "n_chains": args.chains})
    print(f"wrote {args.out} ({len(rows)} rows)")
    return 0


# --- argument wiring ---------------------------------------------------------------


def _add_data_arg(p):
    p.add_argument("--data", action="append", default=[],
                   metavar="CSV", help="data table (repeatable)")


def _add_sampler_args(p):
    p.add_argument("--warmup", type=int, default=500)
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--chains", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--target-accept", type=float, default=0.8)
    p.add_argument("--max-depth", type=int, default=10)
    p.add_argument("--no-optimize", action="store_true",
                   help="use the per-instance unrolled plan")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ldm",
        description="probabilistic modeling of longitudinal data: compile, "
                    "simulate, sample, diagnose")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="parse and validate a model")
    p.add_argument("model")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("graph", help="emit the dependency graph as DOT")
    p.add_argument("model")
    _add_data_arg(p)
    p.add_argument("-o", "--out", default=None)
    p.set_defaults(func=cmd_graph)

    p = sub.add_parser("simulate", help="draw from the prior")
    p.add_argument("model")
    _add_data_arg(p)
    p.add_argument("--draws", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--out", default="simulated.csv")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sample", help="posterior sampling")
    p.add_argument("model")
    _add_data_arg(p)
    p.add_argument("--obs", default=None,
                   help="comma-separated observed variables")
    _add_sampler_args(p)
    p.add_argument("-o", "--out", default="draws.csv")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("summary", help="diagnostic table from a draws file")
    p.add_argument("draws")
    p.add_argument("-o", "--out", default=None, help="also write JSON")
    p.set_defaults(func=cmd_summary)

    p = sub.add_parser("ic", help="information criteria for a finished run")
    p.add_argument("model")
    _add_data_arg(p)
    p.add_argument("--obs", default=None)
    p.add_argument("--draws", required=True)
    p.add_argument("--no-optimize", action="store_true")
    p.add_argument("-o", "--out", default=None)
    p.set_defaults(func=cmd_ic)

    p = sub.add_parser("bench",
                       help="time fused vs unrolled across sizes and "
                            "missingness rates")
    p.add_argument("model")
    _add_data_arg(p)
    p.add_argument("--obs", default=None)
    p.add_argument("--sizes", default="20,100,200,300")
    p.add_argument("--rates", default="0,5,10,20")
    _add_sampler_args(p)
    p.add_argument("-o", "--out", default="bench.csv")
    p.set_defaults(func=cmd_bench)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except LdmError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
