"""Per-layer metrics of the traced run, from spans and counters.

Every metric is reported for every workload; a layer the workload does not
exercise reads 0 (no sampler and no ess_per_s on `simulate_dbn_panel`, no
simulation on the sampling workloads).
"""

from __future__ import annotations

import numpy as np

from microbench import scalar_sites

PER_LAYER = {
    "ldmlang.import_ms": "ms",
    "frontend.parse_ms": "ms",
    "frontend.validate_ms": "ms",
    "graph.build_ms": "ms",
    "graph.domains_ms": "ms",
    "plan.bind_ms": "ms",
    "plan.lower_ms": "ms",
    "datatable.read_ms": "ms",
    "autodiff.grad_us": "us",
    "autodiff.value_us": "us",
    "autodiff.tape_entries": "count",
    "autodiff.grad_us_unrolled": "us",
    "plan.scalar_sites": "count",
    "plan.latent_dim": "count",
    "sampler.run_s": "s",
    "sampler.grad_share": "frac",
    "sampler.overhead_us_per_grad": "us",
    "sampler.grads_warmup": "count",
    "sampler.grads_sampling": "count",
    "sampler.leapfrogs_per_draw": "count",
    "sampler.divergent_frac": "frac",
    "sampler.to_csv_ms": "ms",
    "sampler.from_csv_ms": "ms",
    "analysis.summarize_ms": "ms",
    "plan.simulate_s": "s",
    "datatable.write_s": "s",
    "ess_per_s": "1/s",
    "trace.overhead_frac": "frac",
}

# metric <- (span names whose self time it sums, scale to the metric's unit)
SPAN_METRICS = {
    "frontend.parse_ms": (("frontend.parse_program",), 1e3),
    "frontend.validate_ms": (("frontend.validate",), 1e3),
    "graph.build_ms": (("graph.build_graph",), 1e3),
    "graph.domains_ms": (("graph.resolve_indices", "graph.assign_domains"), 1e3),
    "plan.bind_ms": (("plan.bind",), 1e3),
    "plan.lower_ms": (("plan.lower",), 1e3),
    "datatable.read_ms": (("datatable.read_table",), 1e3),
    "sampler.to_csv_ms": (("sampler.to_csv",), 1e3),
    "sampler.from_csv_ms": (("sampler.from_csv",), 1e3),
    "analysis.summarize_ms": (("analysis.summarize",), 1e3),
    "plan.simulate_s": (("plan.prior_simulate",), 1.0),
    "datatable.write_s": (("datatable.write_csv",), 1.0),
}


def _op_metrics(res, spans) -> tuple[dict, dict, tuple]:
    """Metrics of one traced `ldm` call, its self time per module, and its
    gradient self-check (counted calls, sum of n_leapfrog)."""
    m = {}
    for metric, (names, scale) in SPAN_METRICS.items():
        m[metric] = scale * sum(s.self_s for s in spans if s.name in names)
    modules = {}
    for s in spans:
        module = s.name.split(".")[0]
        modules[module] = modules.get(module, 0.0) + s.self_s
        if s.grad_calls:
            modules["autodiff"] = modules.get("autodiff", 0.0) + s.grad_s
    runs = [s for s in spans if s.name == "sampler.run"]
    if not runs:
        return m, modules, None
    run_s = sum(s.duration for s in runs)
    grad_s = sum(s.grad_s for s in runs)
    calls = sum(s.grad_calls for s in runs)
    kept = res.stats["n_leapfrog"]
    m["sampler.run_s"] = run_s
    m["sampler.grad_share"] = grad_s / run_s
    m["sampler.overhead_us_per_grad"] = 1e6 * (run_s - grad_s) / max(calls, 1)
    m["sampler.grads_sampling"] = float(kept.sum())
    m["sampler.grads_warmup"] = float(calls - kept.sum())
    m["sampler.leapfrogs_per_draw"] = float(kept.mean())
    m["sampler.divergent_frac"] = float(res.stats["divergent"].mean())
    return m, modules, (calls, int(kept.sum()))


def per_layer(traced_ops, tracer, plan, costs, imports, ess_per_s,
              overhead):
    """Medians over the traced operations; returns (metrics, module self
    times, gradient-count checks)."""
    per_call, per_module, grad_checks = [], [], []
    for op in traced_ops:
        m, modules, counted = _op_metrics(op.res, tracer.of_run(op.run))
        per_call.append(m)
        per_module.append(modules)
        if counted is not None:
            calls, leapfrogs = counted
            grad_checks.append((
                "traced_gradients_cover_leapfrogs", calls >= leapfrogs,
                f"{calls} gradient calls counted, {leapfrogs} leapfrogs "
                "in kept draws"))
    metrics = {k: 0.0 for k in PER_LAYER}
    for k in per_call[0]:
        metrics[k] = float(np.median([m[k] for m in per_call]))
    metrics["ldmlang.import_ms"] = 1e3 * float(np.median(imports))
    for k in ("autodiff.grad_us", "autodiff.value_us",
              "autodiff.grad_us_unrolled", "autodiff.tape_entries"):
        metrics[k] = float(costs[k])
    metrics["plan.latent_dim"] = float(plan.latent_dim)
    metrics["plan.scalar_sites"] = float(scalar_sites(plan))
    metrics["ess_per_s"] = ess_per_s
    metrics["trace.overhead_frac"] = overhead
    modules = sorted({k for d in per_module for k in d})
    self_times = {k: float(np.median([d.get(k, 0.0) for d in per_module]))
                  for k in modules}
    return ({k: (v, PER_LAYER[k]) for k, v in metrics.items()}, self_times,
            grad_checks)


def print_table(metrics, self_times) -> None:
    for name, (value, unit) in metrics.items():
        print(f"  {name:<30} {value:>14.6g} {unit}")
    total = sum(self_times.values())
    print("  self time per layer (median traced ldm call):")
    for module, s in sorted(self_times.items(), key=lambda kv: -kv[1]):
        print(f"    {module:<12} {s:10.4f} s  {100 * s / total:5.1f}%")
