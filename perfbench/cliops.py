"""Run `ldm` subcommands in this process, through `ldmlang.cli.main`.

The benchmark times the CLI's own code path. To check the outputs and to
count gradients it wraps, for the whole run, the attributes through which
the CLI reaches the library, and keeps what the latest call computed: the
plan, the sampler stats, the draws `ldm summary` read back, the simulated
table.
"""

from __future__ import annotations

import contextlib
import io
import time
from dataclasses import dataclass, field

import ldmlang.analysis
import ldmlang.cli
import ldmlang.plan
import ldmlang.sampler

from spans import Patches

# (object, attribute, span name) of every traced call. The first group is
# what `ldm sample` / `summary` / `simulate` call through ldmlang.cli and
# ldmlang.sampler; the second what `compile_model` calls through
# ldmlang.plan.
TRACED = (
    (ldmlang.cli, "parse_program", "frontend.parse_program"),
    (ldmlang.cli, "validate", "frontend.validate"),
    (ldmlang.cli, "read_table", "datatable.read_table"),
    (ldmlang.cli, "compile_model", "plan.compile_model"),
    (ldmlang.sampler, "run", "sampler.run"),
    (ldmlang.sampler.DrawSet, "to_csv", "sampler.to_csv"),
    (ldmlang.sampler.DrawSet, "from_csv", "sampler.from_csv"),
    (ldmlang.analysis, "summarize", "analysis.summarize"),
    (ldmlang.cli, "prior_simulate", "plan.prior_simulate"),
    (ldmlang.cli, "write_csv", "datatable.write_csv"),
    (ldmlang.plan, "validate", "frontend.validate"),
    (ldmlang.plan, "build_graph", "graph.build_graph"),
    (ldmlang.plan, "resolve_indices", "graph.resolve_indices"),
    (ldmlang.plan, "assign_domains", "graph.assign_domains"),
    (ldmlang.plan, "bind", "plan.bind"),
    (ldmlang.plan, "lower", "plan.lower"),
)


class CliError(RuntimeError):
    pass


@dataclass
class CallResult:
    """One workload call: `ldm sample` then `ldm summary`, or `ldm
    simulate`."""
    wall_s: float = 0.0
    core_s: float = 0.0            # time in sampler.run or prior_simulate
    stats: dict = None             # sampler stats of the kept draws
    plan: object = None
    compile_kwargs: dict = field(default_factory=dict)
    draws: object = None           # DrawSet read back by `ldm summary`
    table: object = None           # returned by prior_simulate

    def light(self) -> "CallResult":
        """Timings and sampler stats only, so old calls hold no plan."""
        return CallResult(self.wall_s, self.core_s, self.stats)


class Cli:
    """Installs the capturing wrappers on construction; `close` removes
    them."""

    def __init__(self):
        self.tracer = None
        self._res = None
        self._patches = Patches()
        self._capture(ldmlang.cli, "compile_model", self._on_plan)
        self._capture(ldmlang.sampler, "run", self._on_drawset)
        self._capture(ldmlang.sampler.DrawSet, "from_csv", self._on_draws)
        self._capture(ldmlang.cli, "prior_simulate", self._on_table)

    def _capture(self, obj, attr, keep) -> None:
        def make(original):
            def captured(*args, **kwargs):
                t0 = time.perf_counter()
                out = original(*args, **kwargs)
                keep(out, time.perf_counter() - t0, kwargs)
                return out
            return captured
        self._patches.wrap(obj, attr, make)

    def _on_plan(self, plan, dt, kwargs):
        self._res.plan, self._res.compile_kwargs = plan, kwargs
        if self.tracer is not None:
            self.tracer.count_grads(plan)

    def _on_drawset(self, ds, dt, kwargs):
        self._res.stats, self._res.core_s = ds.stats, dt

    def _on_draws(self, ds, dt, kwargs):
        self._res.draws = ds

    def _on_table(self, table, dt, kwargs):
        self._res.table, self._res.core_s = table, dt

    def call(self, w, out: str, tracer=None) -> CallResult:
        """Run the workload call `w`, writing its output to `out`. With a
        tracer, spans go around the subcommands and every TRACED call."""
        self._res, self.tracer = CallResult(), tracer
        commands = [w.cli_args(out)]
        if not w.simulate:
            commands.append(["summary", out])
        if tracer is not None:
            for obj, attr, name in TRACED:
                tracer.patch(obj, attr, name)
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                for argv in commands:
                    span = (tracer.span(f"cli.{argv[0]}") if tracer
                            else contextlib.nullcontext())
                    with span:
                        rc = ldmlang.cli.main(argv)
                    if rc != 0:
                        raise CliError(f"ldm {argv[0]} exited with {rc}")
            self._res.wall_s = time.perf_counter() - t0
        finally:
            if tracer is not None:
                tracer.restore()
            self.tracer = None
        return self._res

    def close(self) -> None:
        self._patches.restore()
