"""In-memory spans for the traced run, and attribute patching.

A span records name, start, end, parent and run id. The benchmark opens one
around each `ldm` subcommand, and installs wrappers on the module and class
attributes through which the CLI and the compiler reach each layer
(`ldmlang.cli` calls `compile_model`, `sampler.run`, ... through its module
globals, `compile_model` calls `validate`, `build_graph`, ... through
`ldmlang.plan`'s). Gradient calls are too many for one span each: a wrapper
on the plan instance counts them and adds their time to the innermost open
span.
"""

from __future__ import annotations

import contextlib
import json
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    run: object = 0              # id of the ldm call the span belongs to
    grad_calls: int = 0
    grad_s: float = 0.0          # time inside counted gradient calls
    children_s: float = 0.0      # time covered by child spans

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.children_s - self.grad_s


class Patches:
    """Replaces attributes of modules and classes until `restore`."""

    def __init__(self):
        self._saved = []

    def wrap(self, obj, attr: str, make) -> None:
        """Set `obj.attr` to `make(current)`. A classmethod stays callable
        through the class."""
        raw = vars(obj)[attr]
        wrapper = make(getattr(obj, attr))
        if isinstance(raw, (classmethod, staticmethod)):
            wrapper = staticmethod(wrapper)
        setattr(obj, attr, wrapper)
        self._saved.append((obj, attr, raw))

    def restore(self) -> None:
        for obj, attr, raw in reversed(self._saved):
            setattr(obj, attr, raw)
        self._saved.clear()


@dataclass
class Tracer:
    spans: list = field(default_factory=list)
    run: object = 0
    _stack: list = field(default_factory=list)
    _patches: Patches = field(default_factory=Patches)
    _counted: list = field(default_factory=list)

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        sp = Span(name, time.perf_counter(), parent=parent, run=self.run)
        self.spans.append(sp)
        self._stack.append(len(self.spans) - 1)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()
            if parent is not None:
                self.spans[parent].children_s += sp.duration

    def count_grads(self, plan) -> None:
        """Shadow `plan.logdensity_and_grad` with a counting wrapper until
        `restore`; the sampler reads the attribute from the instance."""
        inner = plan.logdensity_and_grad

        def counted(u):
            t0 = time.perf_counter()
            out = inner(u)
            dt = time.perf_counter() - t0
            if self._stack:
                sp = self.spans[self._stack[-1]]
                sp.grad_calls += 1
                sp.grad_s += dt
            return out

        plan.logdensity_and_grad = counted
        self._counted.append(plan)

    def patch(self, obj, attr: str, name: str) -> None:
        """Wrap `obj.attr` in a span named `name` until `restore`."""
        def make(original):
            def traced(*args, **kwargs):
                with self.span(name):
                    return original(*args, **kwargs)
            return traced
        self._patches.wrap(obj, attr, make)

    def restore(self) -> None:
        self._patches.restore()
        for plan in self._counted:
            del plan.logdensity_and_grad      # the class's method again
        self._counted.clear()

    def of_run(self, run) -> list:
        return [s for s in self.spans if s.run == run]

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s.name, "start": s.start, "end": s.end,
                    "parent": s.parent, "run": s.run,
                    "grad_calls": s.grad_calls, "grad_s": s.grad_s}) + "\n")
