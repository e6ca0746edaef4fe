"""An append-only record of evaluations, one entry per recorded value.

No reverse sweep runs here: both plan modes differentiate through their
generated code (see codegen). Given a `Node`, `ExecutablePlan.eval_logdensity`
records the whole log density as one elementwise entry whose partial is the
generated gradient, so a tape counts the entries one evaluation makes.
"""

from __future__ import annotations


class Node:
    """Handle to one tape entry and its value."""

    __slots__ = ("tape", "idx", "value")

    def __init__(self, tape: "Tape", idx: int, value):
        self.tape = tape
        self.idx = idx
        self.value = value


class Tape:
    """Entries: ("input",) or ("ew", parent ids, partials); node ids index
    into `entries`, and a parent that is not a Node has id -1."""

    def __init__(self):
        self.entries: list[tuple] = []

    def _new(self, entry, value) -> Node:
        self.entries.append(entry)
        return Node(self, len(self.entries) - 1, value)

    def input(self, value) -> Node:
        return self._new(("input",), value)

    def elementwise(self, value, parents, partials) -> Node:
        ids = tuple(p.idx if isinstance(p, Node) else -1 for p in parents)
        return self._new(("ew", ids, tuple(partials)), value)
