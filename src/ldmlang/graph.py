"""Symbolic model graph: one node per statement, never unrolled.

Responsibilities:
  * resolve index ranges from headers and/or data tables (exact agreement
    required when both exist),
  * unify each variable's axis names across its occurrences,
  * record dependency edges with per-axis lag information,
  * lay each variable out on one flat, row-major grid (`VarLayout`, shared
    with binding and lowering),
  * compute governed domains with shadowing (explicit statements beat generic
    ones at their concrete tuples) and lag restriction (a statement reading
    x[t-d] starts at lo+d), as one mask per statement over the grid; a
    node's domain is an int64 (cells, axes) array of index tuples,
  * produce a deterministic topological statement order.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    CycleDetectedError, MissingIndexRangeError, OverlappingDefinitionsError,
    RangeConflictError, UndefinedReferenceError,
)
from .frontend.nodes import (
    ArrayLookup, AssignStmt, IndexVar, IntLiteral, Lag, ProgramAst, Ref, Stmt,
    stmt_exprs, walk_exprs,
)
from .frontend.render import render_var_ref


def instance_name(var: str, key: tuple[int, ...]) -> str:
    """Canonical site name for one concrete instance, e.g. C[3,17]."""
    if not key:
        return var
    return f"{var}[{','.join(str(k) for k in key)}]"


@dataclass(slots=True)
class DepEdge:
    """One reference from a statement to a model variable."""
    target: str
    terms: tuple                      # raw index terms of the reference
    lag_by_axis: dict[str, int]       # axis name -> lag (0 = same slice)
    has_lookup: bool

    @property
    def max_lag(self) -> int:
        return max(self.lag_by_axis.values(), default=0)


@dataclass(slots=True)
class GraphNode:
    stmt: Stmt
    order: int                         # statement position in source
    variable: str
    kind: str                          # "stochastic" | "deterministic"
    selector: tuple                    # per axis ("sym", name) | ("fixed", int)
    deps: list[DepEdge] = field(default_factory=list)
    lag_by_axis: dict[str, int] = field(default_factory=dict)
    domain: np.ndarray | None = None   # (cells, axes) int64 keys, flat order

    @property
    def n_symbolic(self) -> int:
        return sum(1 for kind, _ in self.selector if kind == "sym")

    @property
    def is_indexed(self) -> bool:
        return bool(self.selector)

    def describe(self) -> str:
        return render_var_ref(self.stmt.lhs)


@dataclass(slots=True)
class ModelGraph:
    ast: ProgramAst
    nodes: list[GraphNode]
    by_var: dict[str, list[GraphNode]]
    var_axes: dict[str, tuple[str | None, ...]]
    inputs: tuple[str, ...]
    layouts: dict = field(default_factory=dict)    # var -> VarLayout

    def variables(self) -> tuple[str, ...]:
        return tuple(self.by_var.keys())

    def time_axis(self, var: str) -> str | None:
        """The last declared index of a variable is its time axis."""
        axes = self.var_axes[var]
        return axes[-1] if axes else None


# --- index resolution ----------------------------------------------------------


def resolve_indices(ast: ProgramAst, tables=()) -> dict[str, tuple[int, int]]:
    """Inclusive (lo, hi) per index, from headers and/or table index columns.

    Data-derived and header ranges must agree exactly when both exist;
    disagreement is a RangeConflictError, absence of both a
    MissingIndexRangeError.
    """
    declared = {d.name: (d.lo, d.hi) for d in ast.indices}
    used: set[str] = set(declared)
    for stmt in ast.statements:
        for ref in _all_refs(stmt):
            for term in ref.indices:
                for t in _flat_terms(term):
                    if isinstance(t, (IndexVar, Lag)):
                        used.add(t.name)

    out: dict[str, tuple[int, int]] = {}
    for name in sorted(used):
        data_range = None
        for table in tables:
            if name in table.index_names:
                col = table.column(name).astype(int)
                lo, hi = int(col.min()), int(col.max())
                if data_range is None:
                    data_range = (lo, hi)
                else:
                    data_range = (min(data_range[0], lo), max(data_range[1], hi))
        if name in declared and data_range is not None:
            if declared[name] != data_range:
                raise RangeConflictError(
                    f"index {name!r} declared as {declared[name][0]}..{declared[name][1]} "
                    f"but the data covers {data_range[0]}..{data_range[1]}")
            out[name] = declared[name]
        elif name in declared:
            out[name] = declared[name]
        elif data_range is not None:
            out[name] = data_range
        else:
            raise MissingIndexRangeError(
                f"index {name!r} has no declared range and no data column")
    return out


def _flat_terms(term):
    yield term
    if isinstance(term, ArrayLookup):
        yield from _flat_terms(term.inner)


def _all_refs(stmt: Stmt):
    yield stmt.lhs
    for expr in stmt_exprs(stmt):
        for sub in walk_exprs(expr):
            if isinstance(sub, Ref):
                yield sub.ref


# --- graph construction ----------------------------------------------------------


def build_graph(ast: ProgramAst) -> ModelGraph:
    """Symbolic graph over statements; raises on undefined or mismatched refs."""
    inputs = set(ast.inputs)
    variables = {s.lhs.name for s in ast.statements}

    # unify axis names per variable position across every occurrence
    var_axes: dict[str, list[str | None]] = {}
    for stmt in ast.statements:
        for ref in _all_refs(stmt):
            if ref.name not in variables:
                continue
            axes = var_axes.setdefault(ref.name, [None] * len(ref.indices))
            if len(axes) != len(ref.indices):
                raise UndefinedReferenceError(
                    f"{ref.name!r} used with {len(ref.indices)} index term(s) "
                    f"but previously {len(axes)}")
            for p, term in enumerate(ref.indices):
                name = term.name if isinstance(term, (IndexVar, Lag)) else None
                if name is None:
                    continue
                if axes[p] is None:
                    axes[p] = name
                elif axes[p] != name:
                    raise UndefinedReferenceError(
                        f"{ref.name!r} is indexed by {axes[p]!r} at position {p} "
                        f"but referenced with {name!r}")

    nodes: list[GraphNode] = []
    by_var: dict[str, list[GraphNode]] = {v: [] for v in var_axes}
    for order, stmt in enumerate(ast.statements):
        lhs = stmt.lhs
        selector = []
        for term in lhs.indices:
            if isinstance(term, IndexVar):
                selector.append(("sym", term.name))
            elif isinstance(term, IntLiteral):
                selector.append(("fixed", term.value))
            else:
                raise UndefinedReferenceError(
                    f"invalid left-hand index term on {lhs.name!r}")
        node = GraphNode(
            stmt=stmt, order=order, variable=lhs.name,
            kind="deterministic" if isinstance(stmt, AssignStmt) else "stochastic",
            selector=tuple(selector))
        _collect_deps(node, stmt, variables, inputs, var_axes)
        nodes.append(node)
        by_var[lhs.name].append(node)

    return ModelGraph(ast=ast, nodes=nodes, by_var=by_var,
                      var_axes={v: tuple(a) for v, a in var_axes.items()},
                      inputs=tuple(ast.inputs))


def _collect_deps(node: GraphNode, stmt: Stmt, variables, inputs, var_axes) -> None:
    for expr in stmt_exprs(stmt):
        for sub in walk_exprs(expr):
            if not isinstance(sub, Ref):
                continue
            ref = sub.ref
            if ref.name in inputs:
                continue
            if ref.name not in variables:
                raise UndefinedReferenceError(
                    f"{ref.name!r} is not defined by any statement or input")
            lag_by_axis: dict[str, int] = {}
            has_lookup = False
            for term in ref.indices:
                if isinstance(term, IndexVar):
                    lag_by_axis[term.name] = max(lag_by_axis.get(term.name, 0), 0)
                elif isinstance(term, Lag):
                    lag_by_axis[term.name] = max(lag_by_axis.get(term.name, 0), term.offset)
                elif isinstance(term, ArrayLookup):
                    has_lookup = True
            edge = DepEdge(target=ref.name, terms=ref.indices,
                           lag_by_axis=lag_by_axis, has_lookup=has_lookup)
            node.deps.append(edge)
            for axis, lag in lag_by_axis.items():
                if lag > node.lag_by_axis.get(axis, 0):
                    node.lag_by_axis[axis] = lag


# --- variable grids and domains ---------------------------------------------------


@dataclass(slots=True)
class VarLayout:
    """The flat grid of a variable or an input: one position per index
    tuple, row major, so flat order is the keys' lexicographic order. An
    axis named None (only ever written with literals) takes the literals
    the variable's statements use."""
    var: str
    axes: tuple
    axis_values: tuple          # per axis: int64 array of its values, ascending
    strides: tuple
    size: int
    ord_maps: tuple             # per axis: value -> ordinal

    @classmethod
    def build(cls, var, axes, graph: ModelGraph, ranges) -> "VarLayout":
        values = []
        for p, axis in enumerate(axes):
            if axis is None:
                values.append(np.array(sorted({
                    node.selector[p][1] for node in graph.by_var[var]
                    if node.selector[p][0] == "fixed"}), dtype=np.int64))
            elif axis in ranges:
                values.append(np.arange(ranges[axis][0], ranges[axis][1] + 1))
            else:
                raise MissingIndexRangeError(f"index {axis!r} has no resolved range")
        sizes = [len(v) for v in values]
        return cls(var=var, axes=tuple(axes), axis_values=tuple(values),
                   strides=tuple(math.prod(sizes[p + 1:])
                                 for p in range(len(sizes))),
                   size=math.prod(sizes),
                   ord_maps=tuple({v: i for i, v in enumerate(vals.tolist())}
                                  for vals in values))

    def keys(self, pos) -> np.ndarray:
        """The index tuples at flat positions `pos`, one int64 row each."""
        pos = np.asarray(pos, dtype=np.int64)
        out = np.empty((len(pos), len(self.axes)), dtype=np.int64)
        for p, (vals, stride) in enumerate(zip(self.axis_values, self.strides)):
            out[:, p] = vals[pos // stride % len(vals)]
        return out


def assign_domains(graph: ModelGraph, ranges: dict[str, tuple[int, int]]) -> None:
    """Fill graph.layouts, and each node.domain so that every cell is
    governed exactly once.

    Each statement claims one mask over its variable's grid: a fixed
    selector matches its value, a symbolic one the values from lo + lag
    up. Explicit statements (more fixed selectors) shadow generic ones;
    equal-specificity overlap is an error, as is an uncovered cell. A
    domain is the int64 (cells, axes) array of the governed keys in flat
    order; a fully shadowed statement gets no rows.
    """
    for var, nodes in graph.by_var.items():
        layout = VarLayout.build(var, graph.var_axes[var], graph, ranges)
        graph.layouts[var] = layout
        masks = []
        for node in nodes:
            first = [val if kind == "fixed"
                     else ranges[val][0] + node.lag_by_axis.get(val, 0)
                     for kind, val in node.selector]
            # a node that claims any key claims its first; off the grid
            # that one is, if any is
            if all(k <= ranges[val][1] for (kind, val), k
                   in zip(node.selector, first) if kind == "sym") and any(
                       k not in om for k, om in zip(first, layout.ord_maps)):
                raise UndefinedReferenceError(
                    f"{instance_name(var, tuple(first))} lies outside the "
                    "declared range")
            mask = np.ones((), dtype=bool)
            for (kind, _), k, vals in zip(node.selector, first,
                                          layout.axis_values):
                mask = np.logical_and.outer(
                    mask, vals == k if kind == "fixed" else vals >= k)
            masks.append(mask.ravel())
        # (nodes, cells): each node's claims at the best claiming specificity
        specificity = np.array([[len(n.selector) - n.n_symbolic] for n in nodes])
        level = np.where(masks, specificity, -1)
        wins = np.logical_and(masks, level == level.max(axis=0))
        bad = np.flatnonzero(wins.sum(axis=0) != 1)
        if bad.size:
            i = int(bad[0])
            name = instance_name(var, tuple(layout.keys([i])[0].tolist()))
            names = [n.describe() for n, w in zip(nodes, wins[:, i]) if w]
            if not names:
                raise UndefinedReferenceError(
                    f"{name} is not governed by any statement"
                    " (missing base case?)")
            raise OverlappingDefinitionsError(
                f"{name} is governed by both {' and '.join(names)}")
        winner = wins.argmax(axis=0)
        for j, node in enumerate(nodes):
            node.domain = layout.keys(np.flatnonzero(winner == j))


# --- topological order -------------------------------------------------------------


def topo_order(graph: ModelGraph) -> list[GraphNode]:
    """Deterministic Kahn order over statements.

    Parameters come before indexed blocks; within a slice, lag-0 dependencies
    are hard edges; lagged dependencies only order base-case statements (fixed
    time axis) ahead of the statements that read them. Ties break on
    (indexed?, variable name, specificity, source order).
    """
    n = len(graph.nodes)
    succ: list[set[int]] = [set() for _ in range(n)]
    indeg = [0] * n
    pos = {id(node): i for i, node in enumerate(graph.nodes)}

    for i, node in enumerate(graph.nodes):
        for edge in node.deps:
            for t in graph.by_var.get(edge.target, ()):
                j = pos[id(t)]
                if j == i:
                    if edge.max_lag == 0 and not edge.has_lookup:
                        raise CycleDetectedError(
                            f"{node.describe()} depends on itself within a slice",
                            cycle=(node.variable,))
                    continue
                if edge.max_lag == 0:
                    dep = True
                else:
                    # lagged read: only base cases must already exist
                    dep = t.n_symbolic < len(t.selector)
                if dep and i not in succ[j]:
                    succ[j].add(i)
                    indeg[i] += 1

    def key(i: int):
        node = graph.nodes[i]
        sel_key = tuple(
            (0, val) if kind == "fixed" else (1, val) for kind, val in node.selector)
        return (node.is_indexed, node.variable, node.n_symbolic, sel_key, node.order)

    heap = [key(i) + (i,) for i in range(n) if indeg[i] == 0]
    heapq.heapify(heap)
    out: list[GraphNode] = []
    while heap:
        i = heapq.heappop(heap)[-1]
        out.append(graph.nodes[i])
        for j in sorted(succ[i]):
            indeg[j] -= 1
            if indeg[j] == 0:
                heapq.heappush(heap, key(j) + (j,))
    if len(out) != n:
        stuck = sorted({graph.nodes[i].variable for i in range(n)
                        if graph.nodes[i] not in out})
        raise CycleDetectedError(
            "cyclic dependencies among " + ", ".join(stuck), cycle=tuple(stuck))
    return out


# --- DOT output --------------------------------------------------------------------


def to_dot(graph: ModelGraph) -> str:
    """Two-slice documentation view for temporal models, plain DAG otherwise."""
    temporal = [v for v in graph.var_axes if graph.time_axis(v) is not None]
    lines = ["digraph model {", "  rankdir=LR;", "  node [shape=ellipse];"]
    if temporal:
        lagged_edges = []
        cur_edges = []
        show_prev = set()
        for v in temporal:
            for node in graph.by_var[v]:
                for edge in node.deps:
                    if edge.target not in graph.var_axes or not graph.var_axes[edge.target]:
                        continue
                    lag = edge.max_lag
                    if lag >= 1:
                        show_prev.add(edge.target)
                        label = f' [label="-{lag}"]' if lag > 1 else ""
                        lagged_edges.append(f"  {edge.target}_prev -> {v}_cur{label};")
                    else:
                        cur_edges.append(f"  {edge.target}_cur -> {v}_cur;")
        lines.append('  subgraph cluster_prev { label="slice t-1"; style=dashed;')
        for v in sorted(show_prev):
            lines.append(f'    {v}_prev [label="{v}[t-1]"];')
        lines.append("  }")
        lines.append('  subgraph cluster_cur { label="slice t";')
        for v in sorted(temporal):
            lines.append(f'    {v}_cur [label="{v}[t]"];')
        lines.append("  }")
        lines.extend(sorted(set(lagged_edges)))
        lines.extend(sorted(set(cur_edges)))
    else:
        for v in graph.var_axes:
            lines.append(f"  {v};")
        for node in graph.nodes:
            for edge in node.deps:
                lines.append(f"  {edge.target} -> {node.variable};")
    lines.append("}")
    return "\n".join(lines) + "\n"
