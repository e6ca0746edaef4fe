"""Symbolic model graph: one node per statement, never unrolled.

Responsibilities:
  * resolve index ranges from headers and/or data tables (exact agreement
    required when both exist),
  * unify each variable's axis names across its occurrences,
  * record dependency edges with per-axis lag information,
  * compute governed domains with shadowing (explicit statements beat generic
    ones at their concrete tuples) and lag restriction (a statement reading
    x[t-d] starts at lo+d),
  * produce a deterministic topological statement order, and
  * classify temporal structure per index (IID / RECURRENCE / DBN / GENERAL).
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field

from .errors import (
    CycleDetectedError, MissingIndexRangeError, OverlappingDefinitionsError,
    RangeConflictError, UndefinedReferenceError,
)
from .frontend.nodes import (
    ArrayLookup, AssignStmt, IndexVar, IntLiteral, Lag, ProgramAst, Ref,
    SampleStmt, Stmt, VarRef, stmt_exprs, walk_exprs,
)
from .frontend.render import render_var_ref

IID_BLOCK = "IID_BLOCK"
RECURRENCE = "RECURRENCE"
DBN_BLOCK = "DBN_BLOCK"
GENERAL = "GENERAL"


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
    fixed_positions: tuple[int, ...]  # positions referenced with a literal

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
    domain: list[tuple[int, ...]] = field(default_factory=list)

    @property
    def n_symbolic(self) -> int:
        return sum(1 for kind, _ in self.selector if kind == "sym")

    @property
    def is_indexed(self) -> bool:
        return bool(self.selector)

    def describe(self) -> str:
        return render_var_ref(self.stmt.lhs)


@dataclass(slots=True)
class StructureEntry:
    index: str
    kind: str
    members: tuple[str, ...]
    max_lag: int = 0
    replication_axes: tuple[str, ...] = ()


@dataclass(slots=True)
class StructureReport:
    entries: dict[str, StructureEntry]
    parameters: tuple[str, ...]


@dataclass(slots=True)
class ModelGraph:
    ast: ProgramAst
    nodes: list[GraphNode]
    by_var: dict[str, list[GraphNode]]
    var_axes: dict[str, tuple[str | None, ...]]
    inputs: tuple[str, ...]

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
            fixed = []
            has_lookup = False
            for p, term in enumerate(ref.indices):
                if isinstance(term, IndexVar):
                    lag_by_axis[term.name] = max(lag_by_axis.get(term.name, 0), 0)
                elif isinstance(term, Lag):
                    lag_by_axis[term.name] = max(lag_by_axis.get(term.name, 0), term.offset)
                elif isinstance(term, IntLiteral):
                    fixed.append(p)
                else:
                    has_lookup = True
            edge = DepEdge(target=ref.name, terms=ref.indices,
                           lag_by_axis=lag_by_axis, has_lookup=has_lookup,
                           fixed_positions=tuple(fixed))
            node.deps.append(edge)
            for axis, lag in lag_by_axis.items():
                if lag > node.lag_by_axis.get(axis, 0):
                    node.lag_by_axis[axis] = lag


# --- domains and coverage ---------------------------------------------------------


def var_grid(graph: ModelGraph, var: str,
             ranges: dict[str, tuple[int, int]]) -> list[tuple[int, ...]]:
    """Every concrete instance of `var`, row major over its axes."""
    axes = graph.var_axes[var]
    if not axes:
        return [()]
    spans = []
    for p, axis in enumerate(axes):
        if axis is not None:
            if axis not in ranges:
                raise MissingIndexRangeError(f"index {axis!r} has no resolved range")
            lo, hi = ranges[axis]
            spans.append(range(lo, hi + 1))
        else:
            vals = sorted({sel[1] for node in graph.by_var[var]
                           for sel in [node.selector[p]] if sel[0] == "fixed"})
            spans.append(vals)
    return list(itertools.product(*spans))


def node_candidates(node: GraphNode, ranges) -> list[tuple[int, ...]]:
    """Tuples a node could govern: fixed axes pinned, symbolic axes lag restricted."""
    spans = []
    for kind, val in node.selector:
        if kind == "fixed":
            spans.append((val,))
        else:
            lo, hi = ranges[val]
            lo += node.lag_by_axis.get(val, 0)
            spans.append(range(lo, hi + 1))
    return list(itertools.product(*spans))


def assign_domains(graph: ModelGraph, ranges: dict[str, tuple[int, int]]) -> None:
    """Fill node.domain so every instance is governed exactly once.

    Explicit statements shadow generic ones at their tuples; equal-specificity
    overlap is an error, as is any uncovered instance.
    """
    for var, nodes in graph.by_var.items():
        grid = var_grid(graph, var, ranges)
        grid_set = set(grid)
        for node in nodes:
            for key in node_candidates(node, ranges):
                if key not in grid_set:
                    raise UndefinedReferenceError(
                        f"{instance_name(var, key)} lies outside the declared range")
        claims: dict[tuple[int, ...], GraphNode] = {}
        for key in grid:
            matches = [n for n in nodes if _matches(n, key, ranges)]
            if not matches:
                raise UndefinedReferenceError(
                    f"{instance_name(var, key)} is not governed by any statement"
                    " (missing base case?)")
            top = max(len(n.selector) - n.n_symbolic for n in matches)
            winners = [n for n in matches if len(n.selector) - n.n_symbolic == top]
            if len(winners) > 1:
                names = " and ".join(w.describe() for w in winners)
                raise OverlappingDefinitionsError(
                    f"{instance_name(var, key)} is governed by both {names}")
            claims[key] = winners[0]
        for node in nodes:
            # a fully shadowed statement is left with an empty domain
            node.domain = [k for k in grid if claims[k] is node]


def _matches(node: GraphNode, key: tuple[int, ...], ranges) -> bool:
    for (kind, val), k in zip(node.selector, key):
        if kind == "fixed":
            if k != val:
                return False
        else:
            lo, _ = ranges[val]
            if k < lo + node.lag_by_axis.get(val, 0):
                return False
    return True


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


# --- structure detection --------------------------------------------------------------


def detect_structure(graph: ModelGraph) -> StructureReport:
    """Classify temporal structure per index; see module docstring."""
    parameters = tuple(sorted(v for v, axes in graph.var_axes.items() if not axes))
    entries: dict[str, StructureEntry] = {}

    all_axes = {d.name for d in graph.ast.indices}
    for v, axes in graph.var_axes.items():
        all_axes.update(a for a in axes if a is not None)

    for index in sorted(all_axes):
        members = sorted(
            v for v, axes in graph.var_axes.items()
            if axes and axes[-1] == index
            and any(n.selector and n.selector[-1] == ("sym", index)
                    for n in graph.by_var[v]))
        if not members:
            continue
        member_set = set(members)
        kind = None
        max_lag = 0
        replication: tuple[str, ...] | None = None
        for v in members:
            axes = graph.var_axes[v]
            rep = tuple(a for a in axes[:-1])
            if replication is None:
                replication = rep
            elif replication != rep:
                kind = GENERAL
            for node in graph.by_var[v]:
                for edge in node.deps:
                    if edge.target not in graph.var_axes:
                        continue
                    tgt_axes = graph.var_axes[edge.target]
                    if not tgt_axes:
                        continue  # parameter dep is always fine
                    ok = (edge.target in member_set and not edge.has_lookup
                          and not edge.fixed_positions
                          and tgt_axes == axes
                          and all(edge.lag_by_axis.get(a, 0) == 0
                                  for a in axes[:-1] if a is not None))
                    if not ok:
                        kind = GENERAL
                        continue
                    max_lag = max(max_lag, edge.lag_by_axis.get(index, 0))
        if kind is None:
            lagged = max_lag > 0
            within = _has_within_slice_member_edges(graph, member_set)
            if not lagged and not within:
                kind = IID_BLOCK if _members_param_only(graph, member_set) else GENERAL
            elif len(members) == 1 and not within and _self_only(graph, members[0]):
                kind = RECURRENCE
            else:
                kind = DBN_BLOCK
        if None in (replication or ()):
            kind = GENERAL
        entries[index] = StructureEntry(
            index=index, kind=kind, members=tuple(members), max_lag=max_lag,
            replication_axes=tuple(a for a in (replication or ()) if a is not None))
    return StructureReport(entries=entries, parameters=parameters)


def _members_param_only(graph: ModelGraph, member_set) -> bool:
    for v in member_set:
        for node in graph.by_var[v]:
            for edge in node.deps:
                if graph.var_axes.get(edge.target):
                    return False
    return True


def _has_within_slice_member_edges(graph: ModelGraph, member_set) -> bool:
    for v in member_set:
        for node in graph.by_var[v]:
            for edge in node.deps:
                if edge.target in member_set and edge.target != v and edge.max_lag == 0:
                    return True
    return False


def _self_only(graph: ModelGraph, var: str) -> bool:
    for node in graph.by_var[var]:
        for edge in node.deps:
            if graph.var_axes.get(edge.target) and edge.target != var:
                return False
    return True


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
