"""Bind data to a model graph and lower it to an executable log-density plan.

Two lowering modes produce mathematically identical densities over the same
latent vector, and both become one generated value-and-gradient program
(see codegen):

  * FUSED      - each stochastic statement becomes one term, vectorized over
                 its whole governed domain through precomputed flat-index
                 arrays; recurrences, DBN slices and lookups become gathers
                 against shifted or looked-up positions (all values are known
                 when conditioning, so the time loop disappears from density
                 evaluation); deterministic statements are inlined into their
                 consumers.
  * UNROLLED   - one scalar term per concrete stochastic instance and one
                 named value per deterministic instance, in topological
                 order. It is the reference semantics: the tests check it
                 against FUSED, against central differences and, rule by
                 rule, against the NumPy kernels of `distributions`.

Binding (`bind`) records each cell of each variable once, in a cell table
of three arrays over the variable's flat `VarLayout` grid: its status, its
observed value (NaN elsewhere) and its governing statement, filled from
the statements' array domains. A data table reaches it through one gather
from table rows to grid positions. Flat order is the index tuples'
lexicographic order.

The latent vector layout is shared by both modes: transformed parameters in
statement topological order, then one slot per missing (imputed) cell in
(variable, index-tuple) lexicographic order. It is columnar: a list of
`SlotRun`s, each a run of consecutive offsets over one variable's flat
positions with one kind, distribution and transform. Site names are
built from the runs only when asked for; FUSED compilation and prior
simulation never ask.

Prior simulation (`prior_simulate`) walks blocks of cells in UNROLLED order:
statements in topological order, each statement's blocks in domain order,
each block made once as an array over its cells and the draws, and a block
read before its turn drawn on demand. A block is the cells of one statement
that differ only on replicate axes, axes that no statement reads at anything
but their own bare index.
"""

from __future__ import annotations

import functools
import gc
import math
import operator
import time
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import codegen
from . import distributions as dist
from .datatable import DataTable, make_table
from .errors import (
    BindError, GraphError, IndexStructureMismatchError,
    MissingDiscreteUnsupportedError, NonFiniteDensityError,
    UndefinedReferenceError,
)
from .frontend.nodes import (
    ArrayLookup, BinOp, Call, Const, IndexVar, IntLiteral, Lag, Ref, VarRef,
)
from .frontend.parser import parse_program
from .frontend.validate import validate
from .graph import (
    GraphNode, ModelGraph, VarLayout, assign_domains, build_graph,
    instance_name, resolve_indices, topo_order,
)

FUSED = "FUSED"
UNROLLED = "UNROLLED"

LATENT_PARAM = "LATENT_PARAM"
OBSERVED = "OBSERVED"
MISSING_IMPUTED = "MISSING_IMPUTED"
DETERMINISTIC = "DETERMINISTIC"


# --- variable layouts ---------------------------------------------------------------


def _key_at(layout: VarLayout, i: int) -> tuple:
    """The index tuple at flat position `i`."""
    return tuple(layout.keys([i])[0].tolist())


def _table_column(table: DataTable, name: str, layout: VarLayout):
    """Column `name` of `table` over the positions of `layout`, NaN where
    the table has no row: one gather from the rows, whose index columns are
    matched to the layout's axes by name. Every row lies on the grid, as
    `resolve_indices` takes the index ranges from the tables."""
    pos = np.zeros(table.n_rows, dtype=np.int64)
    for axis, vals, stride in zip(layout.axes, layout.axis_values,
                                  layout.strides):
        pos += (table.column(axis) - vals[0]) * stride
    out = np.full(layout.size, math.nan)
    out[pos] = table.columns[name]
    return out


# --- bindings -------------------------------------------------------------------------

# a cell's status code in the cell table: an index into STATUSES
STATUSES = (LATENT_PARAM, OBSERVED, MISSING_IMPUTED, DETERMINISTIC)
_LATENT, _OBSERVED, _MISSING, _DETERMINISTIC = range(len(STATUSES))


@dataclass(slots=True)
class _Input:
    name: str
    axes: tuple
    scalar: float | None = None
    array: np.ndarray | None = None      # flat over the input's own grid
    layout: VarLayout | None = None      # None: indexed by raw value

    @property
    def resolved(self) -> bool:
        return self.scalar is not None or self.array is not None


@dataclass(slots=True)
class BoundModel:
    """A graph with its data attached. The cell table holds each cell of
    each variable once, in three arrays over the variable's `VarLayout`:
    `status_code` (an index into STATUSES), `observed` (the observed value,
    NaN elsewhere) and `governor` (the `order` of the governing
    statement, which is its index in `graph.nodes`)."""
    graph: ModelGraph
    ranges: dict
    layouts: dict                # var -> VarLayout
    status_code: dict            # var -> int8 array
    observed: dict               # var -> float array
    governor: dict               # var -> int64 array
    inputs: dict                 # name -> _Input


def _positions(bound: BoundModel, node: GraphNode) -> np.ndarray:
    """Flat positions of `node`'s domain, in domain order."""
    return np.flatnonzero(bound.governor[node.variable] == node.order)


def _governor(bound: BoundModel, var: str, key) -> GraphNode:
    """The statement that governs `var` at the index values `key`."""
    pos = _flat_positions(bound.layouts[var], key)
    return bound.graph.nodes[bound.governor[var][pos]]


def _input_axes(graph: ModelGraph):
    """Each input's axis names, unified from its uses (refs and lookups),
    and the inputs used as lookup tables."""
    from .frontend.nodes import stmt_exprs, walk_exprs
    axes: dict[str, list] = {}
    lookups = set()

    def note(name, terms):
        slot = axes.setdefault(name, [None] * len(terms))
        for p, term in enumerate(terms):
            if isinstance(term, (IndexVar, Lag)) and slot[p] is None:
                slot[p] = term.name

    for stmt in graph.ast.statements:
        for expr in stmt_exprs(stmt):
            for sub in walk_exprs(expr):
                if isinstance(sub, Ref) and sub.ref.name in graph.inputs:
                    note(sub.ref.name, sub.ref.indices)
        for ref in [stmt.lhs] + [s.ref for e in stmt_exprs(stmt)
                                 for s in walk_exprs(e) if isinstance(s, Ref)]:
            for term in ref.indices:
                for t in _lookup_terms(term):
                    note(t.input_name, (t.inner,))
                    lookups.add(t.input_name)
    return {name: tuple(a) for name, a in axes.items()}, lookups


def _lookup_terms(term):
    if isinstance(term, ArrayLookup):
        yield term
        yield from _lookup_terms(term.inner)


def bind(graph: ModelGraph, ranges: dict, obs_vars, tables=(),
         inputs: dict | None = None) -> BoundModel:
    """Attach observations and inputs to the graph's cells (see
    BoundModel). An error names the first offending cell in layout
    order."""
    layouts = graph.layouts
    status_code, governor = {}, {}
    for var, nodes in graph.by_var.items():
        size = layouts[var].size
        status_code[var] = np.full(size, _LATENT, dtype=np.int8)
        governor[var] = np.zeros(size, dtype=np.int64)
        for node in nodes:
            pos = _flat_positions(layouts[var], list(node.domain.T))
            governor[var][pos] = node.order
            if node.kind == "deterministic":
                status_code[var][pos] = _DETERMINISTIC
    observed = {v: np.full(layout.size, math.nan)
                for v, layout in layouts.items()}

    # resolve inputs: explicit dict first, then any table carrying the column
    input_axes, lookup_inputs = _input_axes(graph)
    resolved_inputs: dict[str, _Input] = {}
    for name in graph.inputs:
        axes = input_axes.get(name, ())
        inp = _Input(name=name, axes=axes)
        if axes and None not in axes:
            inp.layout = VarLayout.build(name, axes, graph, ranges)
        supplied = (inputs or {}).get(name)
        if supplied is not None:
            _supply_input(inp, supplied)
        else:
            for table in tables:
                if name in table.columns:
                    _fill_input_from_table(inp, table)
                    break
        if name in lookup_inputs and inp.array is not None:
            if not np.all(inp.array == np.round(inp.array)):
                raise BindError(f"input {name!r} is used as a lookup table "
                                "and must contain integers")
        resolved_inputs[name] = inp

    # observation tables: each obs var in exactly one table, matching structure
    for var in obs_vars:
        if var not in graph.var_axes:
            raise BindError(f"cannot observe {var!r}: not a model variable")
        if any(n.kind == "deterministic" for n in graph.by_var[var]):
            raise BindError(f"cannot condition on {var!r}: it is deterministic")
        holders = [t for t in tables if var in t.columns]
        if not holders:
            raise BindError(f"no supplied table has a column for observed "
                            f"variable {var!r}")
        if len(holders) > 1:
            raise BindError(f"observed variable {var!r} appears in more than "
                            "one table")
        table = holders[0]
        axes = graph.var_axes[var]
        if any(a is None for a in axes):
            raise IndexStructureMismatchError(
                f"observed variable {var!r} has fixed-only index positions")
        if set(table.index_names) != set(axes):
            raise IndexStructureMismatchError(
                f"table for {var!r} is indexed by {tuple(table.index_names)}, "
                f"variable by {tuple(axes)}")
        values = _table_column(table, var, layouts[var])
        missing = np.isnan(values)
        discrete = [n.order for n in graph.by_var[var]
                    if dist.lookup(n.stmt.dist.name).is_discrete]
        bad = np.flatnonzero(np.isinf(values)
                             | (missing & np.isin(governor[var], discrete)))
        if bad.size:
            i = int(bad[0])
            key = _key_at(layouts[var], i)
            if not missing[i]:
                raise BindError(f"observed value of {instance_name(var, key)} "
                                f"is {float(values[i])}; a cell must be "
                                "finite or missing")
            spec = dist.lookup(graph.nodes[governor[var][i]].stmt.dist.name)
            raise MissingDiscreteUnsupportedError(
                f"{instance_name(var, key)} is missing but {spec.name} has "
                "discrete support; discrete cells cannot be imputed")
        status_code[var][:] = np.where(missing, _MISSING, _OBSERVED)
        observed[var] = values
    return BoundModel(graph=graph, ranges=ranges, layouts=layouts,
                      status_code=status_code, observed=observed,
                      governor=governor, inputs=resolved_inputs)


def _supply_input(inp: _Input, supplied) -> None:
    """An input passed programmatically: a scalar, or an array flat over
    the input's grid."""
    if np.ndim(supplied) == 0:
        if inp.axes:
            need = (f"{inp.layout.size} values" if inp.layout is not None
                    else "an array of values")
            raise BindError(f"input {inp.name!r} is indexed by {inp.axes} "
                            f"and needs {need}, got a scalar")
        inp.scalar = _finite_input(inp.name, (), float(supplied))
        return
    if not inp.axes:
        raise BindError(f"input {inp.name!r} is not indexed and takes one "
                        f"value, got an array of shape {np.shape(supplied)}")
    inp.array = np.asarray(supplied, dtype=float).ravel()
    if inp.layout is not None and inp.array.size != inp.layout.size:
        raise BindError(
            f"input {inp.name!r} needs {inp.layout.size} values "
            f"(grid over {inp.axes}), got {inp.array.size}")
    bad = np.flatnonzero(~np.isfinite(inp.array))
    if bad.size:
        i = int(bad[0])
        key = (i,) if inp.layout is None else _key_at(inp.layout, i)
        _finite_input(inp.name, key, inp.array[i])


def _fill_input_from_table(inp: _Input, table: DataTable) -> None:
    if not inp.axes:
        col = table.columns[inp.name]
        finite = col[~np.isnan(col)]
        if finite.size != 1:
            raise BindError(f"scalar input {inp.name!r} needs exactly one "
                            f"value, table has {finite.size}")
        inp.scalar = _finite_input(inp.name, (), float(finite[0]))
        return
    if inp.layout is None:
        raise BindError(f"input {inp.name!r} has an underdetermined index "
                        "structure; pass it programmatically")
    if set(table.index_names) != set(inp.axes):
        raise IndexStructureMismatchError(
            f"table for input {inp.name!r} is indexed by "
            f"{tuple(table.index_names)}, the input by {tuple(inp.axes)}")
    values = _table_column(table, inp.name, inp.layout)
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        i = int(bad[0])
        key = _key_at(inp.layout, i)
        if math.isnan(values[i]):
            raise BindError(f"input {inp.name!r} is missing a value at "
                            f"{instance_name(inp.name, key)}")
        _finite_input(inp.name, key, values[i])
    inp.array = values


def _finite_input(name, key, v: float) -> float:
    if not math.isfinite(v):
        raise BindError(f"input {instance_name(name, key)} is {v}; a cell "
                        "must be finite")
    return v


# --- latent layout ----------------------------------------------------------------


@dataclass(slots=True)
class SlotRun:
    """Latent slots offset, offset + 1, ...: one per cell of `variable`
    at the flat positions `pos`, all of one kind, distribution and
    transform."""
    variable: str
    pos: np.ndarray
    offset: int
    kind: str                    # LATENT_PARAM | MISSING_IMPUTED
    transform: object
    dist: str

    @property
    def offsets(self) -> np.ndarray:
        return np.arange(self.offset, self.offset + len(self.pos))


def _run_keys(bound: BoundModel, run: SlotRun) -> list:
    """The index tuples of a run's cells."""
    return list(map(tuple, bound.layouts[run.variable].keys(run.pos).tolist()))


def build_layout(bound: BoundModel):
    """The latent layout as runs of slots: parameters in topo order, one run
    per statement with latent cells (in domain order), then imputations,
    the missing cells of each variable in flat order, variables in name
    order, a new run wherever the governing statement changes."""
    runs: list[SlotRun] = []
    offset = 0

    def add(var, pos, kind, spec):
        nonlocal offset
        runs.append(SlotRun(var, pos, offset, kind,
                            dist.transform_for(spec.support), spec.name))
        offset += len(pos)

    simulate_only = False
    for node in topo_order(bound.graph):
        if node.kind != "stochastic":
            continue
        pos = _positions(bound, node)
        pos = pos[bound.status_code[node.variable][pos] == _LATENT]
        if not pos.size:
            continue
        spec = dist.lookup(node.stmt.dist.name)
        if spec.is_discrete:
            simulate_only = True
            continue
        add(node.variable, pos, LATENT_PARAM, spec)
    for var in sorted(bound.status_code):
        pos = np.flatnonzero(bound.status_code[var] == _MISSING)
        governors = bound.governor[var][pos]
        for run in np.split(pos, np.flatnonzero(np.diff(governors)) + 1):
            if run.size:
                node = bound.graph.nodes[bound.governor[var][run[0]]]
                add(var, run, MISSING_IMPUTED, dist.lookup(node.stmt.dist.name))
    return runs, simulate_only


# --- scalar sites --------------------------------------------------------------------


@dataclass(frozen=True)
class ScalarSite:
    name: str
    variable: str
    key: tuple
    status: str
    dist: str | None


# --- cells and index terms ------------------------------------------------------------


class _UnresolvedInput(UndefinedReferenceError):
    """A read of an input with no value. `_lower` catches it and leaves the
    plan un-evaluable; everywhere else it reaches the caller."""

    def __init__(self, name):
        super().__init__(f"input {name!r} has no value; supply a data table "
                         "containing it or pass inputs={...}")
        self.name = name


_BINOPS = {"+": operator.add, "-": operator.sub,
           "*": operator.mul, "/": operator.truediv}

_CALLS = {"exp": np.exp, "log": np.log,
          "expit": dist.expit, "logit": dist.logit,
          "sqrt": np.sqrt, "abs": np.abs, "pow": operator.pow}


def _term_value(bound: BoundModel, term, km):
    """Concrete index value(s) of one index term under the key map."""
    if isinstance(term, IndexVar):
        return km[term.name]
    if isinstance(term, Lag):
        return km[term.name] - term.offset
    if isinstance(term, IntLiteral):
        return term.value
    if isinstance(term, ArrayLookup):
        inp = bound.inputs[term.input_name]
        if not inp.resolved:
            raise _UnresolvedInput(term.input_name)
        inner = _term_value(bound, term.inner, km)
        pos = _input_positions(inp, (inner,))
        vals = inp.array[pos]
        out = np.asarray(np.round(vals), dtype=np.int64)
        return out if isinstance(pos, np.ndarray) else int(out)
    raise TypeError(term)


def _input_positions(inp: _Input, idx_values):
    pos = 0
    vector = any(isinstance(v, np.ndarray) for v in idx_values)
    for p, v in enumerate(idx_values):
        if inp.layout is not None:
            lo = int(inp.layout.axis_values[p][0])
            extent = len(inp.layout.axis_values[p])
            stride = inp.layout.strides[p]
            o = np.asarray(v) - lo if vector else int(v) - lo
        else:
            extent = inp.array.size
            stride = 1
            o = np.asarray(v) if vector else int(v)
        if np.any(np.asarray(o) < 0) or np.any(np.asarray(o) >= extent):
            raise UndefinedReferenceError(
                f"index into input {inp.name!r} falls outside its range")
        pos = pos + o * stride
    return pos


def _flat_positions(layout: VarLayout, idx_values):
    """Flat grid position(s) of a variable at the index values of a
    reference (ints, or int arrays); compile-time constant."""
    var = layout.var
    pos = 0
    vector = False
    for p, v in enumerate(idx_values):
        if isinstance(v, np.ndarray):
            vector = True
            axis_values = layout.axis_values[p]
            o = np.searchsorted(axis_values, v)
            outside = axis_values[np.minimum(o, len(axis_values) - 1)] != v
            if outside.any():
                raise _outside(var, len(idx_values),
                               int(v[outside.argmax()]))
            pos = pos + o * layout.strides[p]
        else:
            om = layout.ord_maps[p]
            if int(v) not in om:
                raise _outside(var, len(idx_values), int(v))
            pos = pos + om[int(v)] * layout.strides[p]
    if vector and not isinstance(pos, np.ndarray):
        pos = np.full(1, pos)
    return pos


def _outside(var: str, n_axes: int, value: int) -> UndefinedReferenceError:
    """The error for a reference to `var` at index `value` (on one of its
    `n_axes` axes) outside the declared range."""
    return UndefinedReferenceError(
        f"{instance_name(var, (value,))} lies outside the declared range"
        if n_axes == 1 else
        f"reference to {var!r} at index {value} lies outside the declared "
        "range")


def _binding_for(node: GraphNode, key):
    """Axis name -> index value(s) of `node` at `key` (one key, or one
    column of index values per selector position)."""
    return {axis: k for (kind, axis), k in zip(node.selector, key)
            if kind == "sym"}


# --- lowering ---------------------------------------------------------------------------


class _Lowering:
    """A plan's log density as generated source (see codegen).

    FUSED (`statement`): the assembly comes first: each stochastic variable
    with latent cells gets one flat array, observed values with the
    constrained latent slots written in. Then each stochastic statement adds
    one term, vectorized over its whole domain; a statement with no symbolic
    axis is the one-site case and is recorded in `blocks` as a `ScalarSite`.
    All positions are compile-time constants, so recurrences, lags and
    lookups are all gathers. References to deterministic variables are
    inlined into their consumers, each cell from the statement that governs
    it; a deterministic variable that reads a deterministic at a lag is
    built from its cells instead, one generated value per cell, so that a
    recurrence needs no recursion.

    UNROLLED (`cell`): each latent slot is one scalar read, each stochastic
    cell adds one scalar term, and each deterministic cell is one generated
    value. `cells` holds the values made so far, keyed by (variable, key),
    so that each is made once."""

    def __init__(self, bound: BoundModel, runs, mode: str):
        self.bound = bound
        self.src = codegen.Source(sum(len(run.pos) for run in runs))
        self.mode = mode
        self.order = topo_order(bound.graph)
        self.blocks = []
        self.cells = {}
        if mode == UNROLLED:
            for run in runs:
                for i, key in enumerate(_run_keys(bound, run)):
                    self.cells[(run.variable, key)] = self.src.latent(
                        run.offset + i, run.transform.name)
            return
        graph = bound.graph
        deterministic = {n.variable for n in graph.nodes
                         if n.kind == "deterministic"}
        self.stepwise = {n.variable for n in graph.nodes
                         if n.kind == "deterministic" and any(
                             e.max_lag > 0 and e.target in deterministic
                             for e in n.deps)}
        self.filled = set()
        # var -> Val of a scalar variable, or (array Val | None, observed
        # base, latent-cell mask) of an indexed one
        self.values = {}
        by_var: dict[str, list] = {}
        for run in runs:
            by_var.setdefault(run.variable, []).append(run)
        for var, axes in graph.var_axes.items():
            if all(n.kind == "deterministic" for n in graph.by_var[var]):
                continue
            mine = by_var.get(var, [])
            observed = bound.status_code[var] == _OBSERVED
            if not axes:
                if observed[0] or not mine:
                    # no slot: a discrete latent of a simulate-only plan,
                    # whose observed value is NaN
                    self.values[var] = self.src.const(bound.observed[var][0])
                else:
                    self.values[var] = self.src.latent(
                        mine[0].offset, mine[0].transform.name)
                continue
            base = np.where(observed, bound.observed[var], 0.0)
            # the variable's slots grouped by transform, in offset order
            groups: dict[str, list] = {}
            for run in mine:
                groups.setdefault(run.transform.name, []).append(run)
            latent = np.zeros(len(base), dtype=bool)
            puts = []
            for kind, group in groups.items():
                poss = np.concatenate([run.pos for run in group])
                offs = np.concatenate([run.offsets for run in group])
                puts.append((poss, self.src.latent(offs, kind)))
                latent[poss] = True
            arr = self.src.assemble(base, puts) if puts else None
            self.values[var] = (arr, base, latent)

    def read(self, var: str, pos) -> codegen.Val:
        """FUSED: a stochastic variable at compile-time flat position(s)."""
        v = self.values[var]
        if isinstance(v, codegen.Val):
            return v
        arr, base, latent = v
        if arr is None or not latent[pos].any():
            return self.src.const(base[pos])
        return self.src.index(arr, pos,
                              np.where(latent[pos], np.nan, base[pos]))

    def expr(self, expr, km) -> codegen.Val:
        """km maps axis names to index values: ints for one cell, int
        arrays for a vectorized statement."""
        if isinstance(expr, Const):
            return self.src.const(expr.value)
        if isinstance(expr, BinOp):
            fmt, *partials = codegen.BINOPS[expr.op]
            return self.src.op(fmt, self.expr(expr.left, km),
                               self.expr(expr.right, km), partials=partials)
        if isinstance(expr, Call):
            fmt, *partials = codegen.CALLS[expr.fn]
            return self.src.op(fmt, *(self.expr(a, km) for a in expr.args),
                               partials=partials)
        if isinstance(expr, Ref):
            return self.ref(expr.ref, km)
        raise TypeError(expr)

    def ref(self, ref: VarRef, km) -> codegen.Val:
        bound, name = self.bound, ref.name
        if name in bound.inputs:
            inp = bound.inputs[name]
            if not inp.resolved:
                raise _UnresolvedInput(name)
            if not ref.indices:
                return self.src.const(inp.scalar)
            idx_values = [_term_value(bound, t, km) for t in ref.indices]
            return self.src.const(
                inp.array[_input_positions(inp, idx_values)])
        idx_values = [_term_value(bound, t, km) for t in ref.indices]
        # checks the range in every mode
        pos = _flat_positions(bound.layouts[name], idx_values)
        if self.mode == UNROLLED:
            return self.at(name, tuple(int(v) for v in idx_values))
        if any(n.kind == "deterministic" for n in bound.graph.by_var[name]):
            if not ref.indices:
                return self.expr(_governor(bound, name, ()).stmt.rhs, {})
            return self.inline_deterministic(name, idx_values)
        if not ref.indices:
            return self.values[name]
        return self.read(name, pos)

    def inline_deterministic(self, var: str, idx_values) -> codegen.Val:
        """FUSED: a deterministic variable at index values `idx_values`
        (ints, or int arrays) in place of the reference. A vectorized
        reference whose cells have several governing statements inlines
        each one over its own rows and stacks the pieces; a stepwise
        variable stacks its cells."""
        if not any(isinstance(v, np.ndarray) for v in idx_values):
            key = tuple(int(v) for v in idx_values)
            if var in self.stepwise:
                return self.stepwise_cells(var, [key])[0]
            return self.governed(var, _governor(self.bound, var, key), key)
        n = max(np.asarray(v).size for v in idx_values
                if isinstance(v, np.ndarray))
        cols = [np.broadcast_to(np.asarray(v), (n,)) for v in idx_values]
        if var in self.stepwise:
            keys = list(zip(*(c.tolist() for c in cols)))
            return self.src.stack(n, list(enumerate(
                self.stepwise_cells(var, keys))))
        governors = self.bound.governor[var][
            _flat_positions(self.bound.layouts[var], cols)]
        pieces = []
        for g in dict.fromkeys(governors.tolist()):
            rows = np.flatnonzero(governors == g)
            pieces.append((rows, self.governed(
                var, self.bound.graph.nodes[g], [c[rows] for c in cols])))
        if len(pieces) == 1:
            return pieces[0][1]
        return self.src.stack(n, pieces)

    def stepwise_cells(self, var: str, keys) -> list:
        """FUSED: cells of a deterministic variable that reads a
        deterministic at a lag. The first reference makes every cell, in
        topological and then domain order, so each cell's lagged reads
        find earlier cells already made."""
        if var not in self.filled:
            self.filled.add(var)
            for node in self.order:
                if node.variable == var and node.kind == "deterministic":
                    for key in node.domain.tolist():
                        self.at(var, tuple(key))
        return [self.at(var, key) for key in keys]

    def at(self, var: str, key: tuple) -> codegen.Val:
        """One cell of `var`, made once."""
        v = self.cells.get((var, key))
        if v is None:
            v = self.governed(var, _governor(self.bound, var, key), key)
            self.cells[(var, key)] = v
        return v

    def governed(self, var: str, node: GraphNode, key) -> codegen.Val:
        """var at index values `key` (ints, or int arrays of one length),
        all governed by `node`."""
        if node.kind == "deterministic":
            return self.expr(node.stmt.rhs, _binding_for(node, key))
        pos = _flat_positions(self.bound.layouts[var], key)
        if self.mode == UNROLLED:
            # a stochastic cell with no slot: observed, or a discrete
            # latent of a simulate-only plan (NaN)
            return self.src.const(self.bound.observed[var][pos])
        # mixed stochastic/deterministic variable: read the array
        return self.read(var, pos)

    def statement(self, node: GraphNode) -> None:
        """FUSED: the term of one stochastic statement over its whole
        domain."""
        var, domain = node.variable, node.domain
        pos = _positions(self.bound, node)
        status = self.bound.status_code[var][pos]
        indexed = bool(self.bound.graph.var_axes[var])
        if node.n_symbolic == 0:
            key = tuple(domain[0].tolist())
            self.blocks.append(ScalarSite(instance_name(var, key), var, key,
                                          STATUSES[status[0]],
                                          node.stmt.dist.name))
            pos = int(pos[0]) if indexed else None
            km, observed = {}, bool(status[0] == _OBSERVED)
        else:
            obs = np.flatnonzero(status == _OBSERVED)
            observed = (len(obs) == len(domain)) \
                if len(obs) in (0, len(domain)) else obs
            km = _binding_for(node, list(np.ascontiguousarray(domain.T)))
        params = [self.expr(p, km) for p in node.stmt.dist.params]
        v = self.read(var, pos) if indexed else self.values[var]
        self.src.term(node.stmt.dist.name, v, params, observed)

    def cell(self, node: GraphNode, key: tuple) -> None:
        """UNROLLED: one cell of `node`'s domain. A deterministic cell is
        made; a stochastic cell adds its term."""
        v = self.at(node.variable, key)
        if node.kind == "deterministic":
            return
        km = _binding_for(node, key)
        params = [self.expr(p, km) for p in node.stmt.dist.params]
        var = node.variable
        pos = _flat_positions(self.bound.layouts[var], key)
        observed = bool(self.bound.status_code[var][pos] == _OBSERVED)
        self.src.term(node.stmt.dist.name, v, params, observed)


def _lower(bound: BoundModel, runs, mode: str):
    """One-site statements, program, and the first input with no value or
    None; a plan with an unresolved input never runs its program. UNROLLED
    visits cells in topological order and, inside a node, in domain
    order."""
    lowering = _Lowering(bound, runs, mode)
    unresolved = None
    for node in lowering.order:
        try:
            if mode == UNROLLED:
                for key in node.domain.tolist():
                    lowering.cell(node, tuple(key))
            elif node.kind == "stochastic" and len(node.domain):
                lowering.statement(node)
        except _UnresolvedInput as e:
            unresolved = unresolved or e.name
    return lowering.blocks, lowering.src.build(), unresolved


# --- the executable plan ---------------------------------------------------------------


class ExecutablePlan:
    """Compiled log-density program over an unconstrained latent vector."""

    def __init__(self, bound: BoundModel, runs, simulate_only, mode,
                 blocks, program, unresolved):
        self.bound = bound
        self.graph = bound.graph
        self.ranges = bound.ranges
        self.runs = runs                # the latent layout (see SlotRun)
        self.mode = mode
        self.blocks = blocks            # FUSED: one-site statements
        self.simulate_only = simulate_only
        self._program = program         # codegen.Program
        self._unresolved = unresolved   # an input with no value, or None
        by_transform: dict[object, list] = {}
        for run in runs:
            by_transform.setdefault(run.transform, []).append(run.offsets)
        self._transforms = [(tr, np.concatenate(offs))
                            for tr, offs in by_transform.items()]

    # -- layout ----------------------------------------------------------

    @functools.cached_property
    def latent_dim(self) -> int:
        return sum(len(run.pos) for run in self.runs)

    @functools.cached_property
    def _latent_zeros(self) -> np.ndarray:
        return np.zeros(self.latent_dim)

    @property
    def site_names(self) -> list:
        return [instance_name(run.variable, key)
                for run in self.runs for key in _run_keys(self.bound, run)]

    @property
    def n_latent_params(self) -> int:
        return sum(len(run.pos) for run in self.runs
                   if run.kind == LATENT_PARAM)

    @property
    def n_observed(self) -> int:
        return sum(int(np.count_nonzero(st == _OBSERVED))
                   for st in self.bound.status_code.values())

    def constrain(self, u: np.ndarray) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        out = np.empty_like(u)
        for tr, offs in self._transforms:
            out[offs] = tr.constrain(u[offs])
        return out

    def unconstrain(self, values: np.ndarray) -> np.ndarray:
        values = np.asarray(values, dtype=float)
        out = np.empty_like(values)
        for tr, offs in self._transforms:
            out[offs] = tr.unconstrain(values[offs])
        return out

    # -- evaluation --------------------------------------------------------

    def _check_evaluable(self) -> None:
        if self.simulate_only:
            raise MissingDiscreteUnsupportedError(
                "plan has unobserved discrete sites; it can only simulate")
        if self._unresolved is not None:
            raise _UnresolvedInput(self._unresolved)

    def eval_logdensity(self, u):
        """Core evaluation; u may be a raw vector or an `autodiff.Node`,
        which records the whole density as one tape entry with the
        generated gradient as its partial."""
        self._check_evaluable()
        if isinstance(u, ad.Node):
            value, grad = self._program.value_and_grad(u.value)
            return u.tape.elementwise(value, (u,), (grad,))
        return self._program.value(u)

    def _latent(self, u) -> np.ndarray:
        """u as a float array, which must have the latent layout's shape."""
        u = np.asarray(u, dtype=float)
        if u.shape != self._latent_zeros.shape:
            raise ValueError(f"latent vector must have shape "
                             f"({self.latent_dim},), got {u.shape}")
        return u

    def logdensity(self, u) -> float:
        """Log density at u, -inf off the support. NaN anywhere in u raises
        NonFiniteDensityError and a u of the wrong shape ValueError."""
        u = self._latent(u)
        with np.errstate(all="ignore"):
            value = float(self.eval_logdensity(u))
        # a NaN slot makes its own prior term, and so the value, non-finite
        if not -math.inf < value < math.inf and np.isnan(u).any():
            raise NonFiniteDensityError("latent vector contains NaN")
        return value

    def compile_gradient(self) -> None:
        """Compile the generated value-and-gradient function now rather
        than on its first call, so that processes forked afterwards share
        it; raises what logdensity_and_grad would for an un-evaluable plan."""
        self._check_evaluable()
        self._program.value_and_grad    # codegen.Program compiles on access

    def logdensity_and_grad(self, u):
        """Value and gradient at u. NaN anywhere in u raises
        NonFiniteDensityError and a u of the wrong shape ValueError. A
        value of -inf, or NaN reported as -inf, comes back with a zero
        gradient, and so does a point whose gradient overflows; callers
        treat the point as rejected."""
        u = self._latent(u)
        self._check_evaluable()
        with np.errstate(all="ignore"):
            value, grad = self._program.value_and_grad(u)
            # grad . 0 is NaN exactly when an entry of grad is inf or NaN
            bad_grad = math.isnan(grad @ self._latent_zeros)
        if not -math.inf < value < math.inf and np.isnan(u).any():
            raise NonFiniteDensityError("latent vector contains NaN")
        if bad_grad:
            return -math.inf, np.zeros_like(u)
        return value, grad

    def observed_loglik(self, u) -> float:
        """Sum of log densities of OBSERVED sites at the given latent vector."""
        self._check_evaluable()
        u = np.asarray(u, dtype=float)
        with np.errstate(all="ignore"):
            return self._program.observed(u)


def lower(bound: BoundModel, mode: str = FUSED) -> ExecutablePlan:
    if mode not in (FUSED, UNROLLED):
        raise ValueError(f"unknown mode {mode!r}")
    runs, simulate_only = build_layout(bound)
    # lowering allocates hundreds of thousands of small objects that live
    # until it ends; cyclic collections would walk them over and over
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        blocks, program, unresolved = _lower(bound, runs, mode)
    finally:
        if gc_was_enabled:
            gc.enable()
    return ExecutablePlan(bound, runs, simulate_only, mode, blocks, program,
                          unresolved)


def compile_model(source, tables=(), obs=(), inputs=None,
                  mode: str = FUSED, phases: dict | None = None
                  ) -> ExecutablePlan:
    """Front door: parse (if needed), validate, bind, and lower a model.
    A `phases` dict receives the seconds spent in "validate" (with the
    parse), "graph" (build, index resolution and domains), "bind" and
    "lower"."""
    t0 = time.perf_counter()

    def lap(name):
        nonlocal t0
        t = time.perf_counter()
        if phases is not None:
            phases[name] = t - t0
        t0 = t

    ast = parse_program(source) if isinstance(source, str) else source
    diags = validate(ast)
    if diags:
        raise GraphError("model failed validation:\n  " +
                         "\n  ".join(str(d) for d in diags[:8]))
    lap("validate")
    graph = build_graph(ast)
    ranges = resolve_indices(ast, tables)
    assign_domains(graph, ranges)
    lap("graph")
    bound = bind(graph, ranges, obs, tables, inputs)
    lap("bind")
    plan = lower(bound, mode)
    lap("lower")
    return plan


# --- prior simulation --------------------------------------------------------------------


def prior_simulate(plan: ExecutablePlan, rng: np.random.Generator,
                   n_draws: int) -> DataTable:
    """Ancestral sampling from the joint prior; returns one wide table with a
    `draw` column, one column per used index, and one column per variable
    (scalar variables repeat across index rows). Blocks of cells are drawn
    in UNROLLED order; a block read before its turn is drawn on demand (see
    `_Simulation`). Arithmetic that overflows or is invalid leaves inf or
    NaN in its cells without a warning."""
    bound = plan.bound
    graph = bound.graph
    sim = _Simulation(bound, rng, n_draws)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for b in range(len(sim.blocks)):
            if not sim.done[b]:
                sim.make(b)

    used = [d.name for d in graph.ast.indices
            if any(d.name in (a for a in graph.var_axes[v] if a)
                   for v in graph.var_axes)]
    out_vars = [v for v in graph.var_axes
                if not any(a is None for a in graph.var_axes[v])]
    index_grid = VarLayout.build("rows", used, graph, bound.ranges)
    grid = index_grid.keys(np.arange(index_grid.size))
    cols = {}
    for v in out_vars:
        layout = bound.layouts[v]
        pos = _flat_positions(layout, [grid[:, used.index(axis)]
                                       for axis in layout.axes])
        cols[v] = sim.values[v][np.broadcast_to(pos, len(grid))].T.ravel()
    idx_rows = np.column_stack([np.repeat(np.arange(n_draws), len(grid)),
                                np.tile(grid, (n_draws, 1))])
    return make_table(["draw"] + used, idx_rows, cols)


def _replicate_axes(graph: ModelGraph) -> set:
    """Axes that no statement reads or defines at anything but their own
    bare index: no lag, literal or lookup on them. A cell then reads only
    cells at its own values of these axes."""
    axes = {a for var_axes in graph.var_axes.values() for a in var_axes}
    for node in graph.nodes:
        for (kind, _), axis in zip(node.selector,
                                   graph.var_axes[node.variable]):
            if kind == "fixed":
                axes.discard(axis)
        for edge in node.deps:
            for term, axis in zip(edge.terms, graph.var_axes[edge.target]):
                if not isinstance(term, IndexVar):
                    axes.discard(axis)
    axes.discard(None)
    return axes


class _Simulation:
    """Prior draws of every cell, `n` per cell, in one (cells, n) array per
    variable over its layout (`values`). Cells are made a block at a time:
    the cells of one statement that differ only on replicate axes (see
    `_replicate_axes`), so no cell of a block reads another. `blocks` holds
    (node, flat positions, key map) per block, statements in topological
    order and each statement's blocks in the order of its domain; a model
    with no replicate axis has one cell per block. A stochastic block is
    drawn from its distribution with the parameters as arrays over (cells,
    draws), so each cell's draws stay consecutive in the RNG stream; a
    deterministic block is its right-hand side over the same arrays. A block
    read before its turn is made on demand, as `_Lowering.at` makes a cell,
    so a lag on any axis reads a cell that exists."""

    def __init__(self, bound: BoundModel, rng: np.random.Generator, n: int):
        self.bound = bound
        self.rng = rng
        self.n = n
        self.values = {v: np.full((layout.size, n), math.nan)
                       for v, layout in bound.layouts.items()}
        # flat position -> block, per variable
        self.owner = {v: np.zeros(layout.size, dtype=np.int64)
                      for v, layout in bound.layouts.items()}
        self.blocks = []
        replicate = _replicate_axes(bound.graph)
        for node in topo_order(bound.graph):
            keys = node.domain
            if not len(keys):
                continue
            var = node.variable
            pos = _positions(bound, node)
            rep = [p for p, (kind, axis) in enumerate(node.selector)
                   if kind == "sym" and axis in replicate]
            # block of each cell: its position with its ordinals on the
            # replicate axes (ranges, so value - first value) taken out;
            # blocks numbered in the order of their first cell
            layout = bound.layouts[var]
            _, first, block = np.unique(
                pos - sum((keys[:, p] - layout.axis_values[p][0])
                          * layout.strides[p] for p in rep),
                return_index=True, return_inverse=True)
            rank = np.empty_like(first)
            rank[np.argsort(first)] = np.arange(len(first))
            block = rank[block]
            self.owner[var][pos] = len(self.blocks) + block
            order = np.argsort(block, kind="stable")
            ends = np.cumsum(np.bincount(block))
            for rows in np.split(order, ends[:-1]):
                km = {axis: keys[rows, p] if p in rep else int(keys[rows[0], p])
                      for p, (kind, axis) in enumerate(node.selector)
                      if kind == "sym"}
                self.blocks.append((node, pos[rows], km))
        self.done = np.zeros(len(self.blocks), dtype=bool)

    def make(self, b: int) -> None:
        node, pos, km = self.blocks[b]
        if node.kind == "deterministic":
            v = self.expr(node.stmt.rhs, km)
        else:
            params = [self.expr(p, km) for p in node.stmt.dist.params]
            v = dist.lookup(node.stmt.dist.name).sample(
                self.rng, *params, size=(len(pos), self.n))
        self.values[node.variable][pos] = v
        self.done[b] = True

    def expr(self, expr, km):
        """A float, an array over the draws, or an array over (cells,
        draws)."""
        if isinstance(expr, Const):
            return expr.value
        if isinstance(expr, BinOp):
            return _BINOPS[expr.op](self.expr(expr.left, km),
                                   self.expr(expr.right, km))
        if isinstance(expr, Call):
            return _CALLS[expr.fn](*(self.expr(a, km) for a in expr.args))
        if isinstance(expr, Ref):
            return self.ref(expr.ref, km)
        raise TypeError(expr)

    def ref(self, ref: VarRef, km):
        bound, name = self.bound, ref.name
        if name in bound.inputs:
            inp = bound.inputs[name]
            if not inp.resolved:
                raise _UnresolvedInput(name)
            if not ref.indices:
                return inp.scalar
            idx_values = [_term_value(bound, t, km) for t in ref.indices]
            vals = inp.array[_input_positions(inp, idx_values)]
            return vals[:, None] if np.ndim(vals) else float(vals)
        idx_values = [_term_value(bound, t, km) for t in ref.indices]
        pos = _flat_positions(bound.layouts[name], idx_values)
        blocks = self.owner[name][pos]
        if not self.done[blocks].all():
            for b in dict.fromkeys(np.atleast_1d(blocks).tolist()):
                if not self.done[b]:
                    self.make(b)
        return self.values[name][pos]
