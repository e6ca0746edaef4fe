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

The latent vector layout is shared by both modes: transformed parameters in
statement topological order, then one slot per missing (imputed) cell in
(variable, index-tuple) lexicographic order.

Prior simulation (`prior_simulate`) walks cells as UNROLLED does: statements
in topological order, each statement's cells in domain order, each cell made
once as an array over the draws, and a cell read before its turn drawn on
demand.
"""

from __future__ import annotations

import gc
import itertools
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
    GraphNode, ModelGraph, assign_domains, build_graph, instance_name,
    resolve_indices, topo_order,
)

FUSED = "FUSED"
UNROLLED = "UNROLLED"

LATENT_PARAM = "LATENT_PARAM"
OBSERVED = "OBSERVED"
MISSING_IMPUTED = "MISSING_IMPUTED"
DETERMINISTIC = "DETERMINISTIC"


# --- variable layouts ---------------------------------------------------------------


@dataclass(slots=True)
class VarLayout:
    var: str
    axes: tuple
    axis_values: tuple          # per axis: tuple of admissible concrete values
    strides: tuple
    size: int
    ord_maps: tuple             # per axis: value -> ordinal

    @classmethod
    def build(cls, var, axes, graph, ranges) -> "VarLayout":
        values = []
        for p, axis in enumerate(axes):
            if axis is not None:
                lo, hi = ranges[axis]
                values.append(tuple(range(lo, hi + 1)))
            else:
                vals = sorted({sel[1] for node in graph.by_var[var]
                               for sel in [node.selector[p]] if sel[0] == "fixed"})
                values.append(tuple(vals))
        strides = [1] * len(values)
        for p in range(len(values) - 2, -1, -1):
            strides[p] = strides[p + 1] * len(values[p + 1])
        size = 1
        for v in values:
            size *= len(v)
        ord_maps = tuple({v: i for i, v in enumerate(vals)} for vals in values)
        return cls(var=var, axes=tuple(axes), axis_values=tuple(values),
                   strides=tuple(strides), size=size, ord_maps=ord_maps)

    def flat(self, key: tuple[int, ...]) -> int:
        f = 0
        for p, k in enumerate(key):
            f += self.ord_maps[p][int(k)] * self.strides[p]
        return f

    def keys(self):
        return list(itertools.product(*self.axis_values))


# --- bindings -------------------------------------------------------------------------


@dataclass(frozen=True)
class SiteBinding:
    variable: str
    key: tuple
    name: str
    status: str
    value: float = math.nan
    dist: str | None = None


@dataclass(slots=True)
class _Input:
    name: str
    arity: int
    axes: tuple
    scalar: float | None = None
    array: np.ndarray | None = None      # flat over the input's own grid
    layout: VarLayout | None = None

    @property
    def resolved(self) -> bool:
        return self.scalar is not None or self.array is not None


@dataclass(slots=True)
class BoundModel:
    graph: ModelGraph
    ranges: dict
    layouts: dict
    bindings: list
    status: dict                 # (var, key) -> (status, value)
    inputs: dict                 # name -> _Input
    obs_vars: tuple
    node_of: dict                # (var, key) -> governing GraphNode


def _input_axes(graph: ModelGraph):
    """Unify each input's axis names from its uses (refs and lookups)."""
    from .frontend.nodes import stmt_exprs, walk_exprs, walk_index_terms
    axes: dict[str, list] = {}

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
    return {name: tuple(a) for name, a in axes.items()}


def _lookup_terms(term):
    if isinstance(term, ArrayLookup):
        yield term
        yield from _lookup_terms(term.inner)


def bind(graph: ModelGraph, ranges: dict, obs_vars, tables=(),
         inputs: dict | None = None) -> BoundModel:
    """Attach observations and inputs to the graph's concrete instances."""
    obs_vars = tuple(obs_vars)
    layouts = {v: VarLayout.build(v, graph.var_axes[v], graph, ranges)
               for v in graph.var_axes}
    node_of: dict[tuple, GraphNode] = {}
    for var, nodes in graph.by_var.items():
        for node in nodes:
            for key in node.domain:
                node_of[(var, key)] = node

    # resolve inputs: explicit dict first, then any table carrying the column
    from .frontend.nodes import stmt_exprs, walk_exprs
    input_axes = _input_axes(graph)
    lookup_inputs = set()
    for stmt in graph.ast.statements:
        refs = [stmt.lhs] + [s.ref for e in stmt_exprs(stmt)
                             for s in walk_exprs(e) if isinstance(s, Ref)]
        for ref in refs:
            for term in ref.indices:
                for t in _lookup_terms(term):
                    lookup_inputs.add(t.input_name)

    resolved_inputs: dict[str, _Input] = {}
    for name in graph.inputs:
        axes = input_axes.get(name, ())
        inp = _Input(name=name, arity=len(axes), axes=axes)
        supplied = (inputs or {}).get(name)
        if supplied is not None:
            if np.ndim(supplied) == 0:
                inp.scalar = _finite_input(name, (), float(supplied))
            else:
                inp.array = np.asarray(supplied, dtype=float).ravel()
        else:
            for table in tables:
                if name in table.columns:
                    _fill_input_from_table(inp, table, ranges, graph)
                    break
        if inp.array is not None and inp.axes:
            if any(a is None for a in inp.axes):
                # indexed by raw value: ordinal = value
                inp.layout = None
            else:
                vals = tuple(tuple(range(*_incl(ranges[a]))) for a in inp.axes)
                sizes = [len(v) for v in vals]
                want = int(np.prod(sizes))
                if inp.array.size != want:
                    raise BindError(
                        f"input {name!r} needs {want} values "
                        f"(grid over {inp.axes}), got {inp.array.size}")
                strides = [1] * len(vals)
                for p in range(len(vals) - 2, -1, -1):
                    strides[p] = strides[p + 1] * sizes[p + 1]
                inp.layout = VarLayout(
                    var=name, axes=inp.axes, axis_values=vals,
                    strides=tuple(strides), size=want,
                    ord_maps=tuple({v: i for i, v in enumerate(vv)} for vv in vals))
        if supplied is not None and inp.array is not None:
            bad = np.flatnonzero(np.isinf(inp.array))
            if bad.size:
                i = int(bad[0])
                _finite_input(name, (i,) if inp.layout is None
                              else inp.layout.keys()[i], inp.array[i])
        if inp.resolved and name in lookup_inputs and inp.array is not None:
            if not np.all(inp.array == np.round(inp.array)):
                raise BindError(f"input {name!r} is used as a lookup table "
                                "and must contain integers")
        resolved_inputs[name] = inp

    # observation tables: each obs var in exactly one table, matching structure
    status: dict[tuple, tuple] = {}
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
        perm = [axes.index(n) for n in table.index_names]
        layout = layouts[var]
        for key in layout.keys():
            node = node_of.get((var, key))
            if node is None:
                continue
            tkey = tuple(int(key[p]) for p in perm)
            value = table.get(var, tkey)
            if math.isinf(value):
                raise BindError(f"observed value of {instance_name(var, key)} "
                                f"is {value}; a cell must be finite or "
                                "missing")
            if math.isnan(value):
                spec = dist.lookup(node.stmt.dist.name)
                if spec.is_discrete:
                    raise MissingDiscreteUnsupportedError(
                        f"{instance_name(var, key)} is missing but "
                        f"{spec.name} has discrete support; discrete cells "
                        "cannot be imputed")
                status[(var, key)] = (MISSING_IMPUTED, math.nan)
            else:
                status[(var, key)] = (OBSERVED, value)

    bindings: list[SiteBinding] = []
    order = topo_order(graph)
    for node in order:
        for key in node.domain:
            var = node.variable
            name = instance_name(var, key)
            if node.kind == "deterministic":
                bindings.append(SiteBinding(var, key, name, DETERMINISTIC))
                status.setdefault((var, key), (DETERMINISTIC, math.nan))
                continue
            dname = node.stmt.dist.name
            st = status.get((var, key))
            if st is None:
                status[(var, key)] = (LATENT_PARAM, math.nan)
                bindings.append(SiteBinding(var, key, name, LATENT_PARAM,
                                            dist=dname))
            else:
                bindings.append(SiteBinding(var, key, name, st[0], st[1],
                                            dist=dname))
    return BoundModel(graph=graph, ranges=ranges, layouts=layouts,
                      bindings=bindings, status=status, inputs=resolved_inputs,
                      obs_vars=obs_vars, node_of=node_of)


def _incl(bounds):
    lo, hi = bounds
    return lo, hi + 1


def _fill_input_from_table(inp: _Input, table: DataTable, ranges, graph) -> None:
    if not inp.axes:
        col = table.columns[inp.name]
        finite = col[~np.isnan(col)]
        if finite.size != 1:
            raise BindError(f"scalar input {inp.name!r} needs exactly one "
                            f"value, table has {finite.size}")
        inp.scalar = _finite_input(inp.name, (), float(finite[0]))
        return
    if any(a is None for a in inp.axes):
        raise BindError(f"input {inp.name!r} has an underdetermined index "
                        "structure; pass it programmatically")
    if set(table.index_names) != set(inp.axes):
        raise IndexStructureMismatchError(
            f"table for input {inp.name!r} is indexed by "
            f"{tuple(table.index_names)}, the input by {tuple(inp.axes)}")
    perm = [inp.axes.index(n) for n in table.index_names]
    grids = [range(*_incl(ranges[a])) for a in inp.axes]
    out = np.empty(int(np.prod([len(g) for g in grids])))
    for i, key in enumerate(itertools.product(*grids)):
        tkey = tuple(int(key[p]) for p in perm)
        v = table.get(inp.name, tkey)
        if math.isnan(v):
            raise BindError(f"input {inp.name!r} is missing a value at "
                            f"{instance_name(inp.name, key)}")
        out[i] = _finite_input(inp.name, key, v)
    inp.array = out


def _finite_input(name, key, v: float) -> float:
    if math.isinf(v):
        raise BindError(f"input {instance_name(name, key)} is {v}; a cell "
                        "must be finite")
    return v


# --- latent layout ----------------------------------------------------------------


@dataclass(frozen=True)
class Slot:
    name: str
    variable: str
    key: tuple
    kind: str                    # LATENT_PARAM | MISSING_IMPUTED
    transform: object
    offset: int
    dist: str


def build_layout(bound: BoundModel):
    """Latent slots: parameters in topo order, then imputations lexicographic."""
    slots: list[Slot] = []
    simulate_only = False
    order = topo_order(bound.graph)
    for node in order:
        if node.kind != "stochastic":
            continue
        spec = dist.lookup(node.stmt.dist.name)
        for key in node.domain:
            st, _ = bound.status[(node.variable, key)]
            if st != LATENT_PARAM:
                continue
            if spec.is_discrete:
                simulate_only = True
                continue
            slots.append(Slot(
                name=instance_name(node.variable, key), variable=node.variable,
                key=key, kind=LATENT_PARAM,
                transform=dist.transform_for(spec.support),
                offset=len(slots), dist=spec.name))
    imputed = sorted(
        ((var, key) for (var, key), (st, _) in bound.status.items()
         if st == MISSING_IMPUTED),
        key=lambda vk: (vk[0], vk[1]))
    for var, key in imputed:
        node = bound.node_of[(var, key)]
        spec = dist.lookup(node.stmt.dist.name)
        slots.append(Slot(
            name=instance_name(var, key), variable=var, key=key,
            kind=MISSING_IMPUTED, transform=dist.transform_for(spec.support),
            offset=len(slots), dist=spec.name))
    return slots, simulate_only


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
            lo = inp.layout.axis_values[p][0]
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


def _flat_positions(bound: BoundModel, var: str, idx_values):
    """Flat grid position(s) of a variable at the index values of a
    reference (ints, or int arrays); compile-time constant."""
    layout = bound.layouts[var]
    pos = 0
    vector = False
    for p, v in enumerate(idx_values):
        if isinstance(v, np.ndarray):
            vector = True
            vals = np.asarray(v)
            om = layout.ord_maps[p]
            base = layout.axis_values[p][0]
            contiguous = layout.axis_values[p] == tuple(
                range(base, base + len(layout.axis_values[p])))
            if contiguous:
                o = vals - base
            else:
                o = np.array([om.get(int(x), -1) for x in vals])
            outside = (o < 0) | (o >= len(layout.axis_values[p]))
            if outside.any():
                raise _outside(var, len(idx_values),
                               int(vals[outside.argmax()]))
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


def _governor(bound: BoundModel, var: str, key: tuple) -> GraphNode:
    node = bound.node_of.get((var, key))
    if node is None:
        raise UndefinedReferenceError(
            f"{instance_name(var, key)} is not governed by any statement")
    return node


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

    def __init__(self, bound: BoundModel, slots, mode: str):
        self.bound = bound
        self.src = codegen.Source(len(slots))
        self.mode = mode
        self.order = topo_order(bound.graph)
        self.blocks = []
        self.cells = {}
        if mode == UNROLLED:
            for slot in slots:
                self.cells[(slot.variable, slot.key)] = self.src.latent(
                    slot.offset, slot.transform.name)
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
        for slot in slots:
            by_var.setdefault(slot.variable, []).append(slot)
        for var, axes in graph.var_axes.items():
            if all(n.kind == "deterministic" for n in graph.by_var[var]):
                continue
            mine = by_var.get(var, [])
            if not axes:
                st, val = bound.status.get((var, ()), (None, math.nan))
                if st == OBSERVED or not mine:
                    # no slot: a discrete latent of a simulate-only plan
                    self.values[var] = self.src.const(
                        val if st == OBSERVED else math.nan)
                else:
                    self.values[var] = self.src.latent(
                        mine[0].offset, mine[0].transform.name)
                continue
            layout = bound.layouts[var]
            base = np.zeros(layout.size)
            for key in layout.keys():
                st, val = bound.status.get((var, key), (None, math.nan))
                if st == OBSERVED:
                    base[layout.flat(key)] = val
            groups: dict[str, tuple[list, list]] = {}
            for slot in mine:
                offs, poss = groups.setdefault(slot.transform.name, ([], []))
                offs.append(slot.offset)
                poss.append(layout.flat(slot.key))
            latent = np.zeros(layout.size, dtype=bool)
            puts = []
            for kind, (offs, poss) in groups.items():
                poss = np.asarray(poss, dtype=np.int64)
                puts.append((poss, self.src.latent(
                    np.asarray(offs, dtype=np.int64), kind)))
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
        if self.mode == UNROLLED:
            _flat_positions(bound, name, idx_values)   # checks the range
            return self.at(name, tuple(int(v) for v in idx_values))
        if any(n.kind == "deterministic" for n in bound.graph.by_var[name]):
            if not ref.indices:
                return self.expr(bound.node_of[(name, ())].stmt.rhs, {})
            return self.inline_deterministic(name, idx_values)
        if not ref.indices:
            return self.values[name]
        return self.read(name, _flat_positions(bound, name, idx_values))

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
        rows_of: dict[int, tuple] = {}
        for i, key in enumerate(zip(*(c.tolist() for c in cols))):
            node = _governor(self.bound, var, key)
            rows_of.setdefault(id(node), (node, []))[1].append(i)
        pieces = [(np.asarray(rows, dtype=np.int64),
                   self.governed(var, node, [c[rows] for c in cols]))
                  for node, rows in rows_of.values()]
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
                    for key in node.domain:
                        self.at(var, key)
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
        if self.mode == UNROLLED:
            # a stochastic cell with no slot: observed, or a discrete
            # latent of a simulate-only plan (NaN)
            return self.src.const(self.bound.status[(var, key)][1])
        # mixed stochastic/deterministic variable: read the array
        layout = self.bound.layouts[var]
        if isinstance(key, tuple):
            return self.read(var, layout.flat(key))
        return self.read(var, np.asarray(
            [layout.flat(k) for k in zip(*key)], dtype=np.int64))

    def statement(self, node: GraphNode) -> None:
        """FUSED: the term of one stochastic statement over its whole
        domain."""
        var, domain = node.variable, node.domain
        status = self.bound.status
        indexed = bool(self.bound.graph.var_axes[var])
        if node.n_symbolic == 0:
            (key,) = domain
            st, _ = status[(var, key)]
            self.blocks.append(ScalarSite(instance_name(var, key), var, key,
                                          st, node.stmt.dist.name))
            pos = self.bound.layouts[var].flat(key) if indexed else None
            km, observed = {}, st == OBSERVED
        else:
            layout = self.bound.layouts[var]
            pos = np.asarray([layout.flat(k) for k in domain], dtype=np.int64)
            obs = np.flatnonzero([status[(var, k)][0] == OBSERVED
                                  for k in domain])
            observed = (len(obs) == len(domain)) \
                if len(obs) in (0, len(domain)) else obs
            km = _binding_for(node, [np.asarray(col, dtype=np.int64)
                                     for col in zip(*domain)])
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
        st, _ = self.bound.status[(node.variable, key)]
        self.src.term(node.stmt.dist.name, v, params, st == OBSERVED)


def _lower(bound: BoundModel, slots, mode: str):
    """One-site statements, program, and the first input with no value or
    None; a plan with an unresolved input never runs its program. UNROLLED
    visits cells in topological order and, inside a node, in domain
    order."""
    lowering = _Lowering(bound, slots, mode)
    unresolved = None
    for node in lowering.order:
        try:
            if mode == UNROLLED:
                for key in node.domain:
                    lowering.cell(node, key)
            elif node.kind == "stochastic" and node.domain:
                lowering.statement(node)
        except _UnresolvedInput as e:
            unresolved = unresolved or e.name
    return lowering.blocks, lowering.src.build(), unresolved


# --- the executable plan ---------------------------------------------------------------


class ExecutablePlan:
    """Compiled log-density program over an unconstrained latent vector."""

    def __init__(self, bound: BoundModel, slots, simulate_only, mode,
                 blocks, program, unresolved):
        self.bound = bound
        self.graph = bound.graph
        self.ranges = bound.ranges
        self.slots = slots
        self.mode = mode
        self.blocks = blocks            # FUSED: one-site statements
        self.simulate_only = simulate_only
        self.bindings = bound.bindings
        self._program = program         # codegen.Program
        self._unresolved = unresolved   # an input with no value, or None
        by_transform: dict[object, list] = {}
        for s in slots:
            by_transform.setdefault(s.transform, []).append(s.offset)
        self._transforms = [(tr, np.asarray(offs, dtype=np.int64))
                            for tr, offs in by_transform.items()]

    # -- layout ----------------------------------------------------------

    @property
    def latent_dim(self) -> int:
        return len(self.slots)

    @property
    def site_names(self) -> list:
        return [s.name for s in self.slots]

    @property
    def n_latent_params(self) -> int:
        return sum(1 for s in self.slots if s.kind == LATENT_PARAM)

    @property
    def n_observed(self) -> int:
        return sum(1 for b in self.bindings if b.status == OBSERVED)

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

    def logdensity(self, u) -> float:
        u = np.asarray(u, dtype=float)
        if u.shape != (self.latent_dim,):
            raise ValueError(f"latent vector must have shape "
                             f"({self.latent_dim},), got {u.shape}")
        if np.isnan(u).any():
            raise NonFiniteDensityError("latent vector contains NaN")
        with np.errstate(all="ignore"):
            return float(self.eval_logdensity(u))

    def compile_gradient(self) -> None:
        """Compile the generated value-and-gradient function now rather
        than on its first call, so that processes forked afterwards share
        it; raises what logdensity_and_grad would for an un-evaluable plan."""
        self._check_evaluable()
        self._program.value_and_grad    # codegen.Program compiles on access

    def logdensity_and_grad(self, u):
        """Value and gradient at u. NaN anywhere in u raises
        NonFiniteDensityError. A value of -inf, or NaN reported as -inf,
        comes back with a zero gradient, and so does a point whose gradient
        overflows; callers treat the point as rejected."""
        self._check_evaluable()
        u = np.asarray(u, dtype=float)
        with np.errstate(all="ignore"):
            value, grad = self._program.value_and_grad(u)
        # a NaN slot makes its own prior term, and so the value, non-finite
        if not -math.inf < value < math.inf and np.isnan(u).any():
            raise NonFiniteDensityError("latent vector contains NaN")
        if not np.isfinite(grad).all():
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
    slots, simulate_only = build_layout(bound)
    # lowering allocates hundreds of thousands of small objects that live
    # until it ends; cyclic collections would walk them over and over
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        blocks, program, unresolved = _lower(bound, slots, mode)
    finally:
        if gc_was_enabled:
            gc.enable()
    return ExecutablePlan(bound, slots, simulate_only, mode, blocks, program,
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
    (scalar variables repeat across index rows). Cells are drawn in UNROLLED
    order; a cell read before its turn is drawn on demand (see
    `_Simulation`)."""
    bound = plan.bound
    graph = bound.graph
    sim = _Simulation(bound, rng, n_draws)
    for node in topo_order(graph):
        for key in node.domain:
            sim.at(node.variable, key)

    used = [d.name for d in graph.ast.indices
            if any(d.name in (a for a in graph.var_axes[v] if a)
                   for v in graph.var_axes)]
    out_vars = [v for v in graph.var_axes
                if not any(a is None for a in graph.var_axes[v])]
    keys = list(itertools.product(*(range(*_incl(bound.ranges[a]))
                                    for a in used)))
    grid = np.array(keys, dtype=np.int64).reshape(len(keys), len(used))
    cols = {}
    for v in out_vars:
        layout = bound.layouts[v]
        pos = np.zeros(len(grid), dtype=np.int64)
        for p, axis in enumerate(layout.axes):
            pos += (grid[:, used.index(axis)]
                    - layout.axis_values[p][0]) * layout.strides[p]
        cells = np.stack([sim.at(v, key) for key in layout.keys()], axis=1)
        cols[v] = cells[:, pos].ravel()
    idx_rows = np.column_stack([np.repeat(np.arange(n_draws), len(grid)),
                                np.tile(grid, (n_draws, 1))])
    return make_table(["draw"] + used, idx_rows, cols)


class _Simulation:
    """Prior draws of every cell, `n` per cell, made once each and kept in
    `cells` by (variable, key). A stochastic cell is drawn from its
    distribution with the parameters as arrays over the draws; a
    deterministic cell is its right-hand side over the same arrays. A cell
    read before its turn is made on demand, as `_Lowering.at` does, so a
    lag on any axis reads a cell that exists."""

    def __init__(self, bound: BoundModel, rng: np.random.Generator, n: int):
        self.bound = bound
        self.rng = rng
        self.n = n
        self.cells = {}

    def at(self, var: str, key: tuple) -> np.ndarray:
        v = self.cells.get((var, key))
        if v is None:
            node = _governor(self.bound, var, key)
            km = _binding_for(node, key)
            if node.kind == "deterministic":
                v = np.broadcast_to(np.asarray(
                    self.expr(node.stmt.rhs, km), dtype=float), (self.n,))
            else:
                params = [self.expr(p, km) for p in node.stmt.dist.params]
                v = np.asarray(dist.lookup(node.stmt.dist.name).sample(
                    self.rng, *params, size=(self.n,)), dtype=float)
            self.cells[(var, key)] = v
        return v

    def expr(self, expr, km):
        """A float, or an array over the draws."""
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
            return float(inp.array[_input_positions(inp, idx_values)])
        idx_values = [_term_value(bound, t, km) for t in ref.indices]
        _flat_positions(bound, name, idx_values)   # checks the range
        return self.at(name, tuple(int(v) for v in idx_values))
