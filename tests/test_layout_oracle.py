"""Array domains and the run-based latent layout against the per-cell code
they replaced.

`reference_domains` is `graph.assign_domains` as it was when it walked every
cell, with its helpers `var_grid`, `node_candidates` and `_matches`;
`reference_slots` is `plan.build_layout` as it was when it made one record
per latent cell. Both are copied here unchanged but for their inputs and
outputs (domains come back as a dict keyed by statement order instead of
being stored on the nodes, slots as tuples). The array code must give the
same keys per statement in the same order, the same slots when its runs are
expanded cell by cell, and the same error type and message, naming the same
first cell.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings

from ldmlang import distributions as dist
from ldmlang import graph as g
from ldmlang import plan as pl
from ldmlang.datatable import make_table
from ldmlang.errors import (
    LdmError, MissingIndexRangeError, OverlappingDefinitionsError,
    UndefinedReferenceError,
)
from ldmlang.frontend import parse_program

from conftest import CORPUS, MODELS
from test_acceptance import capped_ast, corpus_case
from test_codegen import programs
from test_graph import NO_BASE_CASE, OUT_OF_RANGE, OVERLAP, SHADOWED
from test_plan import GENERAL_LAG, GRP, dbn_panel


# --- the per-cell reference ---------------------------------------------------


def var_grid(graph, var, ranges):
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


def node_candidates(node, ranges):
    spans = []
    for kind, val in node.selector:
        if kind == "fixed":
            spans.append((val,))
        else:
            lo, hi = ranges[val]
            lo += node.lag_by_axis.get(val, 0)
            spans.append(range(lo, hi + 1))
    return list(itertools.product(*spans))


def _matches(node, key, ranges):
    for (kind, val), k in zip(node.selector, key):
        if kind == "fixed":
            if k != val:
                return False
        else:
            lo, _ = ranges[val]
            if k < lo + node.lag_by_axis.get(val, 0):
                return False
    return True


def reference_domains(graph, ranges):
    """Statement order -> list of governed keys."""
    domains = {}
    for var, nodes in graph.by_var.items():
        grid = var_grid(graph, var, ranges)
        grid_set = set(grid)
        for node in nodes:
            for key in node_candidates(node, ranges):
                if key not in grid_set:
                    raise UndefinedReferenceError(
                        f"{g.instance_name(var, key)} lies outside the declared range")
        claims = {}
        for key in grid:
            matches = [n for n in nodes if _matches(n, key, ranges)]
            if not matches:
                raise UndefinedReferenceError(
                    f"{g.instance_name(var, key)} is not governed by any statement"
                    " (missing base case?)")
            top = max(len(n.selector) - n.n_symbolic for n in matches)
            winners = [n for n in matches if len(n.selector) - n.n_symbolic == top]
            if len(winners) > 1:
                names = " and ".join(w.describe() for w in winners)
                raise OverlappingDefinitionsError(
                    f"{g.instance_name(var, key)} is governed by both {names}")
            claims[key] = winners[0]
        for node in nodes:
            domains[node.order] = [k for k in grid if claims[k] is node]
    return domains


def _keys_at(layout, pos):
    pos = np.asarray(pos, dtype=np.int64)
    cols = [np.asarray(vals)[pos // stride % len(vals)].tolist()
            for vals, stride in zip(layout.axis_values, layout.strides)]
    return list(zip(*cols)) if cols else [()] * len(pos)


def reference_slots(bound, domains):
    """(slots as tuples, simulate_only)."""
    slots = []
    simulate_only = False
    for node in g.topo_order(bound.graph):
        if node.kind != "stochastic":
            continue
        var = node.variable
        latent = bound.status_code[var][pl._positions(bound, node)] == pl._LATENT
        if not latent.any():
            continue
        spec = dist.lookup(node.stmt.dist.name)
        if spec.is_discrete:
            simulate_only = True
            continue
        transform = dist.transform_for(spec.support)
        for i in np.flatnonzero(latent).tolist():
            key = domains[node.order][i]
            slots.append((g.instance_name(var, key), var, key, pl.LATENT_PARAM,
                          transform, len(slots), spec.name))
    for var in sorted(bound.status_code):
        pos = np.flatnonzero(bound.status_code[var] == pl._MISSING)
        governors = bound.governor[var][pos].tolist()
        for key, gov in zip(_keys_at(bound.layouts[var], pos), governors):
            spec = dist.lookup(bound.graph.nodes[gov].stmt.dist.name)
            slots.append((g.instance_name(var, key), var, key,
                          pl.MISSING_IMPUTED, dist.transform_for(spec.support),
                          len(slots), spec.name))
    return slots, simulate_only


# --- comparisons -------------------------------------------------------------------


def _outcome(fn):
    try:
        return fn()
    except LdmError as e:
        return type(e), str(e)


def assert_same_domains(source, ranges=None):
    """Both assignments on fresh graphs of `source`: the same keys per
    statement, or the same error."""
    ast = parse_program(source) if isinstance(source, str) else source
    if ranges is None:
        ranges = g.resolve_indices(ast)
    expected = _outcome(lambda: reference_domains(g.build_graph(ast), ranges))
    graph = g.build_graph(ast)

    def domains():
        g.assign_domains(graph, ranges)
        for node in graph.nodes:
            assert node.domain.dtype == np.int64
            assert node.domain.shape[1] == len(node.selector)
        return {n.order: [tuple(k) for k in n.domain.tolist()]
                for n in graph.nodes}

    got = _outcome(domains)
    assert got == expected
    return got


def assert_same_slots(source, tables=(), obs=(), inputs=None):
    plan = pl.compile_model(source, tables, obs, inputs)
    domains = reference_domains(g.build_graph(plan.graph.ast), plan.ranges)
    for node in plan.graph.nodes:
        assert [tuple(k) for k in node.domain.tolist()] == domains[node.order]
    slots, simulate_only = reference_slots(plan.bound, domains)
    assert [(g.instance_name(run.variable, key), run.variable, key, run.kind,
             run.transform, run.offset + i, run.dist)
            for run in plan.runs
            for i, key in enumerate(_keys_at(plan.bound.layouts[run.variable],
                                             run.pos))] == slots
    assert plan.simulate_only == simulate_only
    assert plan.site_names == [s[0] for s in slots]
    assert plan.latent_dim == len(slots)
    assert plan.n_latent_params == sum(s[3] == pl.LATENT_PARAM for s in slots)
    return plan


MODEL_NAMES = sorted(p.name for p in MODELS.glob("*.ldm"))


@pytest.mark.parametrize("cap", [3, None])
@pytest.mark.parametrize("name", MODEL_NAMES)
def test_models_match_the_per_cell_reference(name, cap):
    ast, _ = capped_ast(name, cap)
    assert_same_domains(ast)
    assert_same_slots(ast)


@pytest.mark.parametrize("cap", [12, None])
@pytest.mark.parametrize("name", CORPUS)
def test_corpus_data_matches_the_per_cell_reference(name, cap):
    plan = assert_same_slots(*corpus_case(name, cap=cap))
    if name in ("ar1.ldm", "ar2.ldm", "dbn.ldm"):   # with missing cells
        assert any(run.kind == pl.MISSING_IMPUTED for run in plan.runs), name


def test_general_lag_matches_the_per_cell_reference():
    assert_same_domains(GENERAL_LAG)
    y = np.random.default_rng(6).normal(size=6)
    y[[2, 4]] = np.nan
    table = make_table(("t",), [[t] for t in range(6)], {"y": y, "grp": GRP})
    assert_same_slots(GENERAL_LAG, tables=(table,), obs=("y",))
    assert_same_slots(GENERAL_LAG, inputs={"grp": GRP})


# a 2-D overlap names its first cell; literal-only axes have non-contiguous
# values; the missing cells of a variable governed by three statements
# make three imputation runs
EXTRA = {
    "overlap_2d": """ProgramName: M
Indices: n 0 2, t 0 3
x[n, 0] ~ N(0, 1)
x[0, t] ~ N(0, 1)
x[n, t] ~ N(x[n, t-1], 1)
""",
    "literal_axes": """ProgramName: M
Indices: t 0 3
z[0] ~ N(0, 1)
z[2] ~ Exp(1)
w[0, t] ~ N(z[0], 1)
w[3, t] ~ N(z[2], 1)
y ~ N(z[0] + w[3, 1], 1)
""",
    "fully_shadowed": """ProgramName: M
Indices: t 0 0
x[t] ~ N(0, 1)
x[0] ~ N(1, 1)
""",
    "mixed_dists": """ProgramName: M
Indices: t 0 5
s ~ Exp(1)
y[0] ~ Exp(1)
y[3] ~ Gamma(2, 2)
y[t] ~ N(y[t-1], s)
""",
}


@pytest.mark.parametrize("source", [SHADOWED, OVERLAP, NO_BASE_CASE, OUT_OF_RANGE]
                         + list(EXTRA.values()),
                         ids=["shadowed", "overlap", "no_base_case",
                              "out_of_range"] + list(EXTRA))
def test_graph_programs_match_the_per_cell_reference(source):
    got = assert_same_domains(source)
    if isinstance(got, dict):
        assert_same_slots(source)


def test_errors_name_the_same_first_cell():
    overlap = assert_same_domains(EXTRA["overlap_2d"])
    assert overlap == (OverlappingDefinitionsError,
                       "x[0,0] is governed by both x[n,0] and x[0,t]")
    assert assert_same_domains(NO_BASE_CASE)[1].startswith("x[0] is not")
    assert assert_same_domains(OUT_OF_RANGE)[1].startswith("x[9] lies")


@pytest.mark.parametrize("ranges", [
    {"t": (0, 0)},        # the lagged statement claims nothing
    {"t": (2, 2)},        # the base case lies outside the range
    {"t": (0, 3)},
])
def test_restricted_ranges_match_the_per_cell_reference(ranges):
    src = """ProgramName: M
Indices: t 0 3
x[0] ~ N(0, 1)
x[t] ~ N(x[t-1], 1)
"""
    assert_same_domains(src, ranges)


def test_imputation_runs_split_where_the_governing_statement_changes():
    y = [np.nan, 1.0, 0.5, np.nan, np.nan, np.nan]
    table = make_table(("t",), [[t] for t in range(6)], {"y": y})
    plan = assert_same_slots(EXTRA["mixed_dists"], tables=(table,), obs=("y",))
    runs = [(r.variable, r.pos.tolist(), r.offset, r.kind, r.dist)
            for r in plan.runs]
    assert runs == [("s", [0], 0, pl.LATENT_PARAM, "Exp"),
                    ("y", [0], 1, pl.MISSING_IMPUTED, "Exp"),
                    ("y", [3], 2, pl.MISSING_IMPUTED, "Gamma"),
                    ("y", [4, 5], 3, pl.MISSING_IMPUTED, "N")]


@settings(max_examples=40, deadline=None)
@given(programs())
def test_generated_programs_match_the_per_cell_reference(case):
    src, table, _ = case
    assert_same_domains(src, g.resolve_indices(parse_program(src), (table,)))
    assert_same_slots(src, tables=(table,), obs=("y", "w", "z"))


def test_dbn_panel_matches_the_per_cell_reference():
    src = dbn_panel(50)
    assert_same_domains(src)
    assert_same_slots(src)
