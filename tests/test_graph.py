"""Dependency graph construction, domains, topological order, and DOT output."""

import numpy as np
import pytest

from ldmlang import graph as g
from ldmlang.errors import (
    CycleDetectedError, MissingIndexRangeError, OverlappingDefinitionsError,
    RangeConflictError, UndefinedReferenceError,
)
from ldmlang.frontend import parse_program as parse

from conftest import CORPUS, model_text


def build(src):
    return g.build_graph(parse(src))


def analyzed(src, ranges=None):
    graph = build(src)
    if ranges is None:
        ranges = g.resolve_indices(graph.ast)
    g.assign_domains(graph, ranges)
    return graph, ranges


AR1_SMALL = """ProgramName: M
Indices: t 0 4
a ~ N(0, 1)
y[0] ~ N(0, 1)
y[t] ~ N(a * y[t-1], 1)
"""


def test_resolve_indices_from_header():
    graph = build(AR1_SMALL)
    assert g.resolve_indices(graph.ast) == {"t": (0, 4)}


def test_resolve_indices_conflict_with_data():
    from ldmlang.datatable import make_table
    graph = build(AR1_SMALL)
    table = make_table(("t",), [[t] for t in range(9)], {"y": [0.0] * 9})
    with pytest.raises(RangeConflictError):
        g.resolve_indices(graph.ast, (table,))


def test_resolve_indices_missing_range():
    src = "ProgramName: M\nx[t] ~ N(0, 1)\n"
    # no header and no data leaves the axis unresolved
    with pytest.raises(MissingIndexRangeError):
        g.resolve_indices(parse(src))


def test_domains_partition_the_grid():
    graph, ranges = analyzed(AR1_SMALL)
    nodes = graph.by_var["y"]
    base = next(n for n in nodes if n.selector == (("fixed", 0),))
    generic = next(n for n in nodes if n.selector == (("sym", "t"),))
    assert base.domain.tolist() == [[0]]
    assert generic.domain.tolist() == [[1], [2], [3], [4]]
    assert base.domain.dtype == generic.domain.dtype == np.int64


SHADOWED = """ProgramName: M
Indices: t 0 3
x[t] ~ N(0, 1)
x[2] ~ N(5, 1)
"""

OVERLAP = """ProgramName: M
Indices: t 0 3
x[t] ~ N(0, 1)
x[t] ~ N(1, 1)
"""

NO_BASE_CASE = """ProgramName: M
Indices: t 0 4
x[t] ~ N(x[t-1], 1)
"""

OUT_OF_RANGE = """ProgramName: M
Indices: t 0 3
x[t] ~ N(0, 1)
x[9] ~ N(0, 1)
"""


def test_explicit_statement_shadows_generic():
    graph, _ = analyzed(SHADOWED)
    explicit = next(n for n in graph.by_var["x"] if n.selector == (("fixed", 2),))
    generic = next(n for n in graph.by_var["x"] if n.selector == (("sym", "t"),))
    assert explicit.domain.tolist() == [[2]]
    assert [2] not in generic.domain.tolist()
    assert sorted(explicit.domain.tolist() + generic.domain.tolist()) == [
        [0], [1], [2], [3]]


def test_equal_specificity_overlap_is_an_error():
    with pytest.raises(OverlappingDefinitionsError):
        analyzed(OVERLAP)


def test_missing_base_case_is_reported():
    with pytest.raises(UndefinedReferenceError, match="missing base case"):
        analyzed(NO_BASE_CASE)


def test_out_of_range_explicit_instance():
    with pytest.raises(UndefinedReferenceError, match="outside the declared range"):
        analyzed(OUT_OF_RANGE)


def test_within_slice_self_cycle():
    src = """ProgramName: M
Indices: t 0 3
x[t] ~ N(x[t], 1)
"""
    graph = build(src)
    with pytest.raises(CycleDetectedError, match="itself within a slice"):
        g.topo_order(graph)


def test_literal_self_read_is_a_cycle():
    # x[0] lies in the domain of x[t] itself; a literal is not a lookup
    graph = build("""ProgramName: M
Indices: t 0 3
x[t] ~ N(x[0], 1)
""")
    with pytest.raises(CycleDetectedError, match="itself within a slice"):
        g.topo_order(graph)


def test_two_statement_cycle():
    src = """ProgramName: M
a = b + 1
b = a + 1
"""
    graph = build(src)
    with pytest.raises(CycleDetectedError) as exc:
        g.topo_order(graph)
    assert set(exc.value.cycle) == {"a", "b"}


def test_arity_must_be_consistent():
    src = """ProgramName: M
Indices: t 0 3, n 0 2
x[t] ~ N(0, 1)
y[n, t] ~ N(x[n, t], 1)
"""
    with pytest.raises(UndefinedReferenceError, match="index term"):
        build(src)


def test_axis_names_must_be_consistent():
    src = """ProgramName: M
Indices: t 0 3, n 0 3
x[t] ~ N(0, 1)
y[n] ~ N(x[n], 1)
"""
    with pytest.raises(UndefinedReferenceError, match="position"):
        build(src)


def test_topo_order_is_a_valid_schedule():
    for name in CORPUS:
        graph = build(model_text(name))
        order = g.topo_order(graph)
        assert sorted(id(n) for n in order) == sorted(id(n) for n in graph.nodes)
        pos = {id(n): i for i, n in enumerate(order)}
        for node in graph.nodes:
            for edge in node.deps:
                for target in graph.by_var.get(edge.target, ()):
                    if target is node:
                        continue
                    if edge.max_lag == 0:
                        assert pos[id(target)] < pos[id(node)], (name, node.variable)
                    elif target.n_symbolic < len(target.selector):
                        # base cases precede the recurrences that read them
                        assert pos[id(target)] < pos[id(node)], (name, node.variable)


def test_parameters_come_first_in_topo_order():
    graph = build(model_text("ar1.ldm"))
    order = [n.variable for n in g.topo_order(graph)]
    assert order[:3] == ["a", "b", "sigma"]
    assert order[3:] == ["y", "y"]


def test_domains_cover_capped_corpus_ranges():
    for name in CORPUS:
        graph = build(model_text(name))
        ranges = {d.name: (d.lo, min(d.hi, d.lo + 4)) for d in graph.ast.indices}
        g.assign_domains(graph, ranges)
        for var in graph.variables():
            layout = graph.layouts[var]
            grid = layout.keys(np.arange(layout.size)).tolist()
            claimed = [k for n in graph.by_var[var] for k in n.domain.tolist()]
            assert sorted(claimed) == sorted(grid), (name, var)
            assert len(set(map(tuple, claimed))) == len(claimed), (name, var)


def test_instance_name():
    assert g.instance_name("x", ()) == "x"
    assert g.instance_name("x", (3,)) == "x[3]"
    assert g.instance_name("x", (1, 2)) == "x[1,2]"


def test_time_axis_helper():
    graph = build(model_text("dbn.ldm"))
    assert graph.time_axis("EM") == "t"
    assert graph.time_axis("s_e") is None


def test_dot_renders_two_slice_view():
    dot = g.to_dot(build(model_text("dbn.ldm")))
    assert "cluster_prev" in dot and "cluster_cur" in dot
    assert "P_cur -> A_cur;" in dot  # within-slice arrow
    assert "C_prev -> IM_cur;" in dot  # cross-variable lag arrow
    # parameters stay out of the structural view
    assert "w_ee" not in dot


def test_dot_lag_label_beyond_one():
    dot = g.to_dot(build(model_text("ar2.ldm")))
    assert 'y_prev -> y_cur [label="-2"];' in dot


def test_dot_plain_dag_for_scalar_models():
    dot = g.to_dot(build(model_text("linear_regression.ldm")))
    assert "cluster_prev" not in dot
    assert "a -> y;" in dot
