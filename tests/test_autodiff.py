"""Reverse-mode rules of the generated code checked against central differences.

Both plan modes differentiate through the code that `ldmlang.codegen`
generates from one closed-form rule per operator and call. Each test puts an
expression of a latent vector x[i] into an observed statement, compiles it
in both modes, and compares the gradient with central differences of the
value, or with a closed form.
"""

import math

import numpy as np
import pytest
import scipy.stats as st

from ldmlang import codegen
from ldmlang import plan as pl
from ldmlang.datatable import make_table

# the prior of x[i] for each support its expression needs
PRIOR = {"real": "N(0, 1)", "positive": "Exp(1)", "unit": "Beta(2, 2)"}

Y = np.array([0.4, -0.3, 1.1])
COLUMNS = {"y": Y, "c": np.array([1.0, 2.0, 3.0]),
           "z": np.array([1.0, 0.0, 1.0]), "k": np.array([0.0, 4.0, 2.0])}


def compile_both(stmt, support="real"):
    """Both modes of a model with a scalar a, a latent x[i] and the
    observed statement `stmt`, which may read the input c[i]."""
    obs = stmt.split("[")[0]
    inputs = ["c"] if "c[" in stmt else []
    src = "\n".join(["ProgramName: Rule", "Indices: i 0 2"]
                    + [f"Inputs: {name}" for name in inputs]
                    + ["a ~ N(0, 1)", f"x[i] ~ {PRIOR[support]}", stmt, ""])
    table = make_table(("i",), [[0], [1], [2]],
                       {name: COLUMNS[name] for name in [obs] + inputs})
    return [pl.compile_model(src, tables=(table,), obs=(obs,), mode=mode)
            for mode in (pl.FUSED, pl.UNROLLED)]


def check_grad(stmt, support="real", h=1e-6):
    rng = np.random.default_rng(0)
    for plan in compile_both(stmt, support):
        for _ in range(3):
            u = rng.uniform(-1.5, 1.5, plan.latent_dim)
            _, grad = plan.logdensity_and_grad(u)
            for i in range(plan.latent_dim):
                e = np.zeros(plan.latent_dim)
                e[i] = h
                fd = (plan.logdensity(u + e) - plan.logdensity(u - e)) / (2 * h)
                assert grad[i] == pytest.approx(fd, rel=1e-5, abs=1e-6), \
                    (stmt, plan.mode, i)


def test_arithmetic_chain():
    check_grad("y[i] ~ N(x[i] * 2 + 1 - x[i] / 3, 1.5)")


def test_node_times_node():
    # both operands are the same value, so its adjoint accumulates twice
    check_grad("y[i] ~ N(x[i] * x[i], 1.5)")


def test_reflected_operators_with_ndarray():
    # a constant vector on the left of a latent operand
    for op in "+-*":
        check_grad(f"y[i] ~ N(c[i] {op} x[i], 1.5)")
    check_grad("y[i] ~ N(c[i] / x[i], 1.5)", "positive")


def test_scalar_node_broadcast_against_array():
    # a scalar parameter in the mean of every cell: its adjoint sums over
    # the cells, d/da = -a + sum(y - a) / sd^2
    for plan in compile_both("y[i] ~ N(a, 1.5)"):
        u = np.zeros(plan.latent_dim)
        u[0] = 0.5
        _, grad = plan.logdensity_and_grad(u)
        assert grad[0] == pytest.approx(-0.5 + np.sum(Y - 0.5) / 2.25,
                                        rel=1e-12), plan.mode


def test_pow():
    check_grad("y[i] ~ N(pow(x[i], 3), 1.5)")
    # base and exponent both latent
    check_grad("y[i] ~ N(pow(x[i], a), 1.5)", "positive")


def test_unary_functions():
    for fn, support in [("exp", "real"), ("log", "positive"),
                        ("sqrt", "positive"), ("expit", "real"),
                        ("logit", "unit"), ("abs", "real")]:
        check_grad(f"y[i] ~ N({fn}(x[i]), 1.5)", support)


def test_raw_passthrough():
    # calls and operators over constants fold at compile time, so no
    # generated line computes exp(2) * c[i]
    c = COLUMNS["c"]
    want = 4 * st.norm.logpdf(0.0) + st.norm.logpdf(Y, math.exp(2) * c,
                                                    1.5).sum()
    for plan in compile_both("y[i] ~ N(exp(2) * c[i] + a, 1.5)"):
        assert "np.exp(" not in plan._program.source, plan.mode
        assert plan.logdensity(np.zeros(4)) == pytest.approx(want, rel=1e-12)


def test_index():
    # x[1] read at a fixed position: the other cells of x get only their
    # prior's gradient
    for plan in compile_both("y[i] ~ N(10 * x[1], 1.5)"):
        u = np.array([0.0, 0.3, 0.2, 0.3])
        _, grad = plan.logdensity_and_grad(u)
        np.testing.assert_allclose(
            grad, [0.0, -0.3, -0.2 + 10 * np.sum(Y - 2.0) / 2.25, -0.3],
            rtol=1e-12)


def test_where():
    # np.where picks log p or log(1 - p) per cell; the gradient follows
    # each cell's branch
    check_grad("z[i] ~ Bernoulli(expit(x[i]))")


def test_where_blocks_inactive_branch():
    # cells at 0 and at n take the constant branch of the Binomial's
    # np.where; the other branch must not reach the gradient
    check_grad("k[i] ~ Binomial(4, expit(x[i]))")


def test_unbroadcast_sums_over_expanded_axes():
    # a scalar times a constant vector: the scalar's adjoint is a sum
    check_grad("y[i] ~ N(c[i] * a, 1.5)")


def test_unused_input_gets_zero_gradient():
    src = codegen.Source(2)
    x = src.latent(0, "identity")
    src.term("N", x, [src.const(0.0), src.const(1.0)], False)
    value, grad = src.build().value_and_grad(np.array([0.5, 3.0]))
    assert value == pytest.approx(st.norm.logpdf(0.5), rel=1e-12)
    np.testing.assert_array_equal(grad, [-0.5, 0.0])


def test_neg():
    check_grad("y[i] ~ N(-x[i] * 3, 1.5)")
