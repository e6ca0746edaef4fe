"""Tape-based reverse-mode gradients checked against central differences."""

import numpy as np
import pytest

from ldmlang import autodiff as ad


def numeric_grad(f, x, h=1e-6):
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for i in range(x.size):
        up, dn = x.copy(), x.copy()
        up.flat[i] += h
        dn.flat[i] -= h
        g.flat[i] = (f(up) - f(dn)) / (2 * h)
    return g


def check_grad(f, x, atol=1e-6):
    tape = ad.Tape()
    xin = tape.input(np.asarray(x, dtype=float))
    out = f(xin)
    got = tape.backward(out, xin)
    want = numeric_grad(lambda v: float(np.asarray(f(v))), x)
    np.testing.assert_allclose(got, want, atol=atol, rtol=1e-5)


def test_arithmetic_chain():
    check_grad(lambda x: ad.tsum(x * 2.0 + 1.0 - x / 3.0), [1.0, -2.0, 0.5])


def test_node_times_node():
    tape = ad.Tape()
    x = tape.input(np.array([2.0, 3.0]))
    out = ad.tsum(x * x)
    assert tape.backward(out, x) == pytest.approx([4.0, 6.0])


def test_reflected_operators_with_ndarray():
    # raw ndarray on the left must defer to the Node's reflected op
    a = np.array([1.0, 2.0, 3.0])
    check_grad(lambda x: ad.tsum(a - x), [0.5, 0.5, 0.5])
    check_grad(lambda x: ad.tsum(a * x), [0.5, 1.5, 2.5])
    check_grad(lambda x: ad.tsum(a / x), [1.0, 2.0, 4.0])
    check_grad(lambda x: ad.tsum(a + x), [1.0, 1.0, 1.0])


def test_scalar_node_broadcast_against_array():
    # scalar latent parameter used across a vector of observations
    obs = np.array([1.0, 2.0, 3.0, 4.0])
    tape = ad.Tape()
    mu = tape.input(0.5)
    out = ad.tsum(ad.square(obs - mu))
    g = tape.backward(out, mu)
    assert g == pytest.approx(-2 * np.sum(obs - 0.5))


def test_pow():
    check_grad(lambda x: ad.tsum(x ** 3.0), [1.5, 2.0])
    tape = ad.Tape()
    x = tape.input(np.array([2.0]))
    y = tape.input(np.array([3.0]))
    out = ad.tsum(x ** y)
    assert tape.backward(out, x) == pytest.approx([3 * 4.0])
    assert tape.backward(out, y)[0] == pytest.approx(8.0 * np.log(2.0))


def test_unary_functions():
    pts = [0.3, 1.7]
    check_grad(lambda x: ad.tsum(ad.exp(x)), pts)
    check_grad(lambda x: ad.tsum(ad.log(x)), pts)
    check_grad(lambda x: ad.tsum(ad.log1p(x)), pts)
    check_grad(lambda x: ad.tsum(ad.sqrt(x)), pts)
    check_grad(lambda x: ad.tsum(ad.square(x)), pts)
    check_grad(lambda x: ad.tsum(ad.expit(x)), [-1.0, 0.5])
    check_grad(lambda x: ad.tsum(ad.logit(x)), [0.2, 0.8])
    check_grad(lambda x: ad.tsum(ad.softplus(x)), [-2.0, 3.0])
    check_grad(lambda x: ad.tsum(ad.lgamma(x)), [0.7, 4.2])
    check_grad(lambda x: ad.tsum(ad.absolute(x)), [-1.5, 2.5])


def test_raw_passthrough():
    # ops on plain arrays stay plain
    out = ad.exp(np.array([0.0, 1.0]))
    assert isinstance(out, np.ndarray)
    assert ad.tsum(np.ones(4)) == 4.0


def test_index():
    tape = ad.Tape()
    x = tape.input(np.array([1.0, 2.0, 3.0]))
    out = ad.index(x, 1) * 10.0
    assert tape.backward(out, x) == pytest.approx([0.0, 10.0, 0.0])


def test_where():
    cond = np.array([True, False, True])
    check_grad(lambda x: ad.tsum(ad.where(cond, x * 2.0, x * 3.0)),
               [1.0, 1.0, 1.0])


def test_where_blocks_inactive_branch():
    tape = ad.Tape()
    x = tape.input(np.array([1.0, 2.0]))
    out = ad.tsum(ad.where(np.array([True, False]), x, 0.0))
    assert tape.backward(out, x) == pytest.approx([1.0, 0.0])


def test_unbroadcast_sums_over_expanded_axes():
    tape = ad.Tape()
    x = tape.input(2.0)  # scalar broadcast against a vector
    out = ad.tsum(np.array([1.0, 2.0, 3.0]) * x)
    assert tape.backward(out, x) == pytest.approx(6.0)


def test_unused_input_gets_zero_gradient():
    tape = ad.Tape()
    x = tape.input(np.array([1.0, 2.0]))
    y = tape.input(np.array([3.0]))
    out = ad.tsum(x)
    assert tape.backward(out, y) == pytest.approx([0.0])


def test_neg():
    check_grad(lambda x: ad.tsum(-x * 3.0), [1.0, -1.0])
