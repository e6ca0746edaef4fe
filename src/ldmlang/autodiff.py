"""Reverse-mode automatic differentiation on a per-evaluation tape.

The tape records one entry per scalar or array operation; elementwise entries
store their local partials at forward time, structural entries (sum, where,
index) store just enough layout to route adjoints. A fresh tape is built for
every evaluation; nothing persists between calls. UNROLLED plans, the
reference semantics, differentiate through it; FUSED plans generate their
own gradient code (see codegen) and enter a tape as one entry.

The helper functions (exp, log, where, ...) accept either a Node or a plain
float/ndarray. With no Node among the arguments they fall through to numpy,
so the same closures serve both the gradient path and the plain value path.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special as _sp

from .errors import NonFiniteDensityError

__all__ = [
    "Tape", "Node", "grad_logdensity",
    "exp", "log", "log1p", "sqrt", "absolute", "square", "expit", "logit",
    "softplus", "lgamma", "where", "tsum", "index",
]


def _shape(v):
    return np.shape(v)


def _unbroadcast(grad, shape):
    """Sum `grad` down to `shape`, undoing numpy broadcasting."""
    if _shape(grad) == shape:
        return grad
    if shape == ():
        return np.sum(grad)
    g = np.asarray(grad)
    if g.ndim > len(shape):
        g = g.sum(axis=tuple(range(g.ndim - len(shape))))
    axes = tuple(i for i, (gs, s) in enumerate(zip(g.shape, shape)) if s == 1 and gs != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


class Node:
    """Handle to one tape entry; supports arithmetic with Nodes and raws."""

    __slots__ = ("tape", "idx", "value")

    # make ndarray <op> Node defer to our reflected operators instead of
    # broadcasting the Node into an object array
    __array_ufunc__ = None

    def __init__(self, tape: "Tape", idx: int, value):
        self.tape = tape
        self.idx = idx
        self.value = value

    def __add__(self, other):
        b = other.value if isinstance(other, Node) else other
        return self.tape.elementwise(self.value + b, (self, other), (1.0, 1.0))

    __radd__ = __add__

    def __sub__(self, other):
        b = other.value if isinstance(other, Node) else other
        return self.tape.elementwise(self.value - b, (self, other), (1.0, -1.0))

    def __rsub__(self, other):
        return self.tape.elementwise(other - self.value, (other, self), (1.0, -1.0))

    def __mul__(self, other):
        b = other.value if isinstance(other, Node) else other
        return self.tape.elementwise(self.value * b, (self, other), (b, self.value))

    __rmul__ = __mul__

    def __truediv__(self, other):
        b = other.value if isinstance(other, Node) else other
        inv = 1.0 / b
        out = self.value * inv
        return self.tape.elementwise(out, (self, other), (inv, -out * inv))

    def __rtruediv__(self, other):
        out = other / self.value
        return self.tape.elementwise(out, (other, self), (1.0 / self.value, -out / self.value))

    def __neg__(self):
        return self.tape.elementwise(-self.value, (self,), (-1.0,))

    def __pow__(self, other):
        if isinstance(other, Node):
            out = self.value ** other.value
            return self.tape.elementwise(
                out, (self, other),
                (other.value * self.value ** (other.value - 1.0), out * np.log(self.value)))
        out = self.value ** other
        return self.tape.elementwise(out, (self,), (other * self.value ** (other - 1.0),))

    def __repr__(self):
        return f"Node({self.value!r})"


class Tape:
    """Append-only record of one evaluation; node ids index into `entries`.

    Entry layouts:
      ("input",)
      ("ew", parent_ids, partials, parent_shapes)
      ("sum", pid, pshape)
      ("where", cond, a_id, b_id, ashape, bshape)
      ("index", pid, i, pshape)
    """

    def __init__(self):
        self.entries: list[tuple] = []

    def _new(self, entry, value) -> Node:
        self.entries.append(entry)
        return Node(self, len(self.entries) - 1, value)

    def input(self, value) -> Node:
        return self._new(("input",), value)

    def elementwise(self, value, parents, partials) -> Node:
        ids = []
        parts = []
        shapes = []
        for p, d in zip(parents, partials):
            if isinstance(p, Node):
                ids.append(p.idx)
                parts.append(d)
                shapes.append(_shape(p.value))
            else:
                ids.append(-1)
        return self._new(("ew", tuple(ids), tuple(parts), tuple(shapes)), value)

    def backward(self, out: Node, wrt: Node) -> np.ndarray:
        """Adjoint of the scalar-valued node `out` with respect to `wrt`."""
        grads: list = [None] * (out.idx + 1)
        grads[out.idx] = 1.0
        entries = self.entries

        def acc(pid, contrib):
            prev = grads[pid]
            grads[pid] = contrib if prev is None else prev + contrib

        for i in range(out.idx, -1, -1):
            g = grads[i]
            if g is None:
                continue
            if i != wrt.idx:
                grads[i] = None
            ent = entries[i]
            kind = ent[0]
            if kind == "ew":
                _, ids, parts, shapes = ent
                k = 0
                for pid in ids:
                    if pid < 0:
                        continue
                    acc(pid, _unbroadcast(parts[k] * g, shapes[k]))
                    k += 1
            elif kind == "sum":
                _, pid, pshape = ent
                acc(pid, np.broadcast_to(g, pshape).copy() if pshape else float(g))
            elif kind == "where":
                _, cond, a_id, b_id, ashape, bshape = ent
                if a_id >= 0:
                    acc(a_id, _unbroadcast(np.where(cond, g, 0.0), ashape))
                if b_id >= 0:
                    acc(b_id, _unbroadcast(np.where(cond, 0.0, g), bshape))
            elif kind == "index":
                _, pid, pos, pshape = ent
                buf = np.zeros(pshape)
                buf[pos] = g
                acc(pid, buf)
            # "input" is a leaf

        g = grads[wrt.idx]
        if g is None:
            return np.zeros(_shape(wrt.value))
        return np.asarray(g, dtype=float)


# --- dispatch helpers ---------------------------------------------------------

def _unary(x, raw_fn, partial_fn):
    if isinstance(x, Node):
        v = raw_fn(x.value)
        return x.tape.elementwise(v, (x,), (partial_fn(x.value, v),))
    return raw_fn(x)


def exp(x):
    return _unary(x, np.exp, lambda v, out: out)


def log(x):
    return _unary(x, np.log, lambda v, out: 1.0 / v)


def log1p(x):
    return _unary(x, np.log1p, lambda v, out: 1.0 / (1.0 + v))


def sqrt(x):
    return _unary(x, np.sqrt, lambda v, out: 0.5 / out)


def absolute(x):
    return _unary(x, np.abs, lambda v, out: np.sign(v))


def square(x):
    return _unary(x, np.square, lambda v, out: 2.0 * v)


def expit(x):
    return _unary(x, _sp.expit, lambda v, out: out * (1.0 - out))


def logit(x):
    return _unary(x, _sp.logit, lambda v, out: 1.0 / (v * (1.0 - v)))


def softplus(x):
    return _unary(x, lambda v: np.logaddexp(0.0, v), lambda v, out: _sp.expit(v))


def lgamma(x):
    return _unary(x, _sp.gammaln, lambda v, out: _sp.digamma(v))


def where(cond, a, b):
    """Select elementwise; `cond` is data, never differentiated through."""
    av = a.value if isinstance(a, Node) else a
    bv = b.value if isinstance(b, Node) else b
    out = np.where(cond, av, bv)
    if isinstance(a, Node) or isinstance(b, Node):
        tape = a.tape if isinstance(a, Node) else b.tape
        return tape._new(("where", cond,
                          a.idx if isinstance(a, Node) else -1,
                          b.idx if isinstance(b, Node) else -1,
                          _shape(av), _shape(bv)), out)
    return out


def tsum(x):
    """Sum all elements to a scalar."""
    if isinstance(x, Node):
        return x.tape._new(("sum", x.idx, _shape(x.value)), float(np.sum(x.value)))
    return float(np.sum(x))


def index(x, i: int):
    """Scalar extraction x[i]."""
    if isinstance(x, Node):
        return x.tape._new(("index", x.idx, i, _shape(x.value)), float(x.value[i]))
    return float(x[i])


# --- entry point ----------------------------------------------------------------

def grad_logdensity(plan, u) -> tuple[float, np.ndarray]:
    """Value and gradient of a plan's log density at unconstrained point `u`.

    NaN anywhere in `u` raises NonFiniteDensityError. A value of -inf (or a
    NaN produced by overflow inside the evaluation, reported as -inf) comes
    back with a zero gradient; callers treat the point as rejected.
    """
    u = np.asarray(u, dtype=float)
    if np.isnan(u).any():
        raise NonFiniteDensityError("latent vector contains NaN")
    tape = Tape()
    un = tape.input(u)
    with np.errstate(all="ignore"):
        out = plan.eval_logdensity(un)
        if not isinstance(out, Node):
            value = float(out)
            if math.isnan(value):
                value = -math.inf
            return value, np.zeros_like(u)
        value = float(out.value)
        if math.isnan(value):
            return -math.inf, np.zeros_like(u)
        if math.isinf(value):
            return value, np.zeros_like(u)
        grad = tape.backward(out, un)
    if np.isnan(grad).any() or np.isinf(grad).any():
        # overflow inside the adjoint: treat like a rejected point
        return -math.inf, np.zeros_like(u)
    return value, grad
