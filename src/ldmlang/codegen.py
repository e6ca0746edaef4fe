"""Source-to-source reverse mode: the one gradient engine of both plan modes.

Lowering describes a plan's log density to a `Source`. FUSED lowering writes
the assembly of the model-variable arrays from the latent vector, then one
vectorized log-density term per statement; UNROLLED lowering writes one
scalar latent read per slot, one named value per deterministic cell and one
scalar term per stochastic cell. The `Source` writes straight-line NumPy
statements for the forward pass and keeps, for every statement that depends
on the latent vector, how to send its adjoint back to its operands. `build`
emits four Python functions from that source, each written or compiled on
its first use:

  * value(u)            log density;
  * value_and_grad(u)   log density and gradient; a value that is NaN or
                        +-inf returns early with a zero gradient (NaN as
                        -inf), so invalid parameters need no masking where
                        the closed form already yields NaN or -inf;
  * observed(u)         the sum over OBSERVED cells only;
  * values(U)           the log density at each row of U, of shape (K, dim):
                        value(u)'s statements over K points at once, with
                        a scalar as a (K, 1) column, a vector as a (K, n)
                        array, latent reads and gathers on the last axis,
                        and each term summed over it, written from `Source`'s
                        record of each of value(u)'s statements. Each row has
                        value(u)'s bits at that row: an operation that value(u)
                        runs on an np.float64 and that rounds differently over
                        an array (`**`, the special functions) runs element by
                        element (see `_batched`).

Sub-expressions that do not depend on the latent vector are folded at
compile time by `function`, which compiles an expression's format once,
so they cost nothing per call and round exactly as at run time. Prior
simulation runs the operators and calls through it too, and the plan its
transforms and their inverses, which `TRANSFORMS` holds. Every value is a
scalar or a vector of one statement's domain length; positions, input
values and observed data are constants in the functions' namespace. Names
in the source are generated: model identifiers never appear in it, and
data only as float literals.

Derivatives come from closed-form rules: one per arithmetic operator and
call, one per transform, and one per distribution in
`distributions.TABLE`, giving the elementwise log density and its partial
with respect to each argument. The tests check the rules against central
differences and each distribution's value against its NumPy kernel in
`distributions`.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass, field

import numpy as np

from . import distributions as dist


def _each(f, *args):
    """f over the elements of args (arrays of one shape, or floats), each
    element passed as an np.float64: the path that value(u) takes for a
    scalar, which can round differently from f over an array."""
    cols = np.broadcast_arrays(*args)
    out = [f(*vals) for vals in zip(*(c.ravel() for c in cols))]
    return np.array(out, dtype=float).reshape(cols[0].shape)


_NAMESPACE = {
    "np": np, "inf": math.inf, "nan": math.nan, "each": _each,
    "expit": dist.expit, "logit": dist.logit,
    "gammaln": dist.gammaln, "digamma": dist.digamma,
    "PI": math.pi,
    "HALF_LOG_2PI": 0.5 * math.log(2.0 * math.pi),
    "HALF_LOG_2_OVER_PI": 0.5 * math.log(2.0 / math.pi),
}

_PLACEHOLDER = re.compile(r"\{(\d+)\}")


@functools.cache
def function(fmt: str, arity: int):
    """`fmt` over {0}, ..., {arity - 1} as a Python function of as many
    arguments, compiled once per format."""
    names = [f"_{i}" for i in range(arity)]
    return eval(f"lambda {','.join(names)}: {fmt.format(*names)}", _NAMESPACE)


@dataclass(frozen=True, slots=True)
class Val:
    """A value in the generated code: a name or a literal. `n` is the length
    of a vector, None for a scalar; `active` is true when it depends on u.
    `fixed` holds the compile-time values of an active read of a model
    array, NaN where a cell is latent."""
    code: str
    n: int | None
    active: bool
    fixed: object = field(default=None, compare=False)


class Lazy:
    """A partial derivative, written into the reverse sweep the first time
    an adjoint needs it. `fmt` refers to `deps` as {0}, {1}, ..."""
    __slots__ = ("fmt", "deps", "val")

    def __init__(self, fmt, *deps):
        self.fmt = fmt
        self.deps = deps
        self.val = None


def _shape(fmt, args):
    """Length of a vector among the args `fmt` refers to, else None."""
    for m in _PLACEHOLDER.finditer(fmt):
        if args[int(m.group(1))].n is not None:
            return args[int(m.group(1))].n
    return None


def _times(a: str, b: str) -> str:
    if a == "1":
        return b
    if b == "1":
        return a
    if a == "-1":
        return f"(-{b})"
    if b == "-1":
        return f"(-{a})"
    return f"{a} * {b}"


def _subscript(pos) -> tuple[str | None, object]:
    """Literal subscript for an int or an arithmetic progression of
    positions (a basic slice), else None and the position array."""
    if isinstance(pos, (int, np.integer)):
        return str(int(pos)), None
    pos = np.asarray(pos, dtype=np.int64)
    if pos.size == 1:
        return f"{int(pos[0])}:{int(pos[0]) + 1}", None
    step = int(pos[1] - pos[0])
    if step > 0 and np.all(np.diff(pos) == step):
        return f"{int(pos[0])}:{int(pos[-1]) + 1}:{step}" if step != 1 \
            else f"{int(pos[0])}:{int(pos[-1]) + 1}", None
    return None, pos


class Source:
    """Builder for one plan's generated value-and-gradient source."""

    def __init__(self, dim: int):
        self.dim = dim
        self.ns = dict(_NAMESPACE)
        self.lines: list[str] = []        # forward statements
        # the same for values(U): (kind, name, text, vector length or None,
        # *codes), where an "op"'s text is its fmt over the codes of its
        # operands, and a "rows" text its K-row form reading the codes
        self.records: list[tuple] = []
        self.tape: list[tuple] = []       # reverse records, forward order
        # summands of the log density and of the observed loglik, as
        # (code, kind, the local it reads or None): kind "const", "scalar",
        # or "vector" (summed)
        self.parts: list[tuple] = []
        self.obs_parts: list[tuple] = []
        self._k = 0

    # -- values -------------------------------------------------------------

    def _name(self, hint: str) -> str:
        self._k += 1
        return f"{hint}_{self._k}"

    def const(self, value) -> Val:
        value = np.asarray(value)
        if value.ndim == 0:
            x = float(value)
            code = "nan" if math.isnan(x) else \
                ("inf" if x > 0 else "(-inf)") if math.isinf(x) else \
                f"({x!r})" if math.copysign(1.0, x) < 0 else repr(x)
            return Val(code, None, False)
        return Val(self._array("c", value), len(value), False)

    def _array(self, hint: str, value: np.ndarray) -> str:
        name = self._name(hint)
        self.ns[name] = value
        return name

    def value(self, v: Val):
        """Compile-time value of a constant."""
        return eval(v.code, self.ns)

    def op(self, fmt: str, *args: Val, partials=None, hint="t") -> Val:
        """`fmt` over `args` ({0}, {1}, ...). With `partials` (one per arg: a
        format string that may also use {y}, the result, or "1"/"-1", or None
        where the result does not depend on the arg) the reverse sweep
        differentiates through it."""
        codes = [a.code for a in args]
        n = next((a.n for a in args if a.n is not None), None)
        if not any(a.active for a in args):
            vals = [np.float64(self.value(a)) if a.n is None
                    else self.value(a) for a in args]
            with np.errstate(all="ignore"):
                return self.const(function(fmt, len(args))(*vals))
        out = Val(self._name(hint), n, True)
        self.lines.append(f"{out.code} = {fmt.format(*codes)}")
        self.records.append(("op", out.code, fmt, n, *codes))
        if partials is not None:
            y = f"{{{len(args)}}}"
            pairs = [(a, p if p in ("1", "-1") else
                      Lazy(p.replace("{y}", y), *args, out))
                     for a, p in zip(args, partials) if a.active and p]
            self.tape.append(("op", out, pairs))
        return out

    def guard(self, lp: Val, fmt: str, *args: Val) -> Val:
        """lp where the condition `fmt` over `args` holds, -inf elsewhere."""
        ok = self.op(fmt, *args)
        if not ok.active and np.all(self.value(ok)):
            return lp
        return self.op("np.where({0}, {1}, -inf)", ok, lp, hint="lp")

    def support(self, lp: Val, fmt: str, v: Val) -> Val:
        """Like `guard` for a support condition on the site value, checked
        at compile time: a latent cell lies in its support by construction
        of its transform, the other cells are data."""
        if not v.active:
            return self.guard(lp, fmt, v)
        if v.fixed is None:
            return lp
        with np.errstate(all="ignore"):
            ok = function(fmt, 1)(v.fixed) | np.isnan(v.fixed)
        if np.all(ok):
            return lp
        return self.op("np.where({0}, {1}, -inf)", self.const(ok), lp,
                       hint="lp")

    # -- model arrays ---------------------------------------------------------

    def _key(self, pos) -> tuple[str, str | None]:
        """value(u)'s subscript of positions `pos` (see _subscript) and
        values(U)'s on the last axis: one position as a slice of one, so a
        scalar stays a column; None for a position array, read with np.take
        as fancy indexing would give a Fortran-ordered array."""
        key, posarr = _subscript(pos)
        if posarr is not None:
            return self._array("p", posarr), None
        one = isinstance(pos, (int, np.integer))
        return key, f"{key}:{int(pos) + 1}" if one else key

    def latent(self, offsets, kind: str) -> Val:
        """Constrained values of the latent slots u[offsets] (an int or an
        offsets array) under transform `kind`; their log-Jacobian joins the
        log density."""
        key, cols = self._key(offsets)
        n = None if isinstance(offsets, (int, np.integer)) else len(offsets)
        useg = Val(self._name("u"), n, True)
        self.lines.append(f"{useg.code} = u[{key}]")
        rows = f"np.take(U, {key}, 1)" if cols is None else f"U[:, {cols}]"
        self.records.append(("rows", useg.code, f"{useg.code} = {rows}", n))
        value, _, jac, _, _ = TRANSFORMS[kind]
        x = useg
        if value != "{0}":
            x = Val(self._name("x"), n, True)
            self.lines.append(f"{x.code} = {value.format(useg.code)}")
            self.records.append(("op", x.code, value, n, useg.code))
        if jac:
            self.parts.append((f"({jac.format(useg.code)})",
                               "scalar" if n is None else "vector",
                               useg.code))
        self.tape.append(("latent", x, useg, key, kind))
        return x

    def assemble(self, base: np.ndarray, puts) -> Val:
        """A model variable's flat array: observed `base` with each latent
        Val of `puts` [(positions, Val)] written at its positions."""
        arr = Val(self._name("a"), len(base), True)
        if len(puts) == 1 and np.array_equal(puts[0][0], np.arange(len(base))):
            x = puts[0][1]
            self.lines.append(f"{arr.code} = {x.code}")
            self.records.append(("op", arr.code, "{0}", arr.n, x.code))
            self.tape.append(("put", arr, None, x))
            return arr
        c = self.const(base).code
        self.lines.append(f"{arr.code} = {c}.copy()")
        tile = f"{arr.code} = np.tile({c}, (len(U), 1))"   # C ordered
        self.records.append(("rows", arr.code, tile, arr.n))
        for pos, x in puts:
            key, cols = self._key(pos)
            self.lines.append(f"{arr.code}[{key}] = {x.code}")
            put = f"{arr.code}[:, {cols or key}] = {x.code}"
            self.records.append(("rows", arr.code, put, arr.n, arr.code,
                                 x.code))
            self.tape.append(("put", arr, key, x))
        return arr

    def stack(self, n: int, pieces) -> Val:
        """A vector of length n with each Val of `pieces` [(rows, Val)]
        written at its rows; constant pieces are folded in at compile
        time."""
        base = np.zeros(n)
        puts = []
        for rows, x in pieces:
            if x.active:
                puts.append((rows, x))
            else:
                base[rows] = self.value(x)
        return self.assemble(base, puts) if puts else self.const(base)

    def index(self, arr: Val, pos, fixed=None) -> Val:
        """arr[pos] for an int or an array of compile-time positions;
        `fixed` as for Val."""
        key, cols = self._key(pos)
        counts = None
        if cols is None:
            counts = np.bincount(self.ns[key], minlength=arr.n).astype(float)
            if counts.max() < 2:
                counts = None
        n = None if isinstance(pos, (int, np.integer)) else len(pos)
        out = Val(self._name("g"), n, True, fixed)
        self.lines.append(f"{out.code} = {arr.code}[{key}]")
        rows = f"np.take({arr.code}, {key}, 1)" if cols is None \
            else f"{arr.code}[:, {cols}]"
        self.records.append(("rows", out.code, f"{out.code} = {rows}", n,
                             arr.code))
        self.tape.append(("index", out, arr, key, counts))
        return out

    # -- terms ---------------------------------------------------------------

    def term(self, name: str, v: Val, params, observed) -> None:
        """Log-density term of distribution `name` at site value(s) `v`.
        `observed`: True/False for a scalar site; for a vector, the indices
        of its observed cells (all of them as True, none as False)."""
        lp, pairs = RULES[dist.lookup(name).name](self, v, *params)
        if not lp.active:
            with np.errstate(all="ignore"):
                total = self.value(lp)
                self.parts.append((self.const(np.sum(total)).code, "const",
                                   None))
                if observed is not False:
                    sel = total if observed is True else total[observed]
                    self.obs_parts.append((self.const(np.sum(sel)).code,
                                           "const", None))
            return
        self.parts.append((lp.code, "scalar" if lp.n is None else "vector",
                           lp.code))
        if observed is True:
            self.obs_parts.append(self.parts[-1])
        elif observed is not False:
            p = self._array("p", observed)
            self.obs_parts.append((f"{lp.code}[{p}]", "vector", lp.code))
        self.tape.append(("term", lp, [(a, p) for a, p in pairs if a.active]))

    # -- reverse sweep -------------------------------------------------------

    def _partial(self, p, rev) -> Val:
        """A partial as a Val, writing a Lazy into `rev` the first time."""
        if isinstance(p, str):
            return Val(p, None, False)
        if isinstance(p, Val):
            return p
        if p.val is None:
            deps = [self._partial(d, rev) for d in p.deps]
            used = [deps[int(i)] for i in _PLACEHOLDER.findall(p.fmt)]
            if _PLACEHOLDER.fullmatch(p.fmt):
                p.val = used[0]
            elif not any(d.active for d in used):
                p.val = self.op(p.fmt, *deps)
            else:
                p.val = Val(self._name("r"), _shape(p.fmt, deps), True)
                rev.append(f"{p.val.code} = "
                           f"{p.fmt.format(*(d.code for d in deps))}")
        return p.val

    def _backward(self) -> list[str]:
        rev: list[str] = []
        adj: dict[str, tuple[str, int | None]] = {}   # code -> (adjoint, n)

        def add(arg: Val, code: str, n):
            if arg.code in adj:
                name, m = adj[arg.code]
                rev.append(f"{name} = {name} + {code}")
                adj[arg.code] = (name, m if m is not None else n)
            else:
                adj[arg.code] = (f"d_{arg.code}", n)
                rev.append(f"d_{arg.code} = {code}")

        def send(out_n, g, gn, arg, p):
            # an adjoint of shape None stands for the same value in each of
            # the out_n cells of a vector
            pv = self._partial(p, rev)
            code, n = _times(g, pv.code), gn if gn is not None else pv.n
            if arg.n is None and out_n is not None:
                code = f"np.add.reduce({code})" if n is not None \
                    else f"{out_n} * ({code})"
                n = None
            add(arg, code, n)

        for rec in reversed(self.tape):
            kind, out = rec[0], rec[1]
            if kind == "term":
                for arg, p in rec[2]:
                    send(out.n, "1", None, arg, p)
                continue
            if kind == "latent":
                _, x, useg, key, tkind = rec
                _, _, _, dvalue, djac = TRANSFORMS[tkind]
                terms = []
                if x.code in adj:
                    terms.append(_times(adj[x.code][0],
                                        dvalue.format(useg.code, y=x.code)))
                if djac:
                    terms.append(djac.format(useg.code, y=x.code))
                if terms:
                    rev.append(f"g[{key}] = {' + '.join(terms)}")
                continue
            if out.code not in adj:
                continue
            g, gn = adj[out.code]
            if kind == "op":
                for arg, p in rec[2]:
                    send(out.n, g, gn, arg, p)
            elif kind == "index":
                _, _, arr, key, counts = rec
                if arr.code not in adj:
                    adj[arr.code] = (f"d_{arr.code}", arr.n)
                    rev.append(f"d_{arr.code} = np.zeros({arr.n})")
                d = adj[arr.code][0]
                if counts is None:
                    rev.append(f"{d}[{key}] += {g}")
                elif gn is None:
                    rev.append(f"{d} += {self.const(counts).code} * {g}")
                else:
                    rev.append(f"{d} += np.bincount({key}, {g}, {arr.n})")
            elif kind == "put":
                _, _, key, x = rec
                code = g if key is None else f"{g}[{key}]"
                if key is not None and x.n is None:
                    # a scalar written to several rows
                    code = f"np.add.reduce({code})"
                add(x, code, x.n)
        return rev

    def build(self) -> "Program":
        rev = self._backward()
        fwd = "".join(f"    {line}\n" for line in self.lines)
        total = _sum(self.parts)
        back = "".join(f"    {line}\n" for line in rev)
        zeros = f"np.zeros({self.dim})"
        ret = "    return float(lp) if lp == lp else -inf\n"
        # each function's text in pieces, which share one forward text
        functions = {
            "value": ("def value(u):\n", fwd, total, ret),
            "value_and_grad": (
                "def value_and_grad(u):\n", fwd, total,
                "    if not -inf < lp < inf:\n"
                f"        return (float(lp) if lp == lp else -inf), {zeros}\n"
                f"    g = {zeros}\n", back, "    return float(lp), g\n"),
            "observed": ("def observed(u):\n", fwd, _sum(self.obs_parts), ret),
        }
        width = max([self.dim] + [rec[3] for rec in self.records if rec[3]])
        return Program(functions, self.ns, self.records, self.parts, width)


_SUM_LINE = 64


def _sum(parts, rows=False) -> str:
    """Statements that add `parts` into lp, left to right, at most
    _SUM_LINE parts per line: compiling a chain of `+` recurses once per
    operand, so one line for the thousands of terms of a per-cell plan
    would exceed the recursion limit. Python adds left to right either
    way, so the split rounds exactly as one line does. With `rows`, each
    part is one value per row of a (K, n) batch."""
    codes = []
    for code, kind, _ in parts:
        if kind == "vector":
            code = f"np.add.reduce({code}, 1)" if rows \
                else f"np.add.reduce({code})"
        elif kind == "scalar" and rows:
            code = f"{code}[:, 0]"
        codes.append(code)
    lines = [f"    lp = {' + '.join(codes[:_SUM_LINE]) or '0.0'}\n"]
    for i in range(_SUM_LINE, len(codes), _SUM_LINE):
        lines.append(f"    lp = lp + {' + '.join(codes[i:i + _SUM_LINE])}\n")
    return "".join(lines)


# a call of a special function of `distributions`, in a rule's fmt
_SCALAR_CALL = re.compile(r"\b(expit|logit|gammaln|digamma)\(")


def _scalar_paths(fmt: str, codes, scalar) -> str:
    """fmt over codes, with each operation that value(u) runs on np.float64
    operands and that rounds differently over an array written as an
    `each` call where scalar(the codes of its operands): the special
    functions, which take a `math` path for a float, and `**`."""
    if fmt == CALLS["pow"][0] and scalar(codes):
        return "each(pow, {0}, {1})".format(*codes)
    out, done = [], 0
    for m in _SCALAR_CALL.finditer(fmt):
        depth, end = 1, m.end()
        while depth:
            depth += {"(": 1, ")": -1}.get(fmt[end], 0)
            end += 1
        if scalar([codes[int(i)]
                   for i in _PLACEHOLDER.findall(fmt, m.end(), end)]):
            out.append(f"{fmt[done:m.start()]}each({m[1]}, ")
            done = m.end()
    return ("".join(out) + fmt[done:]).format(*codes)


def _batched(records, parts, ns) -> str:
    """values(U): value(u)'s statements, from the `Source` records, over
    the K rows of U at once.

    A scalar becomes a (K, 1) column and a vector of n a (K, n) array, C
    ordered so that each row sums as the vector does: latent reads and
    gathers index the last axis, and assembled arrays are K copies of their
    observed base. Each term sums over the last axis. Every row rounds as
    value(u) at that row does: an operation of `_scalar_paths` runs element
    by element where its operands include a local and no vector."""
    vectors = {k for k, v in ns.items() if isinstance(v, np.ndarray)}
    local, body = set(), []

    def scalar(codes):
        return not local.isdisjoint(codes) and vectors.isdisjoint(codes)

    for kind, name, text, n, *codes in records:
        if kind == "op":
            text = f"{name} = {_scalar_paths(text, codes, scalar)}"
        body.append((text, {name, *(c for c in codes if c in local)}))
        local.add(name)
        if n is not None:
            vectors.add(name)
    # each local is deleted after its last use: a (K, n) temporary is K
    # times the size of value(u)'s, and a function holds its locals until
    # it returns
    live = {name for _, _, name in parts}
    out = [_sum(parts, rows=True)]
    for line, names in reversed(body):
        dead = sorted(names - live)
        if dead:
            out.append(f"    del {', '.join(dead)}\n")
        out.append(f"    {line}\n")
        live |= names
    out.append("def values(U):\n")
    out.reverse()
    if all(kind == "const" for _, kind, _ in parts):
        out.append("    lp = np.full(len(U), lp)\n")
    out.append("    return np.where(lp == lp, lp, -inf)\n")
    return "".join(out)


class Program:
    """The generated functions of one plan: `value`, `value_and_grad` and
    `observed` over one latent vector u, and `values` over the rows of a
    (K, dim) array U. Each function is compiled on its first use, so a plan
    that only simulates never pays for them, and compiling the long source
    of a per-cell plan holds the syntax tree of one function at a time;
    `values` is also written then, from the `Source` records, which it
    then lets go. `width` is the longest vector in a call, dim included."""

    _FUNCTIONS = ("value", "value_and_grad", "observed")

    def __init__(self, functions: dict, namespace: dict, records, parts,
                 width: int):
        self._functions = functions
        self._ns = namespace
        self._records = records
        self._parts = parts
        self.width = width

    @property
    def source(self) -> str:
        """The text of value, value_and_grad and observed."""
        return "\n".join("".join(text) for text in self._functions.values())

    def __getattr__(self, name):
        if name == "values":
            text = _batched(self._records, self._parts, self._ns)
            del self._records, self._parts
        elif name in self._FUNCTIONS:
            text = "".join(self._functions[name])
        else:
            raise AttributeError(name)
        exec(compile(text, "<ldmlang plan>", "exec"), self._ns)
        setattr(self, name, self._ns[name])
        return self._ns[name]


# --- rules -------------------------------------------------------------------

# name -> (forward, partial); the partial may use {y}, the result
CALLS = {
    "exp": ("np.exp({0})", "{y}"),
    "log": ("np.log({0})", "1.0 / {0}"),
    "expit": ("expit({0})", "{y} * (1.0 - {y})"),
    "logit": ("logit({0})", "1.0 / ({0} * (1.0 - {0}))"),
    "sqrt": ("np.sqrt({0})", "0.5 / {y}"),
    "abs": ("np.abs({0})", "np.sign({0})"),
    "pow": ("{0} ** {1}", "{1} * {0} ** ({1} - 1.0)", "{y} * np.log({0})"),
}

BINOPS = {
    "+": ("{0} + {1}", "1", "1"),
    "-": ("{0} - {1}", "1", "-1"),
    "*": ("{0} * {1}", "{1}", "{0}"),
    "/": ("{0} / {1}", "1.0 / {1}", "-{y} / {1}"),
}

# transform name -> (constrain, its inverse, log-Jacobian, d constrain / du,
# d log-Jacobian / du), over u (the inverse: the constrained value) as {0}
# and the constrained value as {y}. The logistic inverse clips to the open
# unit interval, so that 0 and 1 map to finite points.
TRANSFORMS = {
    "identity": ("{0}", "{0}", None, "1", None),
    "exp": ("np.exp({0})", "np.log({0})", "{0}", "{y}", "1.0"),
    "logistic": ("expit({0})", "logit(np.clip({0}, 1e-12, 1.0 - 1e-12))",
                 "-np.logaddexp(0.0, {0}) - np.logaddexp(0.0, -{0})",
                 "({y} * (1.0 - {y}))", "(1.0 - 2.0 * {y})"),
}

_INTEGRAL = "(np.floor({0}) == {0}) & np.isfinite({0})"
_BINARY = f"{_INTEGRAL} & (({{0}} == 0.0) | ({{0}} == 1.0))"
_COUNT = f"{_INTEGRAL} & ({{0}} >= 0.0)"
_UNIT = "({0} >= 0.0) & ({0} <= 1.0)"


def _normal(s: Source, v, mu, sd):
    z = s.op("({0} - {1}) / {2}", v, mu, sd)
    zz = s.op("{0} * {0}", z)
    lp = s.op("-0.5 * {0} - {1}", zz, s.op("np.log({0}) + HALF_LOG_2PI", sd),
              hint="lp")
    w = Lazy("{0} / {1}", z, sd)
    return lp, [(v, Lazy("-{0}", w)), (mu, w),
                (sd, Lazy("({0} - 1.0) / {1}", zz, sd))]


def _exponential(s: Source, v, rate):
    lp = s.op("{0} - {1} * {2}", s.op("np.log({0})", rate), rate, v, hint="lp")
    lp = s.support(lp, "{0} >= 0.0", v)
    return lp, [(v, Lazy("-{0}", rate)),
                (rate, Lazy("1.0 / {0} - {1}", rate, v))]


def _halfnormal(s: Source, v, scale):
    r = s.op("{0} / {1}", v, scale)
    rr = s.op("{0} * {0}", r)
    lp = s.op("{1} - 0.5 * {0}", rr,
              s.op("HALF_LOG_2_OVER_PI - np.log({0})", scale), hint="lp")
    lp = s.support(lp, "{0} >= 0.0", v)
    return lp, [(v, Lazy("-{0} / {1}", r, scale)),
                (scale, Lazy("({0} - 1.0) / {1}", rr, scale))]


def _gamma(s: Source, v, shape, rate):
    logv, logr = s.op("np.log({0})", v), s.op("np.log({0})", rate)
    lp = s.op("{0} * {1} + ({0} - 1.0) * {2} - {3} * {4} - {5}",
              shape, logr, logv, rate, v, s.op("gammaln({0})", shape),
              hint="lp")
    lp = s.guard(s.guard(lp, "{0} > 0.0", v), "{0} > 0.0", shape)
    # a partial adds its site-value term last: for a scalar parameter of a
    # vector of sites, the parameter terms stay one scalar
    return lp, [(v, Lazy("({0} - 1.0) / {1} - {2}", shape, v, rate)),
                (shape, Lazy("{0} - digamma({2}) + {1}", logr, logv, shape)),
                (rate, Lazy("{0} / {1} - {2}", shape, rate, v))]


def _beta(s: Source, v, a, b):
    lv, l1v = s.op("np.log({0})", v), s.op("np.log1p(-{0})", v)
    norm = s.op("gammaln({0}) + gammaln({1}) - gammaln({0} + {1})", a, b)
    lp = s.op("({0} - 1.0) * {2} + ({1} - 1.0) * {3} - {4}",
              a, b, lv, l1v, norm, hint="lp")
    lp = s.guard(lp, "({0} > 0.0) & ({0} < 1.0)", v)
    lp = s.guard(s.guard(lp, "{0} > 0.0", a), "{0} > 0.0", b)
    dab = Lazy("digamma({0} + {1})", a, b)
    return lp, [
        (v, Lazy("({0} - 1.0) / {2} - ({1} - 1.0) / (1.0 - {2})", a, b, v)),
        (a, Lazy("{2} - digamma({1}) + {0}", lv, a, dab)),    # as in _gamma
        (b, Lazy("{2} - digamma({1}) + {0}", l1v, b, dab))]


def _studentt(s: Source, v, df, loc, scale):
    z = s.op("({0} - {1}) / {2}", v, loc, scale)
    q = s.op("np.log1p({0} * {0} / {1})", z, df)
    c = s.op("gammaln(({0} + 1.0) / 2.0) - gammaln({0} / 2.0)"
             " - 0.5 * np.log({0} * PI) - np.log({1})", df, scale)
    lp = s.op("{0} - ({1} + 1.0) / 2.0 * {2}", c, df, q, hint="lp")
    t = Lazy("({0} + 1.0) * {1} / ({0} + {1} * {1})", df, z)  # -dlp/dz
    return lp, [
        (v, Lazy("-{0} / {1}", t, scale)),
        (df, Lazy("0.5 * (digamma(({0} + 1.0) / 2.0) - digamma({0} / 2.0)"
                  " - 1.0 / {0} - {1}) + ({0} + 1.0) * {2} * {2}"
                  " / (2.0 * {0} * ({0} + {2} * {2}))", df, q, z)),
        (loc, Lazy("{0} / {1}", t, scale)),
        (scale, Lazy("({0} * {1} - 1.0) / {2}", t, z, scale))]


def _bernoulli(s: Source, v, p):
    lp = s.op("np.where({0} == 1.0, np.log({1}), np.log1p(-{1}))", v, p,
              hint="lp")
    lp = s.guard(s.support(lp, _BINARY, v), _UNIT, p)
    return lp, [(p, Lazy(
        "np.where({0} == 1.0, 1.0 / {1}, -1.0 / (1.0 - {1}))", v, p))]


def _bernoulli_logits(s: Source, v, logits):
    lp = s.op("{0} * {1} - np.logaddexp(0.0, {1})", v, logits, hint="lp")
    lp = s.support(lp, _BINARY, v)
    return lp, [(logits, Lazy("{0} - expit({1})", v, logits))]


def _log_choose(s: Source, n, v):
    return s.op("gammaln({0} + 1.0) - gammaln({1} + 1.0)"
                " - gammaln({0} - {1} + 1.0)", n, v)


def _count_guard(s: Source, lp, v, n):
    lp = s.support(lp, _COUNT, v)
    return s.guard(lp, f"{_INTEGRAL.format('{1}')} & ({{0}} <= {{1}})", v, n)


def _binomial(s: Source, v, n, p):
    t1 = s.op("np.where({0} == 0.0, 0.0, {0} * np.log({1}))", v, p)
    t0 = s.op("np.where({0} == {1}, 0.0, ({1} - {0}) * np.log1p(-{2}))",
              v, n, p)
    lp = s.op("{0} + {1} + {2}", _log_choose(s, n, v), t1, t0, hint="lp")
    lp = s.guard(_count_guard(s, lp, v, n), _UNIT, p)
    return lp, [
        (n, Lazy("digamma({0} + 1.0) - digamma({0} - {1} + 1.0)"
                 " + np.where({1} == {0}, 0.0, np.log1p(-{2}))", n, v, p)),
        (p, Lazy("np.where({0} == 0.0, 0.0, {0} / {2}) - np.where("
                 "{0} == {1}, 0.0, ({1} - {0}) / (1.0 - {2}))", v, n, p))]


def _binomial_logits(s: Source, v, n, logits):
    lp = s.op("{0} + {1} * {2} - {3} * np.logaddexp(0.0, {2})",
              _log_choose(s, n, v), v, logits, n, hint="lp")
    lp = _count_guard(s, lp, v, n)
    return lp, [
        (n, Lazy("digamma({0} + 1.0) - digamma({0} - {1} + 1.0)"
                 " - np.logaddexp(0.0, {2})", n, v, logits)),
        (logits, Lazy("{0} - {1} * expit({2})", v, n, logits))]


def _poisson(s: Source, v, rate):
    lp = s.op("{0} * {1} - {2} - {3}", v, s.op("np.log({0})", rate), rate,
              s.op("gammaln({0} + 1.0)", v), hint="lp")
    lp = s.support(lp, _COUNT, v)
    return lp, [(rate, Lazy("{0} / {1} - 1.0", v, rate))]


def _zip(s: Source, v, gate, rate):
    er = s.op("np.exp(-{0})", rate)
    q = s.op("{0} + (1.0 - {0}) * {1}", gate, er)
    pos = s.op("np.log1p(-{0}) + {1} * np.log({2}) - {2} - {3}",
               gate, v, rate, s.op("gammaln({0} + 1.0)", v))
    lp = s.op("np.where({0} == 0.0, np.log({1}), {2})", v, q, pos, hint="lp")
    lp = s.guard(s.support(lp, _COUNT, v), _UNIT, gate)
    lp = s.guard(lp, "{0} > 0.0", rate)
    return lp, [
        (gate, Lazy("np.where({0} == 0.0, (1.0 - {1}) / {2},"
                    " -1.0 / (1.0 - {3}))", v, er, q, gate)),
        (rate, Lazy("np.where({0} == 0.0, -(1.0 - {1}) * {2} / {3},"
                    " {0} / {4} - 1.0)", v, gate, er, q, rate))]


# distribution name -> rule(source, value, *params) -> (elementwise log
# density, [(argument, partial of the log density)])
RULES = {
    "N": _normal, "Exp": _exponential, "HalfNormal": _halfnormal,
    "Gamma": _gamma, "Beta": _beta, "StudentT": _studentt,
    "Bernoulli": _bernoulli, "BernoulliLogits": _bernoulli_logits,
    "Binomial": _binomial, "BinomialLogits": _binomial_logits,
    "Poisson": _poisson, "ZeroInflatedPoisson": _zip,
}
