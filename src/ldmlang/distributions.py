"""The closed distribution table: log densities and samplers.

Conventions that differ between common libraries and matter here:
  * N(mu, s): the second parameter is the STANDARD DEVIATION.
  * Exp(b): the parameter is the RATE (mean 1/b).
  * HalfNormal(s): s is the scale of the underlying normal.

Log-prob kernels are plain NumPy and return elementwise log densities.
The public API evaluates them; compiled plans of both modes run the
closed-form rules of `codegen.RULES` instead, and the tests check each rule's
value against its kernel. Inside a compiled plan, parameter values that leave
their constraint region (for example a real-support sigma crossing zero)
give -inf so the sampler rejects instead of crashing; the strict public
entry points (`log_prob`, `draw`) raise InvalidParameterError up front. Log
mass/density at the exact boundary of a continuous support is -inf.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy import log, log1p, square, where

from .errors import InvalidParameterError, NoTransformError

_LOG_2PI = math.log(2.0 * math.pi)
_HALF_LOG_2_OVER_PI = 0.5 * math.log(2.0 / math.pi)
_NEG_INF = -math.inf

# support kinds
REAL = "real"
POSITIVE = "positive"
UNIT_INTERVAL = "unit_interval"
BINARY = "binary"
NONNEG_INTEGER = "nonneg_integer"
BOUNDED_INTEGER = "bounded_integer"

DISCRETE_SUPPORTS = {BINARY, NONNEG_INTEGER, BOUNDED_INTEGER}

# parameter constraint kinds
P_REAL = "real"
P_POSITIVE = "positive"
P_UNIT = "unit_interval"
P_COUNT = "nonneg_integer"


# --- special functions -----------------------------------------------------------
# SciPy's expit, logit, gammaln and digamma. A float argument (np.float64 is
# one) takes a `math` path, anything else a vectorized NumPy path; both
# return np.float64 for a scalar. Neither raises or warns: 0, poles, +-inf
# and NaN give what SciPy gives, e.g. gammaln(0) = inf, expit(-800) = 0.0.

_SHIFT = 8      # gammaln and digamma: recurrence up to here, then a series
# log Gamma(n) = log((n - 1)!) at the whole numbers n = 1..171 where Gamma is
# finite: exact zeros at 1 and 2, and correctly rounded values for the
# counts of discrete data
_LOG_FACTORIAL = np.array([math.log(math.factorial(k)) for k in range(171)])


def _lgamma_tail(w):
    """log Gamma(z) - (z - 1/2) log z + z - log(2 pi) / 2 at w = 1/z, z >= 8:
    the Stirling series, sum of B_2k / (2k (2k - 1)) w^(2k - 1), k = 1..8."""
    v = w * w
    return w * (1.0 / 12.0 + v * (-1.0 / 360.0 + v * (1.0 / 1260.0 + v * (
        -1.0 / 1680.0 + v * (1.0 / 1188.0 + v * (-691.0 / 360360.0 + v * (
            1.0 / 156.0 + v * (-3617.0 / 122400.0))))))))


def _digamma_tail(w):
    """psi(z) - log z + 1 / (2z) at w = 1 / z^2, z >= 8: the asymptotic
    series, sum of -B_2k / (2k) w^k, k = 1..8."""
    return w * (-1.0 / 12.0 + w * (1.0 / 120.0 + w * (-1.0 / 252.0 + w * (
        1.0 / 240.0 + w * (-1.0 / 132.0 + w * (691.0 / 32760.0 + w * (
            -1.0 / 12.0 + w * (3617.0 / 8160.0))))))))


def expit(x):
    """1 / (1 + exp(-x))."""
    if isinstance(x, float):
        try:
            return np.float64(1.0 / (1.0 + math.exp(-x)))
        except OverflowError:                   # x below about -709.78
            return np.float64(0.0)
    # e / (1 + e) is 1.0 in floating point from x = 37.5 on, so clipping
    # there keeps exp finite
    e = np.exp(np.minimum(x, 40.0))
    return e / (1.0 + e)


def logit(p):
    """log(p / (1 - p)); near p = 1/2, where that form loses digits,
    log1p(2p - 1) - log1p(1 - 2p)."""
    if isinstance(p, float):
        if 0.0 < p < 1.0:
            if p < 0.3 or p > 0.65:
                return np.float64(math.log(p / (1.0 - p)))
            s = 2.0 * (p - 0.5)
            return np.float64(math.log1p(s) - math.log1p(-s))
        return np.float64(-math.inf if p == 0.0 else
                          math.inf if p == 1.0 else math.nan)
    p = np.asarray(p, dtype=float)
    with np.errstate(all="ignore"):
        s = 2.0 * (p - 0.5)
        return where((p < 0.3) | (p > 0.65), log(p / (1.0 - p)),
                     log1p(s) - log1p(-s))[()]


def gammaln(x):
    """log |Gamma(x)|."""
    if isinstance(x, float):
        if x.is_integer() and 0.0 < x <= 171.0:
            return _LOG_FACTORIAL[int(x) - 1]
        try:
            y = math.lgamma(x)
        except (ValueError, OverflowError):     # a pole, or too large
            return np.float64(math.inf)
        # y is inf only at x = +-inf, where SciPy returns x; NaN stays NaN
        return np.float64(y if y < math.inf else x)
    x = np.asarray(x, dtype=float)
    with np.errstate(all="ignore"):
        neg = x < 0.0
        y = where(neg, 1.0 - x, np.abs(x))      # reflection below 0; +0.0
        small = y < _SHIFT
        prod = y.copy()                         # y (y + 1) ... (y + 7)
        for k in range(1, _SHIFT):
            prod *= y + k
        z = where(small, y + _SHIFT, y)
        # Stirling at z; log Gamma(y) = log Gamma(z) - log(prod) for a
        # small y, taken as one log so that nothing cancels near 1 and 2
        lg = (where(small, log(z ** (z - 0.5) * np.exp(-z) / prod),
                    (z - 0.5) * (log(z) - 1.0) - 0.5)
              + 0.5 * _LOG_2PI + _lgamma_tail(1.0 / z))
        # log Gamma(x) = log(pi / |sin(pi x)|) - log Gamma(1 - x)
        d = np.abs(x - np.round(x))
        lg = where(neg, log(math.pi / np.sin(math.pi * d)) - lg, lg)
        whole = (x > 0.0) & (x <= 171.0) & (np.floor(x) == x)
        n = where(whole, x, 1.0).astype(np.intp)
        lg = where(whole, _LOG_FACTORIAL[n - 1], lg)
        return where(x == -math.inf, -math.inf, lg)[()]


def digamma(x):
    """d/dx log Gamma(x)."""
    if isinstance(x, float):
        x = float(x)                # Python floats compute faster
        if x > 0.0:
            acc = 0.0
            while x < _SHIFT:
                acc += 1.0 / x
                x += 1.0
            return np.float64(math.log(x) - 0.5 / x - acc
                              + _digamma_tail(1.0 / (x * x)))
    x = np.asarray(x, dtype=float)
    with np.errstate(all="ignore"):
        neg = x < 0.0
        y = where(neg, 1.0 - x, x)              # reflection below 0
        small = y < _SHIFT
        acc = 1.0 / y                           # 1/y + ... + 1/(y + 7)
        for k in range(1, _SHIFT):
            acc += 1.0 / (y + k)
        z = where(small, y + _SHIFT, y)
        psi = (log(z) - 0.5 / z - where(small, acc, 0.0)
               + _digamma_tail(1.0 / (z * z)))
        # psi(x) = psi(1 - x) - pi / tan(pi x), NaN at the poles
        d = x - np.round(x)
        refl = where(d == 0.0, math.nan, psi - math.pi / np.tan(math.pi * d))
        return where(neg, refl, psi)[()]


def _is_integral(v) -> np.ndarray:
    v = np.asarray(v)
    return np.equal(np.floor(v), v) & np.isfinite(v)


# --- log-prob kernels ---------------------------------------------------------

def _normal_lp(v, mu, sigma):
    ok = np.greater(sigma, 0.0)
    if np.all(ok):
        z = (v - mu) / sigma
        return -0.5 * square(z) - log(sigma) - 0.5 * _LOG_2PI
    s = where(ok, sigma, 1.0)
    z = (v - mu) / s
    return where(ok, -0.5 * square(z) - log(s) - 0.5 * _LOG_2PI, _NEG_INF)


def _exp_lp(v, rate):
    ok = np.greater(rate, 0.0) & np.greater_equal(v, 0.0)
    r = rate if np.all(np.greater(rate, 0.0)) else where(np.greater(rate, 0.0), rate, 1.0)
    lp = log(r) - r * v
    if np.all(ok):
        return lp
    return where(ok, lp, _NEG_INF)


def _halfnormal_lp(v, scale):
    ok = np.greater(scale, 0.0) & np.greater_equal(v, 0.0)
    s = scale if np.all(np.greater(scale, 0.0)) else where(np.greater(scale, 0.0), scale, 1.0)
    lp = _HALF_LOG_2_OVER_PI - log(s) - 0.5 * square(v / s)
    if np.all(ok):
        return lp
    return where(ok, lp, _NEG_INF)


def _gamma_lp(v, shape, rate):
    okp = np.greater(shape, 0.0) & np.greater(rate, 0.0)
    okv = np.greater(v, 0.0)
    ok = okp & okv
    if np.all(ok):
        return (shape * log(rate) + (shape - 1.0) * log(v)
                - rate * v - gammaln(shape))
    sh = where(np.greater(shape, 0.0), shape, 1.0)
    r = where(np.greater(rate, 0.0), rate, 1.0)
    vv = where(okv, v, 1.0)
    lp = sh * log(r) + (sh - 1.0) * log(vv) - r * vv - gammaln(sh)
    return where(ok, lp, _NEG_INF)


def _beta_lp(v, a, b):
    okp = np.greater(a, 0.0) & np.greater(b, 0.0)
    okv = np.greater(v, 0.0) & np.less(v, 1.0)
    ok = okp & okv
    aa = a if np.all(np.greater(a, 0.0)) else where(np.greater(a, 0.0), a, 1.0)
    bb = b if np.all(np.greater(b, 0.0)) else where(np.greater(b, 0.0), b, 1.0)
    vv = v if np.all(okv) else where(okv, v, 0.5)
    lp = ((aa - 1.0) * log(vv) + (bb - 1.0) * log1p(-vv)
          - (gammaln(aa) + gammaln(bb) - gammaln(aa + bb)))
    if np.all(ok):
        return lp
    return where(ok, lp, _NEG_INF)


def _studentt_lp(v, df, loc, scale):
    ok = np.greater(df, 0.0) & np.greater(scale, 0.0)
    d = df if np.all(np.greater(df, 0.0)) else where(np.greater(df, 0.0), df, 1.0)
    s = scale if np.all(np.greater(scale, 0.0)) else where(np.greater(scale, 0.0), scale, 1.0)
    z = (v - loc) / s
    lp = (gammaln((d + 1.0) / 2.0) - gammaln(d / 2.0)
          - 0.5 * log(d * math.pi) - log(s)
          - ((d + 1.0) / 2.0) * log1p(square(z) / d))
    if np.all(ok):
        return lp
    return where(ok, lp, _NEG_INF)


def _bernoulli_lp(v, p):
    vv = np.asarray(v)
    pv = np.asarray(p)
    okv = _is_integral(vv) & ((vv == 0) | (vv == 1))
    okp = (pv >= 0.0) & (pv <= 1.0)
    one = vv == 1
    p1 = where(pv > 0.0, p, 1.0)
    p0 = where(pv < 1.0, p, 0.0)
    lp1 = where(pv > 0.0, log(p1), _NEG_INF)
    lp0 = where(pv < 1.0, log1p(-p0), _NEG_INF)
    lp = where(one, lp1, lp0)
    ok = okv & okp
    if np.all(ok):
        return lp
    return where(ok, lp, _NEG_INF)


def _bernoulli_logits_lp(v, logits):
    vv = np.asarray(v)
    okv = _is_integral(vv) & ((vv == 0) | (vv == 1))
    lp = v * logits - np.logaddexp(0.0, logits)
    if np.all(okv):
        return lp
    return where(okv, lp, _NEG_INF)


def _log_choose(n, v):
    return gammaln(n + 1.0) - gammaln(v + 1.0) - gammaln(n - v + 1.0)


def _binomial_lp(v, n, p):
    vv = np.asarray(v)
    nv = np.asarray(n)
    pv = np.asarray(p)
    okv = _is_integral(vv) & _is_integral(nv) & (vv >= 0) & (vv <= nv)
    okp = (pv >= 0.0) & (pv <= 1.0)
    p1 = where(pv > 0.0, p, 0.5)
    p0 = where(pv < 1.0, p, 0.5)
    t1 = where(vv == 0, 0.0, v * log(p1))
    t0 = where(vv == nv, 0.0, (n - v) * log1p(-p0))
    lp = _log_choose(n, v) + t1 + t0
    edge = ((pv <= 0.0) & (vv > 0)) | ((pv >= 1.0) & (vv < nv))
    ok = okv & okp & ~edge
    if np.all(ok):
        return lp
    return where(ok, lp, _NEG_INF)


def _binomial_logits_lp(v, n, logits):
    vv = np.asarray(v)
    nv = np.asarray(n)
    okv = _is_integral(vv) & _is_integral(nv) & (vv >= 0) & (vv <= nv)
    lp = _log_choose(n, v) + v * logits - n * np.logaddexp(0.0, logits)
    if np.all(okv):
        return lp
    return where(okv, lp, _NEG_INF)


def _poisson_lp(v, rate):
    vv = np.asarray(v)
    okv = _is_integral(vv) & (vv >= 0)
    okr = np.greater(rate, 0.0)
    r = rate if np.all(okr) else where(okr, rate, 1.0)
    vsafe = np.where(okv, vv, 0.0)
    lp = v * log(r) - r - gammaln(vsafe + 1.0)
    ok = okv & okr
    if np.all(ok):
        return lp
    return where(ok, lp, _NEG_INF)


def _zip_lp(v, gate, rate):
    vv = np.asarray(v)
    okv = _is_integral(vv) & (vv >= 0)
    gv = np.asarray(gate)
    okp = (gv >= 0.0) & (gv <= 1.0) & np.greater(rate, 0.0)
    r = rate if np.all(np.greater(rate, 0.0)) else where(np.greater(rate, 0.0), rate, 1.0)
    g = gate if np.all(okp) else where((gv >= 0.0) & (gv <= 1.0), gate, 0.5)
    # mass at zero mixes the gate with the Poisson zero probability
    zero_mass = log(g + (1.0 - g) * np.exp(-r))
    vsafe = np.where(okv, vv, 0.0)
    pos_mass = log1p(-g) + v * log(r) - r - gammaln(vsafe + 1.0)
    lp = where(vv == 0, zero_mass, pos_mass)
    ok = okv & okp
    if np.all(ok):
        return lp
    return where(ok, lp, _NEG_INF)


# --- samplers -------------------------------------------------------------------

def _d_normal(rng, mu, sigma, size=None):
    return rng.normal(mu, sigma, size)


def _d_exp(rng, rate, size=None):
    return rng.exponential(1.0, size if size is not None else np.shape(rate)) / rate


def _d_halfnormal(rng, scale, size=None):
    return np.abs(rng.normal(0.0, scale, size))


def _d_gamma(rng, shape, rate, size=None):
    return rng.gamma(shape, 1.0, size if size is not None else np.broadcast(np.asarray(shape), np.asarray(rate)).shape) / rate


def _d_beta(rng, a, b, size=None):
    return rng.beta(a, b, size)


def _d_studentt(rng, df, loc, scale, size=None):
    shp = size if size is not None else np.broadcast(np.asarray(df), np.asarray(loc), np.asarray(scale)).shape
    return loc + scale * rng.standard_t(df, shp)


def _d_bernoulli(rng, p, size=None):
    shp = size if size is not None else np.shape(p)
    return (rng.random(shp) < p).astype(float)


def _d_bernoulli_logits(rng, logits, size=None):
    return _d_bernoulli(rng, expit(logits), size)


def _d_binomial(rng, n, p, size=None):
    return rng.binomial(np.asarray(n).astype(np.int64), p, size).astype(float)


def _d_binomial_logits(rng, n, logits, size=None):
    return _d_binomial(rng, n, expit(logits), size)


def _d_poisson(rng, rate, size=None):
    return rng.poisson(rate, size).astype(float)


def _d_zip(rng, gate, rate, size=None):
    shp = size if size is not None else np.broadcast(np.asarray(gate), np.asarray(rate)).shape
    counts = rng.poisson(rate, shp).astype(float)
    inflated = rng.random(shp) < gate
    return np.where(inflated, 0.0, counts)


# --- table ----------------------------------------------------------------------

@dataclass(frozen=True)
class DistSpec:
    name: str
    params: tuple[tuple[str, str], ...]  # (param name, constraint kind)
    support: str
    logp: Callable
    sample: Callable

    @property
    def arity(self) -> int:
        return len(self.params)

    @property
    def is_discrete(self) -> bool:
        return self.support in DISCRETE_SUPPORTS


TABLE: dict[str, DistSpec] = {
    "N": DistSpec("N", (("mean", P_REAL), ("sd", P_POSITIVE)), REAL,
                  _normal_lp, _d_normal),
    "Exp": DistSpec("Exp", (("rate", P_POSITIVE),), POSITIVE,
                    _exp_lp, _d_exp),
    "HalfNormal": DistSpec("HalfNormal", (("scale", P_POSITIVE),), POSITIVE,
                           _halfnormal_lp, _d_halfnormal),
    "Gamma": DistSpec("Gamma", (("shape", P_POSITIVE), ("rate", P_POSITIVE)), POSITIVE,
                      _gamma_lp, _d_gamma),
    "Beta": DistSpec("Beta", (("alpha", P_POSITIVE), ("beta", P_POSITIVE)), UNIT_INTERVAL,
                     _beta_lp, _d_beta),
    "StudentT": DistSpec("StudentT", (("df", P_POSITIVE), ("loc", P_REAL), ("scale", P_POSITIVE)), REAL,
                         _studentt_lp, _d_studentt),
    "Bernoulli": DistSpec("Bernoulli", (("p", P_UNIT),), BINARY,
                          _bernoulli_lp, _d_bernoulli),
    "BernoulliLogits": DistSpec("BernoulliLogits", (("logits", P_REAL),), BINARY,
                                _bernoulli_logits_lp, _d_bernoulli_logits),
    "Binomial": DistSpec("Binomial", (("n", P_COUNT), ("p", P_UNIT)), BOUNDED_INTEGER,
                         _binomial_lp, _d_binomial),
    "BinomialLogits": DistSpec("BinomialLogits", (("n", P_COUNT), ("logits", P_REAL)), BOUNDED_INTEGER,
                               _binomial_logits_lp, _d_binomial_logits),
    "Poisson": DistSpec("Poisson", (("rate", P_POSITIVE),), NONNEG_INTEGER,
                        _poisson_lp, _d_poisson),
    "ZeroInflatedPoisson": DistSpec("ZeroInflatedPoisson",
                                    (("gate", P_UNIT), ("rate", P_POSITIVE)), NONNEG_INTEGER,
                                    _zip_lp, _d_zip),
}

ALIASES = {"Normal": "N", "Exponential": "Exp"}


def lookup(name: str) -> DistSpec | None:
    return TABLE.get(ALIASES.get(name, name))


# constraint kind -> (test of the values inside it, what it asks)
_CONSTRAINTS = {
    P_POSITIVE: (lambda v: v > 0.0, "must be > 0"),
    P_UNIT: (lambda v: (v >= 0.0) & (v <= 1.0), "must lie in [0, 1]"),
    P_COUNT: (lambda v: (v >= 0) & _is_integral(v), "must be a count"),
}


def validate_params(spec: DistSpec, params) -> None:
    """Strict constraint check for the public API; raises InvalidParameterError."""
    if len(params) != spec.arity:
        raise InvalidParameterError(
            f"{spec.name} takes {spec.arity} parameter(s), got {len(params)}")
    for (pname, kind), value in zip(spec.params, params):
        v = np.asarray(value, dtype=float)
        if np.isnan(v).any():
            raise InvalidParameterError(f"{spec.name} parameter {pname!r} is NaN")
        if kind in _CONSTRAINTS:
            inside, asks = _CONSTRAINTS[kind]
            if not np.all(inside(v)):
                raise InvalidParameterError(
                    f"{spec.name} parameter {pname!r} {asks}")


def invalid_draws(spec: DistSpec, params, shape) -> tuple | None:
    """The first parameter with a value outside its constraint, NaN
    included, for draws of `shape` (cells, draws): (its name, what the
    constraint asks, how many draws hold such a value in some cell), or
    None."""
    for (pname, kind), value in zip(spec.params, params):
        if kind in _CONSTRAINTS:
            inside, asks = _CONSTRAINTS[kind]
            with np.errstate(invalid="ignore"):
                outside = ~inside(np.asarray(value, dtype=float))
            k = int(np.broadcast_to(outside, shape).any(axis=0).sum())
            if k:
                return pname, asks, k
    return None


def log_prob(name: str, params, value):
    """Elementwise log density/mass with strict parameter validation."""
    spec = lookup(name)
    if spec is None:
        raise InvalidParameterError(f"unknown distribution {name!r}")
    validate_params(spec, params)
    with np.errstate(all="ignore"):
        return spec.logp(value, *params)


def draw(rng: np.random.Generator, name: str, params, size=None):
    """Forward sample with strict parameter validation."""
    spec = lookup(name)
    if spec is None:
        raise InvalidParameterError(f"unknown distribution {name!r}")
    validate_params(spec, params)
    return spec.sample(rng, *params, size=size)


# --- transforms to unconstrained space -------------------------------------------

_TRANSFORMS = {REAL: "identity", POSITIVE: "exp", UNIT_INTERVAL: "logistic"}


def transform_for(support: str) -> str:
    """Name of the bijection mapping the real line onto `support`: a key of
    `codegen.TRANSFORMS`, which holds it, its inverse and its log
    |Jacobian|."""
    t = _TRANSFORMS.get(support)
    if t is None:
        raise NoTransformError(
            f"no unconstraining transform for {support!r} support; "
            "discrete sites cannot be latent")
    return t
