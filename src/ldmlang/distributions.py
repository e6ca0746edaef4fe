"""The closed distribution table: log densities, samplers, and transforms.

Conventions that differ between common libraries and matter here:
  * N(mu, s): the second parameter is the STANDARD DEVIATION.
  * Exp(b): the parameter is the RATE (mean 1/b).
  * HalfNormal(s): s is the scale of the underlying normal.

Log-prob kernels are plain NumPy/SciPy and return elementwise log densities.
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
from scipy.special import expit, gammaln, logit

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


def validate_params(spec: DistSpec, params) -> None:
    """Strict constraint check for the public API; raises InvalidParameterError."""
    if len(params) != spec.arity:
        raise InvalidParameterError(
            f"{spec.name} takes {spec.arity} parameter(s), got {len(params)}")
    for (pname, kind), value in zip(spec.params, params):
        v = np.asarray(value, dtype=float)
        if np.isnan(v).any():
            raise InvalidParameterError(f"{spec.name} parameter {pname!r} is NaN")
        if kind == P_POSITIVE and not np.all(v > 0.0):
            raise InvalidParameterError(f"{spec.name} parameter {pname!r} must be > 0")
        if kind == P_UNIT and not np.all((v >= 0.0) & (v <= 1.0)):
            raise InvalidParameterError(f"{spec.name} parameter {pname!r} must lie in [0, 1]")
        if kind == P_COUNT and not (np.all(v >= 0) and np.all(_is_integral(v))):
            raise InvalidParameterError(f"{spec.name} parameter {pname!r} must be a count")


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

class IdentityTransform:
    name = "identity"

    def constrain(self, u):
        return u

    def unconstrain(self, v):
        return v


class ExpTransform:
    name = "exp"

    def constrain(self, u):
        return np.exp(u)

    def unconstrain(self, v):
        return np.log(v)


class LogisticTransform:
    name = "logistic"

    def constrain(self, u):
        return expit(u)

    def unconstrain(self, v):
        return logit(np.clip(v, 1e-12, 1.0 - 1e-12))


_TRANSFORMS = {
    REAL: IdentityTransform(),
    POSITIVE: ExpTransform(),
    UNIT_INTERVAL: LogisticTransform(),
}


def transform_for(support: str):
    """Bijection mapping the real line onto `support`; its log |Jacobian|
    is in `codegen.TRANSFORMS`."""
    t = _TRANSFORMS.get(support)
    if t is None:
        raise NoTransformError(
            f"no unconstraining transform for {support!r} support; "
            "discrete sites cannot be latent")
    return t
