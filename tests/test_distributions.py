"""Log-density kernels checked against scipy.stats, transform round-trips, and
the special functions checked against scipy.special."""

import math
import warnings
from decimal import Decimal, localcontext

import numpy as np
import pytest
import scipy.special as sp
import scipy.stats as st
from scipy.special import expit

from ldmlang import codegen
from ldmlang import distributions as dist
from ldmlang.errors import InvalidParameterError, NoTransformError


def lp(name, params, value):
    return np.asarray(dist.log_prob(name, params, value), dtype=float)


def test_normal_matches_scipy():
    v = np.array([-1.3, 0.0, 2.7])
    np.testing.assert_allclose(lp("N", (0.5, 2.0), v),
                               st.norm.logpdf(v, 0.5, 2.0), rtol=1e-12)


def test_exponential_is_rate_parameterized():
    v = np.array([0.1, 1.0, 4.0])
    np.testing.assert_allclose(lp("Exp", (2.5,), v),
                               st.expon.logpdf(v, scale=1 / 2.5), rtol=1e-12)


def test_halfnormal_matches_scipy():
    v = np.array([0.2, 1.5])
    np.testing.assert_allclose(lp("HalfNormal", (1.7,), v),
                               st.halfnorm.logpdf(v, scale=1.7), rtol=1e-12)


def test_gamma_is_shape_rate():
    v = np.array([0.5, 2.0, 9.0])
    np.testing.assert_allclose(lp("Gamma", (3.0, 0.5), v),
                               st.gamma.logpdf(v, a=3.0, scale=2.0), rtol=1e-12)


def test_beta_matches_scipy():
    v = np.array([0.1, 0.5, 0.93])
    np.testing.assert_allclose(lp("Beta", (2.0, 5.0), v),
                               st.beta.logpdf(v, 2.0, 5.0), rtol=1e-12)


def test_studentt_matches_scipy():
    v = np.array([-2.0, 0.3, 4.0])
    np.testing.assert_allclose(lp("StudentT", (4.0, 1.0, 2.0), v),
                               st.t.logpdf(v, 4.0, loc=1.0, scale=2.0), rtol=1e-12)


def test_bernoulli_matches_scipy():
    v = np.array([0.0, 1.0, 1.0])
    np.testing.assert_allclose(lp("Bernoulli", (0.3,), v),
                               st.bernoulli.logpmf(v.astype(int), 0.3), rtol=1e-12)


def test_bernoulli_degenerate_p():
    assert lp("Bernoulli", (0.0,), 0.0) == pytest.approx(0.0)
    assert lp("Bernoulli", (0.0,), 1.0) == -math.inf
    assert lp("Bernoulli", (1.0,), 1.0) == pytest.approx(0.0)
    assert lp("Bernoulli", (1.0,), 0.0) == -math.inf


def test_bernoulli_logits_matches_scipy():
    v = np.array([0.0, 1.0])
    for logits in (-1.5, 0.0, 2.0):
        np.testing.assert_allclose(
            lp("BernoulliLogits", (logits,), v),
            st.bernoulli.logpmf(v.astype(int), expit(logits)), rtol=1e-10)


def test_binomial_matches_scipy():
    v = np.array([0.0, 3.0, 10.0])
    np.testing.assert_allclose(lp("Binomial", (10, 0.4), v),
                               st.binom.logpmf(v.astype(int), 10, 0.4), rtol=1e-10)


def test_binomial_logits_matches_scipy():
    v = np.array([0.0, 3.0, 10.0])
    np.testing.assert_allclose(
        lp("BinomialLogits", (10, 0.7), v),
        st.binom.logpmf(v.astype(int), 10, expit(0.7)), rtol=1e-10)


def test_poisson_matches_scipy():
    v = np.array([0.0, 2.0, 11.0])
    np.testing.assert_allclose(lp("Poisson", (3.5,), v),
                               st.poisson.logpmf(v.astype(int), 3.5), rtol=1e-12)


def test_zero_inflated_poisson_pmf():
    gate, rate = 0.3, 2.0
    v = np.arange(6, dtype=float)
    want = np.log(gate * (v == 0) + (1 - gate) * st.poisson.pmf(v.astype(int), rate))
    np.testing.assert_allclose(lp("ZeroInflatedPoisson", (gate, rate), v),
                               want, rtol=1e-12)


def test_zero_inflated_poisson_normalizes_and_matches_moments():
    gate, rate = 0.25, 3.0
    v = np.arange(200, dtype=float)
    pmf = np.exp(lp("ZeroInflatedPoisson", (gate, rate), v))
    assert pmf.sum() == pytest.approx(1.0, abs=1e-12)
    mean = (pmf * v).sum()
    var = (pmf * v ** 2).sum() - mean ** 2
    assert mean == pytest.approx((1 - gate) * rate, rel=1e-10)
    assert var == pytest.approx((1 - gate) * rate * (1 + gate * rate), rel=1e-10)


def test_out_of_support_values_give_neg_inf():
    assert lp("Exp", (1.0,), -0.5) == -math.inf
    assert lp("HalfNormal", (1.0,), -0.1) == -math.inf
    assert lp("Gamma", (2.0, 1.0), 0.0) == -math.inf
    assert np.all(lp("Beta", (2.0, 2.0), np.array([0.0, 1.0, 1.5])) == -math.inf)
    assert lp("Bernoulli", (0.5,), 2.0) == -math.inf
    assert lp("Bernoulli", (0.5,), 0.5) == -math.inf
    assert lp("Binomial", (4, 0.5), 5.0) == -math.inf
    assert lp("Poisson", (2.0,), -1.0) == -math.inf
    assert lp("Poisson", (2.0,), 1.5) == -math.inf
    assert lp("ZeroInflatedPoisson", (0.2, 2.0), 2.5) == -math.inf


def test_out_of_support_is_elementwise():
    out = lp("Exp", (1.0,), np.array([-1.0, 1.0]))
    assert out[0] == -math.inf
    assert out[1] == pytest.approx(st.expon.logpdf(1.0))


def test_invalid_params_raise_on_public_api():
    with pytest.raises(InvalidParameterError):
        dist.log_prob("N", (0.0, -1.0), 0.0)
    with pytest.raises(InvalidParameterError):
        dist.log_prob("Beta", (2.0, 2.0, 2.0), 0.5)
    with pytest.raises(InvalidParameterError):
        dist.log_prob("Bernoulli", (1.5,), 1.0)
    with pytest.raises(InvalidParameterError):
        dist.log_prob("Binomial", (2.5, 0.5), 1.0)
    with pytest.raises(InvalidParameterError):
        dist.log_prob("Nope", (1.0,), 0.0)
    with pytest.raises(InvalidParameterError):
        dist.draw(np.random.default_rng(0), "Exp", (-1.0,))


def test_invalid_params_mask_to_neg_inf_on_raw_kernels():
    # the plan evaluator calls kernels directly and relies on masking
    spec = dist.lookup("N")
    assert spec.logp(0.0, 0.0, -1.0) == -math.inf
    assert dist.lookup("Exp").logp(1.0, -2.0) == -math.inf
    assert dist.lookup("Gamma").logp(1.0, -1.0, 1.0) == -math.inf
    out = dist.lookup("N").logp(np.zeros(2), 0.0, np.array([1.0, -1.0]))
    assert np.isfinite(out[0]) and out[1] == -math.inf


def test_aliases_resolve():
    assert dist.lookup("Normal") is dist.lookup("N")
    assert dist.lookup("Exponential") is dist.lookup("Exp")
    assert dist.lookup("missing") is None


def test_registry_arity_and_support():
    assert dist.lookup("N").arity == 2
    assert dist.lookup("StudentT").arity == 3
    assert not dist.lookup("N").is_discrete
    assert dist.lookup("Poisson").is_discrete
    assert dist.lookup("Bernoulli").is_discrete


def test_draw_respects_support_and_shape():
    rng = np.random.default_rng(42)
    x = dist.draw(rng, "Exp", (2.0,), size=100)
    assert x.shape == (100,) and np.all(x > 0)
    b = dist.draw(rng, "Beta", (2.0, 3.0), size=100)
    assert np.all((b > 0) & (b < 1))
    k = dist.draw(rng, "Binomial", (7, 0.4), size=100)
    assert np.all((k >= 0) & (k <= 7))
    z = dist.draw(rng, "ZeroInflatedPoisson", (0.5, 5.0), size=4000)
    assert np.mean(z == 0) > 0.4  # gate inflates zeros well above Poisson(5)


def test_draw_matches_mean():
    rng = np.random.default_rng(7)
    x = dist.draw(rng, "Gamma", (4.0, 2.0), size=20000)
    assert np.mean(x) == pytest.approx(2.0, abs=0.05)


def transform(support):
    """The constrain and unconstrain functions of `support`'s transform, from
    the one table of them, codegen.TRANSFORMS."""
    name = dist.transform_for(support)
    return [codegen.function(f, 1) for f in codegen.TRANSFORMS[name][:2]]


@pytest.mark.parametrize("support", [dist.POSITIVE, dist.UNIT_INTERVAL, dist.REAL])
def test_transform_round_trip(support):
    constrain, unconstrain = transform(support)
    u = np.linspace(-3, 3, 11)
    np.testing.assert_allclose(unconstrain(constrain(u)), u, atol=1e-9)


def test_transform_jacobian_matches_fd():
    # the generated log-Jacobian of each transform of codegen.TRANSFORMS
    # against log |central difference| of its constrain
    h = 1e-6

    def log_jacobian(support):
        src = codegen.Source(1)
        src.latent(0, dist.transform_for(support))
        return src.build().value

    for support in (dist.POSITIVE, dist.UNIT_INTERVAL):
        constrain, _ = transform(support)
        for u in (-1.2, 0.0, 0.8):
            fd = (constrain(u + h) - constrain(u - h)) / (2 * h)
            assert log_jacobian(support)(np.array([u])) == pytest.approx(
                math.log(fd), abs=1e-6), support
    assert log_jacobian(dist.REAL)(np.array([3.0])) == 0.0
    assert set(codegen.TRANSFORMS) == {
        dist.transform_for(s)
        for s in (dist.POSITIVE, dist.UNIT_INTERVAL, dist.REAL)}


def test_no_transform_for_discrete_support():
    with pytest.raises(NoTransformError):
        dist.transform_for(dist.BINARY)
    with pytest.raises(NoTransformError):
        dist.transform_for(dist.NONNEG_INTEGER)


# --- special functions against SciPy --------------------------------------------

def _special_grid():
    """(1e-8, 1e7) log-uniform, dense around the roots of gammaln at 1 and
    2 and of digamma at 1.4616, plus whole and half-whole numbers."""
    rng = np.random.default_rng(11)
    return np.concatenate([
        np.exp(rng.uniform(math.log(1e-8), math.log(1e7), 20000)),
        rng.uniform(0.5, 2.5, 20000),
        1.0 + rng.uniform(-1e-6, 1e-6, 1000), 2.0 + rng.uniform(-1e-6, 1e-6, 1000),
        rng.uniform(1.45, 1.47, 2000),
        np.arange(1.0, 200.0), np.arange(0.5, 60.0)])


def _scalars(f, x, kind):
    return np.array([f(kind(v)) for v in x])


@pytest.mark.parametrize("name", ["gammaln", "digamma"])
def test_gammaln_digamma_match_scipy(name):
    x = _special_grid()
    ref = getattr(sp, name)(x)
    ours = getattr(dist, name)
    tol = 1e-14 * np.maximum(1.0, np.abs(ref))
    assert np.all(np.abs(ours(x) - ref) <= tol)                 # array path
    for kind in (float, np.float64):                            # math path
        sub = slice(None, None, 7)
        assert np.all(np.abs(_scalars(ours, x[sub], kind) - ref[sub])
                      <= tol[sub])


def _exact_expit(x):
    with localcontext() as ctx:
        ctx.prec = 60
        return float(1 / (1 + (-Decimal(float(x))).exp()))


def test_expit_and_logit_match_scipy_and_exact_values():
    rng = np.random.default_rng(12)
    x = np.concatenate([rng.normal(0.0, 4.0, 20000),
                        rng.uniform(-709.0, 40.0, 20000)])
    scalar = _scalars(dist.expit, x, float)
    np.testing.assert_array_max_ulp(scalar, sp.expit(x), maxulp=2)
    # SciPy's own expit is up to 2 ulp from the exact value, so the array
    # path is held to the exact value and to 4 ulp of SciPy
    np.testing.assert_array_max_ulp(dist.expit(x), sp.expit(x), maxulp=4)
    few = x[::20]
    exact = np.array([_exact_expit(v) for v in few])
    np.testing.assert_array_max_ulp(dist.expit(few), exact, maxulp=2)
    np.testing.assert_array_max_ulp(scalar[::20], exact, maxulp=2)

    p = np.concatenate([rng.random(20000), np.exp(rng.uniform(-700, 0, 2000)),
                        1.0 - np.exp(rng.uniform(-36, 0, 2000))])
    np.testing.assert_array_max_ulp(dist.logit(p), sp.logit(p), maxulp=2)
    np.testing.assert_array_max_ulp(_scalars(dist.logit, p, float),
                                    sp.logit(p), maxulp=2)


@pytest.mark.parametrize("name", ["expit", "logit", "gammaln", "digamma"])
def test_special_function_edges_match_scipy_without_warnings(name):
    edges = [0.0, -0.0, -1.0, -2.0, -0.5, -1.5, -2.5, -3.7, -10.3, -1e-300,
             math.inf, -math.inf, math.nan, -800.0, 800.0, 1e308, -1e20,
             0.5, 1.0, 2.0, 171.0, 172.5]
    ours, ref = getattr(dist, name), getattr(sp, name)(np.array(edges))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = {"array": ours(np.array(edges)),
               "float": _scalars(ours, edges, float),
               "np.float64": _scalars(ours, edges, np.float64)}
    for path, values in got.items():
        np.testing.assert_allclose(values, ref, rtol=1e-13, atol=0,
                                   err_msg=f"{name} {path}")
        num = ~np.isnan(ref)
        assert np.array_equal(np.signbit(values[num]), np.signbit(ref[num])), \
            f"{name} {path}"
    assert type(ours(0.3)) is np.float64
    assert type(ours(np.float64(0.3))) is np.float64
    assert type(ours(np.array(0.3))) is np.float64


def test_gammaln_is_exact_at_one_and_two():
    assert dist.gammaln(1.0) == 0.0 and dist.gammaln(2.0) == 0.0
    np.testing.assert_array_equal(dist.gammaln(np.array([1.0, 2.0])), 0.0)
    assert dist.gammaln(np.array([4.0]))[0] == math.log(6.0)
