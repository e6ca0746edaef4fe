"""Single-path Pathfinder: the start and the first inverse metric of a chain.

Pathfinder (Zhang, Carpenter, Gelman & Vehtari, arXiv 2108.03782) climbs the
log density by L-BFGS. At each iterate, the L-BFGS history defines a normal
approximation: its mean is one quasi-Newton step ahead of the iterate, and
its covariance is the inverse-Hessian estimate, a diagonal plus a low-rank
term in the compact form of Byrd, Nocedal & Schnabel (1994). A few draws of
each approximation score it by a Monte Carlo ELBO. The path stops PATIENCE
iterations after the best score so far; the chain starts at a draw of the
best approximation, and the diagonal of its covariance is the chain's first
inverse metric.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

HISTORY = 6             # L-BFGS curvature pairs kept
ELBO_DRAWS = 5
PATIENCE = 50           # iterations past the best ELBO before the path stops
MAX_ITERATIONS = 1000
_GRAD_TOL = 1e-8        # L-BFGS ends at this fraction of the first gradient
_LOG_2PI = math.log(2.0 * math.pi)
# by order: identity matrices for the factors (order at most 2 * HISTORY),
# and the masks below the diagonal that np.triu applies (at most HISTORY)
_EYE = [np.eye(k) for k in range(2 * HISTORY + 1)]
_BELOW = [np.tri(k, k=-1, dtype=bool) for k in range(HISTORY + 1)]


class Pair(NamedTuple):
    """An L-BFGS curvature pair: the step s, the gradient change y, and
    their products s'y and y'y."""
    s: np.ndarray
    y: np.ndarray
    sy: float
    yy: float


def _two_loop(g, pairs):
    """The L-BFGS direction -H g from the curvature pairs, oldest first,
    with H0 = (s'y / y'y) I from the newest pair."""
    q = g.copy()
    coef = []
    for s, y, sy, _ in reversed(pairs):
        a = (s @ q) / sy
        q -= a * y
        coef.append(a)
    r = q * (pairs[-1].sy / pairs[-1].yy)
    for (s, y, sy, _), a in zip(pairs, reversed(coef)):
        r += (a - (y @ r) / sy) * s
    return -r


def _line_search(fg, x, f, g, d):
    """A step along d that satisfies the weak Wolfe conditions (sufficient
    decrease 1e-4, curvature 0.9), by doubling and bisection (Lewis &
    Overton), in at most 30 evaluations. A point where f is not finite
    counts as too far. Returns (x, f, g) at the step, the last point that
    only decreased f enough when no point met both conditions, or None."""
    slope = float(g @ d)
    if not slope < 0.0:
        return None
    lo, hi, t = 0.0, math.inf, 1.0
    found = None
    for _ in range(30):
        xt = x + t * d
        ft, gt = fg(xt)
        if not ft <= f + 1e-4 * t * slope:
            hi = t
        elif gt @ d < 0.9 * slope:
            lo, found = t, (xt, ft, gt)
        else:
            return xt, ft, gt
        t = 0.5 * (lo + hi) if hi < math.inf else 2.0 * lo
    return found


def lbfgs(fg, x, f, g):
    """Minimize f by L-BFGS from x, where f and g are its value and
    gradient. fg(x) -> (f, gradient); f is inf where the point is
    rejected. After each step, yields (x, f, g, pairs, new_pair): pairs
    holds the last HISTORY curvature pairs (`Pair`), oldest first, and
    new_pair says whether this step added one. Stops when the gradient
    norm falls to _GRAD_TOL of its first value, when no step along the
    direction decreases f, or after MAX_ITERATIONS steps."""
    pairs = []
    g_stop = _GRAD_TOL * math.sqrt(g @ g)
    for _ in range(MAX_ITERATIONS):
        if pairs:
            d = _two_loop(g, pairs)
        else:                           # first step: length at most 1
            d = -g / max(1.0, math.sqrt(g @ g))
        if not np.isfinite(d).all():
            return
        step = _line_search(fg, x, f, g, d)
        if step is None:
            return
        x_new, f_new, g_new = step
        s, y = x_new - x, g_new - g
        sy = float(s @ y)
        yy = float(y @ y)
        new_pair = sy > 0.0 and yy <= 1e12 * sy
        if new_pair:
            pairs = (pairs + [Pair(s, y, sy, yy)])[-HISTORY:]
        x, f, g = x_new, f_new, g_new
        yield x, f, g, pairs, new_pair
        if math.sqrt(g @ g) <= g_stop:
            return


def _update_diagonal(alpha, pair):
    """The diagonal of the inverse-Hessian estimate after the curvature
    pair (Gilbert & Lemaréchal's update, Pathfinder's Algorithm 4); the old
    diagonal where the update is not positive and finite."""
    s, y, sy, _ = pair
    y_a_y = float(y @ (alpha * y))
    s_a = s / alpha
    s_a_s = float(s @ s_a)
    new = sy / (y_a_y / alpha + y * y - (y_a_y / s_a_s) * s_a ** 2)
    return new if (np.isfinite(new) & (new > 0)).all() else alpha


class Approximation(NamedTuple):
    """N(mean, D (I + Q (L L' - I) Q') D) with D = diag(sqrt_alpha): the
    factored covariance, its log determinant and its diagonal."""
    mean: np.ndarray
    sqrt_alpha: np.ndarray
    Q: np.ndarray
    L: np.ndarray
    logdet: float
    diagonal: np.ndarray


def approximation(x, grad, alpha, pairs):
    """The normal approximation at iterate x of log p, whose gradient there
    is grad: covariance H = diag(alpha) + beta gamma beta' from the pairs,
    mean x + H grad. None where H is not positive definite or its mean or
    diagonal is not finite."""
    m = len(pairs)
    S = np.empty((x.shape[0], m))
    Y = np.empty((x.shape[0], m))
    for j, (s, y, _, _) in enumerate(pairs):
        S[:, j] = s
        Y[:, j] = y
    SY = S.T @ Y
    r_inv = np.linalg.inv(np.where(_BELOW[m], 0.0, SY))     # np.triu(SY)
    AY = alpha[:, None] * Y
    beta = np.hstack([AY, S])
    inner = Y.T @ AY
    inner.flat[::m + 1] += SY.diagonal()
    gamma = np.zeros((2 * m, 2 * m))
    gamma[:m, m:] = -r_inv
    gamma[m:, :m] = -r_inv.T
    gamma[m:, m:] = r_inv.T @ inner @ r_inv
    sqrt_alpha = np.sqrt(alpha)
    Q, R = np.linalg.qr(beta / sqrt_alpha[:, None])
    try:
        L = np.linalg.cholesky(_EYE[Q.shape[1]] + R @ gamma @ R.T)
    except np.linalg.LinAlgError:
        return None
    mean = x + alpha * grad + beta @ (gamma @ (beta.T @ grad))
    logdet = float(np.log(alpha).sum() + 2.0 * np.log(L.diagonal()).sum())
    # 1 - |Q_i|^2 >= 0: the diagonal is positive up to rounding
    diagonal = alpha * (1.0 + ((Q @ L) ** 2).sum(axis=1)
                        - (Q * Q).sum(axis=1))
    if not (np.isfinite(mean).all() and math.isfinite(logdet)
            and (np.isfinite(diagonal) & (diagonal > 0)).all()):
        return None
    return Approximation(mean, sqrt_alpha, Q, L, logdet, diagonal)


def draw(rng, approx, n):
    """n draws of the approximation, as rows, and their log densities."""
    mean, sqrt_alpha, Q, L, logdet, _ = approx
    z = rng.standard_normal((n, mean.shape[0]))
    x = mean + sqrt_alpha * (z + (z @ Q @ (L - _EYE[L.shape[0]]).T) @ Q.T)
    log_q = -0.5 * (logdet + (z * z).sum(axis=1) + mean.shape[0] * _LOG_2PI)
    return x, log_q


def pathfinder(rng, grad_fn, value_fn, u, v, g):
    """The start of a chain from (u, v, g), a point of finite log density:
    returns (u, v, g, inv_mass, info).

    grad_fn(u) -> (log p, gradient) and value_fn(u) -> log p. info holds
    the path's `iterations`, its `gradients` and `values` (calls made) and
    the chosen iteration and its ELBO (`best_iteration`, `elbo`), both None
    when no iterate had a finite ELBO; the chain then keeps (u, v, g) and
    the unit metric."""
    n_grads = n_values = 0

    def fg(x):
        nonlocal n_grads
        n_grads += 1
        lp, grad = grad_fn(x)
        return (-float(lp), -grad) if math.isfinite(lp) else (math.inf, grad)

    alpha = np.ones(u.shape[0])
    # (elbo, iteration, approximation, its first draw, the iterate's x, f, g)
    best = None
    iteration = 0
    with np.errstate(all="ignore"):
        for x, f, gf, pairs, new_pair in lbfgs(fg, u, -float(v), -g):
            iteration += 1
            if new_pair:
                alpha = _update_diagonal(alpha, pairs[-1])
            approx = approximation(x, -gf, alpha, pairs) if pairs else None
            if approx is not None:
                x_draws, log_q = draw(rng, approx, ELBO_DRAWS)
                log_p = np.array([value_fn(xd) for xd in x_draws])
                n_values += ELBO_DRAWS
                elbo = float((log_p - log_q).mean())
                if math.isfinite(elbo) and (best is None or elbo > best[0]):
                    best = (elbo, iteration, approx, x_draws[0], (x, f, gf))
            if iteration - (best[1] if best else 0) >= PATIENCE:
                break
        info = {"iterations": iteration, "gradients": n_grads,
                "values": n_values, "best_iteration": None, "elbo": None}
        if best is None:
            return u, v, g, np.ones(u.shape[0]), info
        info["elbo"], info["best_iteration"], approx, start, (x, f, gf) = best
        vs, gs = grad_fn(start)
        info["gradients"] += 1
        if not math.isfinite(vs):       # the draw is rejected: its iterate
            start, vs, gs = x, -f, -gf
    return start, float(vs), gs, approx.diagonal, info
