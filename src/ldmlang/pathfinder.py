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

The scores do not steer L-BFGS, and no score can stop the path before
iteration best + PATIENCE. So the path runs L-BFGS up to that iteration and
then scores the block of iterates since the last stop, a stack at a time:
iterates with the same number of pairs, at most _STACK_FLOATS floats per
stacked array, get their approximations from one NumPy or LAPACK call per
step, their draws from one standard normal call and their log densities
from one K-point call. The block's iterates are then taken in order, and a
new best moves the stop on. Every stacked step gives each iterate the bits
that the step gives it alone, and the stacks come in iteration order, so
the path, its RNG use and its choice are those of scoring each iterate as
it comes; it makes no L-BFGS step past where that would stop.
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
# floats in each stacked array of a block's approximations: a bound on the
# memory of a block, which is up to PATIENCE iterates
_STACK_FLOATS = 4096
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
        a = s.dot(q) / sy
        q -= a * y
        coef.append(a)
    r = q * (pairs[-1].sy / pairs[-1].yy)
    for (s, y, sy, _), a in zip(pairs, reversed(coef)):
        r += (a - y.dot(r) / sy) * s
    return -r


def _line_search(fg, x, f, g, d):
    """A step along d that satisfies the weak Wolfe conditions (sufficient
    decrease 1e-4, curvature 0.9), by doubling and bisection (Lewis &
    Overton), in at most 30 evaluations. A point where f is not finite
    counts as too far. Returns (x, f, g) at the step, the last point that
    only decreased f enough when no point met both conditions, or None."""
    slope = float(g.dot(d))
    if not slope < 0.0:
        return None
    lo, hi, t = 0.0, math.inf, 1.0
    found = None
    for _ in range(30):
        xt = x + t * d
        ft, gt = fg(xt)
        if not ft <= f + 1e-4 * t * slope:
            hi = t
        elif gt.dot(d) < 0.9 * slope:
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
    g_stop = _GRAD_TOL * math.sqrt(g.dot(g))
    for _ in range(MAX_ITERATIONS):
        if pairs:
            d = _two_loop(g, pairs)
        else:                           # first step: length at most 1
            d = -g / max(1.0, math.sqrt(g.dot(g)))
        if not np.isfinite(d).all():
            return
        step = _line_search(fg, x, f, g, d)
        if step is None:
            return
        x_new, f_new, g_new = step
        s, y = x_new - x, g_new - g
        sy = float(s.dot(y))
        yy = float(y.dot(y))
        new_pair = sy > 0.0 and yy <= 1e12 * sy
        if new_pair:
            pairs = (pairs + [Pair(s, y, sy, yy)])[-HISTORY:]
        x, f, g = x_new, f_new, g_new
        yield x, f, g, pairs, new_pair
        if math.sqrt(g.dot(g)) <= g_stop:
            return


def _update_diagonal(alpha, pair):
    """The diagonal of the inverse-Hessian estimate after the curvature
    pair (Gilbert & Lemaréchal's update, Pathfinder's Algorithm 4); the old
    diagonal where the update is not positive and finite."""
    s, y, sy, _ = pair
    y_a_y = float(y.dot(alpha * y))
    s_a = s / alpha
    s_a_s = float(s.dot(s_a))
    new = sy / (y_a_y / alpha + y * y - (y_a_y / s_a_s) * s_a ** 2)
    return new if (np.isfinite(new) & (new > 0)).all() else alpha


class Iterate(NamedTuple):
    """An L-BFGS iterate waiting for its score: x, f = -log p there and its
    gradient g, and the diagonal and curvature pairs of its approximation."""
    iteration: int
    x: np.ndarray
    f: float
    g: np.ndarray
    alpha: np.ndarray
    pairs: list


class Approximation(NamedTuple):
    """A stack of k normal approximations N(mean, D (I + Q (L L' - I) Q') D)
    with D = diag(sqrt_alpha), one per row of each field: the factored
    covariance, its log determinant and its diagonal."""
    mean: np.ndarray            # (k, dim)
    sqrt_alpha: np.ndarray      # (k, dim)
    Q: np.ndarray               # (k, dim, r), r = min(dim, 2m)
    L: np.ndarray               # (k, r, r)
    logdet: np.ndarray          # (k,)
    diagonal: np.ndarray        # (k, dim)


def _transposed(a):
    return a.transpose(0, 2, 1)


def _cholesky(M):
    """The Cholesky factors of the stack M, and which exist: LAPACK fails
    the whole stack for one matrix that is not positive definite, so then
    each matrix is factored alone."""
    try:
        return np.linalg.cholesky(M), np.ones(len(M), dtype=bool)
    except np.linalg.LinAlgError:
        pass
    L = np.zeros_like(M)
    ok = np.zeros(len(M), dtype=bool)
    for i, Mi in enumerate(M):
        try:
            L[i] = np.linalg.cholesky(Mi)
            ok[i] = True
        except np.linalg.LinAlgError:
            pass
    return L, ok


def approximation(iterates):
    """The normal approximations of log p at `iterates` (each an `Iterate`
    with m pairs, m the same for all), as one stack: covariance H =
    diag(alpha) + beta gamma beta' from the pairs, mean x + H grad, where
    grad = -g is the gradient of log p. Returns the stack and which of its
    members exist: not where H is not positive definite or its mean or
    diagonal is not finite. One NumPy call covers the stack, and gives
    each member the bits that it gives one iterate alone."""
    k, dim, m = len(iterates), len(iterates[0].x), len(iterates[0].pairs)
    S = np.empty((k, dim, m))
    Y = np.empty((k, dim, m))
    for i, it in enumerate(iterates):
        for j, (s, y, _, _) in enumerate(it.pairs):
            S[i, :, j] = s
            Y[i, :, j] = y
    x = np.array([it.x for it in iterates])
    grad = np.array([-it.g for it in iterates])
    alpha = np.array([it.alpha for it in iterates])
    SY = _transposed(S) @ Y
    r_inv = np.linalg.inv(np.where(_BELOW[m], 0.0, SY))     # np.triu(SY)
    AY = alpha[:, :, None] * Y
    beta = np.concatenate([AY, S], axis=2)
    inner = _transposed(Y) @ AY
    diag = np.arange(m)
    inner[:, diag, diag] += SY[:, diag, diag]
    gamma = np.zeros((k, 2 * m, 2 * m))
    gamma[:, :m, m:] = -r_inv
    gamma[:, m:, :m] = -_transposed(r_inv)
    gamma[:, m:, m:] = _transposed(r_inv) @ inner @ r_inv
    sqrt_alpha = np.sqrt(alpha)
    Q, R = np.linalg.qr(beta / sqrt_alpha[:, :, None])
    L, ok = _cholesky(_EYE[Q.shape[2]] + R @ gamma @ _transposed(R))
    mean = x + alpha * grad \
        + (beta @ (gamma @ (_transposed(beta) @ grad[:, :, None])))[:, :, 0]
    logdet = (np.add.reduce(np.log(alpha), 1) + 2.0 * np.add.reduce(
        np.log(np.diagonal(L, axis1=1, axis2=2)), 1))
    # 1 - |Q_i|^2 >= 0: the diagonal is positive up to rounding
    diagonal = alpha * (1.0 + np.add.reduce((Q @ L) ** 2, 2)
                        - np.add.reduce(Q * Q, 2))
    ok &= (np.isfinite(mean).all(1) & np.isfinite(logdet)
           & (np.isfinite(diagonal) & (diagonal > 0)).all(1))
    return Approximation(mean, sqrt_alpha, Q, L, logdet, diagonal), ok


def draw(z, approx):
    """Draws of a stack of approximations from standard normal z of shape
    (k, n, dim), n per member, and their log densities (k, n)."""
    mean, sqrt_alpha, Q, L, logdet, _ = approx
    dim = mean.shape[1]
    x = mean[:, None] + sqrt_alpha[:, None] * (
        z + (z @ Q @ _transposed(L - _EYE[L.shape[1]])) @ _transposed(Q))
    log_q = -0.5 * (logdet[:, None] + np.add.reduce(z * z, 2)
                    + dim * _LOG_2PI)
    return x, log_q


def _stacks(block):
    """The block's iterates that have pairs, in runs of one pair count m and
    at most _STACK_FLOATS / (2 m dim) iterates, one at the least."""
    run = []
    for it in block:
        m = len(it.pairs)
        if run and (m != len(run[0].pairs)
                    or (len(run) + 1) * 2 * m * len(it.x) > _STACK_FLOATS):
            yield run
            run = []
        if m:
            run.append(it)
    if run:
        yield run


def _score(rng, values_fn, block, best):
    """Score a block of `Iterate`s by their ELBOs, a stack at a time in
    iteration order; returns the best iterate so far, as (elbo, iteration,
    covariance diagonal, first draw, its Iterate), or None, and the number
    of points evaluated. A stack's draws come from one standard normal call
    and are evaluated by one values_fn call: the RNG stream and the choice
    are those of scoring each iterate in turn."""
    points = 0
    for run in _stacks(block):
        approx, ok = approximation(run)
        if not ok.all():
            run = [it for it, good in zip(run, ok) if good]
            approx = Approximation(*(a[ok] for a in approx))
        if not run:
            continue
        k, dim = len(run), len(run[0].x)
        z = rng.standard_normal((k * ELBO_DRAWS, dim))
        x, log_q = draw(z.reshape(k, ELBO_DRAWS, dim), approx)
        log_p = values_fn(x.reshape(k * ELBO_DRAWS, dim))
        points += k * ELBO_DRAWS
        elbos = (log_p.reshape(k, ELBO_DRAWS) - log_q).mean(axis=1)
        for it, elbo, diagonal, draws in zip(run, elbos.tolist(),
                                             approx.diagonal, x):
            if math.isfinite(elbo) and (best is None or elbo > best[0]):
                best = (elbo, it.iteration, diagonal, draws[0].copy(), it)
    return best, points


def pathfinder(rng, grad_fn, values_fn, u, v, g):
    """The start of a chain from (u, v, g), a point of finite log density:
    returns (u, v, g, inv_mass, info).

    grad_fn(u) -> (log p, gradient) and values_fn(U) -> log p at each row
    of U. info holds the path's `iterations`, its `gradients` (calls) and
    `values` (points evaluated) and the chosen iteration and its ELBO
    (`best_iteration`, `elbo`), both None when no iterate had a finite
    ELBO; the chain then keeps (u, v, g) and the unit metric."""
    n_grads = n_values = 0

    def fg(x):
        nonlocal n_grads
        n_grads += 1
        lp, grad = grad_fn(x)
        return (-float(lp), -grad) if math.isfinite(lp) else (math.inf, grad)

    alpha = np.ones(u.shape[0])
    best = None         # see _score
    block = []
    iteration = 0
    with np.errstate(all="ignore"):
        for x, f, gf, pairs, new_pair in lbfgs(fg, u, -float(v), -g):
            iteration += 1
            if new_pair:
                alpha = _update_diagonal(alpha, pairs[-1])
            block.append(Iterate(iteration, x, f, gf, alpha, pairs))
            # no ELBO in the block can stop the path before this iteration
            if iteration - (best[1] if best else 0) < PATIENCE:
                continue
            best, n = _score(rng, values_fn, block, best)
            n_values += n
            block = []
            if iteration - (best[1] if best else 0) >= PATIENCE:
                break
        else:                           # L-BFGS ended inside a block
            best, n = _score(rng, values_fn, block, best)
            n_values += n
        info = {"iterations": iteration, "gradients": n_grads,
                "values": n_values, "best_iteration": None, "elbo": None}
        if best is None:
            return u, v, g, np.ones(u.shape[0]), info
        info["elbo"], info["best_iteration"], diagonal, start, it = best
        vs, gs = grad_fn(start)
        info["gradients"] += 1
        if not math.isfinite(vs):       # the draw is rejected: its iterate
            start, vs, gs = it.x, -it.f, -it.g
    return start, float(vs), gs, diagonal, info
