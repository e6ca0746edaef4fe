"""Gradient-based MCMC over a compiled plan.

Each chain starts from single-path Pathfinder (see pathfinder.py): from the
chain's initialization point, L-BFGS climbs the log density, and the chain
starts at a draw of the best-scoring normal approximation along the path,
with the diagonal of its covariance as the first inverse metric. Without a
finite score anywhere on the path, the chain starts at the initialization
point with the unit metric.

Multinomial No-U-Turn sampler: trajectories grow by doubling, candidate
states are weighted by exp(H0 - H) within each subtree, and the proposal is
merged progressively (biased toward the new subtree at the root). Step size
adapts by dual averaging toward a target acceptance statistic; a diagonal
inverse mass matrix adapts over growing warmup windows from the posterior
variance estimate. Generalized U-turn checks use the accumulated momentum sum
with the extra cross-subtree boundary checks.

Each doubling is built iteratively, leaf by leaf, with one checkpoint per
tree level (the pending left sibling: its end momenta and velocities,
momentum sum, log weight, proposal and acceptance sum), as in NumPyro's
iterative NUTS. Merges run in the post-order of recursive doubling, so the
RNG calls and the floating-point results, and hence the draws for a seed,
are those of the recursive formulation.

Chains run in processes forked after the plan is compiled, one per CPU of
the affinity mask; each chain draws from its own RNG stream, so the output
for a seed does not depend on how many processes ran it.
"""

from __future__ import annotations

import csv
import math
import os
import pickle
import signal
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .datatable import DataTable, write_csv
from .errors import AllDivergentError, InitializationFailedError, SamplerError
from .pathfinder import pathfinder

_DIVERGENCE_THRESHOLD = 1000.0
_LOG2 = math.log(2.0)


@dataclass(frozen=True)
class SamplerConfig:
    n_warmup: int = 500
    n_samples: int = 1000
    n_chains: int = 4
    seed: int = 0
    target_accept: float = 0.8
    max_tree_depth: int = 10

    def __post_init__(self):
        if self.n_warmup < 0 or self.n_samples <= 0 or self.n_chains <= 0:
            raise SamplerError("warmup/samples/chains must be positive")


class RngStream:
    """Counter-based, splittable random source: one child stream per chain."""

    def __init__(self, seed: int):
        self.seed = int(seed)

    def chain(self, chain_id: int, purpose: int = 0) -> np.random.Generator:
        seq = np.random.SeedSequence(self.seed, spawn_key=(purpose, chain_id))
        return np.random.Generator(np.random.Philox(seq))


def leapfrog(grad_fn, u, p, eps, inv_mass, g=None):
    """One leapfrog step of the Hamiltonian flow.

    grad_fn(u) -> (logdensity, gradient). Returns (u', p', logp', grad')."""
    if g is None:
        _, g = grad_fn(u)
    half = 0.5 * eps
    p_half = half * g
    p_half += p
    u_new = inv_mass * p_half
    u_new *= eps
    u_new += u
    v_new, g_new = grad_fn(u_new)
    p_new = half * g_new
    p_new += p_half
    return u_new, p_new, v_new, g_new


def _kinetic(p, inv_mass) -> float:
    # huge momenta from step-size probing overflow to inf, which is a valid
    # "reject" signal rather than an error: callers run under
    # np.errstate(over="ignore")
    return 0.5 * float((p * p).dot(inv_mass))


def _logaddexp(x: float, y: float) -> float:
    """np.logaddexp of two floats, rounded the same: the scalar branches of
    NumPy's npy_logaddexp, without the cost of a ufunc call."""
    if x == y:
        return x + _LOG2            # also infinities of one sign
    d = x - y
    if d > 0:
        return x + math.log1p(math.exp(-d))
    if d <= 0:
        return y + math.log1p(math.exp(d))
    return d                        # NaN


# A trajectory piece is the tuple (p_beg, w_beg, p_end, w_end, rho,
# log_sum_w, proposal, alpha_sum): its first and last momenta and velocities
# in integration order, its momentum sum, the log of its summed weights
# exp(H0 - H), its proposal (u, v, g) and its summed acceptance statistics.


def _join(left, right):
    """Momentum sum of two adjacent pieces (left first in integration order)
    and whether the joined piece turns: generalized U-turn checks on the
    whole, and on each piece extended by the nearest state of the other. A
    check fails where either end's velocity (inv_mass * p) opposes the net
    motion."""
    # states a, b (left's ends) and c, d (right's ends) in trajectory order
    p_a, w_a, p_b, w_b, rho_l = left[:5]
    p_c, w_c, _, w_d, rho_r = right[:5]
    rho = rho_l + rho_r
    if w_a.dot(rho) <= 0.0 or w_d.dot(rho) <= 0.0:
        return rho, True
    if rho_l is p_b and rho_r is p_c and w_a is w_b and w_c is w_d:
        # two single states (half of all joins): each extended check makes
        # the sums and dot products of the check above again
        return rho, False
    rho_ac = rho_l + p_c
    if w_a.dot(rho_ac) <= 0.0 or w_b.dot(rho_ac) <= 0.0:
        return rho, True
    rho_bd = p_b + rho_r
    return rho, w_c.dot(rho_bd) <= 0.0 or w_d.dot(rho_bd) <= 0.0


def _subtree(rng, grad_fn, depth, step, u, p, g, h0, inv_mass):
    """One doubling: 2**depth leapfrogs of `step` from (u, p, g).

    The leaves are built in integration order. levels[k] holds the finished
    left piece of 2**k leaves that waits for its right sibling; after leaf
    i the new piece merges with levels[k] for each trailing 1-bit k of i.
    That is the post-order of recursive doubling, so the RNG calls and the
    float operations come in its order: alpha sums left + right in a
    balanced tree, and a stop folds in the alpha of each pending left piece.

    Returns (piece, alpha_sum, n_leapfrog, divergent, u_end, g_end); piece
    is None when a leaf diverged or a merged piece turned."""
    levels = [None] * (depth + 1)
    for i in range(1 << depth):
        u, p, v, g = leapfrog(grad_fn, u, p, step, inv_mass, g)
        h = -v + _kinetic(p, inv_mass) if math.isfinite(v) else math.inf
        dh = h0 - h
        divergent = not math.isfinite(h) or (h - h0) > _DIVERGENCE_THRESHOLD
        if math.isfinite(dh):
            alpha = math.exp(dh) if dh < 0.0 else 1.0
        else:
            alpha, dh = 0.0, -math.inf
        w = inv_mass * p
        piece = (p, w, p, w, p, dh, (u, v, g), alpha)
        stop = divergent
        k = 0
        while not stop and i >> k & 1:
            left = levels[k]
            comb = _logaddexp(left[5], piece[5])
            # progressive sampling within the subtree: weight-proportional;
            # a NaN comparison keeps the left proposal
            prop = (piece[6] if math.log(max(rng.random(), 1e-300))
                    < piece[5] - comb else left[6])
            rho, stop = _join(left, piece)
            piece = (left[0], left[1], piece[2], piece[3], rho, comb, prop,
                     left[7] + piece[7])
            k += 1
        if stop:
            alpha = piece[7]
            for j in range(k, depth):
                if i >> j & 1:
                    alpha = levels[j][7] + alpha
            return None, alpha, i + 1, divergent, u, g
        levels[k] = piece
    return piece, piece[7], 1 << depth, False, u, g


@dataclass(slots=True)
class _TransitionStats:
    depth: int
    n_leapfrog: int
    divergent: bool
    accept_stat: float
    energy: float


def nuts_draw(rng, grad_fn, u0, v0, g0, eps, inv_mass, max_depth):
    """One multinomial-NUTS update from (u0, v0, g0).

    max_depth 0 degenerates to a single-leapfrog Metropolis step (the first
    doubling always runs)."""
    dim = u0.shape[0]
    p0 = rng.standard_normal(dim) / np.sqrt(inv_mass)
    w0 = inv_mass * p0

    u_minus = u_plus = u0
    p_minus = p_plus = p0
    w_minus = w_plus = w0
    g_minus = g_plus = g0
    proposal = (u0, v0, g0)
    rho = p0
    log_sum_w = 0.0
    alpha_sum, n_leapfrog = 0.0, 0
    divergent = False
    depth = 0

    with np.errstate(over="ignore"):
        h0 = -v0 + _kinetic(p0, inv_mass)
        while depth < max(1, max_depth):
            forward = rng.random() < 0.5
            if forward:
                sub, alpha, n, divergent, u_plus, g_plus = _subtree(
                    rng, grad_fn, depth, eps, u_plus, p_plus, g_plus, h0,
                    inv_mass)
            else:
                sub, alpha, n, divergent, u_minus, g_minus = _subtree(
                    rng, grad_fn, depth, -eps, u_minus, p_minus, g_minus, h0,
                    inv_mass)
            alpha_sum += alpha
            n_leapfrog += n
            if sub is None:
                break
            p_beg, w_beg, p_end, w_end, sub_rho, sub_log_w, sub_prop, _ = sub
            # biased progressive merge at the root: favors the fresh subtree
            if math.log(max(rng.random(), 1e-300)) < sub_log_w - log_sum_w:
                proposal = sub_prop
            log_sum_w = _logaddexp(log_sum_w, sub_log_w)
            depth += 1
            traj = (p_minus, w_minus, p_plus, w_plus, rho)
            if forward:
                rho, turned = _join(traj, sub)
                p_plus, w_plus = p_end, w_end
            else:
                # the subtree ran backward: its end comes first
                rho, turned = _join((p_end, w_end, p_beg, w_beg, sub_rho),
                                    traj)
                p_minus, w_minus = p_end, w_end
            if turned:
                break

    accept = alpha_sum / n_leapfrog if n_leapfrog else 0.0
    stats = _TransitionStats(depth=depth, n_leapfrog=n_leapfrog,
                             divergent=divergent, accept_stat=accept,
                             energy=h0)
    return *proposal, stats


# --- adaptation ------------------------------------------------------------------


def find_reasonable_epsilon(rng, grad_fn, u, v, g,
                            inv_mass) -> tuple[float, int]:
    """Double/halve the step size until one leapfrog step keeps about half
    the density weight. Returns (step size, gradient evaluations made)."""
    eps = 1.0
    dim = u.shape[0]
    p = rng.standard_normal(dim) / np.sqrt(inv_mass)

    def log_ratio(e):
        _, p1, v1, _ = leapfrog(grad_fn, u, p, e, inv_mass, g)
        h1 = -v1 + _kinetic(p1, inv_mass) if math.isfinite(v1) else math.inf
        return h0 - h1

    with np.errstate(over="ignore"):
        h0 = -v + _kinetic(p, inv_mass)
        r = log_ratio(eps)
        n_grads = 1
        a = 1.0 if r > math.log(0.5) else -1.0
        for _ in range(64):
            if a * r <= -a * math.log(2.0):
                break
            eps *= 2.0 ** a
            if eps > 1e7 or eps < 1e-10:
                break
            r = log_ratio(eps)
            n_grads += 1
    return eps, n_grads


class _DualAverage:
    """Nesterov dual averaging of log step size toward a target acceptance."""

    def __init__(self, eps0, target=0.8, gamma=0.05, t0=10.0, kappa=0.75):
        self.mu = math.log(10.0 * eps0)
        self.target = target
        self.gamma = gamma
        self.t0 = t0
        self.kappa = kappa
        self.log_eps = math.log(eps0)
        self.log_eps_bar = 0.0
        self.h_bar = 0.0
        self.m = 0

    def update(self, accept_stat: float) -> float:
        self.m += 1
        frac = 1.0 / (self.m + self.t0)
        self.h_bar = (1 - frac) * self.h_bar + frac * (self.target - accept_stat)
        self.log_eps = self.mu - math.sqrt(self.m) / self.gamma * self.h_bar
        w = self.m ** (-self.kappa)
        self.log_eps_bar = w * self.log_eps + (1 - w) * self.log_eps_bar
        return math.exp(self.log_eps)

    @property
    def adapted(self) -> float:
        return math.exp(self.log_eps_bar) if self.m else math.exp(self.log_eps)


class _Welford:
    def __init__(self, dim):
        self.n = 0
        self.mean = np.zeros(dim)
        self.m2 = np.zeros(dim)

    def add(self, x):
        self.n += 1
        d = x - self.mean
        self.mean += d / self.n
        self.m2 += d * (x - self.mean)

    def variance(self):
        if self.n < 2:
            return np.ones_like(self.mean)
        var = self.m2 / (self.n - 1)
        # shrink toward unit scale exactly as the windowed scheme expects
        w = self.n / (self.n + 5.0)
        return w * var + 1e-3 * (1 - w)


def mass_windows(n_warmup: int):
    """(start, end) pairs of the growing variance-estimation windows."""
    init_b, term_b, base = 75, 50, 25
    if init_b + base + term_b > n_warmup:
        init_b = int(round(0.15 * n_warmup))
        term_b = int(round(0.10 * n_warmup))
        base = n_warmup - init_b - term_b
        if base <= 0:
            return []
    windows = []
    start, size = init_b, base
    while True:
        end = start + size
        if end + 2 * size > n_warmup - term_b:
            end = n_warmup - term_b
            windows.append((start, end))
            break
        windows.append((start, end))
        start, size = end, size * 2
    return windows


# --- the driver ------------------------------------------------------------------


@dataclass
class DrawSet:
    """Posterior draws in constrained space, per chain, plus sampler stats."""
    draws: np.ndarray                  # (n_chains, n_samples, n_sites)
    site_names: list
    stats: dict                        # name -> (n_chains, n_samples) array
    n_warmup: int
    seed: int
    sampling_time: float = 0.0
    # gradient evaluations per chain: "warmup" / "sampling" -> list
    gradients: dict = field(default_factory=dict)
    # per chain: {"pathfinder": its path, "windows": the metric windows}
    warmup: list = field(default_factory=list)
    workers: int = 1                   # processes that ran the chains

    @property
    def n_chains(self) -> int:
        return self.draws.shape[0]

    @property
    def n_samples(self) -> int:
        return self.draws.shape[1]

    def site(self, name: str) -> np.ndarray:
        return self.draws[:, :, self.site_names.index(name)]

    def to_csv(self, path: str) -> None:
        """One row per (chain, draw), the sites as full-precision floats."""
        chain, draw = np.divmod(np.arange(self.n_chains * self.n_samples),
                                self.n_samples)
        flat = self.draws.reshape(len(chain), len(self.site_names))
        write_csv(DataTable(index_names=("chain", "draw"),
                            columns=dict(zip(self.site_names, flat.T)),
                            index_rows=np.column_stack([chain, draw])),
                  path, float_repr=True)

    @classmethod
    def from_csv(cls, path: str) -> "DrawSet":
        """Read a file written by `to_csv`. The body is parsed whole; a
        file that does not parse names its first bad line."""
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        if not rows or rows[0][:2] != ["chain", "draw"]:
            raise SamplerError(f"{path}: not a draws file "
                               "(expected chain,draw,... header)")
        names = rows[0][2:]
        try:
            body = np.array(rows[1:], dtype=float)
        except ValueError:
            body = None
        if body is None or body.shape[1:] != (len(rows[0]),):
            raise SamplerError(f"{path}: {_first_bad_row(rows)}")
        chain = body[:, 0].astype(np.int64)
        per_chain = [body[chain == c, 2:] for c in np.unique(chain)]
        n_samples = min(len(v) for v in per_chain)
        draws = np.array([v[:n_samples] for v in per_chain])
        return cls(draws=draws, site_names=names, stats={}, n_warmup=0, seed=0)


def _first_bad_row(rows) -> str:
    """What is wrong with the body of a draws file that does not parse: its
    first row that is not one number per header column, or no row."""
    width = len(rows[0])
    for line, row in enumerate(rows[1:], start=2):
        if len(row) != width:
            return f"line {line} has {len(row)} cells, expected {width}"
        for cell in row:
            try:
                float(cell)
            except ValueError:
                return f"line {line}: cell {cell!r} is not a number"
    return "no draws after the header"


def check_all_divergent(divergent: np.ndarray) -> None:
    """Raise when no post-warmup draw anywhere was usable."""
    if divergent.size and bool(np.all(divergent)):
        raise AllDivergentError(
            "every post-warmup draw diverged; the model is numerically "
            "unstable at this step size (check scales and priors)")


_STATS = ("divergent", "accept_stat", "depth", "energy", "n_leapfrog",
          "step_size")


def _chain(plan, cfg, stream, chain, init_attempts):
    """Warm up and sample one chain from its own RNG stream.

    The chain starts where Pathfinder puts it, with its metric (see
    pathfinder.py). Returns (draws, stats, grads, warmup): the constrained
    draws (n_samples, n_sites), the per-draw statistics (name ->
    (n_samples,) array), the gradient evaluations made in warmup
    (initialization attempts, Pathfinder and step size searches included)
    and in sampling, and what warmup did: Pathfinder's path, and per metric
    window its start, end, leapfrogs and the step size found at its end."""
    dim = plan.latent_dim
    grad_fn = plan.logdensity_and_grad
    rng = stream.chain(chain)
    u = v = g = None
    n_warmup = 0
    for _ in range(init_attempts):
        cand = rng.uniform(-2.0, 2.0, dim)
        cv, cg = grad_fn(cand)
        n_warmup += 1
        if math.isfinite(cv) and np.all(np.isfinite(cg)):
            u, v, g = cand, cv, cg
            break
    if u is None:
        raise InitializationFailedError(
            f"chain {chain}: no finite log density found in "
            f"{init_attempts} initialization attempts")

    u, v, g, inv_mass, path = pathfinder(rng, grad_fn, plan.logdensities,
                                         u, v, g)
    n_warmup += path["gradients"]
    eps, n = find_reasonable_epsilon(rng, grad_fn, u, v, g, inv_mass)
    n_warmup += n
    da = _DualAverage(eps, target=cfg.target_accept)
    windows = mass_windows(cfg.n_warmup)
    window_log = [{"start": a, "end": b, "leapfrogs": 0, "step_size": None}
                  for a, b in windows]
    window_idx = 0
    welford = _Welford(dim)

    for i in range(cfg.n_warmup):
        u, v, g, st = nuts_draw(rng, grad_fn, u, v, g, eps,
                                inv_mass, cfg.max_tree_depth)
        n_warmup += st.n_leapfrog
        eps = da.update(st.accept_stat)
        if window_idx < len(windows):
            w_start, w_end = windows[window_idx]
            if w_start <= i < w_end:
                welford.add(u)
                window_log[window_idx]["leapfrogs"] += st.n_leapfrog
            if i == w_end - 1:
                inv_mass = welford.variance()
                welford = _Welford(dim)
                eps, n = find_reasonable_epsilon(rng, grad_fn, u, v, g,
                                                 inv_mass)
                n_warmup += n
                window_log[window_idx]["step_size"] = eps
                window_idx += 1
                da = _DualAverage(eps, target=cfg.target_accept)
    eps = da.adapted

    draws = np.empty((cfg.n_samples, dim))
    stats = {name: np.zeros(cfg.n_samples) for name in _STATS}
    for i in range(cfg.n_samples):
        u, v, g, st = nuts_draw(rng, grad_fn, u, v, g, eps,
                                inv_mass, cfg.max_tree_depth)
        draws[i] = plan.constrain(u)
        stats["divergent"][i] = float(st.divergent)
        stats["accept_stat"][i] = st.accept_stat
        stats["depth"][i] = st.depth
        stats["energy"][i] = st.energy
        stats["n_leapfrog"][i] = st.n_leapfrog
        stats["step_size"][i] = eps
    return (draws, stats, (n_warmup, int(stats["n_leapfrog"].sum())),
            {"pathfinder": path, "windows": window_log})


# --- chains in worker processes ---------------------------------------------------


def _worker_count(n_chains: int) -> int:
    """Processes that run the chains: one per CPU this process may run on
    (its affinity mask), at most one per chain; 1 where os.fork does not
    exist."""
    if not hasattr(os, "fork"):
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:              # no affinity mask on this platform
        cpus = os.cpu_count() or 1
    return min(n_chains, cpus)


def _run_some(chain_fn, chains, outcomes: dict) -> None:
    """chain_fn(c) for each chain in turn, into outcomes[c] as (result,
    None) or (None, exception); stops at the first failing chain."""
    for c in chains:
        try:
            outcomes[c] = (chain_fn(c), None)
        except Exception as e:
            outcomes[c] = (None, e)
            return


def _worker(read_end: int, write_end: int, chain_fn, chains) -> None:
    """Body of a forked worker: run its chains, write their pickled
    outcomes to the pipe, and leave through os._exit, so that nothing the
    parent set up (buffered output, atexit handlers, a test runner) runs
    again."""
    code = 1
    try:
        os.close(read_end)
        outcomes = {}
        _run_some(chain_fn, chains, outcomes)
        data = pickle.dumps(outcomes, protocol=pickle.HIGHEST_PROTOCOL)
        with open(write_end, "wb") as fh:
            fh.write(data)
        code = 0
    finally:
        os._exit(code)


def _receive(outcomes: dict, data: bytes, code: int, chains) -> None:
    """Merge into outcomes what a worker sent before it exited with code
    (negative: killed by that signal). A worker that died without sending
    its outcomes counts as a SamplerError of its first chain."""
    try:
        if code == 0:
            outcomes.update(pickle.loads(data))
            return
    except Exception:           # cut short: EOFError, UnpicklingError, ...
        pass
    how = (f"was killed by signal {-code}" if code < 0
           else f"exited with status {code}")
    outcomes[chains[0]] = (None, SamplerError(
        f"the worker running chains {', '.join(map(str, chains))} {how} "
        "before sending their draws"))


def _map_chains(chain_fn, n_chains: int, n_workers: int) -> list:
    """[chain_fn(c) for c in range(n_chains)], run by n_workers processes.

    This process is worker 0 and runs chains 0, W, 2W, ...; worker k > 0 is
    forked from it and runs chains k, k + W, ..., so it inherits everything
    chain_fn reads. Once every worker is reaped, the lowest-numbered
    failing chain raises its exception, as a loop over the chains would."""
    outcomes = {}
    pending = []                        # unreaped: (pid, read end, chains)
    try:
        for k in range(1, n_workers):
            chains = range(k, n_chains, n_workers)
            r, w = os.pipe()
            pid = os.fork()
            if pid == 0:
                _worker(r, w, chain_fn, chains)
            os.close(w)
            pending.append((pid, open(r, "rb"), chains))
        _run_some(chain_fn, range(0, n_chains, n_workers), outcomes)
        while pending:
            pid, fh, chains = pending[0]
            data = fh.read()
            status = os.waitpid(pid, 0)[1]
            del pending[0]
            fh.close()
            _receive(outcomes, data, os.waitstatus_to_exitcode(status),
                     chains)
    finally:
        for pid, fh, _ in pending:      # interrupted: stop and reap the rest
            fh.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    results = []
    for c in range(n_chains):
        result, error = outcomes[c]
        if error is not None:
            raise error
        results.append(result)
    return results


def run(plan, config: SamplerConfig | None = None, *,
        init_attempts: int = 100, **overrides) -> DrawSet:
    """Sample the plan's posterior; returns constrained draws per chain.

    Keyword overrides (n_warmup, n_samples, n_chains, seed, target_accept,
    max_tree_depth) update the config. The chains run in parallel, in
    _worker_count(n_chains) processes (see _map_chains)."""
    cfg = replace(config or SamplerConfig(), **overrides)
    if plan.latent_dim == 0:
        raise SamplerError("model has no latent sites to sample")
    stream = RngStream(cfg.seed)
    t_start = time.perf_counter()
    plan.compile_gradient()             # before the workers fork
    n_workers = _worker_count(cfg.n_chains)
    results = _map_chains(
        lambda c: _chain(plan, cfg, stream, c, init_attempts),
        cfg.n_chains, n_workers)

    stats = {name: np.stack([r[1][name] for r in results])
             for name in _STATS}
    check_all_divergent(stats["divergent"])
    return DrawSet(draws=np.stack([r[0] for r in results]),
                   site_names=list(plan.site_names),
                   stats=stats, n_warmup=cfg.n_warmup, seed=cfg.seed,
                   sampling_time=time.perf_counter() - t_start,
                   gradients={"warmup": [r[2][0] for r in results],
                              "sampling": [r[2][1] for r in results]},
                   warmup=[r[3] for r in results], workers=n_workers)
