"""Influencers' finite-horizon stochastic game.

Decision epochs run t = 1..T-1; at T the game is scored. A susceptible
influencer weighs the vaccination cost C_v - g_z plus the anticipated
terminal side-effect cost Gamma_t(c) against the infection cost C_i that
hits whenever fewer than z_bar influencers end up vaccinated. The daily
side-effect estimate follows the running average

    C_t = C_{t-1} + (xi_t - C_{t-1}) / t,   C_1 = c_se_1,

with xi_t the fresh data of day t (nonnegative, i.i.d.).
"""
from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import bdtr, ndtr
from scipy.stats import binom as _binom

# Grid size of the interpolated binomial CDF behind the vectorized p(g, .).
CDF_TABLE_POINTS = 4097

# Rows of xi data drawn at a time when filling Gamma_{T-1} draws.
DRAW_BLOCK_ROWS = 8192


class NotMixedRegimeError(ValueError):
    """Indifference equation has no interior solution at this state."""


class ConstructionError(ValueError):
    """Selector proposed an action outside the admissible stage set."""


# ---------------------------------------------------------------------------
# Side-effect data model
# ---------------------------------------------------------------------------

def _truncnorm_mean(mu: float, sigma: float) -> float:
    """Mean of max(X, 0) for X ~ N(mu, sigma^2)."""
    if sigma == 0.0:
        return max(mu, 0.0)
    a = mu / sigma
    pdf = math.exp(-0.5 * a * a) / math.sqrt(2.0 * math.pi)
    return mu * float(ndtr(a)) + sigma * pdf


@dataclass(frozen=True)
class XiModel:
    """Distribution of the daily side-effect data xi.

    Continuous case: a normal draw truncated at zero (negative raw values
    count as zero), optionally mixed with an atom at zero of mass p0.
    Discrete case: explicit support/probability pairs, used by the exact
    dynamic-programming oracle.
    """

    mean_param: float
    sigma2: float = 0.0
    p0: float = 0.0
    values: tuple[float, ...] | None = None
    probs: tuple[float, ...] | None = None

    def __post_init__(self):
        if not 0.0 <= self.p0 < 1.0:
            raise ValueError("p0 must lie in [0, 1)")
        if self.sigma2 < 0.0:
            raise ValueError("sigma2 must be nonnegative")
        if (self.values is None) != (self.probs is None):
            raise ValueError("values and probs must be given together")
        if self.values is not None:
            if any(v < 0 for v in self.values):
                raise ValueError("xi support must be nonnegative")
            if not all(0.0 <= q <= 1.0 for q in self.probs):
                raise ValueError("probs must lie in [0, 1]")
            if abs(sum(self.probs) - 1.0) > 1e-12:
                raise ValueError("probs must sum to 1")

    @property
    def is_exact(self) -> bool:
        return self.values is not None or self.sigma2 == 0.0

    @property
    def mean(self) -> float:
        if self.values is not None:
            return float(sum(v * p for v, p in zip(self.values, self.probs)))
        return (1.0 - self.p0) * _truncnorm_mean(self.mean_param,
                                                 math.sqrt(self.sigma2))

    def nodes(self, n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
        """Support points and weights for expectations over one xi draw.

        Exact for the degenerate and discrete cases; a common-random-number
        sample grid of size n otherwise, so that every expectation built on
        the same model reuses identical draws.
        """
        if self.values is not None:
            return np.asarray(self.values, float), np.asarray(self.probs, float)
        if self.sigma2 == 0.0:
            v = max(self.mean_param, 0.0)
            if self.p0 > 0.0:
                return (np.array([0.0, v]), np.array([self.p0, 1.0 - self.p0]))
            return np.array([v]), np.array([1.0])
        draws = self.sample(np.random.default_rng(seed), n)
        return draws, np.full(n, 1.0 / n)

    def sample(self, rng: np.random.Generator, size) -> np.ndarray:
        if self.values is not None:
            return rng.choice(np.asarray(self.values, float), size=size,
                              p=np.asarray(self.probs, float))
        if self.sigma2 == 0.0:
            out = np.full(size, max(self.mean_param, 0.0))
        else:
            out = np.maximum(
                rng.normal(self.mean_param, math.sqrt(self.sigma2), size), 0.0)
        if self.p0 > 0.0:
            out = np.where(rng.random(size) < self.p0, 0.0, out)
        return out


# ---------------------------------------------------------------------------
# Game configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InfluencerGameConfig:
    """Primitives of the T-stage game among m influencers.

    Incentives are paid per vaccination: g_z when z influencers were
    vaccinated by the previous day, zero from z_bar on. By default every
    pre-threshold count pays g0 (only g0 matters at the wait-and-watch
    outcome).
    """

    m: int
    t_horizon: int
    c_v: float
    c_i: float
    c_se_1: float
    xi_mean: float
    z_bar: int
    xi_sigma2: float = 0.0
    p0: float = 0.0
    g0: float = 0.0
    incentives: tuple[float, ...] | None = None
    xi_values: tuple[float, ...] | None = None
    xi_probs: tuple[float, ...] | None = None
    n_xi_nodes: int = 512
    xi_seed: int = 1234

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("need at least one influencer")
        if self.t_horizon < 2:
            raise ValueError("horizon must be at least 2 days")
        if not 1 <= self.z_bar <= self.m:
            raise ValueError("z_bar must lie in 1..m")
        if self.c_se_1 < 0:
            raise ValueError("c_se_1 must be nonnegative")
        if not (math.isfinite(self.c_v) and math.isfinite(self.c_i)):
            raise ValueError("c_v and c_i must be finite")
        if self.c_i <= 0:
            raise ValueError("c_i must be positive")
        if self.incentives is not None:
            inc = tuple(float(v) for v in self.incentives)
            if len(inc) != self.z_bar:
                raise ValueError("incentives must list g_0..g_{z_bar-1}")
            object.__setattr__(self, "incentives", inc)
        if self.xi.mean <= 0.0:
            raise ValueError("side-effect data must have positive mean")

    @property
    def xi(self) -> XiModel:
        return XiModel(self.xi_mean, self.xi_sigma2, self.p0,
                       self.xi_values, self.xi_probs)

    @property
    def e_xi(self) -> float:
        return self.xi.mean

    def g(self, z: int) -> float:
        if z >= self.z_bar:
            return 0.0
        if self.incentives is not None:
            return self.incentives[z]
        return self.g0

    def with_g0(self, g0: float) -> "InfluencerGameConfig":
        if self.incentives is not None:
            inc = (float(g0),) + self.incentives[1:]
            return dataclasses.replace(self, incentives=inc)
        return dataclasses.replace(self, g0=float(g0))


@dataclass(frozen=True)
class AgentState:
    status: str          # "S" or "V"
    z: int
    c: float

    def __post_init__(self):
        if self.status not in ("S", "V"):
            raise ValueError("status must be 'S' or 'V'")


# ---------------------------------------------------------------------------
# Elementary quantities
# ---------------------------------------------------------------------------

def gamma(t: int, c: float, cfg: InfluencerGameConfig) -> float:
    """Expected terminal side-effect cost given the day-t estimate c.

    Linear in both arguments: (t/T) c + ((T-t)/T) E[xi]; at t = T the
    estimate is final and the value is c itself.
    """
    if not 1 <= t <= cfg.t_horizon:
        raise ValueError("t must lie in 1..T")
    T = cfg.t_horizon
    return (t / T) * c + ((T - t) / T) * cfg.e_xi


def final_gamma_draws(cfg: InfluencerGameConfig, rng: np.random.Generator,
                      size: int, t: int = 1, c: float | None = None
                      ) -> np.ndarray:
    """`size` draws of Gamma_{T-1}(C_{T-1}) given C_t = c (default C_1 = c_se_1).

    C_{T-1} = (t c + xi_{t+1} + ... + xi_{T-1}) / (T-1), so each draw sums
    T-1-t fresh data values taken from rng.
    """
    T = cfg.t_horizon
    c = cfg.c_se_1 if c is None else c
    steps = T - 1 - t
    xi = cfg.xi
    sums = np.zeros(size)
    if steps > 0:
        # Row blocks bound the xi matrix's memory and consume the stream in
        # the same order as one (size, steps) draw. The zero-atom mixture
        # draws its mask after all normals, so it stays in one block.
        block = max(size, 1) if xi.p0 > 0.0 else DRAW_BLOCK_ROWS
        for start in range(0, size, block):
            stop = min(start + block, size)
            xi.sample(rng, (stop - start, steps)).sum(axis=1,
                                                      out=sums[start:stop])
    c_final = (t * c + sums) / (T - 1)
    return ((T - 1) / T) * c_final + cfg.e_xi / T


def binom_cdf(l: int, m: int, p) -> float | np.ndarray:
    """P(Bin(l, p) <= m), the standard lower tail summed from zero."""
    if l < 0:
        raise ValueError("l must be nonnegative")
    if np.any(np.asarray(p) < 0) or np.any(np.asarray(p) > 1):
        raise ValueError("p must lie in [0, 1]")
    if m < 0:
        return np.zeros_like(p, dtype=float) if np.ndim(p) else 0.0
    if m >= l:
        return np.ones_like(p, dtype=float) if np.ndim(p) else 1.0
    out = bdtr(int(m), int(l), p)
    return float(out) if np.ndim(p) == 0 else out


def bisect_decreasing(f, target: float, lo: float, hi: float, atol: float,
                      rtol: float = 0.0) -> float:
    """Root of a non-increasing f(x) = target, bisected on [lo, hi].

    The caller supplies f(lo) > target >= f(hi); the bracket keeps that
    invariant, so a monotone f never loses the root. Halving stops once
    hi - lo <= max(atol, rtol |hi|), after 200 halvings, or when the
    midpoint no longer splits the bracket in floating point (further
    halvings would return that same midpoint).
    """
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return mid
        if f(mid) > target:
            lo = mid
        else:
            hi = mid
        if hi - lo <= atol or hi - lo <= rtol * abs(hi):
            break
    return 0.5 * (lo + hi)


def _mixed_root(w: float, trials: int, successes: int) -> float:
    """Unique p in (0,1) with binom_cdf(trials, successes, p) = w in (0,1).

    The cdf is strictly decreasing in p, so bisection on [0, 1] pushes the
    residual to float precision. Hot path: hits the cdf ufunc directly.
    """
    return bisect_decreasing(functools.partial(bdtr, int(successes), int(trials)),
                             w, 0.0, 1.0, atol=1e-17)


def solve_mixed_probability(z: int, c: float, g_z: float,
                            cfg: InfluencerGameConfig) -> float:
    """Indifference probability at the final decision epoch.

    Solves C_v + Gamma_{T-1}(c) - g_z = C_i * F_{m-1-z}(z_bar-1-z; p) for
    the state with z already-vaccinated influencers. Requires the interior
    regime 0 < C_v + Gamma - g_z < C_i and z_bar < m.
    """
    if cfg.z_bar >= cfg.m:
        raise NotMixedRegimeError("final-epoch mixing needs z_bar < m")
    if z >= cfg.z_bar:
        raise NotMixedRegimeError("no mixing at or above the threshold")
    q = cfg.c_v + gamma(cfg.t_horizon - 1, c, cfg) - g_z
    w = q / cfg.c_i
    if not 0.0 < w < 1.0:
        raise NotMixedRegimeError(
            f"(C_v + Gamma - g)/C_i = {w:.6g} outside (0, 1)")
    return _mixed_root(w, cfg.m - 1 - z, cfg.z_bar - 1 - z)


def p_from_gamma(g: float, gam: float, z_bar: int,
                 cfg: InfluencerGameConfig) -> float:
    """Equilibrium vaccination probability given the final-epoch estimate.

    gam is Gamma_{T-1}(c). For z_bar = m the choice is all-or-nothing with
    the tie C_v - g + gam = C_i broken toward not vaccinating.
    """
    if z_bar == cfg.m:
        return 1.0 if cfg.c_v - g + gam < cfg.c_i else 0.0
    diff = gam - g
    if diff <= -cfg.c_v:
        return 1.0
    if diff >= cfg.c_i - cfg.c_v:
        return 0.0
    return _mixed_root((cfg.c_v + gam - g) / cfg.c_i, cfg.m - 1, z_bar - 1)


def ne_outcome_probability(g: float, c: float, z_bar: int,
                           cfg: InfluencerGameConfig) -> float:
    """Wait-and-watch outcome: common vaccination probability p(g, c)."""
    return p_from_gamma(g, gamma(cfg.t_horizon - 1, c, cfg), z_bar, cfg)


@functools.lru_cache(maxsize=64)
def _cdf_grid(trials: int, successes: int) -> tuple[np.ndarray, np.ndarray]:
    p = np.linspace(0.0, 1.0, CDF_TABLE_POINTS)
    f = bdtr(int(successes), int(trials), p)
    return p, f


def binom_cdf_vec_interp(l: int, m: int, p: np.ndarray) -> np.ndarray:
    """Interpolated lower tail of Bin(l, .) over an array of probabilities.

    Trades ~1e-7 absolute accuracy for a single table lookup; used in the
    Monte Carlo hot path where the statistical error dominates.
    """
    if m < 0:
        return np.zeros_like(p, dtype=float)
    if m >= l:
        return np.ones_like(p, dtype=float)
    grid, f = _cdf_grid(l, m)
    return np.interp(p, grid, f)


def p_from_gamma_vec(g: float, gams: np.ndarray, z_bar: int,
                     cfg: InfluencerGameConfig) -> np.ndarray:
    """Vectorized p(g, .) over an array of Gamma values.

    Interior solutions come from a monotone interpolation table of the
    binomial CDF, accurate to ~1e-7 in p; ample for Monte Carlo use and
    monotone in g sample-by-sample. Scalar exact evaluation lives in
    p_from_gamma.
    """
    gams = np.asarray(gams, dtype=float)
    if z_bar == cfg.m:
        return (gams < g - cfg.c_v + cfg.c_i).astype(float)
    w = (cfg.c_v + gams - g) / cfg.c_i
    grid, f = _cdf_grid(cfg.m - 1, z_bar - 1)
    p = np.interp(w, f[::-1], grid[::-1])
    p[w <= 0.0] = 1.0
    p[w >= 1.0] = 0.0
    return p


# ---------------------------------------------------------------------------
# Stage action sets and special strategies
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StageActionSet:
    """Admissible symmetric stage choices: pure actions, interior mixes,
    or the whole interval in the knife-edge tie."""

    pure: tuple[float, ...] = ()
    mixed: tuple[float, ...] = ()
    full_interval: bool = False

    def contains(self, p: float, tol: float = 1e-9) -> bool:
        if self.full_interval:
            return -tol <= p <= 1.0 + tol
        return any(abs(p - q) <= tol for q in self.pure + self.mixed)


def _find_mix_roots(target: float, rhs) -> tuple[float, ...]:
    """Interior roots of rhs(p) = target, bisected inside each grid cell
    where rhs - target changes sign."""
    ps = np.linspace(0.0, 1.0, 129)
    vals = np.array([rhs(p) for p in ps]) - target
    roots = []
    for a, b, fa, fb in zip(ps[:-1], ps[1:], vals[:-1], vals[1:]):
        if fa == 0.0 and 0.0 < a < 1.0:
            roots.append(float(a))
            continue
        if fa * fb < 0.0:
            sign = 1.0 if fa > 0.0 else -1.0
            r = bisect_decreasing(lambda p: sign * rhs(p), sign * target,
                                  a, b, atol=0.0)
            if 0.0 < r < 1.0:
                roots.append(float(r))
    return tuple(roots)


def stage_action_set(t: int, x: AgentState, value_next, cfg: InfluencerGameConfig,
                     xi_nodes: tuple[np.ndarray, np.ndarray] | None = None
                     ) -> StageActionSet:
    """Admissible symmetric choices at epoch t in state x = (S, z, c).

    value_next(z', c') must return the stage-(t+1) continuation value of a
    susceptible agent; expectations over the opponents' binomial count and
    the next side-effect estimate are taken here. Vaccinated agents have
    no choice and z >= z_bar forces waiting.
    """
    if x.status != "S":
        raise ValueError("action sets are defined for susceptible agents")
    z, c = x.z, x.c
    T = cfg.t_horizon
    if z >= cfg.z_bar:
        return StageActionSet(pure=(0.0,))
    q = cfg.c_v + gamma(t, c, cfg) - cfg.g(z)

    if t == T - 1:
        if cfg.z_bar < cfg.m:
            if q <= 0.0:
                return StageActionSet(pure=(1.0,))
            if q >= cfg.c_i:
                return StageActionSet(pure=(0.0,))
            return StageActionSet(mixed=(solve_mixed_probability(z, c, cfg.g(z), cfg),))
        if q < cfg.c_i:
            return StageActionSet(pure=(1.0,))
        if q > cfg.c_i:
            return StageActionSet(pure=(0.0,))
        return StageActionSet(full_interval=True)

    if xi_nodes is None:
        xi_nodes = cfg.xi.nodes(cfg.n_xi_nodes, cfg.xi_seed)
    xi_v, xi_w = xi_nodes
    n_opp = cfg.m - z - 1
    next_c = (t * c + xi_v) / (t + 1)

    w_by_y = np.array([
        float(np.dot(xi_w, [value_next(z + y, cn) for cn in next_c]))
        for y in range(n_opp + 1)
    ])
    ys = np.arange(n_opp + 1)

    def rhs(p: float) -> float:
        return float(np.dot(_binom.pmf(ys, n_opp, p), w_by_y))

    roots = _find_mix_roots(q, rhs)
    if cfg.z_bar < cfg.m:
        pure = (0.0, 1.0) if q <= 0.0 else (0.0,)
        return StageActionSet(pure=pure, mixed=roots)
    if q <= w_by_y[n_opp]:
        return StageActionSet(pure=(0.0, 1.0), mixed=roots)
    return StageActionSet(pure=(0.0,))


WAIT_AND_WATCH = "wait-and-watch"
EAGER = "eager"


class SpecialStrategy:
    """Symmetric equilibrium strategy built backward from the last epoch.

    The stage sets always contain 0 before the final epoch, so the
    wait-and-watch preset (defer every decision to T-1) is always
    available; it is the influencers' preferred equilibrium. Values and
    decisions are computed on demand and memoized per queried state; the
    side-effect estimate is continuous, so no global table is built.
    """

    def __init__(self, cfg: InfluencerGameConfig, selector=WAIT_AND_WATCH):
        self.cfg = cfg
        self.selector = selector
        self._xi_nodes = cfg.xi.nodes(cfg.n_xi_nodes, cfg.xi_seed)
        if not cfg.xi.is_exact and cfg.t_horizon > 8 and selector != WAIT_AND_WATCH:
            raise ValueError(
                "exact backward recursion over a continuous side-effect "
                "model is only supported for short horizons")
        self._dec: dict[tuple[int, int, float], float] = {}
        self._val: dict[tuple[int, int, float], float] = {}

    # -- decisions ---------------------------------------------------------
    def action_set(self, t: int, z: int, c: float) -> StageActionSet:
        return stage_action_set(t, AgentState("S", z, c),
                                lambda zn, cn: self.value(t + 1, zn, cn),
                                self.cfg, self._xi_nodes)

    def decision(self, t: int, z: int, c: float) -> float:
        """Vaccination probability prescribed to a susceptible agent."""
        key = (t, z, c)
        if key in self._dec:
            return self._dec[key]
        cfg = self.cfg
        if z >= cfg.z_bar:
            p = 0.0
        elif self.selector == WAIT_AND_WATCH and t < cfg.t_horizon - 1:
            p = 0.0
        else:
            aset = self.action_set(t, z, c)
            p = self._select(t, z, c, aset)
        self._dec[key] = p
        return p

    def _select(self, t, z, c, aset: StageActionSet) -> float:
        if self.selector == WAIT_AND_WATCH:
            # final epoch; ties broken toward waiting
            if aset.full_interval:
                return 0.0
            if aset.mixed:
                return aset.mixed[0]
            return aset.pure[0]
        if self.selector == EAGER:
            if aset.contains(1.0):
                return 1.0
            if aset.mixed:
                return max(aset.mixed)
            return 0.0
        p = self.selector(t, AgentState("S", z, c), aset)
        if not aset.contains(p):
            raise ConstructionError(
                f"selector chose {p} outside the stage set at t={t}, z={z}")
        return float(p)

    # -- values ------------------------------------------------------------
    def value(self, t: int, z: int, c: float) -> float:
        """Continuation value v_t of a susceptible agent under this strategy."""
        cfg = self.cfg
        if t == cfg.t_horizon:
            return cfg.c_i if z < cfg.z_bar else 0.0
        key = (t, z, c)
        if key in self._val:
            return self._val[key]
        if t == cfg.t_horizon - 1:
            v = min(cfg.c_v + gamma(t, c, cfg) - cfg.g(z), cfg.c_i)
            v *= 1.0 if z < cfg.z_bar else 0.0
        else:
            d = self.decision(t, z, c)
            if d == 0.0:
                if self.selector == WAIT_AND_WATCH:
                    v = self._wait_value(t, z, c)
                else:
                    xi_v, xi_w = self._xi_nodes
                    next_c = (t * c + xi_v) / (t + 1)
                    v = float(np.dot(xi_w, [self.value(t + 1, z, cn)
                                            for cn in next_c]))
            else:
                v = cfg.c_v + gamma(t, c, cfg) - cfg.g(z)
        self._val[key] = v
        return v

    def _wait_value(self, t: int, z: int, c: float) -> float:
        # Nobody moves until T-1, so z is frozen and only the estimate
        # diffuses: average the final-epoch value over C_{T-1} | C_t = c.
        cfg = self.cfg
        if z >= cfg.z_bar:
            return 0.0
        T = cfg.t_horizon
        xi_v = self._xi_nodes[0]
        if len(xi_v) == 1:
            cf = (t * c + (T - 1 - t) * xi_v[0]) / (T - 1)
            return min(cfg.c_v + gamma(T - 1, cf, cfg) - cfg.g(z), cfg.c_i)
        gm = final_gamma_draws(cfg, np.random.default_rng(cfg.xi_seed + 7),
                               max(cfg.n_xi_nodes, 4096), t, c)
        return float(np.mean(np.minimum(cfg.c_v + gm - cfg.g(z), cfg.c_i)))


def build_special_strategy(cfg: InfluencerGameConfig,
                           selector=WAIT_AND_WATCH) -> SpecialStrategy:
    """Construct a symmetric-equilibrium strategy.

    selector is one of the presets 'wait-and-watch' (defer until the final
    epoch) and 'eager' (vaccinate whenever admissible), or a callable
    (t, state, stage_set) -> probability whose choices are validated
    against the stage sets.
    """
    return SpecialStrategy(cfg, selector)


class FunctionStrategy:
    """Arbitrary symmetric strategy given by fn(t, z, c) -> probability.

    Used to feed deviating or hand-built profiles to the equilibrium
    verifier; no admissibility is enforced.
    """

    def __init__(self, cfg: InfluencerGameConfig, fn):
        self.cfg = cfg
        self._fn = fn

    def decision(self, t: int, z: int, c: float) -> float:
        return float(self._fn(t, z, c))


def mutate_strategy(strategy, where, new_p: float) -> FunctionStrategy:
    """Copy of a strategy with decisions overridden where `where(t,z,c)`."""
    def fn(t, z, c):
        if where(t, z, c):
            return new_p
        return strategy.decision(t, z, c)
    return FunctionStrategy(strategy.cfg, fn)


# ---------------------------------------------------------------------------
# Exact best-response verification (small instances)
# ---------------------------------------------------------------------------

@dataclass
class NeCheck:
    passed: bool
    worst_gain: float
    worst_state: tuple | None
    vaccinated_value_error: float


def _cost_nodes(cfg: InfluencerGameConfig) -> list[dict[float, float]]:
    """Reachable side-effect estimates and probabilities per epoch."""
    xi_v, xi_w = cfg.xi.nodes(cfg.n_xi_nodes, cfg.xi_seed)
    nodes: list[dict[float, float]] = [dict() for _ in range(cfg.t_horizon + 1)]
    nodes[1] = {cfg.c_se_1: 1.0}
    for t in range(1, cfg.t_horizon):
        for c, w in nodes[t].items():
            for v, pw in zip(xi_v, xi_w):
                cn = (t * c + v) / (t + 1)
                nodes[t + 1][cn] = nodes[t + 1].get(cn, 0.0) + w * pw
    return nodes


def verify_symmetric_ne(strategy, cfg: InfluencerGameConfig,
                        tol: float = 1e-9) -> NeCheck:
    """One-shot-deviation check of a symmetric profile by exact DP.

    Every reachable (epoch, vaccinated-count, estimate) state of a
    susceptible agent is tested: following the profile must match the
    better of vaccinating now versus waiting, both scored against the
    profile's own continuation. Requires a finite side-effect model
    (degenerate or discrete); intended for small m and T.
    """
    if not cfg.xi.is_exact:
        raise ValueError("exact verification needs a finite xi distribution "
                         "(set xi_sigma2=0 or give xi_values/xi_probs)")
    xi_v, xi_w = cfg.xi.nodes(cfg.n_xi_nodes, cfg.xi_seed)
    nodes = _cost_nodes(cfg)
    T, M = cfg.t_horizon, cfg.m

    v_s: dict[tuple[int, int, float], float] = {}
    v_v: dict[tuple[int, int, float], float] = {}
    worst_gain = -math.inf
    worst_state = None
    vac_err = 0.0

    for t in range(T - 1, 0, -1):
        for c in nodes[t]:
            next_cs = (t * c + xi_v) / (t + 1)

            def s_next(z2, i):
                if t + 1 == T:
                    return cfg.c_i if z2 < cfg.z_bar else 0.0
                return v_s[(t + 1, z2, next_cs[i])]

            def v_next(z2, i):
                if t + 1 == T:
                    return next_cs[i]
                return v_v[(t + 1, z2, next_cs[i])]

            for z in range(M + 1):
                q_opp = strategy.decision(t, z, c)
                if z >= 1:
                    # vaccinated agent: z counts itself, M - z susceptible opponents
                    n_op = M - z
                    pmf = _binom.pmf(np.arange(n_op + 1), n_op, q_opp)
                    ev = 0.0
                    for y, py in enumerate(pmf):
                        if py == 0.0:
                            continue
                        ev += py * float(np.dot(xi_w, [v_next(z + y, i)
                                                       for i in range(len(xi_v))]))
                    v_v[(t, z, c)] = ev
                    vac_err = max(vac_err, abs(ev - gamma(t, c, cfg)))

                if z > M - 1:
                    continue
                # susceptible agent: z vaccinated opponents, M-1-z susceptible
                n_op = M - 1 - z
                pmf = _binom.pmf(np.arange(n_op + 1), n_op, q_opp)
                q_vacc = cfg.c_v - cfg.g(z)
                q_wait = 0.0
                for y, py in enumerate(pmf):
                    if py == 0.0:
                        continue
                    gv = float(np.dot(xi_w, [v_next(z + y + 1, i)
                                             for i in range(len(xi_v))]))
                    gs = float(np.dot(xi_w, [s_next(z + y, i)
                                             for i in range(len(xi_v))]))
                    q_vacc += py * gv
                    q_wait += py * gs
                p_own = strategy.decision(t, z, c)
                val = p_own * q_vacc + (1.0 - p_own) * q_wait
                v_s[(t, z, c)] = val
                gain = val - min(q_vacc, q_wait)
                if gain > worst_gain:
                    worst_gain = gain
                    worst_state = (t, z, c)

    return NeCheck(worst_gain <= tol, worst_gain, worst_state, vac_err)


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CostPath:
    c: np.ndarray        # estimates C_1..C_{T-1}
    xi: np.ndarray       # data xi_2..xi_{T-1}

    def final(self) -> float:
        return float(self.c[-1])


def sample_cost_path(cfg: InfluencerGameConfig, seed: int) -> CostPath:
    """One realization of the estimate process C_1..C_{T-1}."""
    rng = np.random.default_rng(seed)
    xi = cfg.xi.sample(rng, cfg.t_horizon - 2)
    c = np.empty(cfg.t_horizon - 1)
    c[0] = cfg.c_se_1
    for t in range(2, cfg.t_horizon):
        c[t - 1] = c[t - 2] + (xi[t - 2] - c[t - 2]) / t
    return CostPath(c, xi)


def sample_z_t(g: float, cfg: InfluencerGameConfig, seed: int,
               size: int = 1) -> np.ndarray:
    """Final vaccinated counts Z_T under the wait-and-watch outcome.

    Each replicate draws Gamma_{T-1}, evaluates p(g, .) there, and draws
    Z_T ~ Bin(m, p).
    """
    rng = np.random.default_rng(seed)
    ps = p_from_gamma_vec(g, final_gamma_draws(cfg, rng, size), cfg.z_bar, cfg)
    return rng.binomial(cfg.m, ps)
