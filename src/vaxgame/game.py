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

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import bdtr, ndtr

from .params import finite_tuple, require_finite, require_integer

try:
    # the ufunc behind scipy.stats.binom.pmf, here without importing
    # scipy.stats, which would more than double the package's import time
    from scipy.special._ufuncs import _binom_pmf as _boost_binom_pmf
except ImportError:  # older scipy: the public pmf, at scipy.stats' cost
    from scipy.stats import binom as _binom
    _boost_binom_pmf = _binom.pmf

# Grid size of the interpolated binomial CDF behind the vectorized p(g, .).
CDF_TABLE_POINTS = 4097

# Largest trial count whose tables come from the pmf recurrence (_cdf_rows):
# (1-p)^l at the grid's last inner point p = 1 - 2^-12 is 2^(-12 l), a
# normal float up to l = 85. Larger counts take scipy's bdtr row.
_RECURRENCE_TRIALS = 85

# Doubling probes that bisect_decreasing may try to close an open upper end.
PROBES = 60

# Rows of xi data drawn at a time when filling Gamma_{T-1} draws.
DRAW_BLOCK_ROWS = 8192

# Size and seed of the common-random-number grid of one xi draw under a
# continuous XiModel; the wait-and-watch value draws from seed XI_SEED + 7.
XI_NODES = 512
XI_SEED = 1234


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
    """Distribution of the daily side-effect data xi, the one law behind
    the estimate Gamma_{T-1} of the game and the leader.

    Continuous case: a normal draw truncated at zero (negative raw values
    count as zero), optionally mixed with an atom at zero of mass p0.
    Discrete case: explicit support/probability pairs, used by the exact
    dynamic-programming oracle; p0 must then be 0, since an atom at zero is
    one more support point. values and probs may be any sequences and are
    kept as tuples of floats, so that models compare and hash by value.
    mean_param, sigma2, p0 and every value and probability must be finite
    numbers (bool is not one); a bad field raises ValueError naming it.

    Every law is drawn by one in-place routine, `_fill`: `sample` runs it
    on a new array, `final_gamma_draws` on its reused block of rows.
    `is_point` says whether the law is a single point, the one case in
    which perfect information is exact.
    """

    mean_param: float
    sigma2: float = 0.0
    p0: float = 0.0
    values: tuple[float, ...] | None = None
    probs: tuple[float, ...] | None = None

    def __post_init__(self):
        for name in ("mean_param", "sigma2", "p0"):
            require_finite(name, getattr(self, name))
        if not 0.0 <= self.p0 < 1.0:
            raise ValueError("p0 must lie in [0, 1)")
        if self.sigma2 < 0.0:
            raise ValueError("sigma2 must be nonnegative")
        if (self.values is None) != (self.probs is None):
            raise ValueError("values and probs must be given together")
        if self.values is None:
            return
        values = tuple(map(float, finite_tuple("values", self.values)))
        probs = tuple(map(float, finite_tuple("probs", self.probs)))
        if not 0 < len(values) == len(probs):
            raise ValueError("values and probs must be non-empty and of "
                             "equal length")
        if any(v < 0 for v in values):
            raise ValueError("values (the xi support) must be nonnegative")
        if not all(0.0 <= q <= 1.0 for q in probs):
            raise ValueError("probs must lie in [0, 1]")
        if abs(sum(probs) - 1.0) > 1e-12:
            raise ValueError("probs must sum to 1")
        if self.p0 > 0.0:
            raise ValueError(
                "p0 must be 0 when values are given (list an atom at zero "
                f"as a support point), got {self.p0!r}")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "probs", probs)

    @property
    def is_exact(self) -> bool:
        return self.values is not None or self.sigma2 == 0.0

    @property
    def is_point(self) -> bool:
        """Whether xi takes one value almost surely: one support point, or
        no variance and no atom at zero."""
        if self.values is not None:
            return len(self.values) == 1
        return self.sigma2 == 0.0 and self.p0 == 0.0

    @functools.cached_property
    def mean(self) -> float:
        """E[xi], computed on first use and then read as an attribute."""
        if self.values is not None:
            return float(sum(v * p for v, p in zip(self.values, self.probs)))
        return (1.0 - self.p0) * _truncnorm_mean(self.mean_param,
                                                 math.sqrt(self.sigma2))

    def nodes(self) -> tuple[np.ndarray, np.ndarray]:
        """Support points and weights for expectations over one xi draw.

        Exact for the degenerate and discrete cases; otherwise XI_NODES
        draws from seed XI_SEED, a common-random-number grid, so that every
        expectation built on the same model reuses identical draws.
        """
        if self.values is not None:
            return np.asarray(self.values, float), np.asarray(self.probs, float)
        if self.sigma2 == 0.0:
            v = max(self.mean_param, 0.0)
            if self.p0 > 0.0:
                return (np.array([0.0, v]), np.array([self.p0, 1.0 - self.p0]))
            return np.array([v]), np.array([1.0])
        draws = self.sample(np.random.default_rng(XI_SEED), XI_NODES)
        return draws, np.full(XI_NODES, 1.0 / XI_NODES)

    def sample(self, rng: np.random.Generator, size) -> np.ndarray:
        return self._fill(rng, np.empty(size))

    def _fill(self, rng: np.random.Generator, out: np.ndarray) -> np.ndarray:
        """Draw xi into the float array out and return it. The zero atom's
        uniforms come after all of out's normals, so filling the row blocks
        of a matrix one by one gives the values of a single fill of the
        matrix only when p0 = 0."""
        if self.values is not None:
            out[...] = rng.choice(np.asarray(self.values, float),
                                  size=out.shape,
                                  p=np.asarray(self.probs, float))
            return out
        if self.sigma2 == 0.0:
            out.fill(max(self.mean_param, 0.0))
        else:
            rng.standard_normal(out=out)
            out *= math.sqrt(self.sigma2)
            out += self.mean_param
            np.maximum(out, 0.0, out=out)
        if self.p0 > 0.0:
            out[rng.random(out.shape) < self.p0] = 0.0
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
    outcome). xi is the law of the daily side-effect data, an XiModel
    that checks its own fields when it is built; the config asks only that
    its mean be positive. m, t_horizon and z_bar must be integers (numpy
    integers are taken, bool is not); every cost and incentive must be a
    finite number (bool is not one). A bad field raises ValueError naming
    it when the object is built.
    """

    m: int
    t_horizon: int
    c_v: float
    c_i: float
    c_se_1: float
    xi: XiModel
    z_bar: int
    g0: float = 0.0
    incentives: tuple[float, ...] | None = None

    def __post_init__(self):
        for name in ("m", "t_horizon", "z_bar"):
            require_integer(name, getattr(self, name))
        for name in ("c_v", "c_i", "c_se_1", "g0"):
            require_finite(name, getattr(self, name))
        if not isinstance(self.xi, XiModel):
            raise ValueError(f"xi must be an XiModel, got {self.xi!r}")
        if self.m < 1:
            raise ValueError(f"m must be at least 1 influencer, got {self.m}")
        if self.t_horizon < 2:
            raise ValueError(
                f"t_horizon must be at least 2 days, got {self.t_horizon}")
        if not 1 <= self.z_bar <= self.m:
            raise ValueError("z_bar must lie in 1..m")
        if self.c_se_1 < 0:
            raise ValueError("c_se_1 must be nonnegative")
        if self.c_i <= 0:
            raise ValueError("c_i must be positive")
        if self.incentives is not None:
            inc = tuple(map(float, finite_tuple("incentives",
                                                self.incentives)))
            if len(inc) != self.z_bar:
                raise ValueError("incentives must list g_0..g_{z_bar-1}")
            object.__setattr__(self, "incentives", inc)
        if self.xi.mean <= 0.0:
            raise ValueError(
                f"xi must have a positive mean, got {self.xi.mean!r}")

    @property
    def e_xi(self) -> float:
        return self.xi.mean

    def g(self, z: int) -> float:
        if z >= self.z_bar:
            return 0.0
        if self.incentives is not None:
            return self.incentives[z]
        return self.g0


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
    T-1-t fresh data values taken from rng. XiModel draws them in place into
    one reused block of DRAW_BLOCK_ROWS rows, which bounds the data matrix's
    memory for every law. Without an atom at zero the blocks consume the
    stream as one (size, T-1-t) draw would; with one (p0 > 0), each block's
    mask is drawn right after that block's normals.
    """
    T = cfg.t_horizon
    c = cfg.c_se_1 if c is None else c
    steps = T - 1 - t
    xi = cfg.xi
    sums = np.zeros(size)
    if steps > 0:
        buf = np.empty((min(size, DRAW_BLOCK_ROWS), steps))
        for start in range(0, size, DRAW_BLOCK_ROWS):
            stop = min(start + DRAW_BLOCK_ROWS, size)
            xi._fill(rng, buf[:stop - start]).sum(axis=1, out=sums[start:stop])
    c_final = (t * c + sums) / (T - 1)
    return ((T - 1) / T) * c_final + cfg.e_xi / T


def binom_cdf(l: int, m: int, p) -> float | np.ndarray:
    """P(Bin(l, p) <= m), the standard lower tail summed from zero.

    l must be an integer >= 0 and m an integer (numpy integers are taken,
    bool is not); every p must lie in [0, 1], so NaN is refused."""
    require_integer("l", l, least=0)
    require_integer("m", m)
    pa = np.asarray(p)
    if not np.all((pa >= 0) & (pa <= 1)):
        raise ValueError("p must lie in [0, 1]")
    if m < 0:
        return np.zeros_like(p, dtype=float) if np.ndim(p) else 0.0
    if m >= l:
        return np.ones_like(p, dtype=float) if np.ndim(p) else 1.0
    out = bdtr(int(m), int(l), p)
    return float(out) if np.ndim(p) == 0 else out


def binom_pmf(ys: np.ndarray, l: int, p: float) -> np.ndarray:
    """P(Bin(l, p) = y) over the counts ys, as scipy.stats.binom.pmf
    computes it: boost's pmf, clipped to [0, 1]."""
    return np.clip(_boost_binom_pmf(ys, l, p), 0.0, 1.0)


def bisect_decreasing(f, target: float, lo: float, hi: float, atol: float,
                      rtol: float = 0.0, x0: float | None = None,
                      step: float | None = None) -> float:
    """Root of a non-increasing f(x) = target on the bracket [lo, hi], by
    safeguarded Newton (rtsafe; Press et al., Numerical Recipes, 9.4).

    f(x) returns the pair (f(x), f'(x)). The caller supplies f(lo) > target
    >= f(hi); each evaluation keeps that invariant as it narrows the
    bracket, so a monotone f never loses the root. From x0, by default the
    midpoint, the next x is the Newton step where the slope is negative and
    the step lands inside the bracket, and the midpoint otherwise: a slope
    of 0, where the caller knows none, makes the solve plain bisection.
    With tol = max(atol, rtol |x|) at the evaluated x, a solve ends in one
    of two ways: a Newton step of at most tol returns the x it steps from,
    and a bracket of width at most tol, or one whose midpoint no longer
    splits it in floating point, returns its midpoint. 200 evaluations at
    most.

    hi = inf leaves the upper end open: it closes at the first x with f(x)
    <= target. Until then no x past the reach lo + step 2^(PROBES-1) is
    evaluated. Where Newton cannot step, and in place of an x0 outside
    (lo, reach], the next x is the first doubling probe lo + step 2^k,
    k < PROBES, above every x evaluated so far. If no probe is left, f
    stayed above target up to the reach and the result is nan.
    """
    x = 0.5 * (lo + hi) if x0 is None else x0
    if hi == math.inf:
        base = lo
        probes = (base + step * 2.0 ** k for k in range(PROBES))
        reach = base + step * 2.0 ** (PROBES - 1)
    for _ in range(200):
        if hi == math.inf and not lo < x <= reach:
            x = next((p for p in probes if p > lo), math.nan)
            if math.isnan(x):
                return x
        fx, dfx = f(x)
        if fx > target:
            lo = x
        else:
            hi = x
        tol = max(atol, rtol * abs(x))
        if hi - lo <= tol:
            return 0.5 * (lo + hi)
        if dfx < 0.0:
            dx = (fx - target) / dfx
            if abs(dx) <= tol:
                return x
            x -= dx
        if not (dfx < 0.0 and lo < x < hi):
            # with the upper end open, x = inf: the next probe
            x = 0.5 * (lo + hi)
            if hi < math.inf and not lo < x < hi:
                return x
    return x


def _mixed_root(w: float, trials: int, successes: int) -> float:
    """Unique p in (0,1) with binom_cdf(trials, successes, p) = w in (0,1).

    The cdf is strictly decreasing in p, with slope -trials
    pmf_{trials-1}(successes; p), so Newton safeguarded on [0, 1] pushes the
    residual to float precision in about 15 cdf evaluations. Hot path: hits
    the cdf and pmf ufuncs directly.
    """
    k, n = int(successes), int(trials)

    def cdf_and_slope(p: float) -> tuple[float, float]:
        return bdtr(k, n, p), -n * _boost_binom_pmf(k, n - 1, p)

    return bisect_decreasing(cdf_and_slope, w, 0.0, 1.0, atol=1e-17)


def solve_mixed_probability(z: int, c: float, g_z: float,
                            cfg: InfluencerGameConfig) -> float:
    """Indifference probability at the final decision epoch.

    Solves C_v + Gamma_{T-1}(c) - g_z = C_i * F_{m-1-z}(z_bar-1-z; p) for
    the state with z already-vaccinated influencers, an integer in 0..m.
    Requires the interior regime 0 < C_v + Gamma - g_z < C_i and z_bar < m.
    """
    require_integer("z", z, 0, cfg.m)
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
    """Wait-and-watch outcome: common vaccination probability p(g, c);
    z_bar must be an integer in 1..m."""
    require_integer("z_bar", z_bar, 1, cfg.m)
    return p_from_gamma(g, gamma(cfg.t_horizon - 1, c, cfg), z_bar, cfg)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


# The p grid of the binomial tables, ascending and descending.
_P_UP = _read_only(np.linspace(0.0, 1.0, CDF_TABLE_POINTS))
_P_DOWN = _read_only(_P_UP[::-1].copy())


@functools.lru_cache(maxsize=8)
def _cdf_rows(trials: int) -> np.ndarray:
    """F(j; p) = P(Bin(trials, p) <= j) for j = 0..trials-1 (rows) on the
    descending grid _P_DOWN (columns), so that each row ascends in F.

    One pass builds every row: the pmf ratio recurrence pmf_j = pmf_{j-1}
    (l-j+1)/j p/(1-p) from pmf_0 = (1-p)^l over the grid's inner points,
    and a running sum over j. Row j then carries at most 5j + 1 roundings
    of positive terms, so it lies within (5l+2) 2^-53 of the exact tail
    relative to its value, as long as (1-p)^l stays a normal float: at p =
    1 - 2^-12 it is 2^(-12l), which bounds l by _RECURRENCE_TRIALS. The
    rows are pinned to 1 at p = 0 and 0 at p = 1 (no division by 1 - p =
    0), and each is clamped non-increasing in p by a running minimum from
    p = 0, which only lowers a value to one taken at a smaller p, where
    the exact tail is larger. Summing nonnegative terms makes the rows
    non-decreasing in j, and the running minimum keeps that. The minimum
    runs only as far as a row's last rise in p: rounding makes rises only
    where F is within 3e-13 of 1, and past the last one the row only
    needs the minimum so far.
    """
    l = int(trials)
    p = _P_DOWN[1:-1]
    rows = np.empty((l, CDF_TABLE_POINTS))
    rows[:, 0] = 0.0
    rows[:, -1] = 1.0
    r = p / (1.0 - p)
    pmf = np.power(1.0 - p, l)
    rows[0, 1:-1] = pmf
    for j in range(1, l):
        pmf *= (l - j + 1) / j
        pmf *= r
        np.add(rows[j - 1, 1:-1], pmf, out=rows[j, 1:-1])
    # a rise in p is a fall along the descending grid: from the grid's end
    # (p = 0) back to a row's first fall, the running minimum; below it the
    # row ascends, and only needs the minimum reached there
    falls = rows[:, :-1] > rows[:, 1:]
    for j in np.flatnonzero(falls.any(axis=1)):
        first = int(falls[j].argmax())
        row = rows[j]
        tail = row[:first:-1]
        np.minimum.accumulate(tail, out=tail)
        np.minimum(row[:first + 1], row[first + 1], out=row[:first + 1])
    return _read_only(rows)


@functools.lru_cache(maxsize=64)
def _bdtr_grid(trials: int, successes: int) -> np.ndarray:
    """scipy's binomial tail on the descending grid (F ascending)."""
    return _read_only(bdtr(int(successes), int(trials), _P_UP)[::-1].copy())


def _cdf_grid(trials: int, successes: int
              ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The table p -> F(p) of F(p) = P(Bin(trials, p) <= successes) on
    CDF_TABLE_POINTS points, (p, F) with p ascending, and its inverse
    (F ascending, p descending). The inverse arrays are contiguous, since
    np.interp would copy negative-stride views on every call; F is a
    reversed view of the inverse's F. All four are read-only.

    For 0 <= successes < trials <= _RECURRENCE_TRIALS this is a row of
    _cdf_rows(trials), one pass per trial count for every threshold;
    otherwise scipy's bdtr row, cached per (trials, successes). Nothing is
    built before the first call.
    """
    if 0 <= successes < trials <= _RECURRENCE_TRIALS:
        f_up = _cdf_rows(trials)[successes]
    else:
        f_up = _bdtr_grid(trials, successes)
    return _P_UP, f_up[::-1], f_up, _P_DOWN


def binom_cdf_vec_interp(l: int, m: int, p: np.ndarray) -> np.ndarray:
    """Interpolated lower tail of Bin(l, .) over an array of probabilities.

    Trades ~1e-7 absolute accuracy for a single table lookup; used in the
    Monte Carlo hot path where the statistical error dominates.
    """
    if m < 0:
        return np.zeros_like(p, dtype=float)
    if m >= l:
        return np.ones_like(p, dtype=float)
    grid, f, _, _ = _cdf_grid(l, m)
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
    _, _, f_up, grid_down = _cdf_grid(cfg.m - 1, z_bar - 1)
    p = np.interp(w, f_up, grid_down)
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

    def contains(self, p: float) -> bool:
        """Whether p is an admissible choice, to within 1e-9."""
        tol = 1e-9
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
            r = bisect_decreasing(lambda p: (sign * rhs(p), 0.0),
                                  sign * target, a, b, atol=0.0)
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
        xi_nodes = cfg.xi.nodes()
    xi_v, xi_w = xi_nodes
    n_opp = cfg.m - z - 1
    next_c = (t * c + xi_v) / (t + 1)

    w_by_y = np.array([
        float(np.dot(xi_w, [value_next(z + y, cn) for cn in next_c]))
        for y in range(n_opp + 1)
    ])
    ys = np.arange(n_opp + 1)

    def rhs(p: float) -> float:
        return float(np.dot(binom_pmf(ys, n_opp, p), w_by_y))

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
        self._xi_nodes = cfg.xi.nodes()
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
        if cfg.xi.is_point:
            cf = (t * c + (T - 1 - t) * self._xi_nodes[0][0]) / (T - 1)
            return min(cfg.c_v + gamma(T - 1, cf, cfg) - cfg.g(z), cfg.c_i)
        gm = final_gamma_draws(cfg, np.random.default_rng(XI_SEED + 7), 4096,
                               t, c)
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
    xi_v, xi_w = cfg.xi.nodes()
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
                         "(an XiModel with sigma2=0, or with values and "
                         "probs)")
    xi_v, xi_w = cfg.xi.nodes()
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
                    pmf = binom_pmf(np.arange(n_op + 1), n_op, q_opp)
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
                pmf = binom_pmf(np.arange(n_op + 1), n_op, q_opp)
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
