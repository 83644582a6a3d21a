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
import types
from dataclasses import dataclass

import numpy as np

from .params import (MAX_DAYS, MAX_DRAWS, MAX_INFLUENCERS, InvalidInput,
                     finite_tuple, require_finite, require_integer,
                     require_scaled)


@functools.cache
def _scipy() -> types.SimpleNamespace:
    """scipy's bdtr, ndtr and binomial pmf, imported on the first call:
    scipy.special is most of the package's import time, and a run that
    needs no binomial law (analyze-ess, simulate, fig 4) never loads it."""
    from scipy.special import bdtr, ndtr
    try:
        # the ufunc behind scipy.stats.binom.pmf, here without importing
        # scipy.stats, which would more than double the import time
        from scipy.special._ufuncs import _binom_pmf as pmf
    except ImportError:  # older scipy: the public pmf, at scipy.stats' cost
        from scipy.stats import binom
        pmf = binom.pmf
    return types.SimpleNamespace(bdtr=bdtr, ndtr=ndtr, pmf=pmf)


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

# Draws and seed of the Monte Carlo wait-and-watch value before T-1, for
# every law that is not a point.
_WAIT_DRAWS = 4096
_WAIT_SEED = 1241

# Largest gain of a one-shot deviation that verify_symmetric_ne passes.
_NE_TOL = 1e-9


# ---------------------------------------------------------------------------
# Side-effect data model
# ---------------------------------------------------------------------------

def _truncnorm_mean(mu: float, sigma: float) -> float:
    """Mean of max(X, 0) for X ~ N(mu, sigma^2)."""
    if sigma == 0.0:
        return max(mu, 0.0)
    a = mu / sigma
    pdf = math.exp(-0.5 * a * a) / math.sqrt(2.0 * math.pi)
    return mu * float(_scipy().ndtr(a)) + sigma * pdf


@dataclass(frozen=True)
class XiModel:
    """Distribution of the daily side-effect data xi, the one law behind
    the estimate Gamma_{T-1} of the game and the leader.

    Continuous case: a normal draw truncated at zero (negative raw values
    count as zero), optionally mixed with an atom at zero of mass p0.
    Discrete case: explicit support/probability pairs, used by the exact
    dynamic-programming oracle; sigma2 and p0 must then be 0 (list an atom
    at zero as a support point), and mean_param is set to the support's
    mean, which the values alone fix. Any sequences of values and probs are
    kept as tuples of floats, so that models compare and hash by value:
    two laws of one support are equal whatever mean_param they were given.
    mean_param, sigma2 and p0 must pass params.require_scaled, and every
    value and probability must be a finite number (bool is not one); a bad
    field raises InvalidInput naming it.

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
        require_scaled("mean_param", self.mean_param)
        for name in ("sigma2", "p0"):
            require_scaled(name, getattr(self, name), least=0)
        if self.p0 >= 1.0:
            raise InvalidInput("p0", "must lie in [0, 1)")
        if (self.values is None) != (self.probs is None):
            raise InvalidInput("values", "and probs must be given together")
        if self.values is None:
            return
        values = tuple(map(float, finite_tuple("values", self.values)))
        probs = tuple(map(float, finite_tuple("probs", self.probs)))
        if not 0 < len(values) == len(probs):
            raise InvalidInput("values", "and probs must be non-empty and of "
                                         "equal length")
        if any(v < 0 for v in values):
            raise InvalidInput("values",
                               "(the xi support) must be nonnegative")
        if not all(0.0 <= q <= 1.0 for q in probs):
            raise InvalidInput("probs", "must lie in [0, 1]")
        if abs(sum(probs) - 1.0) > 1e-12:
            raise InvalidInput("probs", "must sum to 1")
        if self.p0 > 0.0:
            raise InvalidInput("p0", "must be 0 when values are given (list "
                                     f"an atom at zero as a support point), "
                                     f"got {self.p0!r}")
        if self.sigma2 != 0.0:
            raise InvalidInput("sigma2", f"must be 0 when values are given "
                                         f"(they alone make the law), got "
                                         f"{self.sigma2!r}")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "mean_param",
                           float(sum(v * p for v, p in zip(values, probs))))

    @property
    def is_point(self) -> bool:
        """Whether xi takes one value almost surely: one support point, or
        no variance and no atom at zero."""
        if self.values is not None:
            return len(self.values) == 1
        return self.sigma2 == 0.0 and self.p0 == 0.0

    @functools.cached_property
    def _hash(self) -> int:
        return hash((self.mean_param, self.sigma2, self.p0, self.values,
                     self.probs))

    def __hash__(self) -> int:
        """The hash of the fields == compares, computed on first use: the
        law keys every draw-set lookup, and a frozen dataclass would hash
        its fields anew on each call."""
        return self._hash

    @functools.cached_property
    def mean(self) -> float:
        """E[xi], computed on first use and then read as an attribute."""
        if self.values is not None:
            return self.mean_param
        return (1.0 - self.p0) * _truncnorm_mean(self.mean_param,
                                                 math.sqrt(self.sigma2))

    def nodes(self) -> tuple[np.ndarray, np.ndarray]:
        """Support points and probabilities of one xi draw, for the exact
        expectations of the game's recursion and oracle: the listed values,
        or max(mean_param, 0) after an atom at zero of mass p0 > 0. Built on
        first use, then the same read-only arrays. A continuous law (sigma2
        > 0 without values) has none and raises InvalidInput."""
        return self._support

    @functools.cached_property
    def _support(self) -> tuple[np.ndarray, np.ndarray]:
        if self.values is not None:
            v, w = self.values, self.probs
        elif self.sigma2 > 0.0:
            raise InvalidInput(
                "xi", f"must be a finite law (values and probs, or sigma2 = "
                      f"0) for an exact expectation over one day's data, got "
                      f"sigma2 = {self.sigma2!r}")
        elif self.p0 > 0.0:
            v, w = (0.0, max(self.mean_param, 0.0)), (self.p0, 1.0 - self.p0)
        else:
            v, w = (max(self.mean_param, 0.0),), (1.0,)
        return _read_only(np.array(v)), _read_only(np.array(w))

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
    outcome); `incentives` lists g_0..g_{z_bar-1} instead, and g0 must
    then be 0, since the list holds g_0 itself. xi is the law of the daily
    side-effect data, an XiModel that checks its own fields when it is
    built; the config asks only that its mean be positive. m, t_horizon
    and z_bar must be integers (numpy integers are taken, bool is not), m
    in 1..MAX_INFLUENCERS, t_horizon in 2..MAX_DAYS and z_bar in 1..m;
    every cost and incentive must pass params.require_scaled, c_se_1 must
    be nonnegative and c_i positive. A bad field raises InvalidInput naming
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
        require_integer("m", self.m, 1, MAX_INFLUENCERS)
        require_integer("t_horizon", self.t_horizon, 2, MAX_DAYS)
        require_integer("z_bar", self.z_bar, 1, self.m)
        for name in ("c_v", "c_i", "g0"):
            require_scaled(name, getattr(self, name))
        require_scaled("c_se_1", self.c_se_1, least=0)
        if not isinstance(self.xi, XiModel):
            raise InvalidInput("xi", f"must be an XiModel, got {self.xi!r}")
        if self.c_i <= 0:
            raise InvalidInput("c_i", "must be positive")
        if self.incentives is not None:
            inc = tuple(map(float, finite_tuple("incentives",
                                                self.incentives)))
            if len(inc) != self.z_bar:
                raise InvalidInput("incentives", "must list g_0..g_{z_bar-1}")
            if self.g0 != 0.0:
                raise InvalidInput("g0", f"must be 0 beside incentives, "
                                         f"got {self.g0!r}")
            object.__setattr__(self, "incentives", inc)
        if self.xi.mean <= 0.0:
            raise InvalidInput(
                "xi", f"must have a positive mean, got {self.xi.mean!r}")

    def g(self, z: int) -> float:
        if z >= self.z_bar:
            return 0.0
        if self.incentives is not None:
            return self.incentives[z]
        return self.g0


# ---------------------------------------------------------------------------
# Elementary quantities
# ---------------------------------------------------------------------------

def gamma(t: int, c: float, cfg: InfluencerGameConfig) -> float:
    """Expected terminal side-effect cost given the day-t estimate c.

    Linear in both arguments: (t/T) c + ((T-t)/T) E[xi]; at t = T the
    estimate is final and the value is c itself. t must be an integer in
    1..T and c finite.
    """
    require_integer("t", t, 1, cfg.t_horizon)
    require_finite("c", c)
    T = cfg.t_horizon
    return (t / T) * c + ((T - t) / T) * cfg.xi.mean


def final_gamma_draws(cfg: InfluencerGameConfig, rng: np.random.Generator,
                      size: int, t: int = 1, c: float | None = None
                      ) -> np.ndarray:
    """`size` draws of Gamma_{T-1}(C_{T-1}) given C_t = c (default C_1 = c_se_1).

    C_{T-1} = (t c + xi_{t+1} + ... + xi_{T-1}) / (T-1), so each draw sums
    T-1-t fresh data values taken from rng. XiModel draws them in place into
    one reused block of DRAW_BLOCK_ROWS rows, which bounds the data matrix's
    memory for every law. Without an atom at zero the blocks consume the
    stream as one (size, T-1-t) draw would; with one (p0 > 0), each block's
    mask is drawn right after that block's normals. size must be an integer
    in 0..MAX_DRAWS, checked before any array is built.
    """
    require_integer("size", size, 0, MAX_DRAWS)
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
    # C_{T-1}, then Gamma_{T-1}, in place: the operands and order of
    # ((T-1)/T) * ((t c + sums) / (T-1)) + mean/T, with no array but sums
    sums += t * c
    sums /= T - 1
    sums *= (T - 1) / T
    sums += cfg.xi.mean / T
    return sums


def binom_cdf(l: int, m: int, p) -> float | np.ndarray:
    """P(Bin(l, p) <= m), the standard lower tail summed from zero.

    l must be an integer >= 0 and m an integer (numpy integers are taken,
    bool is not); every p must be a number in [0, 1], so NaN is refused."""
    require_integer("l", l, least=0)
    require_integer("m", m)
    pa = np.asarray(p)
    if pa.dtype.kind not in "fiu" or not np.all((pa >= 0) & (pa <= 1)):
        raise InvalidInput("p", "must lie in [0, 1]")
    if m < 0:
        return np.zeros_like(p, dtype=float) if np.ndim(p) else 0.0
    if m >= l:
        return np.ones_like(p, dtype=float) if np.ndim(p) else 1.0
    out = _scipy().bdtr(int(m), int(l), p)
    return float(out) if np.ndim(p) == 0 else out


def binom_pmf(ys: np.ndarray, l: int, p: float) -> np.ndarray:
    """P(Bin(l, p) = y) for the counts ys in 0..l, as scipy.stats.binom.pmf
    computes it there: boost's pmf, clipped to [0, 1]."""
    return np.clip(_scipy().pmf(ys, l, p), 0.0, 1.0)


def _midpoint(lo: float, hi: float) -> float:
    """(lo + hi) / 2, halved term by term only where the sum overflows, so
    that a finite bracket's midpoint stays finite and inside it."""
    mid = 0.5 * (lo + hi)
    return mid if math.isfinite(mid) else 0.5 * lo + 0.5 * hi


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
    splits it in floating point, returns its midpoint. The 200th evaluation
    ends any other solve, with the next x, strictly inside a finite bracket.

    hi = inf leaves the upper end open: it closes at the first x with f(x)
    <= target. Until then no x past the reach lo + step 2^(PROBES-1) is
    evaluated. Where Newton cannot step, and in place of an x0 outside
    (lo, reach], the next x is the first doubling probe lo + step 2^k,
    k < PROBES, above every x evaluated so far. If no probe is left, f
    stayed above target up to the reach and the result is nan.
    """
    x = _midpoint(lo, hi) if x0 is None else x0
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
            return _midpoint(lo, hi)
        if dfx < 0.0:
            dx = (fx - target) / dfx
            if abs(dx) <= tol:
                return x
            x -= dx
        if not (dfx < 0.0 and lo < x < hi):
            # with the upper end open, x = inf: the next probe
            x = _midpoint(lo, hi)
            if hi < math.inf and not lo < x < hi:
                return x
    return x


def _mixed_root(w: float, trials: int, successes: int) -> float:
    """Unique p in (0,1) with binom_cdf(trials, successes, p) = w in (0,1).

    The cdf F is strictly decreasing in p, with slope -trials
    pmf_{trials-1}(successes; p), so Newton safeguarded on [0, 1] pushes the
    residual to float precision in about 15 cdf evaluations. Hot path: hits
    the cdf and pmf ufuncs directly. For w far below F(1/2) each Newton
    step lowers ln F by only about 1, and the 200 evaluations run out (at
    39 trials, for w below about 1e-99), the one ending that leaves the
    result strictly inside a bracket wider than the tolerance. The solve
    then goes on by Newton on ln F, which is concave in p (F is the
    survival function of a Beta(successes + 1, trials - successes) law).
    """
    k, n = int(successes), int(trials)
    lo, hi = 0.0, 1.0
    bdtr, pmf = _scipy().bdtr, _scipy().pmf

    def cdf_and_slope(p: float) -> tuple[float, float]:
        nonlocal lo, hi
        f = float(bdtr(k, n, p))
        lo, hi = (p, hi) if f > w else (lo, p)
        return f, -n * float(pmf(k, n - 1, p))

    p = bisect_decreasing(cdf_and_slope, w, 0.0, 1.0, atol=1e-17)
    if not (lo < p < hi and hi - lo > 1e-17):
        return p

    def log_cdf_and_slope(p: float) -> tuple[float, float]:
        f, df = cdf_and_slope(p)
        return (math.log(f), df / f) if f > 0.0 else (-math.inf, 0.0)

    return bisect_decreasing(log_cdf_and_slope, math.log(w), lo, hi,
                             atol=1e-17, x0=p)


def _final_choice(g: float, gam: float, z: int,
                  cfg: InfluencerGameConfig) -> tuple[float, str]:
    """(p, kind): the last-epoch choice of a susceptible influencer with z
    of m vaccinated, at incentive g and estimate gam = Gamma_{T-1}(c); a
    kind other than 'tie' names the StageActionSet field that holds p.

    For z_bar = m, p is 1 below the edge gam = g - C_v + C_i and 0 above
    it ('pure'); on it every p is a best reply ('tie'), and p = 0 waits.
    Otherwise w = (C_v + gam - g)/C_i, its numerator clipped to [0, C_i]
    as p_from_gamma_vec clips it, gives p = 1 at w <= 0 and 0 at w >= 1
    ('pure'), and between them the root of F_{m-1-z}(z_bar-1-z; p) = w
    ('mixed')."""
    if cfg.z_bar == cfg.m:
        edge = g - cfg.c_v + cfg.c_i
        if gam < edge:
            return 1.0, "pure"
        if gam > edge:
            return 0.0, "pure"
        return 0.0, "tie"
    w = min(max(cfg.c_v + gam - g, 0.0), cfg.c_i) / cfg.c_i
    if w <= 0.0:
        return 1.0, "pure"
    if w >= 1.0:
        return 0.0, "pure"
    return _mixed_root(w, cfg.m - 1 - z, cfg.z_bar - 1 - z), "mixed"


def p_from_gamma(g: float, gam: float, cfg: InfluencerGameConfig) -> float:
    """Equilibrium vaccination probability given the final-epoch estimate
    gam = Gamma_{T-1}(c): _final_choice's p with nobody vaccinated, a tie
    going to waiting."""
    return _final_choice(g, gam, 0, cfg)[0]


def ne_outcome_probability(g: float, c: float,
                           cfg: InfluencerGameConfig) -> float:
    """Wait-and-watch outcome: common vaccination probability p(g, c), for
    a finite g."""
    require_finite("g", g)
    return p_from_gamma(g, gamma(cfg.t_horizon - 1, c, cfg), cfg)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


# The p grid of the binomial tables, descending.
_P_DOWN = _read_only(np.linspace(1.0, 0.0, CDF_TABLE_POINTS))


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
    """binom_cdf on the descending grid (F ascending)."""
    return _read_only(binom_cdf(trials, successes, _P_DOWN))


def _cdf_row(trials: int, successes: int) -> np.ndarray:
    """F(p) = P(Bin(trials, p) <= successes) on the descending grid
    _P_DOWN, so F ascends: contiguous, since np.interp would copy a
    negative-stride view on every call, and read-only.

    For 0 <= successes < trials <= _RECURRENCE_TRIALS this is a row of
    _cdf_rows(trials), one pass per trial count for every threshold;
    otherwise binom_cdf's row (scipy's bdtr, or all 0 or all 1 outside
    0..trials-1), cached per (trials, successes). Nothing is built before
    the first call.
    """
    if 0 <= successes < trials <= _RECURRENCE_TRIALS:
        return _cdf_rows(trials)[successes]
    return _bdtr_grid(trials, successes)


def binom_cdf_vec_interp(l: int, m: int, p: np.ndarray) -> np.ndarray:
    """Interpolated lower tail of Bin(l, .) over an array of probabilities.

    Trades accuracy for a single table lookup: linear interpolation between
    the table's grid points misses F by up to 1.16e-5 (measured on
    F_40(0; p) and F_40(38; p), near p = 1e-4 and p = 0.9999, the ends of
    the table), and by far less in its middle. No solve calls it: it is the
    per-draw reference that leader's tabled N_P is tested against.
    """
    return np.interp(p, _P_DOWN[::-1], _cdf_row(l, m)[::-1])


def p_from_gamma_vec(g: float, gams: np.ndarray,
                     cfg: InfluencerGameConfig) -> np.ndarray:
    """Vectorized p(g, .) over an array of Gamma values.

    Interior solutions interpolate the inverse of the table of
    F_{m-1}(z_bar-1; .), so p is monotone in g sample-by-sample. Measured
    against p_from_gamma's root for every z_bar at m <= 60, F_{m-1}(z_bar-1;
    p) misses w, and F_m(z_bar-1; p) its exact value, by under 2.7e-5, and
    p misses by under 1.3e-4 for w in (1e-12, 1 - 1e-12), most in the
    table's end cells.
    """
    gams = np.asarray(gams, dtype=float)
    if cfg.z_bar == cfg.m:
        return (gams < g - cfg.c_v + cfg.c_i).astype(float)
    # a w outside (0, 1) only picks p = 1 or 0: clipping its numerator to
    # [0, c_i] keeps the division finite however small c_i is
    w = np.clip(cfg.c_v + gams - g, 0.0, cfg.c_i) / cfg.c_i
    p = np.interp(w, _cdf_row(cfg.m - 1, cfg.z_bar - 1), _P_DOWN)
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
        if fa == 0.0 and 0.0 < a:
            roots.append(float(a))
            continue
        if fa * fb < 0.0:
            sign = 1.0 if fa > 0.0 else -1.0
            r = bisect_decreasing(lambda p: (sign * rhs(p), 0.0),
                                  sign * target, a, b, atol=0.0)
            if 0.0 < r < 1.0:
                roots.append(float(r))
    return tuple(roots)


def _require_state(t: int, z: int, c: float, last: int,
                   cfg: InfluencerGameConfig) -> None:
    """InvalidInput naming the argument unless (t, z, c) is a state of the
    game: an integer epoch t in 1..last, an integer count z in 0..m and a
    finite estimate c."""
    require_integer("t", t, 1, last)
    require_integer("z", z, 0, cfg.m)
    require_finite("c", c)


def stage_action_set(t: int, z: int, c: float, value_next,
                     cfg: InfluencerGameConfig) -> StageActionSet:
    """Admissible symmetric choices of a susceptible agent at epoch t, with
    z influencers vaccinated and side-effect estimate c.

    value_next(z', c') must return the stage-(t+1) continuation value of a
    susceptible agent; expectations over the opponents' binomial count and
    the next side-effect estimate are taken here, the latter over
    cfg.xi.nodes(), so before T-1 a continuous law raises InvalidInput.
    z >= z_bar forces waiting. At T-1 the set is the last-epoch rule
    (_final_choice), the one p_from_gamma reads: its tie is the whole
    interval, its root the one mix and its clamp the one pure action.
    t must be an integer in 1..T-1, z one in 0..m and c finite.
    """
    _require_state(t, z, c, cfg.t_horizon - 1, cfg)
    if z >= cfg.z_bar:
        return StageActionSet(pure=(0.0,))
    gam, g = gamma(t, c, cfg), cfg.g(z)

    if t == cfg.t_horizon - 1:
        p, kind = _final_choice(g, gam, z, cfg)
        if kind == "tie":
            return StageActionSet(full_interval=True)
        return StageActionSet(**{kind: (p,)})

    q = cfg.c_v + gam - g
    xi_v, xi_w = cfg.xi.nodes()
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

    selector is one of the presets 'wait-and-watch' (defer until the final
    epoch) and 'eager' (vaccinate whenever admissible), or a callable
    (t, z, c, stage_set) -> probability whose choices are checked against
    the stage sets, raising InvalidInput (field selector) outside them. The
    stage sets always contain 0 before the final epoch, so the
    wait-and-watch preset (defer every decision to T-1) is always
    available; it is the influencers' preferred equilibrium. The estimate
    is real-valued, so no global table is built: a query at (t, c) that
    reads a stage set solves the states reachable from it in one backward
    pass (_solve), each state once, so no call recurses more than one epoch.

    Any other selector takes expectations over cfg.xi.nodes(), so it refuses a
    continuous law with InvalidInput when built, as it does a selector that
    is neither a preset nor callable. Wait-and-watch takes any law: it
    reads no stage set, only the last-epoch rule at T-1. value takes t in
    1..T, decision and action_set in 1..T-1, each an integer z in 0..m and
    a finite c; any other state raises InvalidInput naming the argument.
    """

    def __init__(self, cfg: InfluencerGameConfig, selector=WAIT_AND_WATCH):
        if selector not in (WAIT_AND_WATCH, EAGER) and not callable(selector):
            raise InvalidInput("selector", f"must be {WAIT_AND_WATCH!r}, "
                               f"{EAGER!r} or a callable, got {selector!r}")
        if selector != WAIT_AND_WATCH:
            cfg.xi.nodes()  # refuses a continuous law
        self.cfg = cfg
        self.selector = selector
        self._dec: dict[tuple[int, int, float], float] = {}
        self._val: dict[tuple[int, int, float], float] = {}

    # -- decisions ---------------------------------------------------------
    def action_set(self, t: int, z: int, c: float) -> StageActionSet:
        return stage_action_set(t, z, c,
                                lambda zn, cn: self.value(t + 1, zn, cn),
                                self.cfg)

    def decision(self, t: int, z: int, c: float) -> float:
        """Vaccination probability prescribed to a susceptible agent."""
        cfg = self.cfg
        _require_state(t, z, c, cfg.t_horizon - 1, cfg)
        if z >= cfg.z_bar:
            return 0.0
        if self.selector == WAIT_AND_WATCH:
            # wait until T-1, then take the last-epoch rule, a tie waiting
            return 0.0 if t < cfg.t_horizon - 1 else _final_choice(
                cfg.g(z), gamma(t, c, cfg), z, cfg)[0]
        self._solve(t, c)
        return self._dec[t, z, c]

    def _select(self, t, z, c, aset: StageActionSet) -> float:
        if self.selector == EAGER:
            if aset.contains(1.0):
                return 1.0
            if aset.mixed:
                return max(aset.mixed)
            return 0.0
        p = self.selector(t, z, c, aset)
        if not aset.contains(p):
            raise InvalidInput("selector", f"chose {p} outside the stage set "
                                           f"at t={t}, z={z}")
        return float(p)

    # -- values ------------------------------------------------------------
    def value(self, t: int, z: int, c: float) -> float:
        """Continuation value v_t of a susceptible agent under this strategy."""
        cfg = self.cfg
        _require_state(t, z, c, cfg.t_horizon, cfg)
        if z >= cfg.z_bar:
            return 0.0
        if t == cfg.t_horizon:
            return cfg.c_i
        if t == cfg.t_horizon - 1:
            return min(cfg.c_v + gamma(t, c, cfg) - cfg.g(z), cfg.c_i)
        if self.selector == WAIT_AND_WATCH:
            return self._wait_value(t, z, c)
        self._solve(t, c)
        return self._val[t, z, c]

    def _wait_value(self, t: int, z: int, c: float) -> float:
        # Nobody moves until T-1, so z is frozen and only the estimate
        # diffuses: average the final-epoch value over C_{T-1} | C_t = c.
        cfg = self.cfg
        T = cfg.t_horizon
        if cfg.xi.is_point:
            cf = (t * c + (T - 1 - t) * cfg.xi.nodes()[0][0]) / (T - 1)
            return self.value(T - 1, z, cf)
        gm = final_gamma_draws(cfg, np.random.default_rng(_WAIT_SEED),
                               _WAIT_DRAWS, t, c)
        return float(np.mean(np.minimum(cfg.c_v + gm - cfg.g(z), cfg.c_i)))

    def _solve(self, t: int, c: float) -> None:
        """Lists the estimates reachable at and after (t, c) epoch by epoch,
        less each (epoch, estimate) already solved, whose successors are,
        then from the last epoch down to t sets the decision at every count
        below z_bar and, before T-1, its value: C_v + Gamma - g_z where it
        vaccinates, the xi-mean of the next epoch's values where it waits."""
        cfg = self.cfg
        T, last = cfg.t_horizon, cfg.z_bar - 1
        xi_v, xi_w = cfg.xi.nodes()
        layers, cs = [], [c]
        for s in range(t, T):
            cs = [cn for cn in cs if (s, last, cn) not in self._dec]
            if not cs:
                break
            layers.append((s, cs))
            cs = dict.fromkeys(float(x) for cc in cs
                               for x in (s * cc + xi_v) / (s + 1))
        for s, cs in reversed(layers):
            for cn in cs:
                next_c = (s * cn + xi_v) / (s + 1)
                for z in range(cfg.z_bar):
                    d = self._select(s, z, cn, self.action_set(s, z, cn))
                    if s < T - 1:
                        self._val[s, z, cn] = (
                            cfg.c_v + gamma(s, cn, cfg) - cfg.g(z) if d != 0.0
                            else float(np.dot(xi_w, [self.value(s + 1, z, x)
                                                     for x in next_c])))
                    self._dec[s, z, cn] = d


# ---------------------------------------------------------------------------
# Exact best-response verification (small instances)
# ---------------------------------------------------------------------------

@dataclass
class NeCheck:
    passed: bool
    worst_gain: float
    worst_state: tuple | None
    vaccinated_value_error: float


def _cost_nodes(cfg: InfluencerGameConfig) -> list[dict[float, None]]:
    """Reachable side-effect estimates per epoch, in the order reached."""
    xi_v = cfg.xi.nodes()[0]
    nodes: list[dict[float, None]] = [{}, {cfg.c_se_1: None}]
    for t in range(1, cfg.t_horizon):
        nodes.append(dict.fromkeys((t * c + v) / (t + 1)
                                   for c in nodes[t] for v in xi_v))
    return nodes


def verify_symmetric_ne(decision, cfg: InfluencerGameConfig) -> NeCheck:
    """One-shot-deviation check of a symmetric profile by exact DP.

    The profile is its decision function (t, z, c) -> vaccination
    probability, such as SpecialStrategy(cfg).decision. Every reachable
    (epoch, vaccinated-count, estimate) state of a susceptible agent is
    tested: following the profile must match the better of vaccinating now
    versus waiting, both scored against the profile's own continuation, to
    within _NE_TOL = 1e-9. The expectations run over the support of a
    finite law (XiModel.nodes), so a continuous one raises InvalidInput;
    intended for small m and T.
    """
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
                # symmetric: the opponents play what the agent plays
                p = decision(t, z, c)
                if z >= 1:
                    # vaccinated agent: z counts itself, M - z susceptible opponents
                    n_op = M - z
                    pmf = binom_pmf(np.arange(n_op + 1), n_op, p)
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
                pmf = binom_pmf(np.arange(n_op + 1), n_op, p)
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
                val = p * q_vacc + (1.0 - p) * q_wait
                v_s[(t, z, c)] = val
                gain = val - min(q_vacc, q_wait)
                if gain > worst_gain:
                    worst_gain = gain
                    worst_state = (t, z, c)

    return NeCheck(worst_gain <= _NE_TOL, worst_gain, worst_state, vac_err)


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
    """One realization of the estimate process C_1..C_{T-1}; seed must be
    an integer >= 0."""
    require_integer("seed", seed, least=0)
    rng = np.random.default_rng(seed)
    xi = cfg.xi.sample(rng, cfg.t_horizon - 2)
    c = np.empty(cfg.t_horizon - 1)
    c[0] = cfg.c_se_1
    for t in range(2, cfg.t_horizon):
        c[t - 1] = c[t - 2] + (xi[t - 2] - c[t - 2]) / t
    return CostPath(c, xi)


def sample_z_t(g: float, cfg: InfluencerGameConfig, seed: int,
               size: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """(zs, ps): final vaccinated counts Z_T under the wait-and-watch
    outcome, and the vaccination probability each was drawn from.

    Each replicate draws Gamma_{T-1}, evaluates p(g, .) there, and draws
    Z_T ~ Bin(m, p). g must be finite, seed an integer >= 0, and size one
    in 1..MAX_DRAWS.
    """
    require_finite("g", g)
    require_integer("seed", seed, least=0)
    require_integer("size", size, 1, MAX_DRAWS)
    rng = np.random.default_rng(seed)
    ps = p_from_gamma_vec(g, final_gamma_draws(cfg, rng, size), cfg)
    return rng.binomial(cfg.m, ps), ps
