"""Top layer: incentive optimization under an eradication-probability
constraint, perfect-information closed forms, and the joint design of the
supply policy (vaccine-optimal and incentive-optimal regimes).

All expectations run over the final-epoch side-effect estimate. A solve
reuses one cached draw set (common random numbers), so the constraint
N_P(g) is non-increasing in g sample-by-sample and root bracketing never
breaks. The draws are kept sorted, with their prefix sums. A draw's
vaccination probability is a piecewise-linear function of w = (C_v + Gamma
- g)/C_i on the binomial table's knots, and so is F_M(z_bar-1; p), so a
Monte Carlo mean over the mixed draws is a sum over the K knots: one
searchsorted of the knots into the draws and the prefix sums, O(K log n)
rather than O(n). The knots and values are rows of game's binomial
tables, one pass per trial count for every threshold, built at the first
evaluation, and the knots scaled to the costs are cached with them. The
z_bar = m count and the perfect-information forms, taken exactly when
the law is a point (XiModel.is_point), are exact paths with no table.
"""
from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .epidemic import psi_eradicating
from .ess import eradication_threshold
# binom_cdf_vec_interp and p_from_gamma_vec are the per-draw path that the
# tabled sums below reproduce; they stay names of this module because the
# benchmark's tracer (perfbench/tracing.py) wraps them here.
from .game import (PROBES, InfluencerGameConfig, _cdf_grid, _mixed_root,
                   binom_cdf, binom_cdf_vec_interp, bisect_decreasing,
                   final_gamma_draws, p_from_gamma,
                   p_from_gamma_vec)  # noqa: F401
from .params import (DiseaseParams, PublicCostModel, VaRatePolicy,
                     require_integer)

# the two values of LeaderSolution.mode: the method that solved
PERFECT_INFO = "perfect_info"
MONTE_CARLO = "monte_carlo"

# The perfect-information incentive's excess over the infimum at z_bar = M,
# the halvings the vaccine-optimal design may take, and the supply margin
# of the incentive-optimal design.
_PERFECT_INFO_EPS, _MAX_HALVINGS, _MARGIN = 1e-6, 200, 1e-3

# The mid-quantile draws that the z_bar < m Newton start steps on: odd
# multiples of n / (2 _QUANTILES) (see _quantile_start).
_QUANTILES = 64
_MID_QUANTILES = np.arange(1, 2 * _QUANTILES, 2)


class BracketingError(RuntimeError):
    """Could not bracket the constraint root after the doubling budget."""


class JointDesignError(RuntimeError):
    """Shrinking the supply margins did not reach the target regime."""


@dataclass(frozen=True, eq=False)
class GammaDraws:
    """One law's common-random-number draws, sorted (gams), and sums[j] =
    sum over i < j of (gams[i] - center), centered at the median draw so
    that a difference of two sums loses little to cancellation; both
    read-only, so a caller cannot put them out of step. quantiles holds
    the _QUANTILES mid-quantile draws gams[((2j+1) n) // (2 _QUANTILES)]
    as a GammaDraws of the same center, and is None on that subset."""

    gams: np.ndarray
    sums: np.ndarray
    center: float
    quantiles: GammaDraws | None

    @staticmethod
    def build(gams: np.ndarray, center: float,
              quantiles: GammaDraws | None = None) -> GammaDraws:
        """Takes sorted gams read-only; sums is one buffer, built in place."""
        sums = np.empty(len(gams) + 1)
        sums[0] = 0.0
        np.subtract(gams, center, out=sums[1:])
        np.cumsum(sums[1:], out=sums[1:])
        gams.flags.writeable = sums.flags.writeable = False
        return GammaDraws(gams, sums, center, quantiles)


@dataclass
class ExpectationSampler:
    """Draw cache for expectations over the final side-effect estimate.

    draws(cfg) is the GammaDraws of n_samples values of Gamma_{T-1}(C_{T-1})
    under cfg's law, filled at the first call and kept for the sampler's
    life; gamma_draws(cfg) is its gams. A point law (XiModel.is_point) is
    solved by the closed forms and never draws. Only n_samples and seed are
    settings, and only they take part in ==; n_samples must be an integer
    >= 1 and seed one >= 0, checked at build.
    """

    n_samples: int = 100_000
    seed: int = 0
    _cache: dict = field(default_factory=dict, init=False, repr=False,
                         compare=False)

    def __post_init__(self):
        for name, least in (("n_samples", 1), ("seed", 0)):
            require_integer(name, getattr(self, name), least)

    def _key(self, cfg: InfluencerGameConfig) -> tuple:
        return (cfg.c_se_1, cfg.t_horizon, cfg.xi, self.n_samples, self.seed)

    def gamma_draws(self, cfg: InfluencerGameConfig) -> np.ndarray:
        """The sorted draws, read-only: draws(cfg).gams. Every fill of the
        cache happens here, and adds one entry."""
        key = self._key(cfg)
        if key not in self._cache:
            gams = final_gamma_draws(cfg, np.random.default_rng(self.seed),
                                     self.n_samples)
            gams.sort()
            center = float(gams[len(gams) // 2])
            sub = gams[_MID_QUANTILES * len(gams) // (2 * _QUANTILES)]
            self._cache[key] = GammaDraws.build(
                gams, center, GammaDraws.build(sub, center))
        return self._cache[key].gams

    def draws(self, cfg: InfluencerGameConfig) -> GammaDraws:
        """The draw set of cfg's law. A hit builds the key once; a miss
        fills the entry through gamma_draws."""
        key = self._key(cfg)
        entry = self._cache.get(key)
        if entry is None:
            self.gamma_draws(cfg)
            entry = self._cache[key]
        return entry

    def ci_halfwidth(self, delta: float) -> float:
        return 3.0 * math.sqrt(delta * (1.0 - delta) / self.n_samples)


def c_infinity(cfg: InfluencerGameConfig) -> float:
    """(c_se_1 + (T-1) E[xi]) / T: the almost-sure value of Gamma_{T-1}
    under a point law, and its mean under any law."""
    T = cfg.t_horizon
    return (cfg.c_se_1 + (T - 1) * cfg.e_xi) / T


@dataclass
class LeaderProblem:
    """The leader's constraint N_P(g) <= delta on one game and draw law;
    delta must lie in (0, 1), and cfg and sampler must be of their types.
    A bad field raises ValueError naming it when the problem is built."""

    delta: float
    cfg: InfluencerGameConfig
    sampler: ExpectationSampler

    def __post_init__(self):
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must lie in (0, 1)")
        for name, kind in (("cfg", InfluencerGameConfig),
                           ("sampler", ExpectationSampler)):
            v = getattr(self, name)
            if not isinstance(v, kind):
                raise ValueError(f"{name} must be an {kind.__name__}, "
                                 f"got {v!r}")


@dataclass
class LeaderSolution:
    g_star: float
    u_star: float
    z_bar: int
    binding: bool
    p_expectation: float
    np_at_g: float
    mode: str
    epsilon: float | None = None
    u_star_raw: float | None = None

    def to_dict(self) -> dict:
        return {k: v for k, v in self.__dict__.items()}


@functools.lru_cache(maxsize=64)
def _knot_tables(m: int, z_bar: int) -> tuple[np.ndarray, ...]:
    """(w_k, p_k, f_k, sp_k, sf_k, dw_k) for z_bar < m: a draw's p and its
    F_M(z_bar-1; p) are piecewise linear in w = (C_v + Gamma - g)/C_i, with
    knots at w_k and values p_k and f_k there, and slopes sp_k and sf_k in
    w on the segment [w_k, w_k+1) of width dw_k (slope 0 where two knots
    coincide).

    p_from_gamma_vec inverts the table of F_{m-1}(z_bar-1; .), whose knots
    w_k = F_{m-1}(z_bar-1; p_k) carry the grid points p_k, and
    binom_cdf_vec_interp reads f_k = F_M(z_bar-1; p_k) on the same grid, so
    composing the two interpolations is linear between the same knots. The
    first three are read-only arrays of game._cdf_grid: the knots and f_k
    are rows of the one-pass tables of m - 1 and m trials, which hold every
    threshold. The slopes and widths are computed once per (m, z_bar), and
    nothing is built before the first evaluation.
    """
    _, _, w, p = _cdf_grid(m - 1, z_bar - 1)
    f = _cdf_grid(m, z_bar - 1)[2]
    dw = np.diff(w)
    sp, sf = (np.divide(np.diff(v), dw, out=np.zeros_like(dw), where=dw > 0)
              for v in (p, f))
    return w, p, f, sp, sf, dw


@functools.lru_cache(maxsize=64)
def _cost_knots(m: int, z_bar: int, c_i: float, c_v: float
                ) -> tuple[np.ndarray, np.ndarray]:
    """(C_i w_k - C_v, C_i dw_k) on the knot tables of (m, z_bar): a
    search at g adds g to the first for its knots G_k, and clips its
    offsets to the second, the segments' widths in Gamma."""
    w, _, _, _, _, dw = _knot_tables(m, z_bar)
    return c_i * w - c_v, c_i * dw


def _mixed_run(g: float, gams: np.ndarray,
               cfg: InfluencerGameConfig) -> tuple[int, int]:
    """(lo, hi) with w <= 0 on gams[:lo] and w >= 1 on gams[hi:], for w =
    (C_v + Gamma - g)/C_i rounded as p_from_gamma_vec rounds it, so that its
    clamps p = 1 and p = 0 fall on the same draws. w is non-decreasing in
    Gamma; one searchsorted of g - C_v and g - C_v + C_i lands within a few
    draws of each end, and Python-float steps below settle the rounding."""
    c_v, c_i, draw = cfg.c_v, cfg.c_i, gams.item
    n = len(gams)
    lo, hi = gams.searchsorted((g - c_v, g - c_v + c_i)).tolist()
    while lo < n and (c_v + draw(lo) - g) / c_i <= 0.0:
        lo += 1
    while lo > 0 and (c_v + draw(lo - 1) - g) / c_i > 0.0:
        lo -= 1
    hi = max(hi, lo)
    while hi < n and (c_v + draw(hi) - g) / c_i < 1.0:
        hi += 1
    while hi > lo and (c_v + draw(hi - 1) - g) / c_i >= 1.0:
        hi -= 1
    return lo, hi


def _knot_search(g: float, z_bar: int, cfg: InfluencerGameConfig,
                 draws: GammaDraws) -> tuple:
    """The draws' segments at g, shared by every knot table of (m, z_bar):
    (lo, hi, a, cnt, off, head, tail).

    gams[lo:hi] is the mixed run (see _mixed_run). Draw Gamma sits at knot
    k when Gamma = G_k = C_i w_k - C_v + g, so one searchsorted of the G_k
    into the run counts the cnt_k draws of each segment [G_k, G_k+1), and
    the prefix sums give their sum SumGamma_k; off_k = SumGamma_k - cnt_k
    G_k is what the segment's draws lie past its first knot in all. Near w
    = 0 and 1 the table of p has segments narrower than the rounding of G_k
    and of the prefix sums, where that rounding times the slope would carry
    a sum far past the segment's values. So off_k is clipped to [0, cnt_k
    C_i dw_k], the segments' true widths, which keeps every draw's value
    within its segment's end values. The difference of the rounded G_k
    would not: it can be several times wider (8.9e-16 against 1.1e-16 at
    C_i = 0.01), far enough for a steep segment of p to read a draw as a
    negative probability. Only the knots a.. from the last one at or
    below the run's first draw to the first one above its last draw are
    searched; the others bound no draw of the run. head and tail count the
    run's draws below the first searched knot and from the last one on.
    cnt is None for an empty run. C_i w_k - C_v and C_i dw_k come from
    _cost_knots, so a search adds g to the knots and makes its other
    numpy calls on the searched knots alone.
    """
    gams, sums, center = draws.gams, draws.sums, draws.center
    lo, hi = _mixed_run(g, gams, cfg)
    if lo == hi:
        return lo, hi, 0, None, None, 0, 0
    base, width = _cost_knots(cfg.m, z_bar, cfg.c_i, cfg.c_v)
    knots = base + g
    a, b = knots.searchsorted((gams[lo], gams[hi - 1]), side="right").tolist()
    a, b = max(a - 1, 0), min(b, len(knots) - 1)
    knots = knots[a:b + 1]
    pos = gams[lo:hi].searchsorted(knots)
    pos += lo
    at = sums[pos]
    # float counts (exact) spare the products and dot products a cast
    cnt = (pos[1:] - pos[:-1]).astype(float)
    off = at[1:] - at[:-1]
    off -= cnt * (knots[:-1] - center)
    np.maximum(off, 0.0, out=off)
    np.minimum(off, cnt * width[a:b], out=off)
    return lo, hi, a, cnt, off, int(pos[0]) - lo, hi - int(pos[-1])


def _tabled_sum(search: tuple, v: np.ndarray, sv: np.ndarray,
                c_i: float) -> tuple[float, float]:
    """Sum over the mixed run of the piecewise-linear function of w through
    the knots (w_k, v_k), end values held beyond them, and the slope of
    that sum in g, from the segments of _knot_search.

    On segment k the function runs from v_k with slope s_k = sv_k / C_i per
    unit of Gamma, sv_k its slope in w, so the segment sums to cnt_k v_k +
    s_k off_k. The knots move with g, so while no draw changes segment the
    sum moves by -sum_k cnt_k s_k per unit of g: one more dot product over
    the same counts and slopes gives the exact slope wherever no clip
    binds, and the clip binds only on segments narrower than the rounding
    of G_k.
    """
    _, _, a, cnt, off, head, tail = search
    if cnt is None:
        return 0.0, 0.0
    v, sv = v[a:a + len(cnt) + 1], sv[a:a + len(cnt)]
    total = float(cnt.dot(v[:-1]) + sv.dot(off) / c_i)
    return (total + v[0] * head + v[-1] * tail, -float(cnt.dot(sv)) / c_i)


def _np_from_search(search: tuple, n: int, z_bar: int,
                    cfg: InfluencerGameConfig) -> tuple[float, float]:
    """(N_P, N_P') over n draws from their knot search: the table of F
    summed over the mixed run, plus one for each draw with w >= 1."""
    _, _, f, _, sf, _ = _knot_tables(cfg.m, z_bar)
    total, slope = _tabled_sum(search, f, sf, cfg.c_i)
    return (total + (n - search[1])) / n, slope / n


def non_eradication_probability(g: float, z_bar: int, problem: LeaderProblem,
                                with_slope: bool = False, *,
                                _searches: dict | None = None
                                ) -> float | tuple[float, float]:
    """N_P(g) = E[F_M(z_bar - 1; p(g, C))] under the game's law; with
    with_slope, the pair (N_P(g), N_P'(g)) of a law that is not a point.

    A point law (XiModel.is_point) evaluates the exact binomial tail at
    c_infinity. Otherwise the sampler's draws split into three runs by w =
    (C_v + Gamma - g)/C_i: w <= 0 gives p = 1 and F = 0, w >= 1 gives p = 0
    and F = 1, and the mixed run between sums the fused table (w_k,
    F_M(z_bar-1; p_k)) over its knots (see _knot_search and _tabled_sum):
    O(K log n) for the K = 4,097 knots, about 0.02 to 0.07 ms at n = 1e5 on
    a 2-vCPU Xeon. It
    agrees with the per-draw mean of binom_cdf_vec_interp(p_from_gamma_vec)
    up to rounding: within n * eps at the fig preset (C_v = 1, C_i = 5),
    and within what rounding w can change over a draw's segment when a
    small C_i magnifies it. N_P' is the slope of that piecewise-linear sum on
    the segment at g (see _tabled_sum). For z_bar = m no draw is mixed:
    N_P is the count of draws with Gamma >= g - C_v + C_i, a step
    function, and N_P' = 0.

    _searches is the solve's own dict: a z_bar < m Monte Carlo evaluation
    stores its knot search there under g, so that E[p(g)] reuses it.
    """
    cfg = problem.cfg
    require_integer("z_bar", z_bar, 1, cfg.m)
    if cfg.xi.is_point:
        if with_slope:
            raise ValueError("N_P' is not computed for a point law")
        return float(binom_cdf(cfg.m, z_bar - 1, p_from_gamma(
            g, c_infinity(cfg), z_bar, cfg)))
    draws = problem.sampler.draws(cfg)
    gams = draws.gams
    n = len(gams)
    if z_bar == cfg.m:
        value, slope = (n - int(gams.searchsorted(g - cfg.c_v + cfg.c_i))
                        ) / n, 0.0
    else:
        search = _knot_search(g, z_bar, cfg, draws)
        if _searches is not None:
            _searches[g] = search
        value, slope = _np_from_search(search, n, z_bar, cfg)
    return (value, slope) if with_slope else value


def _p_expectation(g: float, z_bar: int, problem: LeaderProblem,
                   search: tuple | None = None) -> float:
    """E[p(g, C)]: exact at c_infinity under a point law, a count of the
    draws with Gamma < g - C_v + C_i for z_bar = m, and otherwise the draws
    with w <= 0 plus the table (w_k, p_k) summed over the mixed run, on the
    knot search at g if the caller has it."""
    cfg = problem.cfg
    if cfg.xi.is_point:
        return p_from_gamma(g, c_infinity(cfg), z_bar, cfg)
    draws = problem.sampler.draws(cfg)
    gams = draws.gams
    n = len(gams)
    if z_bar == cfg.m:
        return int(gams.searchsorted(g - cfg.c_v + cfg.c_i)) / n
    if search is None:
        search = _knot_search(g, z_bar, cfg, draws)
    _, p, _, sp, _, _ = _knot_tables(cfg.m, z_bar)
    return (search[0] + _tabled_sum(search, p, sp, cfg.c_i)[0]) / n


def expected_incentive_cost(g: float, z_bar: int,
                            problem: LeaderProblem) -> float:
    """U(g) = M g E[p(g, C)], the expected incentive outlay."""
    require_integer("z_bar", z_bar, 1, problem.cfg.m)
    return problem.cfg.m * g * _p_expectation(g, z_bar, problem)


def g_floor(cfg: InfluencerGameConfig) -> float:
    """Largest incentive that may still be fully infeasible.

    Below max(C_v - C_i + (c_se_1 + E[xi])/T, 0) the vaccination
    probability is zero for every realization, so the constraint cannot
    move; root brackets start here.
    """
    T = cfg.t_horizon
    return max(cfg.c_v - cfg.c_i + (cfg.c_se_1 + cfg.e_xi) / T, 0.0)


def _binding_by_count(draws: GammaDraws, problem: LeaderProblem) -> bool:
    """Whether the draws with w >= 1 at g = 0 alone put N_P(0) above delta
    (z_bar < m, Monte Carlo). N_P(0) = (total + (n - hi)) / n, where total
    >= 0 sums the mixed run's F values and gams[hi:] are the draws with w
    >= 1, so (n - hi) / n > delta proves the constraint binds without
    searching the knots; False decides nothing."""
    gams, n = draws.gams, len(draws.gams)
    return (n - _mixed_run(0.0, gams, problem.cfg)[1]) / n > problem.delta


def _one_point_root(z_bar: int, problem: LeaderProblem,
                    draws: GammaDraws) -> float:
    """The root of N_P = delta when every draw sits at the median draw (the
    draw set's center): g = C_v + Gamma_med - C_i w*, with w* read off the
    fused table (w_k, F_M(z_bar-1; p_k)) at delta. This is the
    perfect-information root at Gamma_med, on the table."""
    cfg = problem.cfg
    w, _, f, _, _, _ = _knot_tables(cfg.m, z_bar)
    return (cfg.c_v + draws.center
            - cfg.c_i * float(np.interp(problem.delta, f, w)))


def _quantile_start(z_bar: int, problem: LeaderProblem, draws: GammaDraws,
                    lo: float, reach: float) -> float:
    """The start of the z_bar < m Newton solve: one Newton step from the
    one-point root g0 on the draw set's Q = _QUANTILES mid-quantile draws
    (draws.quantiles). N_P and N_P' of that subset at g0 come from the same
    knot search and table as the full N_P, over the subset's own prefix
    sums. g0 is kept where the subset's slope is not negative, and where
    g0 or the step lies outside (lo, reach], which the solve would replace
    with a doubling probe."""
    g0 = _one_point_root(z_bar, problem, draws)
    if not lo < g0 <= reach:
        return g0
    cfg = problem.cfg
    value, slope = _np_from_search(
        _knot_search(g0, z_bar, cfg, draws.quantiles), _QUANTILES, z_bar, cfg)
    if not slope < 0.0:
        return g0
    g1 = g0 - (value - problem.delta) / slope
    return g1 if lo < g1 <= reach else g0


def solve_optimal_incentive(z_bar: int, problem: LeaderProblem) -> LeaderSolution:
    """Minimal incentive with non-eradication probability at most delta.

    If the constraint already holds free of charge the answer is zero.
    Otherwise the root of N_P(g) = delta is sought above g_floor, with no
    evaluation past the reach g_floor + max(C_i, 1) 2^59 (BracketingError
    if N_P stays above delta up to there).

    One call of game.bisect_decreasing (tolerances 1e-12, upper end open)
    finds the root for every z_bar; its doubling probes g_floor + max(C_i,
    1) 2^k close the upper end where Newton cannot step. For z_bar < m, N_P
    is continuous and piecewise linear in g, and each evaluation of the
    tabled N_P (see non_eradication_probability), O(K log n) for the K
    table knots, also gives its exact slope there. The draws with w >= 1
    at g = 0 bound N_P(0) from below, and decide that the constraint binds
    without evaluating it (_binding_by_count); N_P(0) is evaluated only
    where they do not. Newton starts one step on 64 mid-quantile draws past
    the one-point root (_quantile_start): about 3.6 evaluations in all on
    the fig-1 grid. E[p(g*)] reuses the knot search of the evaluation at
    g*. For z_bar = m, N_P is a step function whose slope is 0, so the
    solve starts at the probes, the first with N_P <= delta closes the
    bracket, and bisection's midpoints decide on which side of the last
    jump g* lands. A point law (XiModel.is_point) is dispatched to the
    closed forms of perfect_info_solution, whatever the sampler.
    """
    if problem.cfg.xi.is_point:
        return perfect_info_solution(z_bar, problem)
    cfg, delta = problem.cfg, problem.delta
    require_integer("z_bar", z_bar, 1, cfg.m)
    draws = problem.sampler.draws(cfg)

    # the solution reports N_P(g*) and E[p(g*)], and the root finder has
    # already evaluated N_P there; every dict here belongs to this call
    seen: dict[float, tuple[float, float]] = {}
    searches: dict[float, tuple] = {}

    def np_and_slope(g: float) -> tuple[float, float]:
        if g not in seen:
            seen[g] = non_eradication_probability(
                g, z_bar, problem, with_slope=True, _searches=searches)
        return seen[g]

    def np_at(g: float) -> float:
        return np_and_slope(g)[0]

    def solution(g: float, binding: bool) -> LeaderSolution:
        np_g = np_at(g)
        p_exp = _p_expectation(g, z_bar, problem, searches.get(g))
        return LeaderSolution(g, cfg.m * g * p_exp, z_bar, binding=binding,
                              p_expectation=p_exp, np_at_g=np_g,
                              mode=MONTE_CARLO)

    if (not (z_bar < cfg.m and _binding_by_count(draws, problem))
            and np_at(0.0) <= delta):
        return solution(0.0, binding=False)

    lo, step = g_floor(cfg), max(cfg.c_i, 1.0)
    reach = lo + step * 2.0 ** (PROBES - 1)
    x0 = (_quantile_start(z_bar, problem, draws, lo, reach)
          if z_bar < cfg.m else None)
    g_star = bisect_decreasing(np_and_slope, delta, lo, math.inf, atol=1e-12,
                               rtol=1e-12, x0=x0, step=step)
    if math.isnan(g_star):
        raise BracketingError(
            f"N_P stayed above delta={delta} up to g={reach:.3g}")
    return solution(g_star, binding=True)


def p_star(k: int, m: int, delta: float) -> float:
    """Unique root of F_m(k-1; p) = delta; increasing in k.

    At k = m the root (1 - delta)^(1/m) tends to one as delta shrinks,
    matching the all-or-nothing character of that regime. m must be an
    integer >= 1 and k one in 1..m.
    """
    require_integer("m", m, least=1)
    require_integer("k", k, 1, m)
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    if k == m:
        return (1.0 - delta) ** (1.0 / m)
    return _mixed_root(delta, m, k - 1)


def perfect_info_solution(z_bar: int, problem: LeaderProblem) -> LeaderSolution:
    """Optimal incentive when the side-effect cost is known from day one.

    For z_bar < m the target probability p* solves F_M(z_bar-1; p) = delta
    and g* = C_v + Gamma - C_i F_{M-1}(z_bar-1; p*). For z_bar = m only an
    eps-optimizer exists: g = C_v + Gamma - C_i + eps with eps =
    _PERFECT_INFO_EPS = 1e-6, whose cost exceeds the infimum
    M (C_v + Gamma - C_i) by M*eps; `epsilon` reports eps.
    """
    cfg, delta = problem.cfg, problem.delta
    require_integer("z_bar", z_bar, 1, cfg.m)
    gam = c_infinity(cfg)
    p0 = p_from_gamma(0.0, gam, z_bar, cfg)
    np0 = binom_cdf(cfg.m, z_bar - 1, p0)
    if np0 <= delta:
        return LeaderSolution(0.0, 0.0, z_bar, binding=False, p_expectation=p0,
                              np_at_g=float(np0), mode=PERFECT_INFO)
    if z_bar < cfg.m:
        ps = p_star(z_bar, cfg.m, delta)
        g = cfg.c_v + gam - cfg.c_i * binom_cdf(cfg.m - 1, z_bar - 1, ps)
        return LeaderSolution(g, cfg.m * g * ps, z_bar, binding=True,
                              p_expectation=ps,
                              np_at_g=float(binom_cdf(cfg.m, z_bar - 1, ps)),
                              mode=PERFECT_INFO)
    g_inf = cfg.c_v + gam - cfg.c_i
    g = g_inf + _PERFECT_INFO_EPS
    return LeaderSolution(g, cfg.m * g, z_bar, binding=True, p_expectation=1.0,
                          np_at_g=0.0, mode=PERFECT_INFO,
                          epsilon=_PERFECT_INFO_EPS,
                          u_star_raw=cfg.m * g_inf)


@dataclass(frozen=True)
class ComparisonRow:
    z_bar: int
    delta: float
    g_star: float
    u_star: float
    np_at_g: float
    argmin: bool = False


def compare_across_zbar(problem: LeaderProblem, zbar_list, delta_list
                        ) -> list[ComparisonRow]:
    """Optimal incentives across threshold choices, sharing one draw set.

    Flags the cost-minimizing threshold per delta; with small delta the
    minimum sits at the extremes (all influencers or a single one), never
    in the middle.
    """
    rows = []
    for delta in delta_list:
        prob = dataclasses.replace(problem, delta=delta)
        best = None
        batch = []
        for zb in zbar_list:
            sol = solve_optimal_incentive(zb, prob)
            batch.append(ComparisonRow(zb, delta, sol.g_star, sol.u_star,
                                       sol.np_at_g))
            if best is None or sol.u_star < best[1]:
                best = (zb, sol.u_star)
        rows.extend(dataclasses.replace(r, argmin=(r.z_bar == best[0]))
                    for r in batch)
    return rows


# ---------------------------------------------------------------------------
# Joint design of the supply policy
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class JointDesign:
    k_star: int
    nu_eps: VaRatePolicy
    psi_e_achieved: float
    incentive_optimal_exists: bool
    l_table: tuple[float, ...]


def l_values(costs: PublicCostModel, disease: DiseaseParams,
             m: int) -> tuple[float, ...]:
    """Table L_0..L_M separating the influencer counts that can anchor an
    eradication threshold under a near-minimal supply policy."""
    theta_star = disease.theta_star
    a = min(costs.c_v2_bar, costs.c_v2 / theta_star)
    lim_infect = (disease.r + disease.b) / (disease.r + 2 * disease.b) * costs.c_i
    return tuple(
        min(-a * (m - k) / m, lim_infect - costs.c_v2_bar * (m - k) / m)
        for k in range(m + 1)
    )


def vaccine_optimal_k(costs: PublicCostModel, disease: DiseaseParams,
                      m: int) -> tuple[int, tuple[float, ...]]:
    """The unique influencer count targeted by a vaccine-optimal design.

    Scans k = 1..M for the crossing of c_v1 - c_f(k) below L_k; the
    strict/non-strict split flips with the side-effect cap regime. A
    missing or repeated crossing contradicts the monotonicity of both
    sides and raises. m must be an integer.
    """
    require_integer("m", m)
    costs.require_influence(m)
    if disease.rho <= 1.0:
        raise ValueError("joint design needs rho > 1")
    table = l_values(costs, disease, m)
    strict_upper = costs.c_v2_bar > costs.c_v2 / disease.theta_star
    hits = []
    for k in range(1, m + 1):
        ok_k = costs.c_v1 - costs.c_f(k)
        ok_prev = costs.c_v1 - costs.c_f(k - 1)
        if strict_upper:
            hit = ok_k <= table[k] and ok_prev > table[k - 1]
        else:
            hit = ok_k < table[k] and ok_prev >= table[k - 1]
        if hit:
            hits.append(k)
    if len(hits) != 1:
        raise RuntimeError(
            f"expected exactly one qualifying k, found {hits}; "
            "cost model violates the monotone crossing")
    return hits[0], table


def construct_eps_vaccine_optimal_nu(k_star: int, eps: float,
                                     costs: PublicCostModel,
                                     disease: DiseaseParams, m: int) -> JointDesign:
    """Supply policy pushing the eradicating vaccinated fraction within
    eps of its lower bound while keeping the threshold at k_star.

    Starts from nu_b just below b*rho*theta_star and nu_e just above the
    admissibility line, then halves both margins, at most _MAX_HALVINGS =
    200 times, until psi_e lands in (theta_star, theta_star + eps] and the
    threshold matches. eps must be positive and finite, m an integer.
    """
    if not (math.isfinite(eps) and eps > 0):
        raise ValueError(f"eps must be positive and finite, got {eps!r}")
    require_integer("m", m)
    theta_star = disease.theta_star
    ceiling = disease.b * disease.rho * theta_star
    # strictly inside (ceiling - eps, ceiling) from the first iterate
    e1 = min(eps, ceiling) / 2
    e2 = e1
    history = []
    for _ in range(_MAX_HALVINGS):
        nu = VaRatePolicy(ceiling - e1, e1 / theta_star + e2)
        psi_e = psi_eradicating(nu, disease.b)
        ok_psi = theta_star < psi_e <= theta_star + eps
        zb = eradication_threshold(nu, costs, disease, m) if ok_psi else None
        history.append((e1, e2, psi_e, zb))
        if ok_psi and zb == k_star:
            return JointDesign(k_star, nu, psi_e,
                               incentive_optimal_exists(costs, disease, m),
                               l_values(costs, disease, m))
        e1 *= 0.5
        e2 *= 0.5
    raise JointDesignError(
        f"margins exhausted without reaching k={k_star}; last iterations: "
        f"{history[-3:]}")


def incentive_optimal_exists(costs: PublicCostModel, disease: DiseaseParams,
                             m: int) -> bool:
    """Whether a threshold-at-M design with minimal incentive cost exists.

    Compares c_v1 - c_f(M-1) against -c_v2_bar/M, strictly when the
    side-effect cap binds at the infected-fraction floor and non-strictly
    otherwise. m must be an integer.
    """
    require_integer("m", m)
    lhs = costs.c_v1 - costs.c_f(m - 1)
    rhs = -costs.c_v2_bar / m
    if costs.c_v2_bar > costs.c_v2 / disease.theta_star:
        return lhs > rhs
    return lhs >= rhs


def construct_incentive_optimal_nu(costs: PublicCostModel,
                                   disease: DiseaseParams, m: int) -> VaRatePolicy:
    """Admissible supply policy whose eradication threshold sits at M.

    Tries the near-minimal policy first (smallest vaccinated fraction);
    if that fails to pin the threshold, raises the basic rate until the
    endemic limit stays attractive at M-1 vaccinated influencers. Both
    start from the supply margin _MARGIN = 1e-3. Among validated
    candidates the one with the smaller vaccinated fraction is returned.
    m must be an integer (incentive_optimal_exists checks it first).
    """
    if not incentive_optimal_exists(costs, disease, m):
        raise JointDesignError("no incentive-optimal policy for this model")
    theta_star = disease.theta_star
    ceiling = disease.b * disease.rho * theta_star
    candidates = []

    e = _MARGIN
    for _ in range(60):
        nu = VaRatePolicy(ceiling - e / 2, e / (2 * theta_star) + e / 2)
        if eradication_threshold(nu, costs, disease, m) == m:
            candidates.append(nu)
            break
        e *= 0.5

    denom = costs.c_v1 + costs.c_v2_bar / m - costs.c_f(m - 1)
    if denom > 0:
        if denom - costs.c_i > 0:
            nu_b = ceiling * (1.0 + _MARGIN)
        else:
            lam_t = disease.lam * theta_star
            nu_b = (lam_t * costs.c_i / denom - lam_t) * (1.0 + _MARGIN) + _MARGIN
        gap = disease.b * disease.rho - nu_b / theta_star
        nu = VaRatePolicy(nu_b, max(gap, 0.0) + _MARGIN)
        if eradication_threshold(nu, costs, disease, m) == m:
            candidates.append(nu)

    if not candidates:
        raise JointDesignError(
            "condition holds but no constructed policy pinned the threshold "
            "at M; the model sits on the existence boundary")
    return min(candidates, key=lambda nu: psi_eradicating(nu, disease.b))
