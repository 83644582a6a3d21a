"""Top layer: incentive optimization under an eradication-probability
constraint, perfect-information closed forms, and the joint design of the
supply policy (vaccine-optimal and incentive-optimal regimes).

All expectations run over the final-epoch side-effect estimate. A solve
reuses one cached draw set (common random numbers), so the constraint
N_P(g) is non-increasing in g sample-by-sample and root bracketing never
breaks. The draws are kept sorted, so each N_P(g) interpolates only the
draws whose vaccination probability is strictly mixed.
"""
from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import brentq

from .epidemic import psi_eradicating
from .ess import eradication_threshold, is_admissible
from .game import (InfluencerGameConfig, _mixed_root, binom_cdf,
                   binom_cdf_vec_interp, bisect_decreasing, final_gamma_draws,
                   p_from_gamma, p_from_gamma_vec)
from .params import DiseaseParams, PublicCostModel, VaRatePolicy

PERFECT_INFO = "perfect_info"
MONTE_CARLO = "monte_carlo"


class BracketingError(RuntimeError):
    """Could not bracket the constraint root after the doubling budget."""


class JointDesignError(RuntimeError):
    """Shrinking the supply margins did not reach the target regime."""


@dataclass
class ExpectationSampler:
    """Draw cache for expectations over the final side-effect estimate.

    monte_carlo mode holds n_samples common-random-number draws of
    Gamma_{T-1}(C_{T-1}), sorted ascending (every consumer averages over
    them, so order carries no meaning); perfect_info collapses to the
    single point (c_se_1 + (T-1) E[xi]) / T, which is the almost-sure value
    of Gamma_{T-1} when the data variance is zero.
    """

    mode: str = MONTE_CARLO
    n_samples: int = 100_000
    seed: int = 0
    _cache: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if self.mode not in (MONTE_CARLO, PERFECT_INFO):
            raise ValueError(
                f"mode must be {MONTE_CARLO!r} or {PERFECT_INFO!r}, "
                f"got {self.mode!r}")
        if self.n_samples < 1:
            raise ValueError("n_samples must be at least 1")

    def c_infinity(self, cfg: InfluencerGameConfig) -> float:
        T = cfg.t_horizon
        return (cfg.c_se_1 + (T - 1) * cfg.e_xi) / T

    def gamma_draws(self, cfg: InfluencerGameConfig) -> np.ndarray:
        if self.mode == PERFECT_INFO:
            return np.array([self.c_infinity(cfg)])
        key = (cfg.c_se_1, cfg.t_horizon, cfg.xi_mean, cfg.xi_sigma2,
               cfg.p0, cfg.xi_values, cfg.xi_probs, self.n_samples, self.seed)
        if key not in self._cache:
            self._cache[key] = np.sort(final_gamma_draws(
                cfg, np.random.default_rng(self.seed), self.n_samples))
        return self._cache[key]

    def ci_halfwidth(self, delta: float) -> float:
        if self.mode == PERFECT_INFO:
            return 0.0
        return 3.0 * math.sqrt(delta * (1.0 - delta) / self.n_samples)


@dataclass
class LeaderProblem:
    delta: float
    cfg: InfluencerGameConfig
    sampler: ExpectationSampler

    def __post_init__(self):
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must lie in (0, 1)")


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


def _p_vec(g: float, gams: np.ndarray, z_bar: int,
           cfg: InfluencerGameConfig) -> np.ndarray:
    if len(gams) == 1:
        return np.array([p_from_gamma(g, float(gams[0]), z_bar, cfg)])
    return p_from_gamma_vec(g, gams, z_bar, cfg)


def non_eradication_probability(g: float, z_bar: int,
                                problem: LeaderProblem) -> float:
    """N_P(g) = E[F_M(z_bar - 1; p(g, C))] under the cached draws.

    p(g, Gamma) is non-increasing in Gamma, so the sorted draws split into
    three runs: Gamma < g - C_v gives p = 1 and F = 0, Gamma >= g - C_v +
    C_i gives p = 0 and F = 1, and only the run between them is
    interpolated. For z_bar = m that run is empty and N_P is a count,
    exactly as p_from_gamma_vec splits the draws there.
    """
    cfg = problem.cfg
    gams = problem.sampler.gamma_draws(cfg)
    n = len(gams)
    if n == 1:
        return float(binom_cdf(cfg.m, z_bar - 1,
                               p_from_gamma(g, float(gams[0]), z_bar, cfg)))
    hi = int(np.searchsorted(gams, g - cfg.c_v + cfg.c_i))
    mixed = 0.0
    if z_bar < cfg.m:
        lo = int(np.searchsorted(gams, g - cfg.c_v))
        ps = p_from_gamma_vec(g, gams[lo:hi], z_bar, cfg)
        mixed = float(np.sum(binom_cdf_vec_interp(cfg.m, z_bar - 1, ps)))
    return (mixed + (n - hi)) / n


def expected_incentive_cost(g: float, z_bar: int,
                            problem: LeaderProblem) -> float:
    """U(g) = M g E[p(g, C)], the expected incentive outlay."""
    cfg = problem.cfg
    gams = problem.sampler.gamma_draws(cfg)
    return cfg.m * g * float(np.mean(_p_vec(g, gams, z_bar, cfg)))


def g_floor(cfg: InfluencerGameConfig) -> float:
    """Largest incentive that may still be fully infeasible.

    Below max(C_v - C_i + (c_se_1 + E[xi])/T, 0) the vaccination
    probability is zero for every realization, so the constraint cannot
    move; root brackets start here.
    """
    T = cfg.t_horizon
    return max(cfg.c_v - cfg.c_i + (cfg.c_se_1 + cfg.e_xi) / T, 0.0)


def _require_zbar(z_bar: int, cfg: InfluencerGameConfig) -> None:
    if not 1 <= z_bar <= cfg.m:
        raise ValueError(f"z_bar must lie in 1..{cfg.m}, got {z_bar}")


def solve_optimal_incentive(z_bar: int, problem: LeaderProblem) -> LeaderSolution:
    """Minimal incentive with non-eradication probability at most delta.

    If the constraint already holds free of charge the answer is zero;
    otherwise the upper end of (g_floor, inf) grows geometrically until
    it is feasible and the root of N_P(g) = delta is found in between, by
    Brent's method for z_bar < m, where N_P is continuous and piecewise
    linear in g, and by bisection for z_bar = m, where N_P is a step
    function with no slope for Brent's secant steps to use; there the
    bisection midpoints decide on which side of the last jump g* lands.
    Perfect-information samplers are dispatched to the closed treatment,
    where the constraint is flat or jumps.
    """
    if problem.sampler.mode == PERFECT_INFO:
        return perfect_info_solution(z_bar, problem)
    cfg, delta = problem.cfg, problem.delta
    _require_zbar(z_bar, cfg)

    def np_at(g: float) -> float:
        return non_eradication_probability(g, z_bar, problem)

    if np_at(0.0) <= delta:
        p0 = float(np.mean(_p_vec(0.0, problem.sampler.gamma_draws(cfg), z_bar, cfg)))
        return LeaderSolution(0.0, 0.0, z_bar, binding=False, p_expectation=p0,
                              np_at_g=np_at(0.0), mode=problem.sampler.mode)

    lo = g_floor(cfg)
    step = max(cfg.c_i, 1.0)
    hi = lo + step
    for _ in range(60):
        if np_at(hi) < delta:
            break
        step *= 2.0
        hi = lo + step
    else:
        raise BracketingError(
            f"N_P stayed above delta={delta} up to g={hi:.3g}")

    if z_bar == cfg.m:
        g_star = bisect_decreasing(np_at, delta, lo, hi, atol=1e-12,
                                   rtol=1e-12)
    else:
        g_star = brentq(lambda g: np_at(g) - delta, lo, hi, xtol=1e-12,
                        rtol=1e-12)
    ps = _p_vec(g_star, problem.sampler.gamma_draws(cfg), z_bar, cfg)
    p_exp = float(np.mean(ps))
    return LeaderSolution(g_star, cfg.m * g_star * p_exp, z_bar, binding=True,
                          p_expectation=p_exp, np_at_g=np_at(g_star),
                          mode=problem.sampler.mode)


def p_star(k: int, m: int, delta: float) -> float:
    """Unique root of F_m(k-1; p) = delta; increasing in k.

    At k = m the root (1 - delta)^(1/m) tends to one as delta shrinks,
    matching the all-or-nothing character of that regime.
    """
    if not 1 <= k <= m:
        raise ValueError("k must lie in 1..m")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    if k == m:
        return (1.0 - delta) ** (1.0 / m)
    return _mixed_root(delta, m, k - 1)


def perfect_info_solution(z_bar: int, problem: LeaderProblem,
                          eps: float = 1e-6) -> LeaderSolution:
    """Optimal incentive when the side-effect cost is known from day one.

    For z_bar < m the target probability p* solves F_M(z_bar-1; p) = delta
    and g* = C_v + Gamma - C_i F_{M-1}(z_bar-1; p*). For z_bar = m only an
    eps-optimizer exists: g = C_v + Gamma - C_i + eps, whose cost exceeds
    the infimum M (C_v + Gamma - C_i) by M*eps.
    """
    cfg, delta = problem.cfg, problem.delta
    _require_zbar(z_bar, cfg)
    gam = problem.sampler.c_infinity(cfg)
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
    g = g_inf + eps
    return LeaderSolution(g, cfg.m * g, z_bar, binding=True, p_expectation=1.0,
                          np_at_g=0.0, mode=PERFECT_INFO, epsilon=eps,
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
    sides and raises.
    """
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
                                     disease: DiseaseParams, m: int,
                                     max_halvings: int = 200) -> JointDesign:
    """Supply policy pushing the eradicating vaccinated fraction within
    eps of its lower bound while keeping the threshold at k_star.

    Starts from nu_b just below b*rho*theta_star and nu_e just above the
    admissibility line, then halves both margins until psi_e lands in
    (theta_star, theta_star + eps] and the threshold matches.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    theta_star = disease.theta_star
    ceiling = disease.b * disease.rho * theta_star
    # strictly inside (ceiling - eps, ceiling) from the first iterate
    e1 = min(eps, ceiling) / 2
    e2 = e1
    history = []
    for _ in range(max_halvings):
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
    otherwise.
    """
    lhs = costs.c_v1 - costs.c_f(m - 1)
    rhs = -costs.c_v2_bar / m
    if costs.c_v2_bar > costs.c_v2 / disease.theta_star:
        return lhs > rhs
    return lhs >= rhs


def construct_incentive_optimal_nu(costs: PublicCostModel,
                                   disease: DiseaseParams, m: int,
                                   margin: float = 1e-3) -> VaRatePolicy:
    """Admissible supply policy whose eradication threshold sits at M.

    Tries the near-minimal policy first (smallest vaccinated fraction);
    if that fails to pin the threshold, raises the basic rate until the
    endemic limit stays attractive at M-1 vaccinated influencers. Among
    validated candidates the one with the smaller vaccinated fraction is
    returned.
    """
    if not incentive_optimal_exists(costs, disease, m):
        raise JointDesignError("no incentive-optimal policy for this model")
    theta_star = disease.theta_star
    ceiling = disease.b * disease.rho * theta_star
    candidates = []

    e = margin
    for _ in range(60):
        nu = VaRatePolicy(ceiling - e / 2, e / (2 * theta_star) + e / 2)
        if eradication_threshold(nu, costs, disease, m) == m:
            candidates.append(nu)
            break
        e *= 0.5

    denom = costs.c_v1 + costs.c_v2_bar / m - costs.c_f(m - 1)
    if denom > 0:
        if denom - costs.c_i > 0:
            nu_b = ceiling * (1.0 + margin)
        else:
            lam_t = disease.lam * theta_star
            nu_b = (lam_t * costs.c_i / denom - lam_t) * (1.0 + margin) + margin
        gap = disease.b * disease.rho - nu_b / theta_star
        nu = VaRatePolicy(nu_b, max(gap, 0.0) + margin)
        if eradication_threshold(nu, costs, disease, m) == m:
            candidates.append(nu)

    if not candidates:
        raise JointDesignError(
            "condition holds but no constructed policy pinned the threshold "
            "at M; the model sits on the existence boundary")
    return min(candidates, key=lambda nu: psi_eradicating(nu, disease.b))
