"""The paper's claims 2 and 3 as properties over the parameter space.

Claim 1 (incentive schemes are optimal at z_bar = M or 1) is
test_leader.py's test_extremes_minimize_cost_under_perfect_information.
Both properties here draw their instances from the same ranges:

- M, the number of influencers, in 2..59;
- the disease: r and b in [0.1, 5], d below b, and lam = rho (r + b)
  for rho in [1.05, 6], so the disease is endemic unaided (rho > 1);
- linear insecurity costs c_f(z) = s z with c_v1 in [0.05, 3], c_v2 in
  [0.01, 5], c_v2_bar in [1, 50], c_i in [0.1, 10] and s in [0.05, 3],
  such that influence suffices: c_v1 - c_f(M) < 0. An instance without it
  is outside the paper's assumption and is not drawn.

The incentive-optimal design is checked over the same ranges, on the
instances where it exists.

The middle layer's answer, SpecialStrategy, is checked on small games
under the paper's assumptions: M symmetric influencers decide at t =
1..T-1 whether to vaccinate, at cost C_v >= 0 less an incentive g_z >= 0
paid while fewer than z_bar of them are vaccinated, plus the side-effect
cost Gamma_t(c) that the running average c of i.i.d. nonnegative daily
data xi (of positive mean) predicts; an influencer still unvaccinated at
T pays C_i > 0 when fewer than z_bar are vaccinated. Where the leader
prices the incentive (the game and leader layers' agreement), the law of
xi is a point, so the final estimate Gamma_{T-1} is known.
"""
import math

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import vaxgame as vg
from vaxgame.game import EAGER, WAIT_AND_WATCH, p_from_gamma
from vaxgame.leader import JointDesignError, c_infinity, l_values
from vaxgame.params import MAX_RATE


@st.composite
def endemic_disease(draw) -> vg.DiseaseParams:
    r, b = draw(st.floats(0.1, 5.0)), draw(st.floats(0.1, 5.0))
    rho = draw(st.floats(1.05, 6.0))
    return vg.DiseaseParams(lam=rho * (r + b), r=r, b=b,
                            d=b * draw(st.floats(0.0, 0.9)))


@st.composite
def sufficient_costs(draw, m: int) -> vg.PublicCostModel:
    costs = vg.PublicCostModel(
        c_v1=draw(st.floats(0.05, 3.0)), c_v2=draw(st.floats(0.01, 5.0)),
        c_v2_bar=draw(st.floats(1.0, 50.0)), c_i=draw(st.floats(0.1, 10.0)),
        s=draw(st.floats(0.05, 3.0)))
    assume(costs.influence_sufficient(m))
    return costs


@settings(max_examples=200, deadline=None)
@given(data=st.data(), m=st.integers(2, 59), dis=endemic_disease(),
       eps=st.floats(1e-6, 0.1))
def test_minimal_vaccinated_fraction_depends_only_on_the_disease(
        data, m, dis, eps):
    """Claim 2: whatever the costs, the eps vaccine-optimal design at the
    vaccine-optimal count k* keeps the eradication threshold at k* and puts
    the eradicating vaccinated fraction psi_e in (theta*, theta* + eps],
    theta* = 1 - 1/rho a function of the disease alone. Costs whose
    crossing ties exactly, which hypothesis's simple decimals hit, are
    drawn too; test_an_exact_tie_is_designed_for draws only such."""
    costs = data.draw(sufficient_costs(m))
    k = vg.vaccine_optimal_k(costs, dis, m)
    design = vg.construct_eps_vaccine_optimal_nu(k, eps, costs, dis, m)
    assert design.k_star == k
    assert dis.theta_star < design.psi_e_achieved <= dis.theta_star + eps
    assert vg.psi_eradicating(design.nu_eps, dis.b) == design.psi_e_achieved
    assert vg.eradication_threshold(design.nu_eps, costs, dis, m) == k


def test_a_tie_of_the_crossing_is_designed_for():
    """c_v1 - c_f(19) = 0.9 - 0.95 is L_19 = -0.05 exactly, and every
    near-minimal policy has threshold 20. In floats 0.9 - 0.05 * 19 is
    -0.050000000000000044, which a bare comparison once read as a crossing
    at 19, a count no design reaches. The gap is inside the rounding band,
    so the near-minimal policies decide: k* is 20."""
    costs = vg.PublicCostModel(c_v1=0.9, c_v2=1.0, c_v2_bar=1.0, c_i=1.0,
                               s=0.05)
    dis = vg.DiseaseParams(lam=4.0, r=1.0, b=1.0)
    assert vg.vaccine_optimal_k(costs, dis, 20) == 20
    design = vg.construct_eps_vaccine_optimal_nu(20, 0.0625, costs, dis, 20)
    assert vg.eradication_threshold(design.nu_eps, costs, dis, 20) == 20


@st.composite
def exact_tie(draw):
    """(M, disease, costs) from the ranges above, with c_v1 solved in floats
    so that a comparison of the joint design ties: c_v1 = L_k + c_f(k) at
    a random k in 1..M (the crossing that defines k*), or, in a quarter of
    the draws, c_v1 = c_f(M-1) - c_v2_bar/M (the incentive-optimal
    design's). c_v1 must come out nonnegative, and influence must
    suffice."""
    m, dis = draw(st.integers(2, 59)), draw(endemic_disease())
    kw = dict(c_v2=draw(st.floats(0.01, 5.0)),
              c_v2_bar=draw(st.floats(1.0, 50.0)),
              c_i=draw(st.floats(0.1, 10.0)), s=draw(st.floats(0.05, 3.0)))
    base = vg.PublicCostModel(c_v1=0.0, **kw)
    k = draw(st.integers(1, m))
    c_v1 = (base.c_f(m - 1) - base.c_v2_bar / m
            if draw(st.integers(0, 3)) == 0
            else l_values(base, dis, m)[k] + base.c_f(k))
    assume(c_v1 >= 0.0)
    costs = vg.PublicCostModel(c_v1=c_v1, **kw)
    assume(costs.influence_sufficient(m))
    return m, dis, costs


@settings(max_examples=150, deadline=None)
@given(instance=exact_tie(), eps=st.floats(1e-6, 0.1))
def test_an_exact_tie_is_designed_for(instance, eps):
    """At an exact tie the joint design's comparisons are inside their
    rounding band, and the constructions decide: wherever
    vaccine_optimal_k returns k, the eps vaccine-optimal design at k keeps
    the eradication threshold at k, and where
    construct_incentive_optimal_nu returns a policy, its threshold is M."""
    m, dis, costs = instance
    k = vg.vaccine_optimal_k(costs, dis, m)
    design = vg.construct_eps_vaccine_optimal_nu(k, eps, costs, dis, m)
    assert vg.eradication_threshold(design.nu_eps, costs, dis, m) == k
    try:
        nu = vg.construct_incentive_optimal_nu(costs, dis, m)
    except JointDesignError:
        nu = None
    if nu is not None:
        assert vg.eradication_threshold(nu, costs, dis, m) == m


@settings(max_examples=200, deadline=None)
@given(data=st.data(), m=st.integers(2, 59), dis=endemic_disease(),
       nu_b=st.floats(0.0, 10.0), excess=st.floats(1e-6, 5.0))
def test_a_sensitive_public_can_always_eradicate(data, m, dis, nu_b, excess):
    """Claim 3: with rho > 1, an admissible supply policy (nu_e >= 0 and
    nu_e > b rho - nu_b / theta*: here nu_e exceeds the larger of 0 and
    that line by excess) and influence_sufficient(M), eradication_threshold
    returns a count k in 0..M, and eradication is certain (probability 1)
    given Z = z exactly when z >= k."""
    costs = data.draw(sufficient_costs(m))
    line = dis.b * dis.rho - nu_b / dis.theta_star
    nu = vg.VaRatePolicy(nu_b, max(line, 0.0) + excess)
    assert vg.is_admissible(nu, dis)
    k = vg.eradication_threshold(nu, costs, dis, m)
    assert 0 <= k <= m
    assert [vg.classify_esss(z, nu, costs, dis, m).eradication_conditional
            for z in range(m + 1)] == [0] * k + [1] * (m + 1 - k)


@st.composite
def incentive_optimal_instance(draw):
    """(M, disease, costs) from the ranges above with c_v1 inside the band
    c_f(M-1) - c_v2_bar/M < c_v1 < c_f(M) of the incentive-optimal design.
    About 7 % of sufficient_costs' draws lie in it, too few to filter for,
    so s is drawn below the slope that leaves that band room under c_v1's
    top of 3, and c_v1 is drawn inside the band."""
    m, dis = draw(st.integers(2, 59)), draw(endemic_disease())
    c_v2_bar = draw(st.floats(1.0, 50.0))
    s = draw(st.floats(0.05, min(3.0, (3.0 + c_v2_bar / m) / (m - 1))))
    lo, hi = max(0.05, s * (m - 1) - c_v2_bar / m), min(3.0, s * m)
    costs = vg.PublicCostModel(
        c_v1=lo + (hi - lo) * draw(st.floats(0.0, 1.0, exclude_min=True,
                                             exclude_max=True)),
        c_v2=draw(st.floats(0.01, 5.0)), c_v2_bar=c_v2_bar,
        c_i=draw(st.floats(0.1, 10.0)), s=s)
    # rounding can put c_v1 on either side of the band's ends
    assume(costs.influence_sufficient(m)
           and costs.c_f(m - 1) - costs.c_v2_bar / m < costs.c_v1)
    return m, dis, costs


@settings(max_examples=200, deadline=None)
@given(instance=incentive_optimal_instance())
# near fig 5 (its disease with r = 1, c_i = 10): the near-minimal policies
# keep the threshold below M, so only the raised basic rate pins it there
@example(instance=(40, vg.DiseaseParams(lam=15.0, r=1.0, b=2.0, d=0.5),
                   vg.PublicCostModel(c_v1=0.2, c_v2=0.05, c_v2_bar=100.0,
                                      c_i=10.0, s=0.05)))
def test_an_existing_incentive_optimal_design_is_built(instance):
    """Wherever construct_incentive_optimal_nu returns, its supply policy is
    admissible and its eradication threshold is M. Inside the band it
    returns but within about lam theta* C_i / MAX_RATE of the band's lower
    end, where keeping the endemic limit attractive at M-1 takes a basic
    rate past MAX_RATE, if the near-minimal policies do not pin M."""
    m, dis, costs = instance
    try:
        nu = vg.construct_incentive_optimal_nu(costs, dis, m)
    except JointDesignError:
        excess = costs.c_v1 + costs.c_v2_bar / m - costs.c_f(m - 1)
        rate = dis.lam * dis.theta_star * costs.c_i / max(excess, 1e-300)
        assert rate > 0.99 * MAX_RATE
        return
    assert vg.is_admissible(nu, dis)
    assert vg.eradication_threshold(nu, costs, dis, m) == m


@st.composite
def small_game(draw) -> vg.InfluencerGameConfig:
    """A game the exact oracle can check: m in 1..6, T in 2..5, a law of
    1-3 support points in [0, 10] (positive mean), C_v in [0, 5], C_i in
    [0.1, 10], c_se_1 in [0, 10], z_bar in 1..m, and incentives in [0, 5],
    either one g0 for every count below z_bar or a list g_0..g_{z_bar-1}."""
    m, k = draw(st.integers(1, 6)), draw(st.integers(1, 3))
    values = draw(st.lists(st.floats(0.0, 10.0), min_size=k, max_size=k,
                           unique=True))
    weights = draw(st.lists(st.floats(0.1, 1.0), min_size=k, max_size=k))
    probs = [w / sum(weights) for w in weights]
    assume(sum(v * q for v, q in zip(values, probs)) > 0.0)
    z_bar = draw(st.integers(1, m))
    pay = st.floats(0.0, 5.0)
    if draw(st.booleans()):
        incentives = dict(incentives=draw(st.lists(pay, min_size=z_bar,
                                                   max_size=z_bar)))
    else:
        incentives = dict(g0=draw(pay))
    return vg.InfluencerGameConfig(
        m=m, t_horizon=draw(st.integers(2, 5)), c_v=draw(st.floats(0.0, 5.0)),
        c_i=draw(st.floats(0.1, 10.0)), c_se_1=draw(st.floats(0.0, 10.0)),
        xi=vg.XiModel(1.0, values=values, probs=probs), z_bar=z_bar,
        **incentives)


@settings(max_examples=100, deadline=None)
@given(cfg=small_game(), selector=st.sampled_from([WAIT_AND_WATCH, EAGER]))
def test_the_special_strategy_is_a_symmetric_equilibrium(cfg, selector):
    """Wait-and-watch and eager are symmetric Nash equilibria: at every
    reachable state no one-shot deviation gains more than 1e-9, by the
    exact dynamic programme over the law's support; and a vaccinated
    influencer's expected cost is Gamma_t(c) there."""
    check = vg.verify_symmetric_ne(
        vg.SpecialStrategy(cfg, selector).decision, cfg)
    assert check.passed, check
    assert check.vaccinated_value_error < 1e-9


def _point_game(m, c_v, c_i, xi, z_bar):
    return vg.InfluencerGameConfig(
        m=m, t_horizon=2, c_v=c_v, c_i=c_i, c_se_1=0.0,
        xi=vg.XiModel(1.0, values=(xi,), probs=(1.0,)), z_bar=z_bar)


@settings(max_examples=300, deadline=None)
@given(cfg=small_game(), c=st.floats(0.0, 10.0))
# z_bar = M: C_v + Gamma = 1 + 0.1 rounds to C_i = 1.1, a tie that the
# stage set broke toward waiting, while Gamma = 0.1 lies below g - C_v +
# C_i = 0.10000000000000009, so p_from_gamma vaccinates
@example(cfg=_point_game(1, 1.0, 1.1, 0.1, 1), c=0.1)
# z_bar < M: (C_v + Gamma - g)/C_i = 5e-324/10 underflows to 0, which the
# stage set once refused as no interior mix and p_from_gamma reads as 1
@example(cfg=_point_game(2, 5e-324, 10.0, 5e-324, 1), c=0.0)
def test_the_last_decision_is_the_leaders_closed_form(cfg, c):
    """At T-1 with nobody vaccinated, wait-and-watch vaccinates with
    p_from_gamma(g_0, Gamma_{T-1}(c)), the closed form the leader prices
    the incentive with, to the bit."""
    T = cfg.t_horizon
    assert (vg.SpecialStrategy(cfg).decision(T - 1, 0, c)
            == p_from_gamma(cfg.g(0), vg.gamma(T - 1, c, cfg), cfg))


# Sampled influencers per example of the coverage property.
_COVERAGE_DRAWS = 20_000


@settings(max_examples=100, deadline=None)
@given(m=st.integers(1, 40), t=st.integers(2, 20), c_v=st.floats(0.0, 5.0),
       c_i=st.floats(0.1, 10.0), c_se_1=st.floats(0.0, 10.0),
       xi=st.floats(0.01, 10.0), data=st.data(), u=st.floats(-0.2, 1.2),
       seed=st.integers(0, 2**32 - 1))
def test_sampled_coverage_is_the_leaders_closed_form(m, t, c_v, c_i, c_se_1,
                                                     xi, data, u, seed):
    """Under a point law the wait-and-watch outcome sample_z_t draws clears
    z_bar at the rate 1 - N_P(g) of the leader's closed form.

    z_bar is m in half the examples, the all-or-nothing case, and the
    incentive is g = C_v + Gamma - u C_i, so that u in (0, 1) mixes and
    the clamps lie at u = 0 and 1. u stays 1e-6 from them, a margin of at
    least 1e-7 in g: the draws and c_infinity round Gamma apart by a few
    ulps, which at an edge can flip p. The draws share one p, so the
    coverage is a binomial mean of n = _COVERAGE_DRAWS trials: by
    Bernstein's inequality it lies within sqrt(2 q (1-q) L / n) + 2 L /
    (3 n) of its mean with probability 1 - 2 exp(-L), L = ln(2e9). That
    mean is q = 1 - N_P(g) but for p_from_gamma_vec's interpolated table,
    whose p moves F_m(z_bar-1; p) by at most 1.2e-5 for m <= 40 (measured
    across the table's cells; the worst lies in the first, at p < 2.5e-4),
    so 2e-5 is added.
    """
    z_bar = m if data.draw(st.booleans()) else data.draw(st.integers(1, m))
    assume(min(abs(u), abs(u - 1.0)) > 1e-6)
    cfg = vg.InfluencerGameConfig(m=m, t_horizon=t, c_v=c_v, c_i=c_i,
                                  c_se_1=c_se_1, xi=vg.XiModel(xi),
                                  z_bar=z_bar)
    g = c_v + c_infinity(cfg) - u * c_i
    problem = vg.LeaderProblem(0.05, cfg, vg.ExpectationSampler())
    q = 1.0 - vg.non_eradication_probability(g, z_bar, problem)
    zs, _ = vg.sample_z_t(g, cfg, seed, _COVERAGE_DRAWS)
    coverage = float(np.mean(zs >= z_bar))
    n, big_l = _COVERAGE_DRAWS, math.log(2e9)
    bound = (math.sqrt(2 * q * (1 - q) * big_l / n) + 2 * big_l / (3 * n)
             + 2e-5)
    assert abs(coverage - q) <= bound, (coverage, q, g)
