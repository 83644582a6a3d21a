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
"""
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import vaxgame as vg
from vaxgame.leader import JointDesignError, l_values
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


def off_the_knife_edge(costs: vg.PublicCostModel, dis: vg.DiseaseParams,
                       m: int) -> bool:
    """Whether every count k keeps c_v1 - c_f(k) more than 1e-9 from L_k,
    the table whose crossing defines k*. At an exact tie the design misses
    k* (test_a_tie_of_the_crossing_is_designed_for, which fails today)."""
    return all(abs(costs.c_v1 - costs.c_f(k) - bound) > 1e-9
               for k, bound in enumerate(l_values(costs, dis, m)))


@settings(max_examples=200, deadline=None)
@given(data=st.data(), m=st.integers(2, 59), dis=endemic_disease(),
       eps=st.floats(1e-6, 0.1))
def test_minimal_vaccinated_fraction_depends_only_on_the_disease(
        data, m, dis, eps):
    """Claim 2: whatever the costs, the eps vaccine-optimal design at the
    vaccine-optimal count k* keeps the eradication threshold at k* and puts
    the eradicating vaccinated fraction psi_e in (theta*, theta* + eps],
    theta* = 1 - 1/rho a function of the disease alone. vaccine_optimal_k
    raises unless the crossing that defines k* is unique. Costs whose
    crossing ties exactly (a set of measure zero, which hypothesis's simple
    decimals hit) are left out here and pinned by the test below (FOUND
    in CHANGES.md)."""
    costs = data.draw(sufficient_costs(m))
    assume(off_the_knife_edge(costs, dis, m))
    k = vg.vaccine_optimal_k(costs, dis, m)
    design = vg.construct_eps_vaccine_optimal_nu(k, eps, costs, dis, m)
    assert design.k_star == k
    assert dis.theta_star < design.psi_e_achieved <= dis.theta_star + eps
    assert vg.psi_eradicating(design.nu_eps, dis.b) == design.psi_e_achieved
    assert vg.eradication_threshold(design.nu_eps, costs, dis, m) == k


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="vaccine_optimal_k breaks an exact tie by rounding")
def test_a_tie_of_the_crossing_is_designed_for():
    """c_v1 - c_f(19) = 0.9 - 0.95 is L_19 = -0.05 exactly, and with
    c_v2_bar = 1 below c_v2/theta* = 2 a tie is no crossing, so k* is 20,
    the threshold every near-minimal policy has. In floats 0.9 - 0.05 * 19
    is -0.050000000000000044, so vaccine_optimal_k answers 19, which no
    design reaches: construct_eps_vaccine_optimal_nu halves its margins
    until they no longer keep the policy admissible in floats (43 times)
    and raises JointDesignError."""
    costs = vg.PublicCostModel(c_v1=0.9, c_v2=1.0, c_v2_bar=1.0, c_i=1.0,
                               s=0.05)
    dis = vg.DiseaseParams(lam=4.0, r=1.0, b=1.0)
    assert vg.vaccine_optimal_k(costs, dis, 20) == 20
    design = vg.construct_eps_vaccine_optimal_nu(20, 0.0625, costs, dis, 20)
    assert vg.eradication_threshold(design.nu_eps, costs, dis, 20) == 20


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
    assert [vg.eradication_probability(z, nu, costs, dis, m)
            for z in range(m + 1)] == [0] * k + [1] * (m + 1 - k)


@st.composite
def incentive_optimal_instance(draw):
    """(M, disease, costs) from the ranges above on which
    incentive_optimal_exists: c_f(M-1) - c_v2_bar/M < c_v1 < c_f(M). About
    7 % of sufficient_costs' draws are such, too few to filter for, so s
    is drawn below the slope that leaves that band room under c_v1's top of
    3, and c_v1 is drawn inside the band."""
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
           and vg.incentive_optimal_exists(costs, dis, m))
    return m, dis, costs


@settings(max_examples=200, deadline=None)
@given(instance=incentive_optimal_instance())
# near fig 5 (its disease with r = 1, c_i = 10): the near-minimal policies
# keep the threshold below M, so only the raised basic rate pins it there
@example(instance=(40, vg.DiseaseParams(lam=15.0, r=1.0, b=2.0, d=0.5),
                   vg.PublicCostModel(c_v1=0.2, c_v2=0.05, c_v2_bar=100.0,
                                      c_i=10.0, s=0.05)))
def test_an_existing_incentive_optimal_design_is_built(instance):
    """Wherever incentive_optimal_exists, construct_incentive_optimal_nu
    returns an admissible supply policy whose eradication threshold is M.
    The one exception is c_v1 within about lam theta* C_i / MAX_RATE of
    the band's lower end, where keeping the endemic limit attractive at
    M-1 takes a basic rate past MAX_RATE, if the near-minimal policies do
    not pin M: there it raises JointDesignError, and no other error."""
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
