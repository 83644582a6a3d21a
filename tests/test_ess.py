import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import vaxgame as vg
from vaxgame.ess import Admissibility
from vaxgame.params import InsufficientInfluenceError

M = 40


def fig5_disease():
    return vg.DiseaseParams(lam=15.0, r=2.0, b=2.0, d=0.5)


def fig5_costs(s):
    return vg.PublicCostModel(c_v1=0.2, c_v2=0.05, c_v2_bar=100.0, c_i=0.5, s=s)


ADMISSIBLE_NU = vg.VaRatePolicy(5.0, 0.7)


class TestHValues:
    def test_full_vaccination_drops_side_effect_term(self):
        dis = fig5_disease()
        costs = fig5_costs(0.2)
        _, h_v, _ = vg.h_values(M, ADMISSIBLE_NU, costs, dis, M)
        assert h_v == pytest.approx(costs.c_v1 - costs.c_f(M), rel=1e-14)

    def test_no_supply_keeps_every_gap_finite(self):
        # nu = 0 puts psi_e and psi_o at 0: the eradicating limit's infection
        # term, 0/0 there by its formula, is 0 at theta = 0, and the
        # co-occurring limit is the non-vaccinating one
        dis, costs = fig5_disease(), fig5_costs(0.2)
        h_i, h_v, h_v_o = vg.h_values(10, vg.VaRatePolicy(0.0, 0.0), costs,
                                      dis, M)
        assert h_v == costs.c_v1 + 0.75 * costs.c_v2_bar - costs.c_f(10)
        assert h_v_o == h_i == pytest.approx(h_v - costs.c_i, rel=1e-14)

    def test_no_influencers_keeps_eradication_unattractive(self):
        dis = fig5_disease()
        for s in (0.05, 0.2, 1.0):
            _, h_v, _ = vg.h_values(0, ADMISSIBLE_NU, fig5_costs(s), dis, M)
            assert h_v > 0.0

    def test_hand_evaluated_endemic_gap(self):
        # c_v1 + (1 - z/M) cbar - lam theta* c_i / (lam theta* + nu_b) - c_f(z)
        dis = fig5_disease()
        costs = vg.PublicCostModel(c_v1=0.2, c_v2=0.05, c_v2_bar=100.0,
                                   c_i=0.5, s=0.1)
        theta_star = 1.0 - 1.0 / 3.75
        want = 0.2 + 0.75 * 100.0 - (15.0 * theta_star * 0.5) / (15.0 * theta_star + 5.0) - 1.0
        h_i, _, _ = vg.h_values(10, vg.VaRatePolicy(5.0, 0.7), costs, dis, M)
        assert h_i == pytest.approx(want, rel=1e-14)
        assert h_i == pytest.approx(73.85625, rel=1e-12)

    def test_co_occurring_gap_needs_existing_limit(self):
        dis = fig5_disease()
        nu = vg.VaRatePolicy(1.0, dis.b * dis.rho + 1.0)
        with pytest.raises(ValueError):
            vg.h_values(5, nu, fig5_costs(0.1), dis, M)

    def test_subcritical_rejected(self):
        dis = vg.DiseaseParams(lam=1.0, r=2.0, b=2.0, d=0.5)
        with pytest.raises(ValueError):
            vg.h_values(5, ADMISSIBLE_NU, fig5_costs(0.1), dis, M)


class TestAdmissibility:
    def test_large_basic_rate_needs_no_extra(self):
        dis = fig5_disease()
        # b rho theta* = 5.5
        assert vg.is_admissible(vg.VaRatePolicy(5.6, 0.0), dis)

    def test_boundary_is_strict(self):
        dis = fig5_disease()
        status = vg.is_admissible(vg.VaRatePolicy(0.0, dis.b * dis.rho), dis)
        assert status is Admissibility.NOT_ADMISSIBLE

    def test_hand_checked_policy(self):
        dis = fig5_disease()
        # b rho - nu_b/theta* = 7.5 - 5/(11/15) = 0.681818... < 0.70
        assert vg.is_admissible(vg.VaRatePolicy(5.0, 0.70), dis)
        assert not vg.is_admissible(vg.VaRatePolicy(5.0, 0.60), dis)

    def test_subcritical_distinguished(self):
        dis = vg.DiseaseParams(lam=1.0, r=2.0, b=2.0, d=0.5)
        status = vg.is_admissible(vg.VaRatePolicy(1.0, 1.0), dis)
        assert status is Admissibility.NO_INTERVENTION_NEEDED
        assert not status


class TestClassification:
    def test_subcritical_only_self_eradicating(self):
        dis = vg.DiseaseParams(lam=3.0, r=2.0, b=1.5, d=0.1)  # rho = 0.857
        rep = vg.classify_esss(5, vg.VaRatePolicy(1.0, 0.5), fig5_costs(0.1),
                               dis, M)
        assert rep.esss_set == frozenset({"self_eradicating"})
        assert rep.eradication_conditional == 0

    def test_full_vaccination_with_strong_influence_eradicates(self):
        dis = fig5_disease()
        rep = vg.classify_esss(M, ADMISSIBLE_NU, fig5_costs(0.2), dis, M)
        assert "eradicating" in rep.esss_set
        assert rep.h_v == pytest.approx(0.2 - 8.0, rel=1e-12)
        assert rep.eradication_conditional == 1

    def test_multiple_stable_limits_coexist(self):
        # mid z: endemic gap still positive, eradicating gap already negative
        dis = fig5_disease()
        rep = vg.classify_esss(10, ADMISSIBLE_NU, fig5_costs(0.2), dis, M)
        assert {"non_vaccinating", "eradicating"} <= rep.esss_set
        assert rep.eradication_conditional == 0

    def test_none_when_nothing_qualifies(self):
        # nu_e beyond b*rho removes the co-occurring limit; weak influence
        # keeps h_v just nonnegative while infection risk pushes h_i below 0
        dis = fig5_disease()
        nu = vg.VaRatePolicy(0.1, 8.0)
        costs = vg.PublicCostModel(c_v1=0.2, c_v2=100.0, c_v2_bar=100.0,
                                   c_i=5.0, s=0.004)
        rep = vg.classify_esss(M, nu, costs, dis, M)
        assert rep.h_i <= 0.0 < rep.h_v
        assert rep.h_v_o is None
        assert rep.esss_set == frozenset({"none"})

    def test_co_occurring_limit_is_stable_below_the_admissibility_line(self):
        # nu = (1, 0.5) is not admissible (gap -5.6), and b rho - nu_e = 7
        # > 0 gives a co-occurring limit at psi_o = 1/7; from z = 10 its
        # gap is negative, so a public with beta > 7 settles there
        dis, nu = fig5_disease(), vg.VaRatePolicy(1.0, 0.5)
        rep = vg.classify_esss(39, nu, fig5_costs(0.2), dis, M)
        assert rep.admissibility is Admissibility.NOT_ADMISSIBLE
        assert rep.h_v_o < 0.0 and rep.h_v < 0.0 < -rep.h_i
        assert rep.esss_set == frozenset({"co_occurring"})
        assert rep.beta_witness == {"co_occurring": "beta > 1/psi_o = 7"}
        assert rep.eradication_conditional == 0
        # an admissible nu with b rho - nu_e = 0.5 has a co-occurring limit
        # too, with a negative gap, but the eradicating limit is the stable
        # one there
        rep = vg.classify_esss(39, vg.VaRatePolicy(0.5, 7.0),
                               fig5_costs(0.2), dis, M)
        assert rep.h_v_o < 0.0
        assert rep.esss_set == frozenset({"eradicating"})

    @pytest.mark.parametrize("nu_b,self_erad,non_vacc", [
        (0.5, "beta < b/nu_b = 3", "beta < b*rho/nu_b = 15"),
        (0.0, "any beta", "any beta")], ids=["basic-rate", "no-basic-rate"])
    def test_witnesses_bound_beta_by_the_basic_rate(self, nu_b, self_erad,
                                                    non_vacc):
        # below rho = 1 and at the non-vaccinating limit a stable case
        # holds for beta below a bound set by nu_b, or for any beta without
        # basic supply
        nu = vg.VaRatePolicy(nu_b, 7.0)
        sub = vg.DiseaseParams(lam=3.0, r=2.0, b=1.5, d=0.1)
        rep = vg.classify_esss(5, nu, fig5_costs(0.2), sub, M)
        assert rep.beta_witness == {"self_eradicating": self_erad}
        rep = vg.classify_esss(0, nu, fig5_costs(0.2), fig5_disease(), M)
        assert rep.beta_witness == {"non_vaccinating": non_vacc}

    def test_a_gap_on_the_boundary_warns_at_the_caller(self):
        # c_v1 = c_f(M) puts h_v(M) at exactly 0, where strict and
        # non-strict differ: the classification flags it, at its caller
        costs = vg.PublicCostModel(c_v1=8.0, c_v2=0.05, c_v2_bar=100.0,
                                   c_i=0.5, s=0.2)
        with pytest.warns(UserWarning, match=r"^h_v = 0\.000e\+00 sits "
                          "within 1e-12 of the strict/non-strict boundary; "
                          "classification may be fragile$") as record:
            rep = vg.classify_esss(M, ADMISSIBLE_NU, costs, fig5_disease(), M)
        assert rep.h_v == 0.0 and "eradicating" not in rep.esss_set
        assert [w.filename for w in record] == [__file__]

    def test_report_serializes(self):
        dis = fig5_disease()
        rep = vg.classify_esss(3, ADMISSIBLE_NU, fig5_costs(0.1), dis, M)
        d = rep.to_dict()
        assert d["z"] == 3 and isinstance(d["esss_set"], list)


class TestEradicationThreshold:
    def test_dominant_influence_needs_single_influencer(self):
        dis = fig5_disease()
        costs = fig5_costs(100.0)
        assert vg.eradication_threshold(ADMISSIBLE_NU, costs, dis, M) == 1

    def test_threshold_at_maximum_when_only_full_count_works(self):
        dis = fig5_disease()
        table = (0.0,) * M + (0.2 + 1e-6,)
        costs = vg.PublicCostModel(c_v1=0.2, c_v2=0.05, c_v2_bar=100.0,
                                   c_i=0.5, c_f_table=table)
        assert vg.eradication_threshold(ADMISSIBLE_NU, costs, dis, M) == M

    def test_threshold_decreases_with_sensitivity(self):
        dis = fig5_disease()
        zbars = [vg.eradication_threshold(ADMISSIBLE_NU, fig5_costs(s), dis, M)
                 for s in (0.05, 0.1, 0.2, 0.3, 0.5, 1.0, 5.0, 50.0, 120.0)]
        assert zbars[0] == M
        assert zbars[-1] == 1
        assert all(b <= a for a, b in zip(zbars, zbars[1:]))

    def test_insufficient_influence_raises(self):
        dis = fig5_disease()
        costs = vg.PublicCostModel(c_v1=5.0, c_v2=0.05, c_v2_bar=100.0,
                                   c_i=0.5, s=0.1)  # c_f(M) = 4 < c_v1
        with pytest.raises(InsufficientInfluenceError):
            vg.eradication_threshold(ADMISSIBLE_NU, costs, dis, M)

    def test_non_admissible_policy_rejected(self):
        dis = fig5_disease()
        with pytest.raises(ValueError):
            vg.eradication_threshold(vg.VaRatePolicy(1.0, 0.0),
                                     fig5_costs(0.2), dis, M)
        # both gaps are negative at z = M, yet no count eradicates under a
        # policy that is not admissible
        nu = vg.VaRatePolicy(1.0, 0.0)
        h_i, h_v, _ = vg.h_values(M, nu, fig5_costs(0.2), dis, M)
        assert h_i < 0.0 and h_v < 0.0
        assert vg.eradication_probability(M, nu, fig5_costs(0.2), dis, M) == 0

    def test_threshold_characterizes_certain_eradication(self):
        dis = fig5_disease()
        for s in (0.05, 0.1, 0.2, 0.35, 0.5):
            costs = fig5_costs(s)
            zbar = vg.eradication_threshold(ADMISSIBLE_NU, costs, dis, M)
            for z in range(M + 1):
                want = 1 if z >= zbar else 0
                assert vg.eradication_probability(z, ADMISSIBLE_NU, costs,
                                                  dis, M) == want

    def test_gaps_at_full_count_are_ordered_negative(self):
        dis = fig5_disease()
        for s in (0.05, 0.2, 1.0):
            h_i, h_v, _ = vg.h_values(M, ADMISSIBLE_NU, fig5_costs(s), dis, M)
            assert h_i < h_v < 0.0


def test_gaps_strictly_decreasing_for_increasing_insecurity():
    dis = fig5_disease()
    costs = fig5_costs(0.25)
    his, hvs = [], []
    for z in range(M + 1):
        h_i, h_v, _ = vg.h_values(z, ADMISSIBLE_NU, costs, dis, M)
        his.append(h_i)
        hvs.append(h_v)
    assert np.all(np.diff(his) < 0)
    assert np.all(np.diff(hvs) < 0)


@settings(max_examples=60, deadline=None)
@given(s=st.floats(0.02, 30.0), nu_b=st.floats(0.0, 10.0),
       extra=st.floats(0.001, 5.0))
def test_threshold_minimality_property(s, nu_b, extra):
    dis = fig5_disease()
    nu = vg.VaRatePolicy(nu_b, max(dis.b * dis.rho - nu_b / dis.theta_star, 0.0)
                         + extra)
    costs = fig5_costs(s)
    if not costs.influence_sufficient(M):
        return
    zbar = vg.eradication_threshold(nu, costs, dis, M)
    rep = vg.classify_esss(zbar, nu, costs, dis, M)
    assert rep.h_v < 0.0 and rep.h_i <= 0.0
    if zbar > 0:
        rep = vg.classify_esss(zbar - 1, nu, costs, dis, M)
        assert not (rep.h_v < 0.0 and rep.h_i <= 0.0)


@settings(max_examples=60, deadline=None)
@given(s1=st.floats(0.02, 30.0), s2=st.floats(0.02, 30.0),
       nu_b=st.floats(0.0, 10.0), extra=st.floats(0.001, 5.0))
def test_threshold_non_increasing_in_sensitivity(s1, s2, nu_b, extra):
    # a more sensitive public needs no more vaccinated influencers
    lo, hi = sorted((s1, s2))
    dis = fig5_disease()
    nu = vg.VaRatePolicy(nu_b, max(dis.b * dis.rho - nu_b / dis.theta_star, 0.0)
                         + extra)
    assume(fig5_costs(lo).influence_sufficient(M))
    assert (vg.eradication_threshold(nu, fig5_costs(hi), dis, M)
            <= vg.eradication_threshold(nu, fig5_costs(lo), dis, M))


@pytest.mark.parametrize("table", [(), (0.0, math.nan, 1.0),
                                   (0.0, 1.0, math.inf),
                                   # c_f(0) is 0, and a table or s is given
                                   (1.0, 2.0), None])
def test_cf_table_must_be_non_empty_and_finite(table):
    with pytest.raises(ValueError, match="c_f_table"):
        vg.PublicCostModel(c_v1=0.2, c_v2=0.05, c_v2_bar=100.0, c_i=0.5,
                           c_f_table=table)


@pytest.mark.parametrize("costs,z,message", [
    (fig5_costs(0.1), -1, "z must be nonnegative"),
    (vg.PublicCostModel(c_v1=0.2, c_v2=0.05, c_v2_bar=100.0, c_i=0.5,
                        c_f_table=(0.0, 1.0)), 2,
     "c_f table has no entry for z=2")], ids=["negative", "past_table"])
def test_c_f_refuses_counts_outside_its_range(costs, z, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        costs.c_f(z)


def test_co_occurring_limit_without_basic_supply_is_not_stable():
    # nu_b = 0 puts the co-occurring limit at psi_o = 0, where no crowd
    # sensitivity gives beta psi_o > 1; it used to divide by psi_o there
    dis, nu = fig5_disease(), vg.VaRatePolicy(0.0, 0.7)
    rep = vg.classify_esss(39, nu, fig5_costs(0.1), dis, M)
    assert rep.h_v_o < 0.0
    assert "co_occurring" not in rep.esss_set
