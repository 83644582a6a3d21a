import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import vaxgame as vg
from vaxgame.cli import FIG_THETA_COSTS, FIG_THETA_DISEASE, _theta_disease
from vaxgame.epidemic import admissibility_gap
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
        h_v = vg.classify_esss(M, ADMISSIBLE_NU, costs, dis, M).h_v
        assert h_v == pytest.approx(costs.c_v1 - costs.c_f(M), rel=1e-14)

    def test_one_influencer_is_the_smallest_game(self):
        # m = 1 is taken, and its one influencer vaccinated drops the
        # side-effect term as z = m = M does
        dis, costs = fig5_disease(), fig5_costs(0.2)
        h_v = vg.classify_esss(1, ADMISSIBLE_NU, costs, dis, 1).h_v
        assert h_v == pytest.approx(costs.c_v1 - costs.c_f(1), rel=1e-14)

    def test_no_supply_keeps_every_gap_finite(self):
        # nu = 0 puts psi_e and psi_o at 0: the eradicating limit's infection
        # term, 0/0 there by its formula, is 0 at theta = 0, and the
        # co-occurring limit is the non-vaccinating one
        dis, costs = fig5_disease(), fig5_costs(0.2)
        rep = vg.classify_esss(10, vg.VaRatePolicy(0.0, 0.0), costs, dis, M)
        assert rep.h_v == costs.c_v1 + 0.75 * costs.c_v2_bar - costs.c_f(10)
        assert rep.h_v_o == rep.h_i == pytest.approx(rep.h_v - costs.c_i,
                                                     rel=1e-14)

    def test_no_influencers_keeps_eradication_unattractive(self):
        dis = fig5_disease()
        for s in (0.05, 0.2, 1.0):
            rep = vg.classify_esss(0, ADMISSIBLE_NU, fig5_costs(s), dis, M)
            assert rep.h_v > 0.0

    def test_hand_evaluated_endemic_gap(self):
        # c_v1 + (1 - z/M) cbar - lam theta* c_i / (lam theta* + nu_b) - c_f(z)
        dis = fig5_disease()
        costs = vg.PublicCostModel(c_v1=0.2, c_v2=0.05, c_v2_bar=100.0,
                                   c_i=0.5, s=0.1)
        theta_star = 1.0 - 1.0 / 3.75
        want = 0.2 + 0.75 * 100.0 - (15.0 * theta_star * 0.5) / (15.0 * theta_star + 5.0) - 1.0
        h_i = vg.classify_esss(10, vg.VaRatePolicy(5.0, 0.7), costs, dis,
                               M).h_i
        assert h_i == pytest.approx(want, rel=1e-14)
        assert h_i == pytest.approx(73.85625, rel=1e-12)

    def test_co_occurring_gap_needs_existing_limit(self):
        # b rho - nu_e <= 0: no co-occurring limit, so no gap there
        dis = fig5_disease()
        nu = vg.VaRatePolicy(1.0, dis.b * dis.rho + 1.0)
        rep = vg.classify_esss(5, nu, fig5_costs(0.1), dis, M)
        assert rep.h_v_o is None
        assert rep.h_i is not None and rep.h_v is not None
        with pytest.raises(ValueError, match="^nu must have nu_e < b\\*rho "
                           "for a co-occurring equilibrium, got nu_e = "
                           f"{nu.nu_e!r}$"):
            vg.psi_co_occurring(nu, dis)

    def test_subcritical_has_no_gaps(self):
        # rho <= 1 has no endemic limit, so none of the three gaps exists
        dis = vg.DiseaseParams(lam=1.0, r=2.0, b=2.0, d=0.5)
        rep = vg.classify_esss(5, ADMISSIBLE_NU, fig5_costs(0.1), dis, M)
        assert (rep.h_i, rep.h_v, rep.h_v_o) == (None, None, None)


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
        # an admissible nu with b rho - nu_e = 0.5 puts psi_o = 1 above
        # theta*, so theta_o < 0: no co-occurring limit, no gap there, and
        # the eradicating limit is the stable one
        rep = vg.classify_esss(39, vg.VaRatePolicy(0.5, 7.0),
                               fig5_costs(0.2), dis, M)
        assert rep.h_v_o is None
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

    def test_a_gap_on_the_boundary_is_fragile(self):
        # c_v1 = c_f(M) puts h_v(M) at exactly 0, where strict and
        # non-strict differ: the report flags it, as it lies within its
        # band, 16 u of its terms' magnitudes: c_v1, the side effect
        # c_v2/psi_e, no infection at theta = 0, and c_f(M)
        costs = vg.PublicCostModel(c_v1=8.0, c_v2=0.05, c_v2_bar=100.0,
                                   c_i=0.5, s=0.2)
        psi_e = vg.psi_eradicating(ADMISSIBLE_NU, fig5_disease().b)
        band = 16 * 2.0 ** -53 * (8.0 + 0.05 / psi_e + 0.0 + 8.0)
        rep = vg.classify_esss(M, ADMISSIBLE_NU, costs, fig5_disease(), M)
        assert rep.fragile == frozenset({"h_v"}) and abs(rep.h_v) <= band
        assert rep.h_v == 0.0 and "eradicating" not in rep.esss_set

    def test_report_serializes(self):
        dis = fig5_disease()
        rep = vg.classify_esss(3, ADMISSIBLE_NU, fig5_costs(0.1), dis, M)
        d = rep.to_dict()
        assert d["z"] == 3 and isinstance(d["esss_set"], list)
        assert d["fragile"] == []


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
        rep = vg.classify_esss(M, nu, fig5_costs(0.2), dis, M)
        assert rep.h_i < 0.0 and rep.h_v < 0.0
        assert rep.eradication_conditional == 0

    def test_threshold_characterizes_certain_eradication(self):
        dis = fig5_disease()
        for s in (0.05, 0.1, 0.2, 0.35, 0.5):
            costs = fig5_costs(s)
            zbar = vg.eradication_threshold(ADMISSIBLE_NU, costs, dis, M)
            for z in range(M + 1):
                want = 1 if z >= zbar else 0
                assert vg.classify_esss(z, ADMISSIBLE_NU, costs, dis,
                                        M).eradication_conditional == want

    def test_gaps_at_full_count_are_ordered_negative(self):
        dis = fig5_disease()
        for s in (0.05, 0.2, 1.0):
            rep = vg.classify_esss(M, ADMISSIBLE_NU, fig5_costs(s), dis, M)
            assert rep.h_i < rep.h_v < 0.0


def test_gaps_strictly_decreasing_for_increasing_insecurity():
    dis = fig5_disease()
    costs = fig5_costs(0.25)
    his, hvs = [], []
    for z in range(M + 1):
        rep = vg.classify_esss(z, ADMISSIBLE_NU, costs, dis, M)
        his.append(rep.h_i)
        hvs.append(rep.h_v)
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
     "z must be below the c_f table's length 2, got 2")],
    ids=["negative", "past_table"])
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


def exact_gap(psi, z, costs, m) -> Fraction:
    """The gap at the limit (0, psi) in exact arithmetic on the same floats,
    psi taken as given, for linear c_f: c_v1 + (1 - z/m) side - s z (no
    infection at theta = 0)."""
    q = Fraction
    side = (q(costs.c_v2_bar) if psi <= 0.0
            else min(q(costs.c_v2_bar), q(costs.c_v2) / q(psi)))
    return q(costs.c_v1) + (1 - q(z, m)) * side - q(costs.s) * z


@st.composite
def h_v_tie(draw):
    """(z, M, costs) with h_v(z) = 0 solved in floats, or nudged off it:
    side = c_v2_bar (c_v2 = 10 c_v2_bar), the middle term a random share
    of c_f(z) = s z, c_v1 their difference, times 1 + nudge (nudge 0 or
    +-10^-e, e in 1..16), and every cost then scaled by 10^k, k in
    -14..9. M runs to 10,000, where 1 - z/m is least accurate."""
    m = draw(st.integers(2, 10_000))
    z, s = draw(st.integers(1, m - 1)), draw(st.floats(0.01, 10.0))
    share = draw(st.floats(0.0, 1.0))
    c_v2_bar = share * s * z / (1.0 - z / m)
    c_v1 = s * z - (1.0 - z / m) * c_v2_bar
    assume(c_v1 >= 0.0)
    nudge = draw(st.sampled_from([0.0] + [sign * 10.0 ** -e for e in
                                          range(1, 17) for sign in (1, -1)]))
    scale = 10.0 ** draw(st.integers(-14, 9))
    costs = vg.PublicCostModel(
        c_v1=c_v1 * (1.0 + nudge) * scale, c_v2=10.0 * c_v2_bar * scale,
        c_v2_bar=c_v2_bar * scale, c_i=draw(st.floats(0.1, 10.0)) * scale,
        s=s * scale)
    return z, m, costs


@settings(max_examples=300, deadline=None)
@given(instance=h_v_tie())
# the scale holds side, not (1 - z/m) side: h_v = 4.7e-15 lies within 16 u
# of c_v1 + side + c_f(1) = 2.95, not of c_v1 + side/2 + c_f(1) = 2.0
@example(instance=(1, 2, vg.PublicCostModel(
    c_v1=0.046875000000004684, c_v2=19.0625, c_v2_bar=1.90625, c_i=1.0,
    s=1.0)))
def test_an_uncertain_sign_of_h_v_is_fragile(instance):
    """classify_esss names h_v fragile exactly where _certain_sign gives 0:
    where the gap lies within 16 u (u = 2^-53) of its scale, c_v1 + side
    + c_f(z) here (no infection at theta = 0). The float gap lies within
    half that band of the exact gap on the same floats, so wherever the
    two signs differ it is fragile, and where the exact gap lies beyond
    the band and that bound it is not."""
    z, m, costs = instance
    dis = fig5_disease()
    rep = vg.classify_esss(z, ADMISSIBLE_NU, costs, dis, m)
    fragile = "h_v" in rep.fragile
    exact = exact_gap(vg.psi_eradicating(ADMISSIBLE_NU, dis.b), z, costs, m)
    band = 16 * 2.0 ** -53 * (costs.c_v1 + costs.c_v2_bar + costs.c_f(z))
    assert fragile is (abs(rep.h_v) <= band)
    assert abs(Fraction(rep.h_v) - exact) <= Fraction(band) / 2
    if (rep.h_v > 0) - (rep.h_v < 0) != (exact > 0) - (exact < 0):
        assert fragile
    if abs(exact) > 1.5 * band:
        assert not fragile


def test_a_fragile_gap_above_the_old_band_is_reported():
    # h_v(21) computes to -4.66e-10, so the eradicating limit is stable and
    # eradication certain, while its exact value on the same floats is
    # +1.32e-10. An absolute band of 1e-12 let it pass; the gap's own
    # band, 16 u of its terms' 1.18e7, is 2.1e-8
    dis = vg.DiseaseParams(lam=8.226652580551361, r=1.0,
                           b=3.3875480429607263, d=0.0)
    costs = vg.PublicCostModel(
        c_v1=2656754.3712905096, c_v2=54717471.9606007,
        c_v2_bar=5471747.19606007, c_i=3463131.136746879,
        s=176619.68797409083)
    nu = vg.VaRatePolicy(5.0, 5.0)
    rep = vg.classify_esss(21, nu, costs, dis, 26)
    assert rep.fragile == frozenset({"h_v"})
    assert rep.h_v == pytest.approx(-4.657e-10, rel=1e-3)
    assert rep.h_v < 0.0 < exact_gap(vg.psi_eradicating(nu, dis.b), 21,
                                     costs, 26)
    assert "eradicating" in rep.esss_set and rep.eradication_conditional == 1


def test_tiny_costs_with_certain_signs_are_not_fragile():
    # fig 4's theta* cost set scaled by 1e-14, at theta* = 0.25 and the
    # first near-minimal policy, which is admissible, so no co-occurring
    # limit: every gap h_i and h_v of counts 0..40 lies below 1e-12, and an
    # absolute band of 1e-12 flagged them all, h_i(20) = -3.5e-13 among
    # them; each sign is certain
    costs = vg.PublicCostModel(**{k: v * 1e-14
                                  for k, v in FIG_THETA_COSTS.items()})
    dis = _theta_disease(0.25, **FIG_THETA_DISEASE)
    nu = vg.VaRatePolicy(dis.b * dis.rho * dis.theta_star - 5e-4,
                         5e-4 / dis.theta_star + 5e-4)
    reps = [vg.classify_esss(z, nu, costs, dis, M) for z in range(M + 1)]
    assert all(rep.h_v_o is None and not rep.fragile for rep in reps)
    gaps = [h for rep in reps for h in (rep.h_i, rep.h_v)]
    assert len(gaps) == 82 and max(map(abs, gaps)) < 1e-12
    assert reps[20].h_i == pytest.approx(-3.54e-13, rel=1e-3)


# nu_e is b rho - nu_b / theta* as computed, and nu_b / theta* lies within
# that difference's rounding of b rho: a gap that took the difference first
# was exactly 0, but the exact sign of its float terms is positive
ZERO_GAP = (vg.DiseaseParams(lam=13.132526520732565, r=1.116020913134459,
                             b=0.26365889362278044),
            vg.VaRatePolicy(4.913273969426824e-16, 2.5096456409450174))


def test_no_co_occurring_limit_where_its_theta_is_certainly_negative():
    # at ZERO_GAP, psi_o = 1.24 theta*, and at theta_o = -0.24 theta* lam
    # theta_o + nu(psi_o) is exactly 0. The classification divided by it;
    # now neither layer has the limit, as the policy is admissible
    dis, nu = ZERO_GAP
    psi_o = vg.psi_co_occurring(nu, dis)
    theta_o = dis.theta_star - psi_o
    assert dis.lam * theta_o + nu.rate(psi_o) == 0.0
    q = Fraction
    assert (q(nu.nu_e) - q(dis.b * dis.rho)
            + q(nu.nu_b / dis.theta_star)) > 0
    assert admissibility_gap(nu, dis) > 0.0
    assert theta_o < -0.2 * dis.theta_star
    rep = vg.classify_esss(1, nu, fig5_costs(0.1), dis, 4)
    assert rep.admissibility is Admissibility.ADMISSIBLE
    assert rep.h_v_o is None and rep.esss_set == frozenset({"non_vaccinating"})
    beta = vg.ResponseParams(2.0 / psi_o)
    assert vg.candidate_attractors(dis, nu, beta).co_occurring is None


def test_a_zero_admissibility_gap_is_fragile():
    # the exact sign takes the policy at every count, and the report says
    # that rounding of the gap's terms may have set that sign
    dis, nu = ZERO_GAP
    for z in range(5):
        rep = vg.classify_esss(z, nu, fig5_costs(0.1), dis, 4)
        assert rep.admissibility is Admissibility.ADMISSIBLE
        assert "admissibility" in rep.fragile
        assert rep.to_dict()["fragile"] == sorted(rep.fragile)


@st.composite
def near_line_policy(draw):
    """(disease, nu): rho in 0.5..50, r and b over six decades; nu_b 0 or
    over 19 decades down to 1e-16, where nu_b / theta* can lie within the
    admissibility gap's rounding of b rho; nu_e on the line nu_e = b rho -
    nu_b / theta*, up to 4 ulps either side of it, or anywhere in 0..2 b
    rho."""
    decades = st.floats(-3.0, 3.0).map(lambda e: 10.0 ** e)
    r, b = draw(decades), draw(decades)
    dis = vg.DiseaseParams(lam=draw(st.floats(0.5, 50.0)) * (r + b), r=r, b=b)
    nu_b = draw(st.one_of(st.just(0.0),
                          st.floats(-16.0, 3.0).map(lambda e: 10.0 ** e)))
    if dis.rho > 1.0 and draw(st.booleans()):
        nu_e = dis.b * dis.rho - nu_b / dis.theta_star
        ulps = draw(st.integers(-4, 4))
        for _ in range(abs(ulps)):
            nu_e = math.nextafter(nu_e, math.copysign(math.inf, ulps))
    else:
        nu_e = draw(st.floats(0.0, 2.0)) * dis.b * dis.rho
    assume(0.0 <= nu_e <= 1e6)
    return dis, vg.VaRatePolicy(nu_b, nu_e)


@settings(max_examples=400, deadline=None)
@given(case=near_line_policy(), z=st.integers(0, 4),
       beta=st.floats(0.0, 1e3))
# an admissible policy where lam theta_o + nu(psi_o) = -5 + 5, which raised
@example(case=(vg.DiseaseParams(lam=7.0, r=1.0, b=1.0),
               vg.VaRatePolicy(5.0, 0.0)), z=1, beta=1.0)
def test_the_layers_agree_on_the_co_occurring_limit(case, z, beta):
    """classify_esss has h_v_o exactly where candidate_attractors has the
    co-occurring candidate, and neither raises. The limit exists exactly on
    the side of the line that the gap's exact sign gives, where b rho -
    nu_e > 0, and is a state there (OdeState takes it), with theta_o at
    least -3 u theta* (co_occurring_limit's argument)."""
    dis, nu = case
    costs = vg.PublicCostModel(c_v1=1.0, c_v2=2.0, c_v2_bar=1.0, c_i=1.0,
                               s=1.0)
    rep = vg.classify_esss(z, nu, costs, dis, 4)
    cand = vg.candidate_attractors(dis, nu, vg.ResponseParams(beta))
    assert (rep.h_v_o is None) is (cand.co_occurring is None)
    if dis.rho <= 1.0:
        assert cand.co_occurring is None
        return
    gap = admissibility_gap(nu, dis)
    if cand.co_occurring is not None:
        assert gap <= 0.0
        # inside the -33 u theta* that _limit's argument takes
        theta_o = cand.co_occurring.state().theta
        assert theta_o >= -3 * 2.0 ** -53 * dis.theta_star
    else:
        assert gap > 0.0 or dis.b * dis.rho - nu.nu_e <= 0.0


@settings(max_examples=400, deadline=None)
@given(case=near_line_policy())
# 22 ulps above the line: the gap, 1.95e-14, lies within 16 u of nu_e + b
# rho + nu_b / theta* = 15.0, not of b rho + nu_b / theta* alone
@example(case=(fig5_disease(), vg.VaRatePolicy(0.7, 6.545454545454565)))
def test_admissibility_is_fragile_exactly_within_its_band(case):
    """For rho > 1, classify_esss names 'admissibility' fragile exactly
    where the admissibility gap lies within 16 u (u = 2^-53) of nu_e + b
    rho + nu_b / theta*. The gap's three roundings (b rho, nu_b / theta*
    and the sum) err by at most 3 u of that scale, so it lies within a
    quarter of the band of the exact value on the same floats, and outside
    the band its float sign is the exact one. For rho <= 1 nothing is
    fragile."""
    dis, nu = case
    costs = vg.PublicCostModel(c_v1=1.0, c_v2=2.0, c_v2_bar=1.0, c_i=1.0,
                               s=1.0)
    rep = vg.classify_esss(0, nu, costs, dis, 4)
    if dis.rho <= 1.0:
        assert rep.fragile == frozenset()
        return
    q = Fraction
    gap = admissibility_gap(nu, dis)
    exact = q(nu.nu_e) - q(dis.b) * q(dis.rho) + q(nu.nu_b) / q(dis.theta_star)
    band = 16 * 2.0 ** -53 * (nu.nu_e + dis.b * dis.rho
                              + nu.nu_b / dis.theta_star)
    assert ("admissibility" in rep.fragile) is (abs(gap) <= band)
    assert abs(q(gap) - exact) <= q(band) / 4
    if abs(gap) > band:
        assert (gap > 0.0) is (exact > 0)


@st.composite
def on_line_policy(draw):
    """(disease, nu): rho in 1.0001..50 and r, b in 0.01..10, nu_b / theta*
    1e-16..0.1 of b rho, and nu_e = b rho - nu_b / theta* as computed, a
    difference that rounds by about u b rho."""
    r, b = draw(st.floats(0.01, 10.0)), draw(st.floats(0.01, 10.0))
    dis = vg.DiseaseParams(lam=draw(st.floats(1.0001, 50.0)) * (r + b), r=r,
                           b=b)
    assume(dis.rho > 1.0)
    nu_b = (10.0 ** draw(st.floats(-16.0, -1.0)) * dis.b * dis.rho
            * dis.theta_star)
    return dis, vg.VaRatePolicy(nu_b, dis.b * dis.rho - nu_b / dis.theta_star)


@settings(max_examples=400, deadline=None)
@given(case=st.one_of(near_line_policy(), on_line_policy()))
@example(case=ZERO_GAP)
def test_admissibility_is_the_exact_sign_of_its_float_terms(case):
    """is_admissible agrees with the sign of nu_e - fl(b rho) + fl(nu_b /
    theta*) in exact arithmetic. On the line as computed, nu_e = fl(fl(b
    rho) - fl(nu_b / theta*)), that sign is the sign of the difference's
    rounding error, which a gap that takes the difference first reads as
    0."""
    dis, nu = case
    status = vg.is_admissible(nu, dis)
    if dis.rho <= 1.0:
        assert status is Admissibility.NO_INTERVENTION_NEEDED
        return
    q = Fraction
    exact = q(nu.nu_e) - q(dis.b * dis.rho) + q(nu.nu_b / dis.theta_star)
    assert (status is Admissibility.ADMISSIBLE) is (exact > 0)
