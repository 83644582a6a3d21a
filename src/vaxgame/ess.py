"""Evolutionary-stability layer: utility gaps at the candidate limits,
stability classification, policy admissibility, and the eradication
threshold on the number of vaccinated influencers."""
from __future__ import annotations

import enum
from dataclasses import asdict, dataclass, field

from .epidemic import (_certain_sign, admissibility_gap, co_occurring_limit,
                       psi_eradicating)
from .params import (MAX_INFLUENCERS, DiseaseParams, InvalidInput,
                     PublicCostModel, VaRatePolicy, require_integer)


class Admissibility(enum.Enum):
    ADMISSIBLE = "admissible"
    NOT_ADMISSIBLE = "not-admissible"
    NO_INTERVENTION_NEEDED = "no-intervention-needed"

    def __bool__(self) -> bool:
        return self is Admissibility.ADMISSIBLE


def is_admissible(nu: VaRatePolicy, disease: DiseaseParams) -> Admissibility:
    """Whether the VA policy can support eradication at all.

    Requires nu_e > b*rho - nu_b/theta_star (strict), decided by the exact
    sign of admissibility_gap's three float terms; classify_esss flags the
    decisions that rounding of those terms may have set. For rho <= 1 the
    disease dies out on its own and the question is moot; a distinguished
    status is returned instead of a boolean.
    """
    if disease.rho <= 1.0:
        return Admissibility.NO_INTERVENTION_NEEDED
    if admissibility_gap(nu, disease) > 0.0:
        return Admissibility.ADMISSIBLE
    return Admissibility.NOT_ADMISSIBLE


def _limit(theta: float, psi: float, nu: VaRatePolicy,
           costs: PublicCostModel,
           disease: DiseaseParams) -> tuple[float, float]:
    """(side, infection): the terms of the gaps at the limit (theta, psi)
    that no count changes. side = min(c_v2_bar, c_v2 / psi) (c_v2_bar at
    psi = 0); the infection term lam theta C_i / (lam theta + nu(psi)) is 0
    at theta = 0 (where it is 0/0 if nu(psi) = 0).

    A gap's scale for _certain_sign is c_v1 + side + |infection| + c_f(z).
    Taking theta and psi as given floats, each term is at most eight
    roundings from the gap: c_v1 three (the sum's), c_f(z) two, and the
    infection term six and two. The middle term has three and three too,
    but z/m rounds before 1 - z/m, by up to u absolutely, which near z = m
    is up to m u/2 of 1 - z/m; so its error is below gamma_7 side, and
    side stands for it. lam theta + nu(psi) does not cancel: theta >= 0,
    or theta_o >= -3u theta* (co_occurring_limit), where nu(psi_o) =
    b rho psi_o > 3000 |lam theta_o| within DiseaseParams' bounds
    (b rho / lam >= 1e-12).
    """
    side = (costs.c_v2_bar if psi <= 0.0
            else min(costs.c_v2_bar, costs.c_v2 / psi))
    if theta == 0.0:
        return side, 0.0
    lt = disease.lam * theta
    return side, lt * costs.c_i / (lt + nu.rate(psi))


def _gap(z: int, m: int, costs: PublicCostModel,
         limit: tuple[float, float]) -> float:
    """Gap of vaccinating at a limit (_limit), z of m vaccinated: c_v1 +
    (1 - z/m) side - infection - c_f(z); its callers check z and m."""
    side, infection = limit
    return costs.c_v1 + (1.0 - z / m) * side - infection - costs.c_f(z)


def _iv_limits(nu: VaRatePolicy, costs: PublicCostModel,
               disease: DiseaseParams) -> tuple[tuple, tuple]:
    """The non-vaccinating and eradicating limits (_limit), whose gaps are
    h_i and h_v."""
    return (_limit(disease.theta_star, 0.0, nu, costs, disease),
            _limit(0.0, psi_eradicating(nu, disease.b), nu, costs, disease))


def _eradicates(z: int, m: int, costs: PublicCostModel,
                limits: tuple[tuple, tuple]) -> bool:
    """Eradication is certain at z of m: vaccinating is strictly preferred
    at the eradicating limit and weakly at the non-vaccinating one (limits
    as _iv_limits gives them)."""
    non_vaccinating, eradicating = limits
    return (_gap(z, m, costs, non_vaccinating) <= 0.0
            and _gap(z, m, costs, eradicating) < 0.0)


@dataclass(frozen=True)
class EssReport:
    z: int
    h_i: float | None
    h_v: float | None
    h_v_o: float | None
    esss_set: frozenset[str]
    fragile: frozenset[str]
    eradication_conditional: int
    admissibility: Admissibility
    beta_witness: dict[str, str] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {**asdict(self), "esss_set": sorted(self.esss_set),
                "fragile": sorted(self.fragile),
                "admissibility": self.admissibility.value}


def classify_esss(z: int, nu: VaRatePolicy, costs: PublicCostModel,
                  disease: DiseaseParams, m: int) -> EssReport:
    """Which candidate limits are evolutionarily stable at (z, nu).

    Classification does not need the crowd-sensitivity beta: each stable
    case admits a witness response (recorded in beta_witness). The set
    holds 'none' when no candidate qualifies. A gap is None where its
    limit does not exist: all three for rho <= 1, and h_v_o without a
    co-occurring limit. Every gap decision takes its float sign, and
    admissibility the exact sign of its three float terms. fragile names
    each one whose sign rounding may have set, where _certain_sign is 0: a
    gap over its scale (see _limit), and for rho > 1 'admissibility', the
    admissibility gap over nu_e + b*rho + nu_b/theta_star, since b*rho and
    nu_b/theta_star are rounded from the rates. m must be an integer in
    1..MAX_INFLUENCERS and z one in 0..m, for every rho.
    """
    require_integer("m", m, 1, MAX_INFLUENCERS)
    require_integer("z", z, 0, m)
    adm = is_admissible(nu, disease)
    witness: dict[str, str] = {}

    if disease.rho <= 1.0:
        witness["self_eradicating"] = f"beta < b/nu_b = {disease.b / nu.nu_b:.6g}" \
            if nu.nu_b > 0 else "any beta"
        return EssReport(z, None, None, None,
                         frozenset({"self_eradicating"}), frozenset(),
                         eradication_conditional=0, admissibility=adm,
                         beta_witness=witness)

    stable: set[str] = set()
    gap = admissibility_gap(nu, disease)
    iv = _iv_limits(nu, costs, disease)
    limits = dict(zip(("h_i", "h_v"), iv))
    if (co_occurring := co_occurring_limit(nu, disease)) is not None:
        limits["h_v_o"] = _limit(*co_occurring, nu, costs, disease)
    gaps, fragile = {}, set()
    if not _certain_sign(gap, 0.0, nu.nu_e + disease.b * disease.rho
                         + nu.nu_b / disease.theta_star):
        fragile.add("admissibility")
    for name, limit in limits.items():
        side, infection = limit
        h = gaps[name] = _gap(z, m, costs, limit)
        if not _certain_sign(h, 0.0, costs.c_v1 + side + abs(infection)
                             + costs.c_f(z)):
            fragile.add(name)
    h_i, h_v, h_v_o = (gaps.get(name) for name in ("h_i", "h_v", "h_v_o"))

    if h_i > 0.0:
        stable.add("non_vaccinating")
        witness["non_vaccinating"] = (
            f"beta < b*rho/nu_b = {disease.b * disease.rho / nu.nu_b:.6g}"
            if nu.nu_b > 0 else "any beta")
    if h_v < 0.0 and gap > 0.0:
        stable.add("eradicating")
        psi_e = psi_eradicating(nu, disease.b)
        witness["eradicating"] = f"beta > 1/psi_e = {1.0 / psi_e:.6g}"
    # with nu_b = 0, psi_o is 0 and no beta gives beta psi_o > 1
    if h_v_o is not None and h_v_o < 0.0 and gap < 0.0 < co_occurring[1]:
        stable.add("co_occurring")
        witness["co_occurring"] = (f"beta > 1/psi_o = "
                                   f"{1.0 / co_occurring[1]:.6g}")

    erad = int(_eradicates(z, m, costs, iv) and bool(adm))
    return EssReport(z, h_i, h_v, h_v_o,
                     frozenset(stable) if stable else frozenset({"none"}),
                     frozenset(fragile), eradication_conditional=erad,
                     admissibility=adm, beta_witness=witness)


def eradication_threshold(nu: VaRatePolicy, costs: PublicCostModel,
                          disease: DiseaseParams, m: int) -> int:
    """Least z with h_v(z) < 0 and h_i(z) <= 0; eradication is certain
    exactly from this count upward.

    Both gaps fall with z, so the first hit is the threshold; z = m always
    hits (h_i <= h_v = c_v1 - c_f(m) < 0 there), as asserted. Raises
    InsufficientInfluenceError when c_v1 - c_f(m) >= 0, and an InvalidInput
    that starts with its argument for an m outside 1..MAX_INFLUENCERS, a
    disease with rho <= 1 (it dies out unaided) or a nu not admissible.
    """
    require_integer("m", m, 1, MAX_INFLUENCERS)
    costs.require_influence(m)
    status = is_admissible(nu, disease)
    if status is Admissibility.NO_INTERVENTION_NEEDED:
        raise InvalidInput("disease", f"must have rho > 1 to need a "
                                      f"threshold, got rho = {disease.rho!r}")
    if not status:
        raise InvalidInput("nu", f"must have nu_e > b*rho - nu_b/theta_star "
                           f"= {nu.nu_e - admissibility_gap(nu, disease):.6g} "
                           f"to be admissible, got nu_e = {nu.nu_e!r}")
    limits = _iv_limits(nu, costs, disease)
    for z in range(m):
        if _eradicates(z, m, costs, limits):
            return z
    assert _eradicates(m, m, costs, limits)
    return m
