"""Evolutionary-stability layer: utility gaps at the candidate limits,
stability classification, policy admissibility, and the eradication
threshold on the number of vaccinated influencers."""
from __future__ import annotations

import enum
import math
import warnings
from dataclasses import asdict, dataclass, field

from .epidemic import admissibility_gap, psi_co_occurring, psi_eradicating
from .params import (MAX_INFLUENCERS, DiseaseParams, PublicCostModel,
                     VaRatePolicy, require_integer)

# Utility gaps this close to zero are classified by their exact sign but
# flagged, since the strict/non-strict split is then numerically fragile.
H_BOUNDARY_BAND = 1e-12


class Admissibility(enum.Enum):
    ADMISSIBLE = "admissible"
    NOT_ADMISSIBLE = "not-admissible"
    NO_INTERVENTION_NEEDED = "no-intervention-needed"

    def __bool__(self) -> bool:
        return self is Admissibility.ADMISSIBLE


def is_admissible(nu: VaRatePolicy, disease: DiseaseParams) -> Admissibility:
    """Whether the VA policy can support eradication at all.

    Requires nu_e > b*rho - nu_b/theta_star (strict). For rho <= 1 the
    disease dies out on its own and the question is moot; a distinguished
    status is returned instead of a boolean.
    """
    if disease.rho <= 1.0:
        return Admissibility.NO_INTERVENTION_NEEDED
    if admissibility_gap(nu, disease) > 0.0:
        return Admissibility.ADMISSIBLE
    return Admissibility.NOT_ADMISSIBLE


def _h_at(theta: float, psi: float, z: int, nu: VaRatePolicy,
          costs: PublicCostModel, disease: DiseaseParams, m: int) -> float:
    """Gap of vaccinating at the limit (theta, psi), z of m vaccinated: c_v1
    + (1 - z/m) side - lam theta C_i / (lam theta + nu(psi)) - c_f(z), with
    side = min(c_v2_bar, c_v2 / psi) (c_v2_bar at psi = 0) and the infection
    term 0 at theta = 0 (where it is 0/0 if nu(psi) = 0)."""
    side = (costs.c_v2_bar if psi <= 0.0
            else min(costs.c_v2_bar, costs.c_v2 / psi))
    lt = disease.lam * theta
    infection = 0.0 if theta == 0.0 else lt * costs.c_i / (lt + nu.rate(psi))
    return costs.c_v1 + (1.0 - z / m) * side - infection - costs.c_f(z)


def _require_counts(z: int, m: int) -> None:
    """m must be an integer in 1..MAX_INFLUENCERS and z one in 0..m."""
    require_integer("m", m, 1, MAX_INFLUENCERS)
    require_integer("z", z, 0, m)


def _h_iv_only(z: int, nu: VaRatePolicy, costs: PublicCostModel,
               disease: DiseaseParams, m: int) -> tuple[float, float]:
    """(h_i, h_v): the gaps at the non-vaccinating and eradicating limits;
    its callers check z and m."""
    return (_h_at(disease.theta_star, 0.0, z, nu, costs, disease, m),
            _h_at(0.0, psi_eradicating(nu, disease.b), z, nu, costs,
                  disease, m))


def _eradicates(h_i: float, h_v: float) -> bool:
    """Eradication is certain: vaccinating is strictly preferred at the
    eradicating limit and weakly at the non-vaccinating one."""
    return h_i <= 0.0 and h_v < 0.0


def h_values(z: int, nu: VaRatePolicy, costs: PublicCostModel,
             disease: DiseaseParams, m: int) -> tuple[float, float, float]:
    """Utility gaps (h_i, h_v, h_v_o) of vaccinating at the three candidate
    limits, for z vaccinated influencers out of m.

    h_i is evaluated at the non-vaccinating limit, h_v at the eradicating
    one, h_v_o at the co-occurring one. Negative h means vaccinating is
    strictly preferred there. Raises when rho <= 1 (no endemic limit), when
    the co-occurring limit does not exist (b*rho - nu_e <= 0), or for an m
    outside 1..MAX_INFLUENCERS or a z outside 0..m.
    """
    _require_counts(z, m)
    h_i, h_v = _h_iv_only(z, nu, costs, disease, m)
    psi_o = psi_co_occurring(nu, disease)
    return h_i, h_v, _h_at(disease.theta_star - psi_o, psi_o, z, nu, costs,
                           disease, m)


def _warn_boundary(name: str, value: float) -> None:
    if abs(value) < H_BOUNDARY_BAND:
        warnings.warn(
            f"{name} = {value:.3e} sits within {H_BOUNDARY_BAND} of the "
            "strict/non-strict boundary; classification may be fragile",
            stacklevel=3)


@dataclass(frozen=True)
class EssReport:
    z: int
    h_i: float
    h_v: float
    h_v_o: float | None
    esss_set: frozenset[str]
    eradication_conditional: int
    admissibility: Admissibility
    beta_witness: dict[str, str] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {**asdict(self), "esss_set": sorted(self.esss_set),
                "admissibility": self.admissibility.value}


def classify_esss(z: int, nu: VaRatePolicy, costs: PublicCostModel,
                  disease: DiseaseParams, m: int) -> EssReport:
    """Which candidate limits are evolutionarily stable at (z, nu).

    Classification does not need the crowd-sensitivity beta: each stable
    case admits a witness response (recorded in beta_witness). The set
    holds 'none' when no candidate qualifies. m must be an integer in
    1..MAX_INFLUENCERS and z one in 0..m, for every rho.
    """
    _require_counts(z, m)
    adm = is_admissible(nu, disease)
    witness: dict[str, str] = {}

    if disease.rho <= 1.0:
        witness["self_eradicating"] = f"beta < b/nu_b = {disease.b / nu.nu_b:.6g}" \
            if nu.nu_b > 0 else "any beta"
        return EssReport(z, math.nan, math.nan, None,
                         frozenset({"self_eradicating"}),
                         eradication_conditional=0, admissibility=adm,
                         beta_witness=witness)

    stable: set[str] = set()
    gap = admissibility_gap(nu, disease)
    h_i, h_v = _h_iv_only(z, nu, costs, disease, m)
    h_v_o = None
    if disease.b * disease.rho - nu.nu_e > 0:  # the co-occurring limit exists
        psi_o = psi_co_occurring(nu, disease)
        h_v_o = _h_at(disease.theta_star - psi_o, psi_o, z, nu, costs,
                      disease, m)

    _warn_boundary("h_i", h_i)
    _warn_boundary("h_v", h_v)

    if h_i > 0.0:
        stable.add("non_vaccinating")
        witness["non_vaccinating"] = (
            f"beta < b*rho/nu_b = {disease.b * disease.rho / nu.nu_b:.6g}"
            if nu.nu_b > 0 else "any beta")
    if h_v < 0.0 and gap > 0.0:
        stable.add("eradicating")
        psi_e = psi_eradicating(nu, disease.b)
        witness["eradicating"] = f"beta > 1/psi_e = {1.0 / psi_e:.6g}"
    if h_v_o is not None:
        _warn_boundary("h_v_o", h_v_o)
        # with nu_b = 0, psi_o is 0 and no beta gives beta psi_o > 1
        if h_v_o < 0.0 and gap < 0.0 and psi_o > 0.0:
            stable.add("co_occurring")
            witness["co_occurring"] = f"beta > 1/psi_o = {1.0 / psi_o:.6g}"

    erad = int(_eradicates(h_i, h_v) and bool(adm))
    return EssReport(z, h_i, h_v, h_v_o,
                     frozenset(stable) if stable else frozenset({"none"}),
                     eradication_conditional=erad, admissibility=adm,
                     beta_witness=witness)


def eradication_probability(z: int, nu: VaRatePolicy, costs: PublicCostModel,
                            disease: DiseaseParams, m: int) -> int:
    """Conditional certainty of complete eradication given Z = z (0 or 1);
    m must be an integer in 1..MAX_INFLUENCERS and z one in 0..m."""
    _require_counts(z, m)
    if not is_admissible(nu, disease):
        return 0
    return int(_eradicates(*_h_iv_only(z, nu, costs, disease, m)))


def eradication_threshold(nu: VaRatePolicy, costs: PublicCostModel,
                          disease: DiseaseParams, m: int) -> int:
    """Least z with h_v(z) < 0 and h_i(z) <= 0; eradication is certain
    exactly from this count upward.

    Both gaps fall with z, so the first hit is the threshold; z = m always
    hits (h_i <= h_v = c_v1 - c_f(m) < 0 there), as asserted. Raises
    InsufficientInfluenceError when c_v1 - c_f(m) >= 0, and a ValueError
    that starts with its argument for an m outside 1..MAX_INFLUENCERS, a
    disease with rho <= 1 (it dies out unaided) or a nu not admissible.
    """
    require_integer("m", m, 1, MAX_INFLUENCERS)
    costs.require_influence(m)
    status = is_admissible(nu, disease)
    if status is Admissibility.NO_INTERVENTION_NEEDED:
        raise ValueError(f"disease must have rho > 1 to need a threshold, "
                         f"got rho = {disease.rho!r}")
    if not status:
        raise ValueError(f"nu must have nu_e > b*rho - nu_b/theta_star = "
                         f"{nu.nu_e - admissibility_gap(nu, disease):.6g} "
                         f"to be admissible, got nu_e = {nu.nu_e!r}")
    for z in range(m):
        if _eradicates(*_h_iv_only(z, nu, costs, disease, m)):
            return z
    assert _eradicates(*_h_iv_only(m, nu, costs, disease, m))
    return m
