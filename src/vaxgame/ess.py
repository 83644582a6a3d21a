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

# The rounding band of a comparison relative to its terms (_certain_sign),
# 16 u for u = 2^-53.
_ROUNDING = 8 * math.ulp(1.0)


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


def _limit(theta: float, psi: float, nu: VaRatePolicy,
           costs: PublicCostModel,
           disease: DiseaseParams) -> tuple[float, float, float]:
    """(side, infection, weight): the terms of the gaps at the limit (theta,
    psi) that no count changes. side = min(c_v2_bar, c_v2 / psi) (c_v2_bar
    at psi = 0); the infection term lam theta C_i / (lam theta + nu(psi))
    is 0 at theta = 0 (where it is 0/0 if nu(psi) = 0); weight is its
    magnitude times kappa = (|lam theta| + nu(psi)) / |lam theta +
    nu(psi)|, 1 unless theta < 0 (the co-occurring limit of an admissible
    policy), where the denominator cancels.

    A gap's scale for _certain_sign is c_v1 + side + weight + c_f(z).
    Taking theta and psi as given floats, each term is at most eight
    roundings from the gap: c_v1 three (the sum's), c_f(z) two, and the
    infection term six and two, relative to weight. The middle term has
    three and three too, but z/m rounds before 1 - z/m, by up to u
    absolutely, which near z = m is up to m u/2 of 1 - z/m; so its error
    is below gamma_7 side, and side stands for it.
    """
    side = (costs.c_v2_bar if psi <= 0.0
            else min(costs.c_v2_bar, costs.c_v2 / psi))
    if theta == 0.0:
        return side, 0.0, 0.0
    lt, rate = disease.lam * theta, nu.rate(psi)
    infection = lt * costs.c_i / (lt + rate)
    return side, infection, abs(infection) * (abs(lt) + rate) / abs(lt + rate)


def _gap(z: int, m: int, costs: PublicCostModel,
         limit: tuple[float, float, float]) -> float:
    """Gap of vaccinating at a limit (_limit), z of m vaccinated: c_v1 +
    (1 - z/m) side - infection - c_f(z); its callers check z and m."""
    side, infection, _ = limit
    return costs.c_v1 + (1.0 - z / m) * side - infection - costs.c_f(z)


def _certain_sign(lhs: float, rhs: float, scale: float) -> int:
    """The sign of lhs - rhs where rounding cannot have set it, else 0. scale
    bounds the magnitudes of all the terms of both sides, each at most eight
    roundings from the difference, whose error is then below gamma_8 scale
    < _ROUNDING scale (Higham, Accuracy and Stability of Numerical
    Algorithms, ch. 3; a filtered predicate as in Shewchuk, 1997)."""
    gap, band = lhs - rhs, _ROUNDING * scale
    return int(gap > band) - int(gap < -band)


def _require_counts(z: int, m: int) -> None:
    """m must be an integer in 1..MAX_INFLUENCERS and z one in 0..m."""
    require_integer("m", m, 1, MAX_INFLUENCERS)
    require_integer("z", z, 0, m)


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
    holds 'none' when no candidate qualifies. A gap is None where its
    limit does not exist: all three for rho <= 1, and h_v_o without a
    co-occurring limit. A gap whose sign rounding may have set
    (_certain_sign over its scale, see _limit, is 0) is classified by its float
    sign and warned of at the caller. m must be an integer in
    1..MAX_INFLUENCERS and z one in 0..m, for every rho.
    """
    _require_counts(z, m)
    adm = is_admissible(nu, disease)
    witness: dict[str, str] = {}

    if disease.rho <= 1.0:
        witness["self_eradicating"] = f"beta < b/nu_b = {disease.b / nu.nu_b:.6g}" \
            if nu.nu_b > 0 else "any beta"
        return EssReport(z, None, None, None,
                         frozenset({"self_eradicating"}),
                         eradication_conditional=0, admissibility=adm,
                         beta_witness=witness)

    stable: set[str] = set()
    gap = admissibility_gap(nu, disease)
    iv = _iv_limits(nu, costs, disease)
    limits = dict(zip(("h_i", "h_v"), iv))
    if disease.b * disease.rho - nu.nu_e > 0:  # the co-occurring limit exists
        psi_o = psi_co_occurring(nu, disease)
        limits["h_v_o"] = _limit(disease.theta_star - psi_o, psi_o, nu, costs,
                                 disease)
    gaps = {}
    for name, limit in limits.items():
        side, _, weight = limit
        h = gaps[name] = _gap(z, m, costs, limit)
        scale = costs.c_v1 + side + weight + costs.c_f(z)  # see _limit
        if not _certain_sign(h, 0.0, scale):
            warnings.warn(f"{name} = {h:.3e} lies within {_ROUNDING * scale:.3e}"
                          " of 0, where rounding may have set its sign; "
                          "classification may be fragile", stacklevel=2)
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
    if h_v_o is not None and h_v_o < 0.0 and gap < 0.0 and psi_o > 0.0:
        stable.add("co_occurring")
        witness["co_occurring"] = f"beta > 1/psi_o = {1.0 / psi_o:.6g}"

    erad = int(_eradicates(z, m, costs, iv) and bool(adm))
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
    return int(_eradicates(z, m, costs, _iv_limits(nu, costs, disease)))


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
    limits = _iv_limits(nu, costs, disease)
    for z in range(m):
        if _eradicates(z, m, costs, limits):
            return z
    assert _eradicates(m, m, costs, limits)
    return m
