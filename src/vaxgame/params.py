"""Parameter objects shared by the population, influencer, and leader layers."""
from __future__ import annotations

import math
from dataclasses import dataclass, field


class InsufficientInfluenceError(ValueError):
    """Maximum insecurity cost does not exceed the fixed vaccine cost.

    Eradication is then impossible for every number of vaccinated
    influencers, so threshold and joint-design computations refuse to run.
    """


@dataclass(frozen=True)
class DiseaseParams:
    """Disease and demography rates.

    lam is the per-contact infection rate (scaled by 1/N inside the
    dynamics), r the recovery rate, b the birth rate and d the natural
    death rate. The reproduction-style ratio rho = lam / (r + b) separates
    the self-eradicating regime (rho <= 1) from the one that needs
    intervention.
    """

    lam: float
    r: float
    b: float
    d: float = 0.0

    def __post_init__(self):
        for name in ("lam", "r", "b", "d"):
            v = getattr(self, name)
            if not math.isfinite(v) or v < 0:
                raise ValueError(f"{name} must be finite and nonnegative, got {v}")
        if self.lam <= 0 or self.r <= 0 or self.b <= 0:
            raise ValueError("lam, r and b must be strictly positive")
        if self.d >= self.b:
            raise ValueError("death rate d must be below birth rate b")

    @property
    def rho(self) -> float:
        return self.lam / (self.r + self.b)

    @property
    def theta_star(self) -> float:
        """Endemic infected fraction 1 - 1/rho; defined only for rho > 1."""
        if self.rho <= 1.0:
            raise ValueError("theta_star requires rho > 1")
        return 1.0 - 1.0 / self.rho


@dataclass(frozen=True)
class VaRatePolicy:
    """Vaccine-availability rates: supply runs at nu_b + nu_e * psi."""

    nu_b: float
    nu_e: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.nu_b) and math.isfinite(self.nu_e)):
            raise ValueError("VA rates must be finite")
        if self.nu_b < 0 or self.nu_e < 0:
            raise ValueError("VA rates must be nonnegative")

    def rate(self, psi: float) -> float:
        return self.nu_b + self.nu_e * psi


@dataclass(frozen=True)
class ResponseParams:
    """Follow-the-crowd response: accept a vaccine with prob min(1, beta*psi)."""

    beta: float

    def __post_init__(self):
        if not math.isfinite(self.beta) or self.beta < 0:
            raise ValueError("beta must be finite and nonnegative")

    def acceptance(self, psi: float) -> float:
        return min(1.0, self.beta * psi)


@dataclass(frozen=True)
class PublicCostModel:
    """Cost constants of the public layer.

    The insecurity cost of staying unvaccinated while z influencers are
    vaccinated is either linear, s * z, or given by an explicit table
    c_f_table[z] for z = 0..M. Exactly one of the two must be supplied; a
    table must be non-empty, finite, start at 0 and be nondecreasing.
    """

    c_v1: float
    c_v2: float
    c_v2_bar: float
    c_i: float
    s: float | None = None
    c_f_table: tuple[float, ...] | None = field(default=None)

    def __post_init__(self):
        for name in ("c_v1", "c_v2", "c_v2_bar", "c_i"):
            v = getattr(self, name)
            if not math.isfinite(v) or v < 0:
                raise ValueError(f"{name} must be finite and nonnegative")
        if (self.s is None) == (self.c_f_table is None):
            raise ValueError("provide exactly one of s or c_f_table")
        if self.s is not None and (not math.isfinite(self.s) or self.s < 0):
            raise ValueError("sensitivity s must be finite and nonnegative")
        if self.c_f_table is not None:
            tab = tuple(float(v) for v in self.c_f_table)
            if not tab or not all(map(math.isfinite, tab)):
                raise ValueError(
                    f"c_f_table must be non-empty and finite, got {tab!r}")
            if tab[0] != 0.0:
                raise ValueError("c_f(0) must be 0")
            if any(b < a for a, b in zip(tab, tab[1:])):
                raise ValueError("c_f must be nondecreasing")
            object.__setattr__(self, "c_f_table", tab)

    def c_f(self, z: int) -> float:
        if z < 0:
            raise ValueError("z must be nonnegative")
        if self.s is not None:
            return self.s * z
        if z >= len(self.c_f_table):
            raise ValueError(f"c_f table has no entry for z={z}")
        return self.c_f_table[z]

    def influence_sufficient(self, m: int) -> bool:
        """Max insecurity exceeds the fixed vaccine cost: c_v1 - c_f(M) < 0."""
        return self.c_v1 - self.c_f(m) < 0.0

    def require_influence(self, m: int) -> None:
        if not self.influence_sufficient(m):
            raise InsufficientInfluenceError(
                f"c_v1 - c_f({m}) = {self.c_v1 - self.c_f(m):.6g} >= 0; "
                "eradication unreachable for every influencer count"
            )
