"""Parameter objects shared by the population, influencer, and leader layers."""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field


def _finite_number(v) -> bool:
    # bool is not a number here, so a flag cannot pass for a rate, a cost
    # or a state
    return (isinstance(v, numbers.Real) and not isinstance(v, bool)
            and math.isfinite(v))


def require_finite(name: str, v) -> None:
    """Raise ValueError naming the field unless v is a finite real number
    (not a bool)."""
    if not _finite_number(v):
        raise ValueError(f"{name} must be a finite number, got {v!r}")


def finite_tuple(name: str, values) -> tuple:
    """values as a tuple, or ValueError naming the field unless it is a
    sequence of finite real numbers (not bools)."""
    try:
        items = tuple(values)
    except TypeError:
        items = None
    if items is None or not all(map(_finite_number, items)):
        raise ValueError(
            f"{name} must be a sequence of finite numbers, got {values!r}")
    return items


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
            require_finite(name, v)
            if v < 0:
                raise ValueError(f"{name} must be nonnegative, got {v}")
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
        for name in ("nu_b", "nu_e"):
            v = getattr(self, name)
            require_finite(name, v)
            if v < 0:
                raise ValueError(f"{name} must be nonnegative, got {v}")

    def rate(self, psi: float) -> float:
        return self.nu_b + self.nu_e * psi


@dataclass(frozen=True)
class ResponseParams:
    """Follow-the-crowd response: accept a vaccine with prob min(1, beta*psi)."""

    beta: float

    def __post_init__(self):
        require_finite("beta", self.beta)
        if self.beta < 0:
            raise ValueError(f"beta must be nonnegative, got {self.beta}")

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
        if (self.s is None) == (self.c_f_table is None):
            raise ValueError("provide exactly one of s or c_f_table")
        for name in ("c_v1", "c_v2", "c_v2_bar", "c_i", "s"):
            v = getattr(self, name)
            if v is None:
                continue
            require_finite(name, v)
            if v < 0:
                raise ValueError(f"{name} must be nonnegative, got {v}")
        if self.c_f_table is not None:
            tab = tuple(map(float, finite_tuple("c_f_table", self.c_f_table)))
            if not tab:
                raise ValueError("c_f_table must be non-empty")
            if tab[0] != 0.0:
                raise ValueError("c_f_table must start at c_f(0) = 0")
            if any(b < a for a, b in zip(tab, tab[1:])):
                raise ValueError("c_f_table must be nondecreasing")
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
