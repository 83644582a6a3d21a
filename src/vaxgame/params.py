"""Parameter objects shared by the population, influencer, and leader layers.

Every number is checked when its object is built: a rate or cost by
require_scaled and a count by require_integer, each with its closed range.
An open bound, or one between two fields, is compared only after them. A
refusal is an InvalidInput whose message starts with the field at fault.
The size budgets below bound the arrays a run can ask for."""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field


class InvalidInput(ValueError):
    """A refused input. `field` names the argument, dataclass field or CLI
    flag at fault; the message is the field, then `detail`. The CLI puts
    the flag in the field's place."""

    def __init__(self, field: str, detail: str):
        super().__init__(f"{field} {detail}")
        self.field, self.detail = field, detail


def _finite_number(v) -> bool:
    # bool is not a number here, so a flag cannot pass for a rate, a cost
    # or a state. Every state and params object checks its fields, so a
    # plain float skips the ABC check, as a plain int does in
    # require_integer
    return ((type(v) is float
             or isinstance(v, numbers.Real) and not isinstance(v, bool))
            and math.isfinite(v))


def require_finite(name: str, v) -> None:
    """Raise InvalidInput naming the field unless v is a finite real number
    (not a bool)."""
    if not _finite_number(v):
        raise InvalidInput(name, f"must be a finite number, got {v!r}")


# A rate, cost or side-effect parameter has a magnitude of at most
# SCALE_MAX, a factor 1e8 below the top of the float range (1.8e308): the
# models sum up to MAX_DRAWS values of that size, and near the top the first
# such sum overflows.
SCALE_MAX = 1e300
# The population's rates are at most MAX_RATE, and lam, r and b at least
# 1 / MAX_RATE: the ODE the chain is checked against is integrated by
# explicit RK45, whose steps shrink as the rates spread apart. A 1,000-event check
# takes 0.02 s at a rate of 1e3 and 1 s at 1e6; at 1e9, or at b = 1e-308,
# the path leaves the simplex, or the solve does not end.
MAX_RATE = 1e6

# Size budgets, each checked before an array of that size is built.
# analyze-ess classifies every count 0..m, and the game keeps binomial
# tables and a Z_T histogram per count: at 10,000 influencers analyze-ess
# takes 0.4 s on a 2-vCPU Xeon.
MAX_INFLUENCERS = 10_000
# the side-effect draws fill a block of game.DRAW_BLOCK_ROWS rows of one
# value per day: 8,192 x 1,000 floats are 66 MB
MAX_DAYS = 1_000
# a sampler keeps each law's draws and their prefix sums, and a fill holds
# no other array of its length (it works in the draws' own array, beside
# one block of rows): 2 x 8 bytes a draw, 160 MB at 1e7
MAX_DRAWS = 10_000_000


def require_scaled(name: str, v, most: float = SCALE_MAX,
                   least: float | None = None) -> None:
    """require_finite, and then InvalidInput naming the field unless |v| is
    at most `most` and, if `least` is given, v is at least `least`."""
    require_finite(name, v)
    if abs(v) > most:
        raise InvalidInput(name, f"must be at most {most:g} in magnitude, "
                                 f"got {v!r}")
    if least is not None and v < least:
        raise InvalidInput(name, (f"must be at least {least:g}" if least
                                  else "must be nonnegative") + f", got {v!r}")


def require_integer(name: str, v, least: int | None = None,
                    most: int | None = None) -> None:
    """Raise InvalidInput naming the field unless v is an integer (numpy
    integers are taken, bool is not) in least..most, either end optional.
    Hot paths check every call, so a plain int skips the ABC check (about
    0.6 us on a shared 2-vCPU Xeon)."""
    if ((type(v) is int or isinstance(v, numbers.Integral)
         and not isinstance(v, bool))
            and (least is None or v >= least)
            and (most is None or v <= most)):
        return
    if least is None:
        bounds = "" if most is None else f" <= {most}"
    else:
        bounds = f" >= {least}" if most is None else f" in {least}..{most}"
    raise InvalidInput(name, f"must be an integer{bounds}, got {v!r}")


def finite_tuple(name: str, values) -> tuple:
    """values as a tuple, or InvalidInput naming the field unless it is a
    sequence of finite real numbers (not bools)."""
    try:
        items = tuple(values)
    except TypeError:
        items = None
    if items is None or not all(map(_finite_number, items)):
        raise InvalidInput(
            name, f"must be a sequence of finite numbers, got {values!r}")
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
    intervention. Each rate is at most MAX_RATE, lam, r and b are at least
    1 / MAX_RATE, and d is below b.
    """

    lam: float
    r: float
    b: float
    d: float = 0.0

    def __post_init__(self):
        for name in ("lam", "r", "b", "d"):
            require_scaled(name, getattr(self, name), MAX_RATE,
                           least=0 if name == "d" else 1 / MAX_RATE)
        if self.d >= self.b:
            raise InvalidInput("d", f"must be below the birth rate "
                                    f"{self.b!r}, got {self.d!r}")

    @property
    def rho(self) -> float:
        return self.lam / (self.r + self.b)

    @property
    def theta_star(self) -> float:
        """Endemic infected fraction 1 - 1/rho; defined only for rho > 1."""
        if self.rho <= 1.0:
            raise InvalidInput("theta_star", "requires rho > 1")
        return 1.0 - 1.0 / self.rho


@dataclass(frozen=True)
class VaRatePolicy:
    """Vaccine-availability rates: supply runs at nu_b + nu_e * psi, each
    rate at most MAX_RATE."""

    nu_b: float
    nu_e: float = 0.0

    def __post_init__(self):
        for name in ("nu_b", "nu_e"):
            require_scaled(name, getattr(self, name), MAX_RATE, least=0)

    def rate(self, psi: float) -> float:
        return self.nu_b + self.nu_e * psi


@dataclass(frozen=True)
class ResponseParams:
    """Follow-the-crowd response: accept a vaccine with prob min(1, beta*psi)."""

    beta: float

    def __post_init__(self):
        require_scaled("beta", self.beta, least=0)


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
            raise InvalidInput("s", "or c_f_table must be given, and not both")
        for name in ("c_v1", "c_v2", "c_v2_bar", "c_i", "s"):
            if (v := getattr(self, name)) is not None:
                require_scaled(name, v, least=0)
        if self.c_f_table is not None:
            tab = tuple(map(float, finite_tuple("c_f_table", self.c_f_table)))
            if not tab:
                raise InvalidInput("c_f_table", "must be non-empty")
            if tab[0] != 0.0:
                raise InvalidInput("c_f_table", "must start at c_f(0) = 0")
            if any(b < a for a, b in zip(tab, tab[1:])):
                raise InvalidInput("c_f_table", "must be nondecreasing")
            object.__setattr__(self, "c_f_table", tab)

    def c_f(self, z: int) -> float:
        if z < 0:
            raise InvalidInput("z", "must be nonnegative")
        if self.s is not None:
            return self.s * z
        if z >= len(self.c_f_table):
            raise InvalidInput("z", f"must be below the c_f table's length "
                                    f"{len(self.c_f_table)}, got {z}")
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
