"""Population layer: mean-field ODE, its candidate attractors, and the
stochastic jump process the ODE approximates.

State is the triple (theta, psi, eta): infected fraction, vaccinated
fraction, and population scaled by elapsed (algorithmic) time. Susceptible
fraction is phi = 1 - theta - psi. The per-capita total event rate is

    varrho = b + d + lam*theta*phi + (nu_b + nu_e*psi)*phi + r*theta

and the drift of every component carries the 1/(eta*varrho) clock change
that links the embedded event chain to the ODE.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .params import (DiseaseParams, InvalidInput, ResponseParams,
                     VaRatePolicy, _finite_number, require_finite,
                     require_integer, require_scaled)

# A candidate whose stability condition holds by at most this is inactive:
# at a degenerate corner (beta*psi* = 1, beta = b*rho/nu_b, or nu_e =
# b*rho - nu_b/theta*) the field kinks or a rate of return vanishes. The
# band is a margin on the dynamics, not a rounding band, hence absolute.
DEGENERATE_BAND = 1e-9

SIMPLEX_TOL = 1e-9


@dataclass(frozen=True)
class OdeState:
    theta: float
    psi: float
    eta: float

    def __post_init__(self):
        for name in ("theta", "psi"):
            require_scaled(name, getattr(self, name), math.inf,
                           least=-SIMPLEX_TOL)
        require_finite("eta", self.eta)
        if self.theta + self.psi > 1.0 + 1e-6:
            raise InvalidInput("theta", "+ psi must not exceed 1")
        if self.eta <= 0:
            raise InvalidInput("eta", "must be positive")

    def as_array(self) -> np.ndarray:
        return np.array([self.theta, self.psi, self.eta], dtype=float)


def _field(disease: DiseaseParams, nu: VaRatePolicy, beta: ResponseParams):
    """The dynamics over plain floats, with the parameters bound.

    Returns f(theta, psi, eta) -> (dtheta, dpsi, deta, varrho): the drift
    and the per-capita event rate at one state. nu.rate(psi) is inlined,
    since the integrator calls f six times a step, and min(1, beta*psi) is
    a comparison that gives the same double without the builtin call. The
    rates are written three more times, each rounded for its use: in
    `_basin`, locate's planar drift from the same floats (Newton zeroes
    the field the stepper integrates) and certify's outward-stepped
    enclosure of it (a proof bounds the exact values); and `_thresholds`
    in counts, left to right as one event computes them (a window decides
    the one-at-a-time chain's events to the bit).
    """
    lam, r, b, d = disease.lam, disease.r, disease.b, disease.d
    inv_rho = 1.0 / disease.rho
    nu_b, nu_e, bt = nu.nu_b, nu.nu_e, beta.beta

    def f(theta: float, psi: float, eta: float):
        phi = 1.0 - theta - psi
        supply = nu_b + nu_e * psi
        varrho = b + d + lam * theta * phi + supply * phi + r * theta
        scale = 1.0 / (eta * varrho)
        accept = bt * psi
        return (theta * lam * scale * (phi - inv_rho),
                scale * (phi * (accept if accept < 1.0 else 1.0) * supply
                         - b * psi),
                (b - d) / varrho - eta,
                varrho)

    return f


_ROUNDING = 8 * math.ulp(1.0)  # _certain_sign's band per unit scale: 16 u


def _certain_sign(lhs: float, rhs: float, scale: float) -> int:
    """The sign of lhs - rhs where rounding cannot have set it, else 0. scale
    bounds the magnitudes of all the terms of both sides, each at most eight
    roundings from the difference, whose error is then below gamma_8 scale
    < _ROUNDING scale (Higham, Accuracy and Stability of Numerical
    Algorithms, ch. 3; a filtered predicate as in Shewchuk, 1997)."""
    gap, band = lhs - rhs, _ROUNDING * scale
    return int(gap > band) - int(gap < -band)


# ---------------------------------------------------------------------------
# Candidate attractors
# ---------------------------------------------------------------------------

def psi_eradicating(nu: VaRatePolicy, b: float) -> float:
    """Vaccinated fraction of the eradicating equilibrium (0, psi_e).

    Root of nu_e*psi^2 + (b + nu_b - nu_e)*psi - nu_b = 0 for nu_e > 0,
    and nu_b / (b + nu_b) for nu_e = 0. Evaluated in the form that avoids
    cancellation when b + nu_b - nu_e is large and positive.
    """
    a = b + nu.nu_b - nu.nu_e
    if nu.nu_e == 0.0:
        return nu.nu_b / (b + nu.nu_b)
    disc = math.sqrt(a * a + 4.0 * nu.nu_e * nu.nu_b)
    if a > 0:
        return 2.0 * nu.nu_b / (a + disc)
    return (-a + disc) / (2.0 * nu.nu_e)


def psi_co_occurring(nu: VaRatePolicy, disease: DiseaseParams) -> float:
    """Vaccinated fraction nu_b / (b*rho - nu_e) of the co-occurring equilibrium."""
    denom = disease.b * disease.rho - nu.nu_e
    if denom <= 0:
        raise InvalidInput("nu", f"must have nu_e < b*rho for a co-occurring "
                                 f"equilibrium, got nu_e = {nu.nu_e!r}")
    return nu.nu_b / denom


def admissibility_gap(nu: VaRatePolicy, disease: DiseaseParams) -> float:
    """nu_e - b*rho + nu_b/theta_star, positive for admissible policies: the
    float nearest the exact sum of its three float terms (math.fsum), so
    its sign is exact; nu_e - (b*rho - nu_b/theta_star) rounds by u b*rho."""
    return math.fsum((nu.nu_e, -(disease.b * disease.rho),
                      nu.nu_b / disease.theta_star))


def co_occurring_limit(nu: VaRatePolicy,
                       disease: DiseaseParams) -> tuple[float, float] | None:
    """(theta_o, psi_o) of the co-occurring equilibrium, theta_o = theta* -
    psi_o, or None where it is no state: rho <= 1, b*rho - nu_e <= 0, or
    the admissible side (admissibility_gap > 0, as is_admissible decides
    it). Off that side the gap's exact sign gives fl(b*rho) - nu_e >=
    fl(nu_b/theta*), a float, so the rounded difference is at least that
    float, psi_o <= theta* (1 + 2u) and theta_o >= -3u theta*: theta_o is
    never certainly below 0 by _certain_sign's 16 u band."""
    if (disease.rho <= 1.0 or admissibility_gap(nu, disease) > 0.0
            or disease.b * disease.rho - nu.nu_e <= 0.0):
        return None
    psi_o = psi_co_occurring(nu, disease)
    return disease.theta_star - psi_o, psi_o


@dataclass(frozen=True)
class Candidate:
    theta: float
    psi: float
    eta: float
    active: bool

    def state(self) -> OdeState:
        return OdeState(self.theta, self.psi, self.eta)


@dataclass(frozen=True)
class AttractorSet:
    """The four candidate limits, each None where it does not exist."""

    non_vaccinating: Candidate | None
    eradicating: Candidate | None
    co_occurring: Candidate | None
    self_eradicating: Candidate | None

    def active(self) -> dict[str, Candidate]:
        return {f.name: c for f in fields(self)
                if (c := getattr(self, f.name)) is not None and c.active}


def candidate_attractors(disease: DiseaseParams, nu: VaRatePolicy,
                         beta: ResponseParams) -> AttractorSet:
    """Equilibria with acceptance probability 0 or 1, with activity flags.

    A candidate is active when its stability condition holds by more than
    DEGENERATE_BAND; one within the band of equality is inactive. The
    eradicating and co-occurring candidates sit on opposite sides of
    nu_e = b*rho - nu_b/theta_star and are never both active. Each
    candidate's eta is (b - d)/varrho there, with varrho from one `_field`
    bound for all four. theta_star is 1 - 1/rho from the one rho read
    here, the property's own double.
    """
    b, rho = disease.b, disease.rho
    growth, field = disease.b - disease.d, _field(disease, nu, beta)
    endemic = rho > 1.0

    def eta(theta: float, psi: float) -> float:  # varrho reads no beta
        return growth / field(theta, psi, 1.0)[3]

    # self-eradicating (0, 0): rho <= 1 and beta < b/nu_b
    beta_gap = math.inf if nu.nu_b == 0 else b / nu.nu_b - beta.beta
    self_erad = Candidate(0.0, 0.0, eta(0.0, 0.0),
                          (not endemic) and beta_gap > DEGENERATE_BAND)

    non_vacc = erad = co_occ = None
    if endemic:
        theta_star = 1.0 - 1.0 / rho
        # non-vaccinating (theta*, 0): beta < b*rho/nu_b
        nv_gap = math.inf if nu.nu_b == 0 else b * rho / nu.nu_b - beta.beta
        non_vacc = Candidate(theta_star, 0.0, eta(theta_star, 0.0),
                             nv_gap > DEGENERATE_BAND)
        # eradicating (0, psi_e): beta*psi_e > 1, nu_e > b*rho - nu_b/theta*
        psi_e = psi_eradicating(nu, b)
        adm_gap = admissibility_gap(nu, disease)
        erad = Candidate(0.0, psi_e, eta(0.0, psi_e),
                         beta.beta * psi_e - 1.0 > DEGENERATE_BAND
                         and adm_gap > DEGENERATE_BAND and nu.nu_e >= 0.0)
        # co-occurring: beta*psi_o > 1 and 0 <= nu_e < b*rho - nu_b/theta*
        if (limit := co_occurring_limit(nu, disease)) is not None:
            theta_o, psi_o = limit
            co_occ = Candidate(theta_o, psi_o, eta(theta_o, psi_o),
                               beta.beta * psi_o - 1.0 > DEGENERATE_BAND
                               and adm_gap < -DEGENERATE_BAND)

    return AttractorSet(non_vaccinating=non_vacc, eradicating=erad,
                        co_occurring=co_occ, self_eradicating=self_erad)


# ---------------------------------------------------------------------------
# Integration
# ---------------------------------------------------------------------------

@dataclass
class IntegrationResult:
    """A run of integrate_to_equilibrium. `t` and `states` are the accepted
    steps, up to where the run stopped: at a basin certificate that may be
    the start alone, up to the Lyapunov ellipsoid's extent short of
    `limit`; at a located stop, with theta and psi within 1e-6 of it.
    `limit` is the equilibrium the stop located when the run converged,
    and the last state otherwise, with theta and psi clamped at 0 either
    way."""

    t: np.ndarray
    states: np.ndarray          # shape (n, 3)
    limit: OdeState
    converged: bool
    message: str
    rhs_evals: int              # drift evaluations: steps and the limit's eta
    basin_attempts: int         # basin attempts made, the start's among them
    stop: str | None            # the stop of a converged run, else None


# Dormand-Prince 5(4) pair (Dormand & Prince 1980; Hairer, Norsett & Wanner,
# Solving ODEs I, Table II.5.2) with the step controller of scipy's RK45:
# stage coefficients A, fifth-order weights B, error weights E (the
# difference of the two embedded solutions, over the stages plus the FSAL
# stage). The drift is autonomous, so the stage times are not needed.
_A21 = 1 / 5
_A31, _A32 = 3 / 40, 9 / 40
_A41, _A42, _A43 = 44 / 45, -56 / 15, 32 / 9
_A51, _A52, _A53, _A54 = 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729
_A61, _A62, _A63, _A64, _A65 = (9017 / 3168, -355 / 33, 46732 / 5247,
                                49 / 176, -5103 / 18656)
_B1, _B3, _B4, _B5, _B6 = 35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84
_E1, _E3, _E4, _E5, _E6, _E7 = (-71 / 57600, 71 / 16695, -71 / 1920,
                                17253 / 339200, -22 / 525, 1 / 40)
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0
_ERROR_EXPONENT = -1 / 5
_ATOL, _RTOL = 1e-12, 1e-9
_MAX_STEP = 1.0

# A basin attempt that the certificate refuses still stops the run as
# located where the planar drift and the state's distance to the attempt's
# Newton point are both below _CERTIFY_BELOW, at a stable planar Jacobian.
_CERTIFY_BELOW = 1e-6


def _rms(a: float, b: float, c: float) -> float:
    return math.sqrt((a * a + b * b + c * c) / 3.0)


def _initial_step(f, y, k, horizon: float) -> float:
    """First step size by the rule of Hairer, Norsett & Wanner (Sec. II.4),
    as scipy's select_initial_step applies it to a fourth-order error
    estimate, capped at _MAX_STEP and the horizon. A trial step h0 that
    underflows to 0 gives d2 = inf and so a first step of 0, which the
    stepper raises to its minimum step."""
    s0, s1, s2 = (_ATOL + abs(v) * _RTOL for v in y)
    d0 = _rms(y[0] / s0, y[1] / s1, y[2] / s2)
    d1 = _rms(k[0] / s0, k[1] / s1, k[2] / s2)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, horizon)
    k1 = f(y[0] + h0 * k[0], y[1] + h0 * k[1], y[2] + h0 * k[2])
    d2 = math.inf if h0 == 0.0 else _rms(
        (k1[0] - k[0]) / s0, (k1[1] - k[1]) / s1, (k1[2] - k[2]) / s2) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 5)
    return min(100 * h0, h1, horizon, _MAX_STEP)


# ---------------------------------------------------------------------------
# Basin certificate on the planar field
# ---------------------------------------------------------------------------

# A failed basin attempt is retried once the planar drift has fallen to
# _BASIN_RETRY of its value at that attempt. Newton on the planar field stops
# once a correction is below _BASIN_FLOOR (theta and psi are fractions, so
# that is a few units in the last place), once corrections stop halving, or
# after _BASIN_NEWTON corrections.
_BASIN_RETRY = 0.25
_BASIN_NEWTON = 12
_BASIN_FLOOR = 1e-15


def _iprod(al: float, ah: float, bl: float, bh: float) -> tuple[float, float]:
    """The product of the intervals [al, ah] and [bl, bh], rounded outward.
    An inf or nan endpoint gives the whole line, so that min and max never
    see a nan product, which they would drop."""
    if (al + ah + bl + bh) * 0.0 != 0.0:
        return -math.inf, math.inf
    p, q, r, s = al * bl, al * bh, ah * bl, ah * bh
    return (math.nextafter(min(p, q, r, s), -math.inf),
            math.nextafter(max(p, q, r, s), math.inf))


def _q_bound(p11: float, p12: float, p22: float, j11l: float, j11h: float,
             j12l: float, j12h: float, j21l: float, j21h: float,
             j22l: float, j22h: float) -> float:
    """An upper bound on lambda_max(P M + M^T P) over every M in the box
    [j11l, j11h] x ... x [j22l, j22h], for P = [[p11, p12], [p12, p22]]
    with p11, p22 > 0. Q(M) = P M + M^T P is linear in M, so each entry is
    enclosed from the products of P's entries with the ends, rounded
    outward: the upper ends of Q_11 and Q_22, both ends of Q_12. Then
    lambda_max(Q) <= max(Q_11, Q_22) + |Q_12| (Gershgorin). An inf or
    nan end, or a product past the float range, makes an entry of Q not
    finite, and that gives inf, so that max never drops a nan."""
    nx, up, dn = math.nextafter, math.inf, -math.inf
    q11 = 2.0 * nx(nx(p11 * j11h, up)
                   + nx(max(p12 * j21l, p12 * j21h), up), up)
    q22 = 2.0 * nx(nx(max(p12 * j12l, p12 * j12h), up)
                   + nx(p22 * j22h, up), up)
    q12l = nx(nx(nx(p11 * j12l, dn) + nx(p22 * j21l, dn), dn)
              + nx(nx(min(p12 * j11l, p12 * j11h), dn)
                   + nx(min(p12 * j22l, p12 * j22h), dn), dn), dn)
    q12h = nx(nx(nx(p11 * j12h, up) + nx(p22 * j21h, up), up)
              + nx(nx(max(p12 * j11l, p12 * j11h), up)
                   + nx(max(p12 * j22l, p12 * j22h), up), up), up)
    if not (q11 + q22 + q12l + q12h) * 0.0 == 0.0:
        return math.inf
    return nx(max(q11, q22) + max(-q12l, q12h), up)


def _basin(disease: DiseaseParams, nu: VaRatePolicy, beta: ResponseParams):
    """The basin certificate on the planar (theta, psi) field, with the
    parameters bound. Returns (locate, certify, located).

    The (theta, psi) drift of `_field` is g(theta, psi) / (eta varrho) with

        g = (lam theta (phi - 1/rho),
             phi min(1, beta psi) (nu_b + nu_e psi) - b psi),

    which does not depend on eta. While eta > 0 and varrho > 0, (theta, psi)
    therefore runs along the orbits of g at a positive speed, and eta obeys
    the stable linear equation eta' = (b - d)/varrho - eta. The constants
    are the floats `_field` uses (1/rho included), so g is the field the
    stepper integrates.

    `locate(theta, psi)` runs Newton on g with its analytic Jacobian Dg from
    (theta, psi) and returns the last iterate.

    `located(centre, point)` is True if `point` lies within _CERTIFY_BELOW
    of `centre` in max-norm and Dg(centre) has tr < 0 < det. It proves
    nothing; it is the stop for equilibria on the kink beta psi = 1, where
    the box of every ellipsoid reaches both sides of the kink and is
    refused (step 3 below), and it is only asked where the planar drift is
    below _CERTIFY_BELOW as well.

    `certify(centre, point)` is True only if the exact flow from every state
    with eta > 0 whose (theta, psi) is `point` converges to one equilibrium
    x of g, with |x - y*| <= 2 |P| |g(y*)| / m for y* = `centre` (P and m
    below). The argument is the quadratic Lyapunov estimate of the region
    of attraction (Khalil, Nonlinear Systems, 3rd ed., Sec. 8.2), with each
    bound enclosed in interval arithmetic:

    1. A = Dg(y*) in floats, with tr A < 0 < det A. P solves
       A^T P + P A = -I in closed form (for A = [[a, b], [c, d]]:
       P = -1/(2 tr det) [[det + c^2 + d^2, -(ac + bd)],
                          [-(ac + bd), det + a^2 + b^2]]), and p11 > 0 and
       det P > 0 are checked with det P rounded down. A and P are the
       floats computed; every bound below is taken for those floats, so
       their own rounding (P A + A^T P is -I only up to it) is charged
       where it shows.
    2. E = {y : (y - y*)^T P (y - y*) <= l}. The level l is an upper bound
       on the level of `point`, whose offset from y* is enclosed by one
       float either side of the rounded difference, so `point` lies in E.
       E's bounding box B has half-widths sqrt(l (P^-1)_ii), rounded up; a
       half-width above 1 refuses.
    3. Over B, in interval arithmetic: varrho > 0, and an enclosure D of
       Dg. B must lie on one side of the kink beta psi = 1 of
       min(1, beta psi), and a box that reaches both sides is refused; so
       g is a polynomial on B and D encloses its Jacobian there. Q(M) =
       P M + M^T P is linear in M, so Q is enclosed entrywise over D from
       the products of p11, p12 and p22 with D's ends, and for every M in
       D, lambda_max(Q(M)) <= max_i Q_ii + |Q_12| (Gershgorin) at the
       upper ends of Q_11, Q_22 and |Q_12| (_q_bound).
    4. m = -(that bound). For x, z in E (convex, inside B), the mean value
       theorem along the segment gives g(x) - g(z) = M (x - z), with M the
       mean of Dg over the segment, which lies in the box D. So
       2 (x - z)^T P (g(x) - g(z)) = (x - z)^T Q(M) (x - z)
       <= -m |x - z|^2. If m > 0, E holds at most one equilibrium.
    5. On the boundary of E, |y - y*| >= sqrt(l / |P|), with |P| =
       lambda_max(P) = (p11 + p22)/2 + sqrt(((p11 - p22)/2)^2 + p12^2)
       rounded up. With r = g(y*), the residual of Newton, enclosed at the
       point, the derivative of V = (y - y*)^T P (y - y*) along g is at most
       2 |P| |r| |y - y*| - m |y - y*|^2 there. The test
       m sqrt(l / |P|) > 2 |P| |r| makes it negative, so E is forward
       invariant and, being compact and convex, holds an equilibrium x. By
       4, W = (y - x)^T P (y - x) falls at the rate m |y - x|^2 along g,
       so every orbit in E converges to x, and 4 at (y*, x) gives the
       bound on |x - y*|.
    6. On B, varrho is bounded, and so is eta, by max(eta_0,
       (b - d)/min varrho), with b > d (DiseaseParams); the time change
       1/(eta varrho) thus stays above a positive constant. The ODE's
       (theta, psi) therefore reaches x, and eta tends to (b - d)/varrho(x).

    Rounding: every bound is a float expression whose operations are each
    stepped one float outward by math.nextafter, down for a lower bound and
    up for an upper one. A float operation returns its exact result rounded
    to nearest, within half a unit in the last place, so the stepped result
    encloses the exact one: directed rounding (Moore, Kearfott & Cloud,
    Introduction to Interval Analysis, SIAM 2009, Sec. 4.1) applied after
    each operation. Negation and doubling are exact and are not stepped.
    An inf or nan anywhere refuses: every comparison is written so that a
    nan fails it, and the enclosures are summed and tested finite.
    """
    lam, r, b, d = disease.lam, disease.r, disease.b, disease.d
    inv_rho = 1.0 / disease.rho
    nu_b, nu_e, bt = nu.nu_b, nu.nu_e, beta.beta
    nx, up, dn = math.nextafter, math.inf, -math.inf
    # 1 - 1/rho and b + d, enclosed
    omr_l, omr_h = nx(1.0 - inv_rho, dn), nx(1.0 - inv_rho, up)
    bd_l = nx(b + d, dn)

    def dg(theta: float, psi: float):
        phi = 1.0 - theta - psi
        supply = nu_b + nu_e * psi
        accept = bt * psi
        if accept < 1.0:
            return (lam * (phi - theta - inv_rho), -lam * theta,
                    -accept * supply,
                    -accept * supply + phi * (bt * supply + accept * nu_e) - b)
        return (lam * (phi - theta - inv_rho), -lam * theta,
                -supply, -supply + phi * nu_e - b)

    def locate(theta: float, psi: float) -> tuple[float, float]:
        last = math.inf
        for _ in range(_BASIN_NEWTON):
            phi = 1.0 - theta - psi
            accept = bt * psi
            g1 = lam * theta * (phi - inv_rho)
            g2 = (phi * (accept if accept < 1.0 else 1.0)
                  * (nu_b + nu_e * psi) - b * psi)
            j11, j12, j21, j22 = dg(theta, psi)
            det = j11 * j22 - j12 * j21
            if det == 0.0:
                break
            s0 = (j22 * g1 - j12 * g2) / det
            s1 = (j11 * g2 - j21 * g1) / det
            theta, psi = theta - s0, psi - s1
            size = abs(s0) if abs(s0) > abs(s1) else abs(s1)
            if size <= _BASIN_FLOOR or not size <= 0.5 * last:
                break
            last = size
        return theta, psi

    def certify(centre: tuple[float, float],
                point: tuple[float, float]) -> bool:
        c0, c1 = centre
        a11, a12, a21, a22 = dg(c0, c1)
        tr, det = a11 + a22, a11 * a22 - a12 * a21
        x = 2.0 * tr * det
        if not (tr < 0.0 < det and x < 0.0):
            return False
        k = -1.0 / x
        p11 = k * (det + a21 * a21 + a22 * a22)
        p12 = -k * (a11 * a21 + a12 * a22)
        p22 = k * (det + a11 * a11 + a12 * a12)
        det_p = nx(nx(p11 * p22, dn) - nx(p12 * p12, up), dn)
        if not (p11 > 0.0 and det_p > 0.0):
            return False
        # the level of `point`, and E's bounding box
        x = point[0] - c0
        e0l, e0h = nx(x, dn), nx(x, up)
        x = point[1] - c1
        e1l, e1h = nx(x, dn), nx(x, up)
        m0, m1 = max(-e0l, e0h), max(-e1l, e1h)
        el, eh = _iprod(e0l, e0h, e1l, e1h)
        x = nx(2.0 * p12 * (eh if p12 > 0.0 else el), up)
        level = nx(nx(nx(p11 * nx(m0 * m0, up), up) + x, up)
                   + nx(p22 * nx(m1 * m1, up), up), up)
        w0 = nx(math.sqrt(nx(nx(level * p22, up) / det_p, up)), up)
        w1 = nx(math.sqrt(nx(nx(level * p11, up) / det_p, up)), up)
        if not (w0 <= 1.0 and w1 <= 1.0):
            return False
        tl, th = nx(c0 - w0, dn), nx(c0 + w0, up)
        sl, sh = nx(c1 - w1, dn), nx(c1 + w1, up)
        # phi and the supply nu_b + nu_e psi (nu_e >= 0) over the box
        fl, fh = nx(nx(1.0 - th, dn) - sh, dn), nx(nx(1.0 - tl, up) - sl, up)
        ul = nx(nu_b + nx(nu_e * sl, dn), dn)
        uh = nx(nu_b + nx(nu_e * sh, up), up)
        # varrho = b + d + lam theta phi + supply phi + r theta, from below
        x = nx(bd_l + nx(lam * _iprod(tl, th, fl, fh)[0], dn), dn)
        x = nx(nx(x + _iprod(ul, uh, fl, fh)[0], dn) + nx(r * tl, dn), dn)
        if not x > 0.0:
            return False
        # Dg over the box: lam (1 - 1/rho - 2 theta - psi), -lam theta, and
        # the branch of min(1, beta psi) that the box lies on; a box that
        # reaches both sides of the kink beta psi = 1 is refused
        j11l = nx(lam * nx(nx(omr_l - 2.0 * th, dn) - sh, dn), dn)
        j11h = nx(lam * nx(nx(omr_h - 2.0 * tl, up) - sl, up), up)
        j12l, j12h = nx(-lam * th, dn), nx(-lam * tl, up)
        al, ah = nx(bt * sl, dn), nx(bt * sh, up)
        if ah < 1.0:
            # a = beta psi: -a s and -a s + phi (beta s + a nu_e) - b
            xl, xh = _iprod(al, ah, ul, uh)
            yl, yh = _iprod(fl, fh,
                            nx(nx(bt * ul, dn) + nx(al * nu_e, dn), dn),
                            nx(nx(bt * uh, up) + nx(ah * nu_e, up), up))
            j21l, j21h = -xh, -xl
            j22l = nx(nx(yl - xh, dn) - b, dn)
            j22h = nx(nx(yh - xl, up) - b, up)
        elif al >= 1.0:
            # a = 1: -s and -s + phi nu_e - b
            j21l, j21h = -uh, -ul
            j22l = nx(nx(nx(fl * nu_e, dn) - uh, dn) - b, dn)
            j22h = nx(nx(nx(fh * nu_e, up) - ul, up) - b, up)
        else:
            return False
        # |g(y*)|: lam theta (phi - 1/rho), and phi a s - b psi with
        # a = min(1, beta psi) monotone
        fl, fh = nx(nx(1.0 - c0, dn) - c1, dn), nx(nx(1.0 - c0, up) - c1, up)
        r0 = nx(nx(lam * abs(c0), up) * max(-nx(fl - inv_rho, dn),
                                             nx(fh - inv_rho, up)), up)
        xl, xh = _iprod(fl, fh, min(nx(bt * c1, dn), 1.0),
                        min(nx(bt * c1, up), 1.0))
        xl, xh = _iprod(xl, xh, nx(nu_b + nx(nu_e * c1, dn), dn),
                        nx(nu_b + nx(nu_e * c1, up), up))
        r1 = max(-nx(xl - nx(b * c1, up), dn), nx(xh - nx(b * c1, dn), up))
        margin = -_q_bound(p11, p12, p22, j11l, j11h, j12l, j12h,
                           j21l, j21h, j22l, j22h)
        if not (margin + r0 + r1) * 0.0 == 0.0:
            return False
        x = nx(abs(p11 - p22) * 0.5, up)
        norm_p = nx(nx((p11 + p22) * 0.5, up) + nx(math.sqrt(
            nx(nx(x * x, up) + nx(p12 * p12, up), up)), up), up)
        res = nx(math.sqrt(nx(nx(r0 * r0, up) + nx(r1 * r1, up), up)), up)
        return (margin > 0.0
                and nx(margin * nx(math.sqrt(nx(level / norm_p, dn)), dn),
                       dn) > nx(2.0 * nx(norm_p * res, up), up))

    def located(centre: tuple[float, float],
                point: tuple[float, float]) -> bool:
        a11, a12, a21, a22 = dg(*centre)
        return (a11 + a22 < 0.0 < a11 * a22 - a12 * a21
                and abs(point[0] - centre[0]) < _CERTIFY_BELOW
                and abs(point[1] - centre[1]) < _CERTIFY_BELOW)

    return locate, certify, located


def integrate_to_equilibrium(init: OdeState, disease: DiseaseParams,
                             nu: VaRatePolicy, beta: ResponseParams,
                             horizon: float = 600.0) -> IntegrationResult:
    """Integrate the mean-field ODE until its limit is certified or
    located, or the horizon is hit.

    The stepper is Dormand-Prince 5(4) over Python floats with scipy RK45's
    error norm, controller and first-step rule (_RTOL = 1e-9, _ATOL =
    1e-12, steps of at most 1), reusing each step's last stage as the next
    one's first. A rejected step is retried with the step scaled by
    0.9 * err^(-1/5), at least 0.2; after an accepted one the next step is
    scaled by the same factor, at most 10 (at most 1 after a rejection).
    Every accepted step is recorded.

    The run stops as converged only at a basin attempt, made by one rule
    at each state with eta > 0: the start (before the first step size and
    the stepper's constants), each accepted step whose planar drift
    max(|theta'|, |psi'|) has fallen to _BASIN_RETRY = 1/4 of its value at
    the last failed attempt, and the state that reaches the horizon,
    whatever its drift. Newton on the planar (theta, psi) field locates an
    equilibrium y*, and `_basin` tries to prove that the
    ellipsoid of a quadratic Lyapunov function around y*, through the
    current state, lies in y*'s region of attraction (Khalil, Nonlinear
    Systems, Sec. 8.2, checked in interval arithmetic). If it does, the run
    stops there ("basin certificate"), and `t` and `states` end at the
    state the proof started from, which may be the start alone and may lie
    as far from the limit as the ellipsoid reaches. If it does not, the
    run still stops ("located") where the planar drift is below
    _CERTIFY_BELOW = 1e-6, Dg(y*) has tr < 0 < det, and theta and psi both
    lie within 1e-6 of y*. That stop is not a proof; it serves the
    equilibria on the kink beta psi* = 1, where the certificate refuses
    every ellipsoid whose box reaches both sides of the kink. Either way
    `limit` is (theta*, psi*, (b - d)/varrho(theta*, psi*)).

    A run that reaches its horizon without a stop, that last attempt
    included, reports converged=False instead of raising, and so does a
    step size that falls below ten units in the last place of t; a zero
    horizon takes no step and makes no basin attempt. A
    non-hyperbolic equilibrium (e.g. rho = 1) has a singular Dg and is
    never certified; its slow algebraic approach is located only once the
    state is within 1e-6 of the Newton point, so from farther out it runs
    to the horizon. `message` names the stop or the failure. `rhs_evals`
    counts every evaluation of the drift: one at the start, one for the
    first step size (none with a zero horizon, or when the attempt at the
    start stops the run), six per step tried, and one for the eta of a
    converged limit. So a run certified at its start counts 2, one that
    converges after n tried steps 3 + 6n. A basin attempt evaluates the
    planar polynomial and its analytic Jacobian instead, and is not
    counted. `basin_attempts` counts the attempts, and `stop` is the stop
    that closed a converged run, "basin certificate" or "located", and
    None on a run that did not converge.
    """
    return _integrate(init, disease, nu, beta, horizon, basin=True)


def _integrate(init: OdeState, disease: DiseaseParams, nu: VaRatePolicy,
               beta: ResponseParams, horizon: float,
               basin: bool) -> IntegrationResult:
    """The one loop behind integrate_to_equilibrium: each pass makes a
    basin attempt at its state if it is the start, its drift has fallen to
    a quarter or it reaches the horizon (eta > 0 in each case), stops on a
    stop or at the horizon, and else takes one step. With basin=False it
    makes no basin attempt, so that the path runs on to the horizon (or a
    step size collapse): `matched_ode` needs the path itself.

    Both loops end. A rejection scales the step by at most 0.9 (err >= 1,
    or nan, gives a factor in [0.2, 0.9]), so the retries stop once it is
    below ten units in the last place of t; an accepted step moves t up by
    at least that much, and the horizon is finite."""
    require_scaled("horizon", horizon, math.inf, least=0)
    f = _field(disease, nu, beta)
    y0, y1, y2 = float(init.theta), float(init.psi), float(init.eta)
    t = 0.0
    ts, ys = [t], [(y0, y1, y2)]
    msg = (f"horizon {horizon} exceeded without a certified or located "
           "stable equilibrium")
    k0, k1, k2, _ = f(y0, y1, y2)
    evals, attempts, stop = 1, 0, None
    # attempts where the planar drift is at most `retry` (the start's
    # included; none on the path route, as drift >= 0) and at the horizon
    retry = math.inf if basin else -1.0
    if basin:
        locate, certify, located = _basin(disease, nu, beta)

        def attempt(y0, y1, drift):
            """The attempt's Newton point and its stop, None if refused."""
            centre = locate(y0, y1)
            if certify(centre, (y0, y1)):
                return centre, ("basin certificate", "a Lyapunov ellipsoid "
                                "through the state lies in the region of "
                                "attraction")
            if drift < _CERTIFY_BELOW and located(centre, (y0, y1)):
                return centre, ("located", f"theta and psi lie within "
                                f"{_CERTIFY_BELOW} of a Newton point where "
                                "Dg is stable")
            return centre, None
    while horizon > 0.0:
        drift = abs(k0) if abs(k0) > abs(k1) else abs(k1)
        if (drift <= retry or basin and t >= horizon) and y2 > 0.0:
            attempts += 1
            centre, stop = attempt(y0, y1, drift)
            retry = _BASIN_RETRY * drift
        if stop is not None or t >= horizon:
            break
        if evals == 1:
            # the first pass: the stepper's set-up comes after the start's
            # attempt, so that a start it closes pays for no first step size
            h_abs = _initial_step(f, (y0, y1, y2), (k0, k1, k2), horizon)
            evals = 2
        # One flat loop over scalars: each stage and the error norm are
        # written out from the tableau constants, and builtin min/max are
        # comparisons that give the same double. Every float operation keeps
        # the operands and the order of the textbook step, so the result is
        # bit-identical to a step function over tuples. It retries from
        # (t, y) until a step passes the error test, or the step falls below
        # ten units in the last place of t.
        min_step = 10 * (math.nextafter(t, math.inf) - t)
        if h_abs > _MAX_STEP:
            h_abs = _MAX_STEP
        elif h_abs < min_step:
            h_abs = min_step
        rejected = False
        while h_abs >= min_step:
            t_new = t + h_abs
            if t_new > horizon:
                t_new = horizon
            h = t_new - t
            evals += 6
            p0, p1, p2, _ = f(y0 + _A21 * k0 * h, y1 + _A21 * k1 * h,
                              y2 + _A21 * k2 * h)
            q0, q1, q2, _ = f(y0 + (_A31 * k0 + _A32 * p0) * h,
                              y1 + (_A31 * k1 + _A32 * p1) * h,
                              y2 + (_A31 * k2 + _A32 * p2) * h)
            r0, r1, r2, _ = f(
                y0 + (_A41 * k0 + _A42 * p0 + _A43 * q0) * h,
                y1 + (_A41 * k1 + _A42 * p1 + _A43 * q1) * h,
                y2 + (_A41 * k2 + _A42 * p2 + _A43 * q2) * h)
            s0, s1, s2, _ = f(
                y0 + (_A51 * k0 + _A52 * p0 + _A53 * q0 + _A54 * r0) * h,
                y1 + (_A51 * k1 + _A52 * p1 + _A53 * q1 + _A54 * r1) * h,
                y2 + (_A51 * k2 + _A52 * p2 + _A53 * q2 + _A54 * r2) * h)
            u0, u1, u2, _ = f(
                y0 + (_A61 * k0 + _A62 * p0 + _A63 * q0 + _A64 * r0
                      + _A65 * s0) * h,
                y1 + (_A61 * k1 + _A62 * p1 + _A63 * q1 + _A64 * r1
                      + _A65 * s1) * h,
                y2 + (_A61 * k2 + _A62 * p2 + _A63 * q2 + _A64 * r2
                      + _A65 * s2) * h)
            n0 = y0 + h * (_B1 * k0 + _B3 * q0 + _B4 * r0 + _B5 * s0
                           + _B6 * u0)
            n1 = y1 + h * (_B1 * k1 + _B3 * q1 + _B4 * r1 + _B5 * s1
                           + _B6 * u1)
            n2 = y2 + h * (_B1 * k2 + _B3 * q2 + _B4 * r2 + _B5 * s2
                           + _B6 * u2)
            l0, l1, l2, _ = f(n0, n1, n2)
            # RMS of the embedded error over
            # _ATOL + _RTOL * max(|y|, |y_new|)
            w0, x = abs(y0), abs(n0)
            if x > w0:
                w0 = x
            w1, x = abs(y1), abs(n1)
            if x > w1:
                w1 = x
            w2, x = abs(y2), abs(n2)
            if x > w2:
                w2 = x
            w0 = ((_E1 * k0 + _E3 * q0 + _E4 * r0 + _E5 * s0 + _E6 * u0
                   + _E7 * l0) * h / (_ATOL + w0 * _RTOL))
            w1 = ((_E1 * k1 + _E3 * q1 + _E4 * r1 + _E5 * s1 + _E6 * u1
                   + _E7 * l1) * h / (_ATOL + w1 * _RTOL))
            w2 = ((_E1 * k2 + _E3 * q2 + _E4 * r2 + _E5 * s2 + _E6 * u2
                   + _E7 * l2) * h / (_ATOL + w2 * _RTOL))
            err = math.sqrt((w0 * w0 + w1 * w1 + w2 * w2) / 3.0)
            if err < 1.0:
                break
            x = _SAFETY * err ** _ERROR_EXPONENT
            h_abs = h * (x if x > _MIN_FACTOR else _MIN_FACTOR)
            rejected = True
        if not h_abs >= min_step:
            msg = f"step size collapsed at t = {t:.6g}"
            break
        if err == 0.0:
            x = _MAX_FACTOR
        else:
            x = _SAFETY * err ** _ERROR_EXPONENT
            if not x < _MAX_FACTOR:
                x = _MAX_FACTOR
        if rejected and not x < 1.0:
            x = 1.0
        t, h_abs = t_new, h * x
        y0, y1, y2, k0, k1, k2 = n0, n1, n2, l0, l1, l2
        ts.append(t)
        ys.append((y0, y1, y2))
    converged, yf = stop is not None, ys[-1]
    if converged:
        evals += 1
        yf = (centre[0], centre[1], (disease.b - disease.d)
              / f(centre[0], centre[1], 1.0)[3])
        msg = (f"converged: {stop[0]} at t = {t:.6g} "
               f"(attempt {attempts}): {stop[1]}")
    limit = OdeState(max(yf[0], 0.0), max(yf[1], 0.0), yf[2])
    return IntegrationResult(np.array(ts), np.array(ys), limit, converged,
                             msg, evals, attempts,
                             stop[0] if converged else None)


# ---------------------------------------------------------------------------
# Jump process
# ---------------------------------------------------------------------------

# Events are decided in numpy windows (`_window`) whose width, in uniforms,
# each chain sets from what its windows keep, held to _NARROWEST.._WIDEST.
# A window of L uniforms keeps min(R, L) of them, R being where its first
# guess fails, and costs about as much as _OVERHEAD + L uniforms: at
# N0 = 1e5, 0.03 us a uniform and 75 us a window, 48-50 of them in
# `_window`'s numpy calls and 27 in the chain's loop, which sums the
# window's clock and takes its records. Kept uniforms per cost are greatest
# where P(R > L) = E[min(R, L)] / (_OVERHEAD + L), so after each whole
# window the width moves by _GAIN times that window's own sample of the
# difference (Robbins and Monro 1951). The first width is 1.75 N0^(2/3),
# as the run of right guesses grows like N^(2/3) (README).
_NARROWEST, _WIDEST = 64, 4096
_OVERHEAD, _GAIN = 2600.0, 0.1
_POSITIONS = np.arange(_WIDEST)

# An event has one of eight outcomes: infection, recovery, birth, the death
# of an S, a V or an I, and an offer accepted or declined. The first three
# take one uniform, the others two. _STEP[:, o] is outcome o's change of
# (S, V, I, N).
_STEP = np.array([(-1, 0, 1, 0), (1, 0, -1, 0), (1, 0, 0, 1),
                  (-1, 0, 0, -1), (0, -1, 0, -1), (0, 0, -1, -1),
                  (-1, 1, 0, 0), (0, 0, 0, 0)], dtype=float).T.copy()
# _OUTCOME[6*branch + 2*death + declined] is the outcome, where branch is
# the first uniform's (0 infection, 1 recovery, 2 birth, 3 death, 4 offer),
# death the dying compartment (0 S, 1 V, 2 I), and declined whether an offer
# is declined; a branch ignores the parts that are not its own
_OUTCOME = np.array([0] * 6 + [1] * 6 + [2] * 6 + [3, 3, 4, 4, 5, 5]
                    + [6, 7] * 3)
for _table in (_POSITIONS, _STEP, _OUTCOME):
    _table.flags.writeable = False


def _thresholds(s, v, i, n, rates: tuple[float, ...]):
    """An event's thresholds (c_inf, c_rec, c_birth, c_death, total, accept)
    from the counts (S, V, I, N) before it, each a scalar or one per event,
    left to right as one event alone computes them: lam*S*I/N, c_inf + r*I,
    c_rec + b*N, c_birth + d*N, c_death + (nu_b + nu_e*psi)*S and beta*psi,
    with psi = V/N."""
    lam, r, b, d, nu_b, nu_e, bt = rates
    psi = v / n
    # in place over arrays, where a temporary per operation costs a window
    # about 2 %; the sums commute, so scalars get the same doubles
    c_inf = lam * s
    c_inf *= i
    c_inf /= n
    c_rec = c_inf + r * i
    c_birth = c_rec + b * n
    c_death = c_birth + d * n
    total = nu_e * psi
    total += nu_b
    total *= s
    total += c_death
    return c_inf, c_rec, c_birth, c_death, total, bt * psi


def _outcomes(u, second, thresholds, s, v, n):
    """The outcome of each event whose first uniform times the total rate
    is u and whose next uniform is second, under the `_thresholds` given:
    u picks the branch, second*n the dying compartment, and second < accept
    accepts an offer."""
    c_inf, c_rec, c_birth, c_death, _, accept = thresholds
    branch = ((u >= c_inf).view(np.int8) + (u >= c_rec).view(np.int8)
              + (u >= c_birth).view(np.int8) + (u >= c_death).view(np.int8))
    u2 = second * n
    death = (u2 >= s).view(np.int8) + (u2 >= s + v).view(np.int8)
    return _OUTCOME.take(6 * branch + 2 * death
                         + (second >= accept).view(np.int8))


def _window(w, cap: int, counts: tuple[float, float, float, float],
            rates: tuple[float, ...]):
    """Decide the events that start in the uniforms w, at most cap of them,
    from the exact counts (S, V, I, N) before the first; w[0] starts an
    event and each event starts with a second uniform left in w.

    Returns the number a >= 1 of events decided, the number of uniforms
    they take, and an array whose columns 0..a are the counts before the
    first event and after each.

    Every event is guessed from the `_thresholds` at the start, and every
    guess is then checked against those of the counts the guesses before it
    give: the events up to the first wrong guess are exact, and so is the
    state before that one, which is then decided from it.
    """
    s, v, i, n = counts
    start = _thresholds(s, v, i, n, rates)
    c_birth, total = start[2], start[4]
    u = w * total
    # An event takes a second uniform exactly when u >= c_birth, so a
    # position starts an event iff its distance to the last position that
    # follows a one-uniform draw is even; w[0] counts as such a position.
    last = len(w) - 1                 # positions that can start an event
    follows = np.empty(last, np.intp)
    follows[0] = 0
    np.multiply(_POSITIONS[1:last], u[:last - 1] < c_birth,
                out=follows[1:])
    np.maximum.accumulate(follows, out=follows)
    at = np.flatnonzero(((_POSITIONS[1:last + 1] + follows) & 1) != 0)[:cap]
    second = w[at + 1]
    guess = _outcomes(u[at], second, start, s, v, n)
    states = np.empty((4, len(at) + 1))
    states[:, 0] = counts
    # the counts are exact integers, and each outcome moves N by the sum of
    # its S, V and I changes, so N = S + V + I gives the same doubles as a
    # fourth cumsum
    svi = states[:3]
    _STEP[:3].take(guess, axis=1, out=svi[:, 1:])
    np.cumsum(svi, axis=1, out=svi)
    np.add(states[0], states[1], out=states[3])
    states[3] += states[2]
    if n <= len(at):
        # N moves by one an event, so only here can a guessed N reach 0;
        # no event is guessed past the first such state
        zero = np.flatnonzero(states[3, 1:] == 0.0)
        if zero.size:
            at, guess = at[:zero[0] + 1], guess[:zero[0] + 1]
    e = len(at)
    S, V, I, N = states[:, :e]
    check = _thresholds(S, V, I, N, rates)
    exact = _outcomes(w[at] * check[4], second[:e], check, S, V, N)
    wrong = guess != exact
    a = int(wrong.argmax())
    if wrong[a]:
        states[:, a + 1] = states[:, a] + _STEP[:, exact[a]]
    else:
        a = e - 1
    return a + 1, int(at[a]) + 1 + int(exact[a] >= 3), states


@dataclass
class JumpTrajectory:
    t: np.ndarray               # algorithmic time, t=0 at the start
    theta: np.ndarray
    psi: np.ndarray
    eta: np.ndarray
    extinct: bool
    events: int
    seed: int


def simulate_jump_process(initial_counts: tuple[int, int, int, int],
                          disease: DiseaseParams, nu: VaRatePolicy,
                          beta: ResponseParams, seed: int,
                          n_events: int, eta0: float | None = None,
                          record_every: int = 1) -> JumpTrajectory:
    """Run the embedded event chain of the population jump process.

    Events and their rates: infection lam*S*I/N, recovery r*I, birth b*N
    (newborns susceptible), death d*N (uniform individual), and vaccine
    offers at rate (nu_b + nu_e*psi)*S, accepted with probability
    min(1, beta*psi). Offers that are declined still count as events of
    the chain. The k-th transition advances the chain clock by 1/(1+k),
    with eta_k = N_k/(1+k); `eta0` fixes the starting index so the chain
    clock and the ODE clock agree (k0 ~ N0/eta0). The first record is
    (I0/N0, V0/N0, N0/(1+k0)), the start `matched_ode` gives the ODE.

    Extinction (N = 0) stops the run with a flag. Reproducible from seed.
    With n_events = 0 the trajectory is the initial point alone.

    Counts must be integer values (2.0 is taken, 2.5 or inf is rejected);
    n_events must be an integer >= 0, record_every one >= 1, seed one
    >= 0, and eta0 a positive finite number (a bool is none of these), all
    checked before the first draw. The loop holds the counts as Python
    floats, which stay exact integers: N0, the clock index N0/eta0 and
    then both plus n_events are checked against 2**53, in that order, so
    that N and k stay below it for every event, and each refusal names the
    argument that crossed it. Uniforms come in chunks of 16,384; each
    event takes one or two, and a chunk with fewer than two left is dropped
    for a new one, which is drawn only after the spent one is released, so
    two chunks are never alive at once.

    Numpy windows of 64 to 4,096 uniforms decide the events (`_window`).
    A window guesses every event from the thresholds at its start, sums the
    guessed count changes into the state before each event, recomputes
    every threshold and test from those states with the operands and order
    of a per-event computation, and keeps the events up to the first whose
    outcome (and so its uniform count) the guess got wrong, that one
    decided from its exact state. The width starts at 1.75 N0^(2/3) and
    then follows what the windows keep (see _OVERHEAD); as every window's
    events are exact, the width moves the speed alone, never a result. At
    N near 1e5 a window keeps about a thousand events; at small N only a
    few, so there a chain runs slower than a per-event loop would. The
    loop ends: a window that decides no event raises RuntimeError naming
    its place (no correct window does), so each window decides at least
    one event, and there are at most n_events windows.

    Each window sums its own clock by `np.add.accumulate`, from the clock
    before it over the terms 1/(1+k) of its events, left to right, so every
    record is the double a per-event `t += 1/(1+k)` gives; its records are
    one slice of its events. The rates are read as floats once. The offer
    is accepted when u < beta*psi: u lies in [0, 1), so this is the same
    test as u < min(1, beta*psi).
    """
    try:
        whole = all(_finite_number(x) and float(x).is_integer()
                    for x in initial_counts)
    except OverflowError:
        # an int past the float range
        whole = False
    if not whole:
        raise InvalidInput("initial_counts", "must be finite integer values")
    s, v, i, n = (int(x) for x in initial_counts)
    if n < 1 or s + v + i != n or min(s, v, i) < 0:
        raise InvalidInput("initial_counts", "must be nonnegative with "
                                             "S+V+I == N >= 1")
    if n >= 2 ** 53:
        raise InvalidInput("initial_counts", f"must keep N0 below 2**53, "
                           f"where counts are exact as floats, got N0 = {n}")
    require_integer("n_events", n_events, least=0)
    require_integer("record_every", record_every, least=1)
    require_integer("seed", seed, least=0)
    if eta0 is None:
        eta0 = float(n)
    if not (_finite_number(eta0) and eta0 > 0):
        raise InvalidInput("eta0", f"must be positive and finite, got {eta0}")
    # compared before int(): a tiny eta0 takes n / eta0 to inf
    if n / eta0 >= 2 ** 53:
        raise InvalidInput("eta0", f"must keep the clock index N0 / eta0 "
                                   f"below 2**53, got {eta0!r}")
    k = max(int(round(n / eta0)) - 1, 0)
    if max(n, k + 1) + n_events >= 2 ** 53:
        raise InvalidInput("n_events", f"must keep N0 + n_events and the "
                           f"clock index k0 + n_events below 2**53, where "
                           f"counts are exact as floats, got {n_events}")
    rng = np.random.default_rng(seed)

    rates = tuple(map(float, (disease.lam, disease.r, disease.b, disease.d,
                              nu.nu_b, nu.nu_e, beta.beta)))
    t = 0.0
    rec_t = [0.0]
    rec_theta = [i / n]
    rec_psi = [v / n]
    rec_eta = [n / (1 + k)]
    s, v, i, n = float(s), float(v), float(i), float(n)
    extinct = False
    done = 0

    chunk = 16384
    width = min(max(1.75 * n ** (2 / 3), _NARROWEST), _WIDEST)
    # w[pos:] are the uniforms left of the current chunk; the spent chunk
    # is released before the next is drawn
    w, pos = None, chunk
    while done < n_events and not extinct:
        if chunk - pos < 2:
            w = None
            w, pos = rng.random(chunk), 0
        span = w[pos:pos + int(width)]
        a, used, states = _window(span, n_events - done, (s, v, i, n), rates)
        if len(span) == int(width):
            # a window cut short by its chunk's end samples no width
            full = used >= len(span) - 1
            width *= 1.0 + _GAIN * (full - used / (_OVERHEAD + len(span)))
            width = min(max(width, _NARROWEST), _WIDEST)
        if a < 1:
            raise RuntimeError(f"the window at uniform {pos} of its "
                               "chunk decided no event")
        s, v, i, n = states[:, a].tolist()
        extinct = n == 0.0
        # index[q] is 1 + k after the window's q-th event, clock[q] is t
        index = np.arange(k + done + 1, k + done + a + 2)
        clock = 1.0 / index
        clock[0] = t
        np.add.accumulate(clock, out=clock)
        # the window's events whose count from the start is a multiple of
        # record_every; the extinction event is never a record
        rec = slice(record_every - done % record_every, a + 1 - extinct,
                    record_every)
        rec_t.extend(clock[rec].tolist())
        rec_v, rec_i, rec_n = states[1:, rec]
        rec_theta.extend((rec_i / rec_n).tolist())
        rec_psi.extend((rec_v / rec_n).tolist())
        rec_eta.extend((rec_n / index[rec]).tolist())
        t = float(clock[a])
        pos += used
        done += a

    if extinct:
        rec_t.append(t)
        rec_theta.append(0.0)
        rec_psi.append(0.0)
        rec_eta.append(0.0)

    return JumpTrajectory(np.array(rec_t), np.array(rec_theta),
                          np.array(rec_psi), np.array(rec_eta),
                          extinct=extinct, events=done, seed=seed)


def matched_ode(chain: JumpTrajectory, disease: DiseaseParams,
                nu: VaRatePolicy, beta: ResponseParams
                ) -> tuple[IntegrationResult, float]:
    """The mean-field ODE on the clock of a finished chain, and how far the
    chain strays from it.

    The ODE starts at the chain's first record, which already carries the
    chain's starting clock index in its eta, and runs just past the chain's
    last time. Returns the ODE result and the sup over the chain's record
    times of |theta| and |psi| differences, with the ODE interpolated
    linearly between its steps.

    The comparison needs the ODE's path up to the horizon, so this run makes
    no basin attempt and has no stop rule: its path is
    integrate_to_equilibrium's stepper, run to the horizon (or to a step
    size collapse), and it never reports converged.
    """
    start = OdeState(chain.theta[0], chain.psi[0], chain.eta[0])
    ode = _integrate(start, disease, nu, beta,
                     float(chain.t[-1]) + 1e-9, basin=False)
    th = np.interp(chain.t, ode.t, ode.states[:, 0])
    ps = np.interp(chain.t, ode.t, ode.states[:, 1])
    sup = max(float(np.max(np.abs(th - chain.theta))),
              float(np.max(np.abs(ps - chain.psi))))
    return ode, sup
