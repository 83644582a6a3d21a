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

import csv
import math
from dataclasses import dataclass

import numpy as np

from .params import (DiseaseParams, ResponseParams, VaRatePolicy,
                     require_finite)

# Conditions this close to a degenerate corner (beta*psi* = 1,
# beta = b*rho/nu_b, nu_e = b*rho - nu_b/theta*) are flagged and excluded.
DEGENERATE_BAND = 1e-9

SIMPLEX_TOL = 1e-9


@dataclass(frozen=True)
class OdeState:
    theta: float
    psi: float
    eta: float

    def __post_init__(self):
        for name in ("theta", "psi", "eta"):
            require_finite(name, getattr(self, name))
        for name in ("theta", "psi"):
            if getattr(self, name) < -SIMPLEX_TOL:
                raise ValueError(f"{name} must be nonnegative")
        if self.theta + self.psi > 1.0 + 1e-6:
            raise ValueError("theta + psi must not exceed 1")
        if self.eta <= 0:
            raise ValueError("eta must be positive")

    def as_array(self) -> np.ndarray:
        return np.array([self.theta, self.psi, self.eta], dtype=float)


def _field(disease: DiseaseParams, nu: VaRatePolicy, beta: ResponseParams):
    """The dynamics over plain floats, with the parameters bound.

    Returns f(theta, psi, eta) -> (dtheta, dpsi, deta, varrho): the drift
    and the per-capita event rate at one state. This is the one place the
    formulas are written; the supply rate nu.rate(psi) and the acceptance
    beta.acceptance(psi) are inlined, since the integrator calls f six
    times a step. min(1.0, beta*psi) is written as a comparison that gives
    the same double without the builtin call.
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


# varrho does not depend on the response
_NO_RESPONSE = ResponseParams(0.0)


def total_event_rate(theta: float, psi: float, disease: DiseaseParams,
                     nu: VaRatePolicy) -> float:
    """Per-capita event rate varrho at proportions (theta, psi)."""
    return _field(disease, nu, _NO_RESPONSE)(theta, psi, 1.0)[3]


def ode_rhs(state: OdeState, disease: DiseaseParams, nu: VaRatePolicy,
            beta: ResponseParams) -> np.ndarray:
    """Time derivative (dtheta, dpsi, deta) at the given state."""
    return np.array(_field(disease, nu, beta)(
        state.theta, state.psi, state.eta)[:3])


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
        raise ValueError("co-occurring equilibrium undefined: b*rho - nu_e <= 0")
    return nu.nu_b / denom


def admissibility_gap(nu: VaRatePolicy, disease: DiseaseParams) -> float:
    """nu_e - (b*rho - nu_b/theta_star); positive for admissible policies."""
    return nu.nu_e - (disease.b * disease.rho - nu.nu_b / disease.theta_star)


@dataclass(frozen=True)
class Candidate:
    theta: float
    psi: float
    eta: float
    active: bool
    degenerate: bool
    condition: str

    def state(self) -> OdeState:
        return OdeState(self.theta, self.psi, self.eta)


@dataclass(frozen=True)
class AttractorSet:
    non_vaccinating: Candidate | None
    eradicating: Candidate | None
    co_occurring: Candidate | None
    self_eradicating: Candidate | None

    def active(self) -> dict[str, Candidate]:
        out = {}
        for name in ("non_vaccinating", "eradicating", "co_occurring",
                     "self_eradicating"):
            cand = getattr(self, name)
            if cand is not None and cand.active:
                out[name] = cand
        return out


def _eta_at(theta: float, psi: float, disease: DiseaseParams,
            nu: VaRatePolicy) -> float:
    return (disease.b - disease.d) / total_event_rate(theta, psi, disease, nu)


def candidate_attractors(disease: DiseaseParams, nu: VaRatePolicy,
                         beta: ResponseParams) -> AttractorSet:
    """Equilibria with acceptance probability 0 or 1, with activity flags.

    A candidate is active when its stability condition holds strictly;
    conditions within DEGENERATE_BAND of equality mark the candidate
    degenerate and inactive. The eradicating and co-occurring candidates
    sit on opposite sides of nu_e = b*rho - nu_b/theta_star and are never
    both active.
    """
    b, rho = disease.b, disease.rho
    endemic = rho > 1.0

    # self-eradicating (0, 0): needs rho <= 1 and beta < b/nu_b
    beta_gap = math.inf if nu.nu_b == 0 else b / nu.nu_b - beta.beta
    se_degenerate = math.isfinite(beta_gap) and abs(beta_gap) <= DEGENERATE_BAND
    se_active = (not endemic) and beta_gap > DEGENERATE_BAND
    self_erad = Candidate(
        0.0, 0.0, _eta_at(0.0, 0.0, disease, nu),
        active=se_active, degenerate=se_degenerate,
        condition="rho <= 1 and beta < b/nu_b")

    non_vacc = erad = co_occ = None
    if endemic:
        theta_star = disease.theta_star

        nv_gap = math.inf if nu.nu_b == 0 else b * rho / nu.nu_b - beta.beta
        nv_degen = math.isfinite(nv_gap) and abs(nv_gap) <= DEGENERATE_BAND
        non_vacc = Candidate(
            theta_star, 0.0, _eta_at(theta_star, 0.0, disease, nu),
            active=nv_gap > DEGENERATE_BAND, degenerate=nv_degen,
            condition="beta < b*rho/nu_b")

        psi_e = psi_eradicating(nu, b)
        adm_gap = admissibility_gap(nu, disease)
        crowd_gap = beta.beta * psi_e - 1.0
        er_degen = (abs(crowd_gap) <= DEGENERATE_BAND
                    or abs(adm_gap) <= DEGENERATE_BAND)
        er_active = (crowd_gap > DEGENERATE_BAND
                     and adm_gap > DEGENERATE_BAND and nu.nu_e >= 0.0)
        erad = Candidate(
            0.0, psi_e, _eta_at(0.0, psi_e, disease, nu),
            active=er_active, degenerate=er_degen,
            condition="beta*psi_e > 1 and nu_e > b*rho - nu_b/theta_star")

        if b * rho - nu.nu_e > 0:
            psi_o = psi_co_occurring(nu, disease)
            theta_o = theta_star - psi_o
            if theta_o >= 0.0:
                crowd_gap_o = beta.beta * psi_o - 1.0
                co_degen = (abs(crowd_gap_o) <= DEGENERATE_BAND
                            or abs(adm_gap) <= DEGENERATE_BAND)
                co_active = (crowd_gap_o > DEGENERATE_BAND
                             and adm_gap < -DEGENERATE_BAND)
                co_occ = Candidate(
                    theta_o, psi_o, _eta_at(theta_o, psi_o, disease, nu),
                    active=co_active, degenerate=co_degen,
                    condition="beta*psi_o > 1 and 0 <= nu_e < b*rho - nu_b/theta_star")

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
    no ellipsoid clears the kink (step 3 below), and it is only asked
    where the planar drift is below _CERTIFY_BELOW as well.

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
       their own rounding (Q below is -I only up to it) is charged where it
       shows.
    2. E = {y : (y - y*)^T P (y - y*) <= l}. The level l is an upper bound
       on the level of `point`, whose offset from y* is enclosed by one
       float either side of the rounded difference, so `point` lies in E.
       E's bounding box B has half-widths sqrt(l (P^-1)_ii), rounded up; a
       half-width above 1 refuses.
    3. Over B, in interval arithmetic: varrho > 0, and an enclosure of Dg.
       Across the kink beta psi = 1 of min(1, beta psi) the enclosure is
       the hull of both branches. Delta_ij = max(hi_ij - A_ij,
       A_ij - lo_ij) bounds |Dg(x) - A| entrywise on B. Q = P A + A^T P is
       enclosed too, and lambda_max(Q) <= max_i Q_ii + |Q_12| (Gershgorin).
    4. m = -(lambda_max(Q) + 2 |P| |Delta|_F), with |P| = lambda_max(P)
       = (p11 + p22)/2 + sqrt(((p11 - p22)/2)^2 + p12^2) rounded up. For x, z
       in E (convex, inside B), the mean value theorem along the segment (g
       is Lipschitz; the hull covers the kink) gives g(x) - g(z) =
       M (x - z) with |M - A| <= Delta, and |P (M - A)|_2 <= |P| |Delta|_F,
       so 2 (x - z)^T P (g(x) - g(z)) <= -m |x - z|^2. If m > 0, E holds
       at most one equilibrium.
    5. On the boundary of E, |y - y*| >= sqrt(l / |P|). With r = g(y*), the
       residual of Newton, enclosed at the point, the derivative of
       V = (y - y*)^T P (y - y*) along g is at most
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
        # the branches of min(1, beta psi) that the box reaches, hulled
        j11l = nx(lam * nx(nx(omr_l - 2.0 * th, dn) - sh, dn), dn)
        j11h = nx(lam * nx(nx(omr_h - 2.0 * tl, up) - sl, up), up)
        j12l, j12h = nx(-lam * th, dn), nx(-lam * tl, up)
        al, ah = nx(bt * sl, dn), nx(bt * sh, up)
        j21l = j22l = up
        j21h = j22h = dn
        if al < 1.0:
            # a = beta psi: -a s and -a s + phi (beta s + a nu_e) - b
            xl, xh = _iprod(al, ah, ul, uh)
            yl, yh = _iprod(fl, fh,
                            nx(nx(bt * ul, dn) + nx(al * nu_e, dn), dn),
                            nx(nx(bt * uh, up) + nx(ah * nu_e, up), up))
            j21l, j21h = -xh, -xl
            j22l = nx(nx(yl - xh, dn) - b, dn)
            j22h = nx(nx(yh - xl, up) - b, up)
        if not ah < 1.0:
            # a = 1: -s and -s + phi nu_e - b
            j21l, j21h = min(j21l, -uh), max(j21h, -ul)
            j22l = min(j22l, nx(nx(nx(fl * nu_e, dn) - uh, dn) - b, dn))
            j22h = max(j22h, nx(nx(nx(fh * nu_e, up) - ul, up) - b, up))
        # Q = P A + A^T P: upper ends of the diagonal, both ends of Q_12
        q11 = 2.0 * nx(nx(p11 * a11, up) + nx(p12 * a21, up), up)
        q22 = 2.0 * nx(nx(p12 * a12, up) + nx(p22 * a22, up), up)
        q12l = nx(nx(nx(p11 * a12, dn) + nx(p12 * a22, dn), dn)
                  + nx(nx(p12 * a11, dn) + nx(p22 * a21, dn), dn), dn)
        q12h = nx(nx(nx(p11 * a12, up) + nx(p12 * a22, up), up)
                  + nx(nx(p12 * a11, up) + nx(p22 * a21, up), up), up)
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
        if not (j11l + j11h + j12l + j12h + j21l + j21h + j22l + j22h
                + q11 + q22 + q12l + q12h + r0 + r1) * 0.0 == 0.0:
            return False
        x = 0.0
        for lo, hi, a in ((j11l, j11h, a11), (j12l, j12h, a12),
                          (j21l, j21h, a21), (j22l, j22h, a22)):
            y = nx(max(hi - a, a - lo), up)
            x = nx(x + nx(y * y, up), up)
        delta = nx(math.sqrt(x), up)
        lam_q = nx(max(q11, q22) + max(-q12l, q12h), up)
        x = nx(abs(p11 - p22) * 0.5, up)
        norm_p = nx(nx((p11 + p22) * 0.5, up) + nx(math.sqrt(
            nx(nx(x * x, up) + nx(p12 * p12, up), up)), up), up)
        margin = -nx(lam_q + 2.0 * nx(norm_p * delta, up), up)
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

    The run stops as converged only at a basin attempt. One is made before
    the first step, and at each accepted step whose planar drift
    max(|theta'|, |psi'|) has fallen to _BASIN_RETRY = 1/4 of its value at
    the last failed attempt. Newton on the planar (theta, psi) field
    locates an equilibrium y*, and `_basin` tries to prove that the
    ellipsoid of a quadratic Lyapunov function around y*, through the
    current state, lies in y*'s region of attraction (Khalil, Nonlinear
    Systems, Sec. 8.2, checked in interval arithmetic). If it does, the run
    stops there ("basin certificate"), and `t` and `states` end at the
    state the proof started from, which may be the start alone and may lie
    as far from the limit as the ellipsoid reaches. If it does not, the
    run still stops ("located") where the planar drift is below
    _CERTIFY_BELOW = 1e-6, Dg(y*) has tr < 0 < det, and theta and psi both
    lie within 1e-6 of y*. That stop is not a proof; it serves the
    equilibria on the kink beta psi* = 1, where no ellipsoid clears the
    kink. Either way `limit` is (theta*, psi*, (b - d)/varrho(theta*,
    psi*)).

    A horizon overrun reports converged=False instead of raising, and so
    does a step size that falls below ten units in the last place of t; a
    zero horizon takes no step and makes no basin attempt. A
    non-hyperbolic equilibrium (e.g. rho = 1) has a singular Dg and is
    never certified; its slow algebraic approach is located only once the
    state is within 1e-6 of the Newton point, so from farther out it runs
    to the horizon. `message` names the stop or the failure. `rhs_evals`
    counts every evaluation of the drift: one at the start and one for the
    first step size (none with a zero horizon), six per step tried, and
    one for the eta of a converged limit. A basin attempt evaluates the
    planar polynomial and its analytic Jacobian instead, and is not
    counted.
    """
    return _integrate(init, disease, nu, beta, horizon, basin=True)


def _integrate(init: OdeState, disease: DiseaseParams, nu: VaRatePolicy,
               beta: ResponseParams, horizon: float,
               basin: bool) -> IntegrationResult:
    """The one loop behind integrate_to_equilibrium. With basin=False it
    makes no basin attempt, so that the path runs on to the horizon (or a
    step size collapse): `matched_ode` needs the path itself."""
    if not (math.isfinite(horizon) and horizon >= 0.0):
        raise ValueError(f"horizon must be finite and nonnegative, got {horizon}")
    f = _field(disease, nu, beta)
    y0, y1, y2 = float(init.theta), float(init.psi), float(init.eta)
    t = 0.0
    ts, ys = [t], [(y0, y1, y2)]
    converged = False
    msg = (f"horizon {horizon} exceeded without a certified or located "
           "stable equilibrium")
    k0, k1, k2, _ = f(y0, y1, y2)
    evals, h_abs = 1, 0.0
    if horizon > 0.0:
        h_abs = _initial_step(f, (y0, y1, y2), (k0, k1, k2), horizon)
        evals = 2
    # One flat loop over scalar locals: each stage and the error norm are
    # written out with the constants bound here, and builtin min/max are
    # comparisons that give the same double. Every float operation keeps
    # the operands and the order of the textbook step, so the result is
    # bit-identical to a step function over tuples.
    a21 = _A21
    a31, a32 = _A31, _A32
    a41, a42, a43 = _A41, _A42, _A43
    a51, a52, a53, a54 = _A51, _A52, _A53, _A54
    a61, a62, a63, a64, a65 = _A61, _A62, _A63, _A64, _A65
    b1, b3, b4, b5, b6 = _B1, _B3, _B4, _B5, _B6
    e1, e3, e4, e5, e6, e7 = _E1, _E3, _E4, _E5, _E6, _E7
    atol, rtol, max_step = _ATOL, _RTOL, _MAX_STEP
    safety, min_factor, max_factor = _SAFETY, _MIN_FACTOR, _MAX_FACTOR
    exponent = _ERROR_EXPONENT
    sqrt, nextafter, inf = math.sqrt, math.nextafter, math.inf
    end = None
    # a basin attempt is made where the planar drift is at most `retry`:
    # at once, and never on the path route (drift is >= 0)
    retry, attempts = (inf, 0) if basin else (-1.0, None)
    if basin:
        locate, certify, located = _basin(disease, nu, beta)
    while t < horizon:
        drift = abs(k0) if abs(k0) > abs(k1) else abs(k1)
        if drift <= retry and y2 > 0.0:
            attempts += 1
            centre = locate(y0, y1)
            if certify(centre, (y0, y1)):
                stop = ("basin certificate", "a Lyapunov ellipsoid through "
                        "the state lies in the region of attraction")
            elif drift < _CERTIFY_BELOW and located(centre, (y0, y1)):
                stop = ("located", f"theta and psi lie within "
                        f"{_CERTIFY_BELOW} of a Newton point where Dg is "
                        "stable")
            else:
                stop = None
                retry = _BASIN_RETRY * drift
            if stop is not None:
                converged = True
                evals += 1
                end = (centre[0], centre[1], (disease.b - disease.d)
                       / f(centre[0], centre[1], 1.0)[3])
                msg = (f"converged: {stop[0]} at t = {t:.6g} "
                       f"(attempt {attempts}): {stop[1]}")
                break
        # retry from (t, y) until a step passes the error test, or the step
        # falls below ten units in the last place of t
        min_step = 10 * (nextafter(t, inf) - t)
        if h_abs > max_step:
            h_abs = max_step
        elif h_abs < min_step:
            h_abs = min_step
        rejected = False
        while h_abs >= min_step:
            t_new = t + h_abs
            if t_new > horizon:
                t_new = horizon
            h = t_new - t
            evals += 6
            p0, p1, p2, _ = f(y0 + a21 * k0 * h, y1 + a21 * k1 * h,
                              y2 + a21 * k2 * h)
            q0, q1, q2, _ = f(y0 + (a31 * k0 + a32 * p0) * h,
                              y1 + (a31 * k1 + a32 * p1) * h,
                              y2 + (a31 * k2 + a32 * p2) * h)
            r0, r1, r2, _ = f(y0 + (a41 * k0 + a42 * p0 + a43 * q0) * h,
                              y1 + (a41 * k1 + a42 * p1 + a43 * q1) * h,
                              y2 + (a41 * k2 + a42 * p2 + a43 * q2) * h)
            s0, s1, s2, _ = f(
                y0 + (a51 * k0 + a52 * p0 + a53 * q0 + a54 * r0) * h,
                y1 + (a51 * k1 + a52 * p1 + a53 * q1 + a54 * r1) * h,
                y2 + (a51 * k2 + a52 * p2 + a53 * q2 + a54 * r2) * h)
            u0, u1, u2, _ = f(
                y0 + (a61 * k0 + a62 * p0 + a63 * q0 + a64 * r0
                      + a65 * s0) * h,
                y1 + (a61 * k1 + a62 * p1 + a63 * q1 + a64 * r1
                      + a65 * s1) * h,
                y2 + (a61 * k2 + a62 * p2 + a63 * q2 + a64 * r2
                      + a65 * s2) * h)
            n0 = y0 + h * (b1 * k0 + b3 * q0 + b4 * r0 + b5 * s0 + b6 * u0)
            n1 = y1 + h * (b1 * k1 + b3 * q1 + b4 * r1 + b5 * s1 + b6 * u1)
            n2 = y2 + h * (b1 * k2 + b3 * q2 + b4 * r2 + b5 * s2 + b6 * u2)
            l0, l1, l2, _ = f(n0, n1, n2)
            # RMS of the embedded error over _ATOL + _RTOL * max(|y|, |y_new|)
            w0, x = abs(y0), abs(n0)
            if x > w0:
                w0 = x
            w1, x = abs(y1), abs(n1)
            if x > w1:
                w1 = x
            w2, x = abs(y2), abs(n2)
            if x > w2:
                w2 = x
            w0 = ((e1 * k0 + e3 * q0 + e4 * r0 + e5 * s0 + e6 * u0 + e7 * l0)
                  * h / (atol + w0 * rtol))
            w1 = ((e1 * k1 + e3 * q1 + e4 * r1 + e5 * s1 + e6 * u1 + e7 * l1)
                  * h / (atol + w1 * rtol))
            w2 = ((e1 * k2 + e3 * q2 + e4 * r2 + e5 * s2 + e6 * u2 + e7 * l2)
                  * h / (atol + w2 * rtol))
            err = sqrt((w0 * w0 + w1 * w1 + w2 * w2) / 3.0)
            if err < 1.0:
                break
            x = safety * err ** exponent
            h_abs = h * (x if x > min_factor else min_factor)
            rejected = True
        else:
            msg = f"step size collapsed at t = {t:.6g}"
            break
        if err == 0.0:
            x = max_factor
        else:
            x = safety * err ** exponent
            if not x < max_factor:
                x = max_factor
        if rejected and not x < 1.0:
            x = 1.0
        t, h_abs = t_new, h * x
        y0, y1, y2, k0, k1, k2 = n0, n1, n2, l0, l1, l2
        ts.append(t)
        ys.append((y0, y1, y2))
    yf = ys[-1] if end is None else end
    limit = OdeState(max(yf[0], 0.0), max(yf[1], 0.0), yf[2])
    return IntegrationResult(np.array(ts), np.array(ys), limit, converged,
                             msg, evals)


# ---------------------------------------------------------------------------
# Jump process
# ---------------------------------------------------------------------------

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

    Counts must be integer values (2.0 is taken, 2.5 or inf is rejected).
    The loop holds them as Python floats, which stay exact integers: the
    start is checked so that N and the clock index k stay below 2**53
    for every event. Uniforms come in chunks of 16,384; each event takes
    one or two, and a chunk with fewer than two left is dropped for a new
    one. The loop runs in blocks that cannot outrun the chunk, and the
    clock of each block is summed afterwards by `np.add.accumulate` over
    the same terms 1/(1+k) in the same order, so every record is the
    double a per-event `t += 1/(1+k)` gives.
    """
    if not all(float(x).is_integer() for x in initial_counts):
        raise ValueError("counts must be finite integer values")
    s, v, i, n = (int(x) for x in initial_counts)
    if n < 1 or s + v + i != n or min(s, v, i) < 0:
        raise ValueError("counts must be nonnegative with S+V+I == N >= 1")
    if n_events < 0:
        raise ValueError("n_events must be nonnegative")
    if record_every < 1:
        raise ValueError("record_every must be at least 1")
    if eta0 is None:
        eta0 = float(n)
    if not (math.isfinite(eta0) and eta0 > 0):
        raise ValueError(f"eta0 must be positive and finite, got {eta0}")
    k = max(int(round(n / eta0)) - 1, 0)
    if max(n, k + 1) + n_events >= 2 ** 53:
        raise ValueError("N0 + n_events and the clock index k0 + n_events "
                         "must stay below 2**53, where counts are exact "
                         "as floats")
    rng = np.random.default_rng(seed)

    lam, r, b, d = disease.lam, disease.r, disease.b, disease.d
    nu_b, nu_e, bt = nu.nu_b, nu.nu_e, beta.beta
    t = 0.0
    rec_t = [0.0]
    rec_theta = [i / n]
    rec_psi = [v / n]
    rec_eta = [n / (1 + k)]
    s, v, i, n = float(s), float(v), float(i), float(n)
    # 1 + k before the next block; after its j-th event 1 + k is base + j
    base = 1 + k
    extinct = False
    done = 0
    left = record_every          # events until the next record

    chunk = 16384
    uniforms = rng.random(chunk).tolist()
    u_pos = 0

    while done < n_events and not extinct:
        if u_pos + 2 > chunk:
            del uniforms             # so two chunks are never alive at once
            uniforms = rng.random(chunk).tolist()
            u_pos = 0
        # an event takes at most two uniforms, so a block of this many
        # events needs no refill
        run = min(n_events - done, (chunk - u_pos) // 2)
        first = left                 # clock entry of the block's first record
        for j in range(1, run + 1):
            psi = v / n
            # cumulative rates of infection, recovery, birth and death; the
            # rest of the total is vaccine offers at rate (nu_b + nu_e*psi)*S
            c_inf = lam * s * i / n
            c_rec = c_inf + r * i
            c_birth = c_rec + b * n
            c_death = c_birth + d * n
            total = c_death + (nu_b + nu_e * psi) * s

            # tested from the offer end, where most events fall; the
            # thresholds are nondecreasing, so the partition is the same
            u = uniforms[u_pos] * total
            u_pos += 1
            if u >= c_death:
                accept = bt * psi
                if uniforms[u_pos] < (accept if accept < 1.0 else 1.0):
                    s -= 1.0
                    v += 1.0
                u_pos += 1
            elif u >= c_birth:
                u2 = uniforms[u_pos] * n
                u_pos += 1
                if u2 < s:
                    s -= 1.0
                elif u2 < s + v:
                    v -= 1.0
                else:
                    i -= 1.0
                n -= 1.0
                if n == 0.0:
                    extinct = True
                    break
            elif u >= c_rec:
                s += 1.0
                n += 1.0
            elif u >= c_inf:
                # recovered individuals rejoin the susceptible pool
                i -= 1.0
                s += 1.0
            else:
                s -= 1.0
                i += 1.0

            left -= 1
            if not left:
                left = record_every
                rec_theta.append(i / n)
                rec_psi.append(v / n)
                rec_eta.append(n / (base + j))

        # clock[j] is t after the block's j-th event
        clock = np.add.accumulate(np.concatenate(
            ([t], 1.0 / np.arange(base + 1, base + j + 1))))
        # the extinction event is never a record
        rec_t.extend(clock[first:j + 1 - extinct:record_every].tolist())
        t = float(clock[j])
        base += j
        done += j

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


def export_trajectory_csv(path, ode: IntegrationResult,
                          jump: JumpTrajectory) -> None:
    """Write trajectories as CSV rows (t, theta, psi, eta, source)."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t", "theta", "psi", "eta", "source"])
        for t, (th, ps, et) in zip(ode.t, ode.states):
            w.writerow([f"{t:.12g}", f"{th:.12g}", f"{ps:.12g}",
                        f"{et:.12g}", "ode"])
        for t, th, ps, et in zip(jump.t, jump.theta, jump.psi, jump.eta):
            w.writerow([f"{t:.12g}", f"{th:.12g}", f"{ps:.12g}",
                        f"{et:.12g}", "jump"])
