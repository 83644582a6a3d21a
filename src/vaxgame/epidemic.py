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

from .params import DiseaseParams, ResponseParams, VaRatePolicy

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
        if not all(map(math.isfinite, (self.theta, self.psi, self.eta))):
            raise ValueError("state components must be finite")
        if self.theta < -SIMPLEX_TOL or self.psi < -SIMPLEX_TOL:
            raise ValueError("theta and psi must be nonnegative")
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
    beta.acceptance(psi) are inlined, since the integrator calls f seven
    times a step.
    """
    lam, r, b, d = disease.lam, disease.r, disease.b, disease.d
    inv_rho = 1.0 / disease.rho
    nu_b, nu_e, bt = nu.nu_b, nu.nu_e, beta.beta

    def f(theta: float, psi: float, eta: float):
        phi = 1.0 - theta - psi
        supply = nu_b + nu_e * psi
        varrho = b + d + lam * theta * phi + supply * phi + r * theta
        scale = 1.0 / (eta * varrho)
        return (theta * lam * scale * (phi - inv_rho),
                scale * (phi * min(1.0, bt * psi) * supply - b * psi),
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
    t: np.ndarray
    states: np.ndarray          # shape (n, 3)
    limit: OdeState
    converged: bool
    message: str


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
_ATOL = 1e-12
_MAX_STEP = 1.0

# The Jacobian certificate is tried once the rhs max-norm is below this;
# above it the state is too far out for the linearisation to be trusted.
_CERTIFY_BELOW = 1e-6
_JAC_STEP = np.finfo(float).eps ** (1 / 3)


def _rms(a: float, b: float, c: float) -> float:
    return math.sqrt((a * a + b * b + c * c) / 3.0)


def _initial_step(f, y, k, horizon: float, rtol: float) -> float:
    """First step size by the rule of Hairer, Norsett & Wanner (Sec. II.4),
    as scipy's select_initial_step applies it to a fourth-order error
    estimate, capped at _MAX_STEP and the horizon."""
    s0, s1, s2 = (_ATOL + abs(v) * rtol for v in y)
    d0 = _rms(y[0] / s0, y[1] / s1, y[2] / s2)
    d1 = _rms(k[0] / s0, k[1] / s1, k[2] / s2)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, horizon)
    k1 = f(y[0] + h0 * k[0], y[1] + h0 * k[1], y[2] + h0 * k[2])
    d2 = _rms((k1[0] - k[0]) / s0, (k1[1] - k[1]) / s1,
              (k1[2] - k[2]) / s2) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 5)
    return min(100 * h0, h1, horizon, _MAX_STEP)


def _dopri_step(f, y, k, h: float, rtol: float):
    """One Dormand-Prince step of size h from y, where k = f(y).

    Returns the fifth-order solution, f there (the next step's first stage:
    first same as last) and the RMS norm of the embedded error estimate
    scaled by _ATOL + rtol * max(|y|, |y_new|).
    """
    y0, y1, y2 = y
    a0, a1, a2 = k
    b0, b1, b2, _ = f(y0 + _A21 * a0 * h, y1 + _A21 * a1 * h,
                      y2 + _A21 * a2 * h)
    c0, c1, c2, _ = f(y0 + (_A31 * a0 + _A32 * b0) * h,
                      y1 + (_A31 * a1 + _A32 * b1) * h,
                      y2 + (_A31 * a2 + _A32 * b2) * h)
    d0, d1, d2, _ = f(y0 + (_A41 * a0 + _A42 * b0 + _A43 * c0) * h,
                      y1 + (_A41 * a1 + _A42 * b1 + _A43 * c1) * h,
                      y2 + (_A41 * a2 + _A42 * b2 + _A43 * c2) * h)
    e0, e1, e2, _ = f(
        y0 + (_A51 * a0 + _A52 * b0 + _A53 * c0 + _A54 * d0) * h,
        y1 + (_A51 * a1 + _A52 * b1 + _A53 * c1 + _A54 * d1) * h,
        y2 + (_A51 * a2 + _A52 * b2 + _A53 * c2 + _A54 * d2) * h)
    g0, g1, g2, _ = f(
        y0 + (_A61 * a0 + _A62 * b0 + _A63 * c0 + _A64 * d0 + _A65 * e0) * h,
        y1 + (_A61 * a1 + _A62 * b1 + _A63 * c1 + _A64 * d1 + _A65 * e1) * h,
        y2 + (_A61 * a2 + _A62 * b2 + _A63 * c2 + _A64 * d2 + _A65 * e2) * h)
    n0 = y0 + h * (_B1 * a0 + _B3 * c0 + _B4 * d0 + _B5 * e0 + _B6 * g0)
    n1 = y1 + h * (_B1 * a1 + _B3 * c1 + _B4 * d1 + _B5 * e1 + _B6 * g1)
    n2 = y2 + h * (_B1 * a2 + _B3 * c2 + _B4 * d2 + _B5 * e2 + _B6 * g2)
    l0, l1, l2, _ = f(n0, n1, n2)
    err = _rms(
        (_E1 * a0 + _E3 * c0 + _E4 * d0 + _E5 * e0 + _E6 * g0 + _E7 * l0) * h
        / (_ATOL + max(abs(y0), abs(n0)) * rtol),
        (_E1 * a1 + _E3 * c1 + _E4 * d1 + _E5 * e1 + _E6 * g1 + _E7 * l1) * h
        / (_ATOL + max(abs(y1), abs(n1)) * rtol),
        (_E1 * a2 + _E3 * c2 + _E4 * d2 + _E5 * e2 + _E6 * g2 + _E7 * l2) * h
        / (_ATOL + max(abs(y2), abs(n2)) * rtol))
    return (n0, n1, n2), (l0, l1, l2), err


def _accepted_step(f, t: float, y, k, h_abs: float, horizon: float,
                   rtol: float):
    """Retry Dormand-Prince steps from (t, y) until one passes the error
    test, with scipy RK45's controller: the step is clipped to _MAX_STEP
    and to the horizon, and scaled by 0.9 * err^(-1/5) within [0.2, 10]
    (at most 1 after a rejection).

    Returns (t_new, y_new, f(y_new), next step size), or None once the
    step would fall below ten units in the last place of t.
    """
    min_step = 10 * (math.nextafter(t, math.inf) - t)
    if h_abs > _MAX_STEP:
        h_abs = _MAX_STEP
    elif h_abs < min_step:
        h_abs = min_step
    rejected = False
    while h_abs >= min_step:
        t_new = min(t + h_abs, horizon)
        h = t_new - t
        y_new, k_new, err = _dopri_step(f, y, k, h, rtol)
        if err < 1.0:
            factor = (_MAX_FACTOR if err == 0.0 else
                      min(_MAX_FACTOR, _SAFETY * err ** _ERROR_EXPONENT))
            if rejected:
                factor = min(1.0, factor)
            return t_new, y_new, k_new, h * factor
        h_abs = h * max(_MIN_FACTOR, _SAFETY * err ** _ERROR_EXPONENT)
        rejected = True
    return None


def _stable_inverse(f, y):
    """Inverse of the central-difference Jacobian J of the drift at y, as
    three rows, or None unless every eigenvalue of J has a negative real
    part.

    In floats, as numpy's per-call cost would dominate at 3x3: the
    eigenvalue test is the Routh-Hurwitz criterion on the characteristic
    polynomial l^3 + p2 l^2 + p1 l + p0 (all roots in the open left
    half-plane iff p2 > 0, p0 > 0 and p2 p1 > p0), and the inverse is the
    adjugate over the determinant.
    """
    cols = []
    for j in range(3):
        up, down = list(y), list(y)
        up[j] += _JAC_STEP * max(1.0, abs(y[j]))
        down[j] -= _JAC_STEP * max(1.0, abs(y[j]))
        fu, fd, w = f(*up), f(*down), up[j] - down[j]
        cols.append(((fu[0] - fd[0]) / w, (fu[1] - fd[1]) / w,
                     (fu[2] - fd[2]) / w))
    (j11, j21, j31), (j12, j22, j32), (j13, j23, j33) = cols
    c11, c12, c13 = (j22 * j33 - j23 * j32, j23 * j31 - j21 * j33,
                     j21 * j32 - j22 * j31)
    det = j11 * c11 + j12 * c12 + j13 * c13
    p2 = -(j11 + j22 + j33)
    p1 = (j11 * j22 - j12 * j21) + (j11 * j33 - j13 * j31) + c11
    if not (p2 > 0.0 and -det > 0.0 and p2 * p1 > -det):
        return None
    return ((c11 / det, (j13 * j32 - j12 * j33) / det,
             (j12 * j23 - j13 * j22) / det),
            (c12 / det, (j11 * j33 - j13 * j31) / det,
             (j13 * j21 - j11 * j23) / det),
            (c13 / det, (j12 * j31 - j11 * j32) / det,
             (j11 * j22 - j12 * j21) / det))


def _newton_distance(inv, fy) -> float:
    """max |J^-1 f(y)| for inv = J^-1. Near a hyperbolic stable equilibrium
    y* the Newton step J^-1 f(y) estimates y - y*, so this bounds how far y
    is from the point the flow settles at, however stiff the other modes
    are."""
    (a, b, c), (d, e, g), (p, q, r) = inv
    f1, f2, f3 = fy
    return max(abs(a * f1 + b * f2 + c * f3), abs(d * f1 + e * f2 + g * f3),
               abs(p * f1 + q * f2 + r * f3))


def integrate_to_equilibrium(init: OdeState, disease: DiseaseParams,
                             nu: VaRatePolicy, beta: ResponseParams,
                             horizon: float = 600.0, tol: float = 1e-8,
                             rtol: float = 1e-9) -> IntegrationResult:
    """Integrate the mean-field ODE until it settles or the horizon is hit.

    The stepper is Dormand-Prince 5(4) over Python floats with scipy RK45's
    error norm, controller and first-step rule (rtol, atol 1e-12, steps of
    at most 1), reusing each step's last stage as the next one's first.
    Every accepted step is recorded. Convergence is declared by one rule,
    a certificate: once the rhs max-norm is below 1e-6, the central-
    difference Jacobian there has only eigenvalues with negative real part
    and the Newton distance max|J^-1 f| is below `tol` (steps on which the
    last stable Jacobian puts the distance at `tol` or more take no new
    one). A small rhs alone is not trusted: near a slow point it can sit
    below `tol` far from the equilibrium.

    A horizon overrun reports converged=False instead of raising, and so
    does a step size that collapses; non-hyperbolic equilibria (e.g.
    rho = 1) are never certified and run to the horizon. `message` names
    the rule or the failure.
    """
    if not (math.isfinite(horizon) and horizon >= 0.0):
        raise ValueError(f"horizon must be finite and nonnegative, got {horizon}")
    if not (tol > 0.0 and rtol > 0.0):
        raise ValueError("tol and rtol must be positive")
    f = _field(disease, nu, beta)
    t, y = 0.0, (float(init.theta), float(init.psi), float(init.eta))
    ts, ys = [t], [y]
    converged = False
    msg = (f"horizon {horizon} exceeded without a certified stable "
           f"equilibrium within {tol}")
    k = f(*y)[:3]
    h_abs = _initial_step(f, y, k, horizon, rtol) if horizon > 0.0 else 0.0
    inv = None
    while t < horizon:
        step = _accepted_step(f, t, y, k, h_abs, horizon, rtol)
        if step is None:
            msg = f"step size collapsed at t = {t:.6g}"
            break
        t, y, k, h_abs = step
        ts.append(t)
        ys.append(y)
        if max(abs(k[0]), abs(k[1]), abs(k[2])) >= _CERTIFY_BELOW:
            inv = None
            continue
        # this close to an equilibrium the Jacobian barely moves, so the
        # last stable one screens each step; only a fresh one certifies
        if inv is None or _newton_distance(inv, k) < tol:
            inv = _stable_inverse(f, y)
            dist = math.inf if inv is None else _newton_distance(inv, k)
            if dist < tol:
                converged = True
                msg = (f"converged: Newton distance {dist:.3g} < {tol} "
                       "at a stable Jacobian (certificate)")
                break
    states = np.array(ys)
    yf = states[-1]
    limit = OdeState(max(yf[0], 0.0), max(yf[1], 0.0), yf[2])
    return IntegrationResult(np.array(ts), states, limit, converged, msg)


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

    The loop holds the counts as Python floats, which stay exact integers:
    the start is checked so that N and the clock index k stay below 2**53
    for every event. Uniforms come in chunks of 16,384; each event takes
    one or two, and a chunk with fewer than two left is dropped for a new
    one. The loop runs in blocks that cannot outrun the chunk, and the
    clock of each block is summed afterwards by `np.add.accumulate` over
    the same terms 1/(1+k) in the same order, so every record is the
    double a per-event `t += 1/(1+k)` gives.
    """
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
    """
    start = OdeState(chain.theta[0], chain.psi[0], chain.eta[0])
    ode = integrate_to_equilibrium(start, disease, nu, beta,
                                   horizon=float(chain.t[-1]) + 1e-9)
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
