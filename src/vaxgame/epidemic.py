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
from scipy.integrate import RK45

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


def total_event_rate(theta: float, psi: float, disease: DiseaseParams,
                     nu: VaRatePolicy) -> float:
    """Per-capita event rate varrho at proportions (theta, psi)."""
    phi = 1.0 - theta - psi
    return (disease.b + disease.d + disease.lam * theta * phi
            + nu.rate(psi) * phi + disease.r * theta)


def _rhs(y: np.ndarray, disease: DiseaseParams, nu: VaRatePolicy,
         beta: ResponseParams) -> np.ndarray:
    theta, psi, eta = y
    phi = 1.0 - theta - psi
    varrho = total_event_rate(theta, psi, disease, nu)
    scale = 1.0 / (eta * varrho)
    dtheta = theta * disease.lam * scale * (phi - 1.0 / disease.rho)
    dpsi = scale * (phi * beta.acceptance(psi) * nu.rate(psi)
                    - disease.b * psi)
    deta = (disease.b - disease.d) / varrho - eta
    return np.array([dtheta, dpsi, deta])


def ode_rhs(state: OdeState, disease: DiseaseParams, nu: VaRatePolicy,
            beta: ResponseParams) -> np.ndarray:
    """Time derivative (dtheta, dpsi, deta) at the given state."""
    y = state.as_array()
    if not np.all(np.isfinite(y)):
        raise ValueError("non-finite state")
    return _rhs(y, disease, nu, beta)


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


def integrate_to_equilibrium(init: OdeState, disease: DiseaseParams,
                             nu: VaRatePolicy, beta: ResponseParams,
                             horizon: float = 600.0, tol: float = 1e-8,
                             rtol: float = 1e-9,
                             sustain_steps: int = 100) -> IntegrationResult:
    """Integrate the mean-field ODE until it settles or the horizon is hit.

    Convergence requires the rhs max-norm to stay below `tol` over
    `sustain_steps` consecutive accepted steps; the dynamics are slowed by
    the 1/(eta*varrho) clock, so a single small-derivative reading is not
    trusted. A horizon overrun reports converged=False instead of raising.
    """
    y0 = init.as_array()
    max_step = 1.0
    solver = RK45(lambda t, y: _rhs(y, disease, nu, beta), 0.0, y0,
                  t_bound=horizon, rtol=rtol, atol=1e-12, max_step=max_step)
    ts = [0.0]
    ys = [y0.copy()]
    quiet = 0
    converged = False
    while solver.status == "running":
        solver.step()
        ts.append(solver.t)
        ys.append(solver.y.copy())
        if np.max(np.abs(_rhs(solver.y, disease, nu, beta))) < tol:
            quiet += 1
            if quiet == 1:
                # At rtol the state wobbles around an equilibrium with rhs
                # noise near tol itself; shrink the step cap while the quiet
                # window is open so the local error stays far below it.
                solver.max_step = max(solver.h_abs * 0.25, 1e-3)
            if quiet >= sustain_steps:
                converged = True
                break
        else:
            if quiet:
                solver.max_step = max_step
            quiet = 0
    states = np.array(ys)
    yf = states[-1]
    limit = OdeState(max(yf[0], 0.0), max(yf[1], 0.0), yf[2])
    msg = "converged" if converged else (
        f"horizon {horizon} exceeded without sustained rhs < {tol}")
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
    clock and the ODE clock agree (k0 ~ N0/eta0).

    Extinction (N = 0) stops the run with a flag. Reproducible from seed.
    With n_events = 0 the trajectory is the initial point alone.
    """
    s, v, i, n = (int(x) for x in initial_counts)
    if n < 1 or s + v + i != n or min(s, v, i) < 0:
        raise ValueError("counts must be nonnegative with S+V+I == N >= 1")
    if n_events < 0:
        raise ValueError("n_events must be nonnegative")
    rng = np.random.default_rng(seed)

    if eta0 is None:
        eta0 = float(n)
    k = max(int(round(n / eta0)) - 1, 0)

    lam, r, b, d = disease.lam, disease.r, disease.b, disease.d
    t = 0.0
    rec_t = [0.0]
    rec_theta = [i / n]
    rec_psi = [v / n]
    rec_eta = [n / (1 + k)]
    extinct = False

    chunk = 16384
    uniforms = rng.random(chunk)
    u_pos = 0

    for step in range(n_events):
        if u_pos + 2 > chunk:
            uniforms = rng.random(chunk)
            u_pos = 0
        w_inf = lam * s * i / n
        w_rec = r * i
        w_birth = b * n
        w_death = d * n
        psi = v / n
        w_offer = nu.rate(psi) * s
        total = w_inf + w_rec + w_birth + w_death + w_offer

        u = uniforms[u_pos] * total
        u_pos += 1
        if u < w_inf:
            s -= 1
            i += 1
        elif u < w_inf + w_rec:
            # recovered individuals rejoin the susceptible pool
            i -= 1
            s += 1
        elif u < w_inf + w_rec + w_birth:
            s += 1
            n += 1
        elif u < w_inf + w_rec + w_birth + w_death:
            u2 = uniforms[u_pos] * n
            u_pos += 1
            if u2 < s:
                s -= 1
            elif u2 < s + v:
                v -= 1
            else:
                i -= 1
            n -= 1
        else:
            accept = uniforms[u_pos] < min(1.0, beta.beta * psi)
            u_pos += 1
            if accept:
                s -= 1
                v += 1

        k += 1
        t += 1.0 / (1 + k)
        if n == 0:
            extinct = True
            break
        if (step + 1) % record_every == 0 or extinct:
            rec_t.append(t)
            rec_theta.append(i / n)
            rec_psi.append(v / n)
            rec_eta.append(n / (1 + k))

    if extinct:
        rec_t.append(t)
        rec_theta.append(0.0)
        rec_psi.append(0.0)
        rec_eta.append(0.0)

    return JumpTrajectory(np.array(rec_t), np.array(rec_theta),
                          np.array(rec_psi), np.array(rec_eta),
                          extinct=extinct,
                          events=step + 1 if extinct else n_events,
                          seed=seed)


def export_trajectory_csv(path, ode: IntegrationResult | None = None,
                          jump: JumpTrajectory | None = None) -> None:
    """Write trajectories as CSV rows (t, theta, psi, eta, source)."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t", "theta", "psi", "eta", "source"])
        if ode is not None:
            for t, (th, ps, et) in zip(ode.t, ode.states):
                w.writerow([f"{t:.12g}", f"{th:.12g}", f"{ps:.12g}",
                            f"{et:.12g}", "ode"])
        if jump is not None:
            for t, th, ps, et in zip(jump.t, jump.theta, jump.psi, jump.eta):
                w.writerow([f"{t:.12g}", f"{th:.12g}", f"{ps:.12g}",
                            f"{et:.12g}", "jump"])
