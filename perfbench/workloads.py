"""The four benchmark workloads and the output check of each op.

A workload is built from a seed (its set-up, which is timed as `setup_s`),
lists the items of one pass, runs one op per item and checks what the op
returned. A run makes a fixed number of whole passes (see `pass_s`), so
every run measures the same mix of inputs and two runs with one seed make
the same ops. README.md says why each workload
exists and which layer it loads.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from vaxgame import cli, epidemic, leader
from vaxgame.game import InfluencerGameConfig
from vaxgame.params import (DiseaseParams, PublicCostModel, ResponseParams,
                            VaRatePolicy)

# Relative tolerance (floor 1) on g*, U* and psi_e against the recorded
# references. Bisection stops on a bracket of 1e-12 * max(1, g). Summing the
# 1e5 per-draw terms of N_P in another order moves N_P by at most n * eps =
# 2.2e-11, which moves the root by that over |N_P'(g*)| (>= 0.027 on the
# recorded grids), so by at most about 8e-10. 1e-9 covers both; a change
# to the draws or the model moves g* by far more.
REL_TOL = 1e-9

# The recorded draw sets: run seed n uses draw set n % 16 on leader_mc and
# sweep seeds (n + j) % 16 on design_sweep, so every run has a reference.
DRAW_SETS = 16
DESIGN_OPS_PER_PASS = 2

ODE_LIMIT_TOL = 1e-4
POPULATION_HORIZON = 400.0
JUMP_SUP_TOL = 0.02
DESIGN_EPS = 1e-3

ROWS = ("non_vaccinating", "eradicating", "co_occurring")

# Each workload's `pass_s` is the host-scaled op time of one FULL pass on
# the reference host of run.HOST_REF_S (median over seeds 0-9, seed 3
# aside). A run makes round(--seconds / pass_s) passes, at least one.


@dataclass(frozen=True)
class Sizes:
    """Problem sizes; FULL is the paper's scale, TINY only feeds the tests."""

    samples: int = 100_000
    zbars: tuple[int, ...] = (1, 2, 5, 10, 20, 30, 39, 40)
    deltas: tuple[float, ...] = (0.01, 0.05, 0.1)
    sweep_grid: tuple[float, ...] = tuple(round(0.02 + 0.04 * i, 2)
                                          for i in range(13))
    sweep_delta: float = 0.05
    sweep_workers: int = 2
    population_draws: int = 256
    n0: int = 100_000
    events: int = 700_000
    record_every: int = 700


FULL = Sizes()
TINY = Sizes(samples=2_000, zbars=(1, 40), deltas=(0.05,),
             sweep_grid=(0.1, 0.3), population_draws=6, n0=20_000,
             events=50_000, record_every=50)


@dataclass
class Finding:
    """One finding of an output check; `wrong` marks a value that failed
    verification, otherwise the op raised or reported failure itself."""

    wrong: bool
    message: str


def close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(1.0, abs(b))


def fig_cfg(z_bar: int) -> InfluencerGameConfig:
    return InfluencerGameConfig(z_bar=z_bar, **cli.FIG_GAME)


# ---------------------------------------------------------------------------
# leader_mc
# ---------------------------------------------------------------------------

def check_leader_solution(sol, z_bar: int, problem, ref) -> list[Finding]:
    """g*, U* against the reference row (when given) and N_P at g*."""
    out = []
    delta = problem.delta
    if sol.binding:
        np_g = leader.non_eradication_probability(sol.g_star, z_bar, problem)
        half = problem.sampler.ci_halfwidth(delta)
        if not abs(np_g - delta) <= half:
            out.append(Finding(True, f"z_bar={z_bar} delta={delta}: "
                              f"|N_P(g*) - delta| = {abs(np_g - delta):.3g} "
                              f"> {half:.3g}"))
    else:
        np0 = leader.non_eradication_probability(0.0, z_bar, problem)
        if sol.g_star != 0.0 or not np0 <= delta:
            out.append(Finding(True, f"z_bar={z_bar} delta={delta}: "
                              f"non-binding with g*={sol.g_star}, "
                              f"N_P(0)={np0}"))
    if ref is not None:
        g_ref, u_ref, binding_ref = ref
        if (sol.binding != binding_ref or not close(sol.g_star, g_ref)
                or not close(sol.u_star, u_ref)):
            out.append(Finding(True, f"z_bar={z_bar} delta={delta}: "
                              f"(g*, U*, binding) = ({sol.g_star!r}, "
                              f"{sol.u_star!r}, {sol.binding}) but the "
                              f"reference is ({g_ref!r}, {u_ref!r}, "
                              f"{binding_ref})"))
    return out


class LeaderMC:
    """One solve_optimal_incentive per op over the fig1 grid, sharing one
    warm draw set as fig1 and fig2 do."""

    name = "leader_mc"
    threads = 1
    pass_s = 8.7

    def __init__(self, seed: int, sizes: Sizes):
        self.draw_set = seed % DRAW_SETS
        self.sampler = leader.ExpectationSampler(n_samples=sizes.samples,
                                                 seed=self.draw_set)
        self.grid = [(delta, zb) for delta in sizes.deltas
                     for zb in sizes.zbars]
        self.problems = {(delta, zb): leader.LeaderProblem(delta, fig_cfg(zb),
                                                           self.sampler)
                         for delta, zb in self.grid}
        # a figure run pays the draw fill once; it belongs to set-up here
        self.sampler.gamma_draws(fig_cfg(1))

    def items(self, pass_no: int):
        return self.grid

    def op(self, item):
        return leader.solve_optimal_incentive(item[1], self.problems[item])

    def check(self, item, sol, refs) -> list[Finding]:
        ref = None
        if refs is not None:
            row = refs["leader_mc"][str(self.draw_set)][self.grid.index(item)]
            ref = tuple(row[2:])
        return check_leader_solution(sol, item[1], self.problems[item], ref)


# ---------------------------------------------------------------------------
# design_sweep
# ---------------------------------------------------------------------------

def read_report(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _opt(text: str):
    return None if text == "" else float(text)


def check_design_report(rows: list[dict], grid, delta: float, samples: int,
                        disease: DiseaseParams, ref) -> list[Finding]:
    """report.csv of one s-sweep; runtime_ms is ignored."""
    if [float(r["sweep_value"]) for r in rows] != [float(s) for s in grid]:
        return [Finding(True, f"report rows {[r['sweep_value'] for r in rows]}"
                             f" do not match the grid {list(grid)}")]
    out = []
    theta_star = disease.theta_star
    half = leader.ExpectationSampler(n_samples=samples).ci_halfwidth(delta)
    for i, r in enumerate(rows):
        s = r["sweep_value"]
        g, u, np_g = _opt(r["g_star"]), _opt(r["u_star"]), _opt(r["np_at_g"])
        psi_e = _opt(r["psi_e"])
        if None in (g, u, np_g, psi_e) or r["z_bar"] == "":
            out.append(Finding(True, f"s={s}: empty field in {r}"))
            continue
        if not theta_star < psi_e <= theta_star + DESIGN_EPS:
            out.append(Finding(True, f"s={s}: psi_e={psi_e} outside "
                                    f"(theta*, theta*+{DESIGN_EPS}]"))
        if g > 0.0 and not abs(np_g - delta) <= half:
            out.append(Finding(True, f"s={s}: |N_P(g*) - delta| = "
                                    f"{abs(np_g - delta):.3g} > {half:.3g}"))
        if g == 0.0 and not np_g <= delta:
            out.append(Finding(True, f"s={s}: g*=0 but N_P(0)={np_g}"))
        if ref is not None:
            _, g_ref, u_ref, k_ref, psi_ref = ref[i]
            if (int(r["z_bar"]) != k_ref or not close(g, g_ref)
                    or not close(u, u_ref) or not close(psi_e, psi_ref)):
                out.append(Finding(True, f"s={s}: (g*, U*, k*, psi_e) = "
                                        f"({g}, {u}, {r['z_bar']}, {psi_e}) "
                                        f"but the reference is {ref[i][1:]}"))
    return out


class DesignSweep:
    """One cli.run_scenario per op: an s-sweep over the fig5 cost set with
    the joint design and a 1e5-draw solve at every point, on two threads."""

    name = "design_sweep"
    pass_s = 7.2  # unscaled: its ops are not host-scaled

    def __init__(self, seed: int, sizes: Sizes, outroot: Path | None = None):
        self.seed = seed
        self.sizes = sizes
        self.outroot = outroot
        self.disease = DiseaseParams(**cli.FIG_S_DISEASE)
        self.costs = PublicCostModel(s=sizes.sweep_grid[0], **cli.FIG_S_COSTS)
        self.game_cfg = fig_cfg(cli.FIG_GAME["m"])
        self.policy = VaRatePolicy(5.0, 0.7)
        self.threads = sizes.sweep_workers

    def sweep_seed(self, op_no: int) -> int:
        return (self.seed + op_no % DESIGN_OPS_PER_PASS) % DRAW_SETS

    def items(self, pass_no: int):
        return range(pass_no * DESIGN_OPS_PER_PASS,
                     (pass_no + 1) * DESIGN_OPS_PER_PASS)

    def op(self, op_no: int):
        return cli.run_scenario(cli.ScenarioConfig(
            sweep_var="s", grid=self.sizes.sweep_grid, disease=self.disease,
            nu=self.policy, costs=self.costs, game_cfg=self.game_cfg,
            delta=self.sizes.sweep_delta, outdir=self.outroot,
            seed=self.sweep_seed(op_no), samples=self.sizes.samples,
            workers=self.threads))

    def check(self, op_no: int, report: Path, refs) -> list[Finding]:
        ref = None
        if refs is not None:
            ref = refs["design_sweep"][str(self.sweep_seed(op_no))]
        return check_design_report(read_report(report), self.sizes.sweep_grid,
                                   self.sizes.sweep_delta, self.sizes.samples,
                                   self.disease, ref)


# ---------------------------------------------------------------------------
# population
# ---------------------------------------------------------------------------

def row_draw(rng: np.random.Generator, row: str):
    """Random (disease, policy, response) meeting one stability row, kept
    away from the degenerate corners (the draw of acceptance criterion 2)."""
    while True:
        r = float(rng.uniform(0.5, 4.0))
        b = float(rng.uniform(0.5, 4.0))
        d = float(rng.uniform(0.0, 0.7)) * b
        rho = float(rng.uniform(1.3, 6.0))
        dis = DiseaseParams(lam=rho * (r + b), r=r, b=b, d=d)
        theta_star = dis.theta_star
        if row == "non_vaccinating":
            nu = VaRatePolicy(float(rng.uniform(0.2, 6.0)),
                              float(rng.uniform(0.0, 4.0)))
            beta = ResponseParams(float(rng.uniform(0.05, 0.85))
                                  * b * rho / nu.nu_b)
            return dis, nu, beta
        if row == "eradicating":
            nu_b = float(rng.uniform(0.2, 6.0))
            gap0 = b * rho - nu_b / theta_star
            nu = VaRatePolicy(nu_b, max(gap0, 0.0) + float(rng.uniform(0.5, 4.0)))
            psi_e = epidemic.psi_eradicating(nu, b)
            if psi_e < theta_star + 0.03:
                continue
            return dis, nu, ResponseParams(float(rng.uniform(1.2, 4.0)) / psi_e)
        nu_b = float(rng.uniform(0.1, 3.0))
        gap0 = b * rho - nu_b / theta_star
        if gap0 < 0.3:
            continue
        nu = VaRatePolicy(nu_b, float(rng.uniform(0.0, 0.85)) * gap0)
        psi_o = epidemic.psi_co_occurring(nu, dis)
        if not 0.02 < psi_o < theta_star - 0.02:
            continue
        return dis, nu, ResponseParams(float(rng.uniform(1.2, 4.0)) / psi_o)


def check_attractor_return(cand, result) -> list[Finding]:
    """The integrated limit must sit within ODE_LIMIT_TOL of the candidate
    and the integrator must report convergence."""
    out = []
    lim = result.limit
    dist = max(abs(lim.theta - cand.theta), abs(lim.psi - cand.psi),
               abs(lim.eta - cand.eta))
    if not dist < ODE_LIMIT_TOL:
        out.append(Finding(True, f"limit {dist:.3g} from the candidate"))
    if not result.converged:
        out.append(Finding(False, f"not converged after {len(result.t) - 1} "
                                 f"steps: {result.message}"))
    return out


# The parameter draws are one fixed reference set: the slow, heavy-tailed
# cases are a property of the parameters, so drawing them per seed would
# make throughput depend on how many of them a seed happens to hit. The
# seed draws the perturbed starts.
POPULATION_PARAMS_SEED = 202


class Population:
    """Attractor-return checks: perturb a start by 1e-2 off an active
    candidate and integrate to equilibrium, a third of them in each of the
    three endemic regimes."""

    name = "population"
    threads = 1
    pass_s = 6.2

    def __init__(self, seed: int, sizes: Sizes):
        prng = np.random.default_rng(POPULATION_PARAMS_SEED)
        rng = np.random.default_rng(seed)
        self.cases = []
        for k in range(sizes.population_draws):
            row = ROWS[k % len(ROWS)]
            dis, nu, beta = row_draw(prng, row)
            cand = getattr(epidemic.candidate_attractors(dis, nu, beta), row)
            vec = rng.normal(size=2)
            vec *= 1e-2 / np.linalg.norm(vec)
            theta0 = min(max(cand.theta + vec[0], 1e-4), 0.98)
            psi0 = min(max(cand.psi + vec[1], 1e-4), 0.98 - theta0)
            self.cases.append((row, dis, nu, beta,
                               epidemic.OdeState(theta0, psi0, cand.eta)))

    def items(self, pass_no: int):
        return range(len(self.cases))

    def op(self, k: int):
        row, dis, nu, beta, start = self.cases[k]
        cand = getattr(epidemic.candidate_attractors(dis, nu, beta), row)
        return cand, epidemic.integrate_to_equilibrium(
            start, dis, nu, beta, horizon=POPULATION_HORIZON)

    def check(self, k: int, out, refs) -> list[Finding]:
        cand, result = out
        if cand is None or not cand.active:
            return [Finding(True, f"case {k}: {self.cases[k][0]} candidate "
                                 "missing or inactive")]
        return check_attractor_return(cand, result)


# ---------------------------------------------------------------------------
# jump_chain
# ---------------------------------------------------------------------------

@dataclass
class ChainRun:
    trajectory: epidemic.JumpTrajectory
    ode: epidemic.IntegrationResult
    sup_dist: float


class JumpChain:
    """Embedded jump chain from N0 near the eradicating attractor, checked
    against the ODE over the chain's horizon (acceptance criterion 3)."""

    name = "jump_chain"
    threads = 1
    pass_s = 0.64

    def __init__(self, seed: int, sizes: Sizes):
        self.seed = seed
        self.sizes = sizes
        self.disease = DiseaseParams(lam=15.0, r=2.0, b=2.0, d=0.5)
        self.nu = VaRatePolicy(8.0, 3.0)
        self.beta = ResponseParams(2.0)
        self.eta0 = epidemic.candidate_attractors(
            self.disease, self.nu, self.beta).eradicating.eta
        n0 = sizes.n0
        v0, i0 = int(0.80 * n0), int(0.03 * n0)
        self.counts = (n0 - v0 - i0, v0, i0, n0)
        k0 = max(int(round(n0 / self.eta0)) - 1, 0)
        self.ode_start = epidemic.OdeState(i0 / n0, v0 / n0, n0 / (1 + k0))

    def items(self, pass_no: int):
        return [pass_no]

    def op(self, op_no: int) -> ChainRun:
        traj = epidemic.simulate_jump_process(
            self.counts, self.disease, self.nu, self.beta,
            seed=self.seed * 10_007 + op_no, n_events=self.sizes.events,
            eta0=self.eta0, record_every=self.sizes.record_every)
        sol = epidemic.integrate_to_equilibrium(
            self.ode_start, self.disease, self.nu, self.beta,
            horizon=float(traj.t[-1]) + 1e-9)
        th = np.interp(traj.t, sol.t, sol.states[:, 0])
        ps = np.interp(traj.t, sol.t, sol.states[:, 1])
        sup = max(float(np.max(np.abs(th - traj.theta))),
                  float(np.max(np.abs(ps - traj.psi))))
        return ChainRun(traj, sol, sup)

    def check(self, op_no: int, run: ChainRun, refs) -> list[Finding]:
        if run.trajectory.extinct:
            return [Finding(False, f"chain {op_no} went extinct")]
        if not run.sup_dist < JUMP_SUP_TOL:
            return [Finding(True, f"chain {op_no}: sup-distance "
                                 f"{run.sup_dist:.3g} >= {JUMP_SUP_TOL}")]
        return []


WORKLOADS = {w.name: w for w in (LeaderMC, DesignSweep, Population, JumpChain)}


def build(name: str, seed: int, sizes: Sizes, outroot: Path | None = None):
    if name == DesignSweep.name:
        return DesignSweep(seed, sizes, outroot)
    return WORKLOADS[name](seed, sizes)
