"""Batch CLI: scenario sweeps, figure-style reproductions, and one-shot
analyses of the three layers.

    vaxgame analyze-ess            stability report and threshold table
    vaxgame solve-influencer-game  equilibrium probability and Z_T histogram
    vaxgame optimize-leader        constrained incentive optimization
    vaxgame simulate               jump process vs ODE trajectory export
    vaxgame reproduce-fig          canned parameter studies (ids 1..5, or all)

Flags may be preloaded from --config FILE (or --config=FILE); INI-style
sections or a JSON object with the same section/key names (see README).
Exit codes: 0 ok, 2 invalid configuration, 3 infeasible model
(insufficient influence).
"""
from __future__ import annotations

import argparse
import configparser
import csv
import dataclasses
import json
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import epidemic, ess, game, leader
from .params import (DiseaseParams, InsufficientInfluenceError, PublicCostModel,
                     ResponseParams, VaRatePolicy)


class ConfigError(ValueError):
    pass


SWEEP_VARS = ("zbar", "delta", "sigma2", "theta_star", "s")


@dataclass
class ScenarioConfig:
    """One sweep over a single variable, everything else held fixed."""

    sweep_var: str
    grid: tuple[float, ...]
    disease: DiseaseParams
    nu: VaRatePolicy
    costs: PublicCostModel
    game_cfg: game.InfluencerGameConfig
    delta: float
    outdir: Path
    seed: int = 0
    samples: int = 100_000
    workers: int = 1
    plot: bool = False

    def __post_init__(self):
        if self.sweep_var not in SWEEP_VARS:
            raise ConfigError(f"sweep variable must be one of {SWEEP_VARS}")
        if len(self.grid) == 0:
            raise ConfigError("sweep grid is empty")


@dataclass
class ReportRow:
    sweep_value: float
    g_star: float | None
    u_star: float | None
    z_bar: int | None
    psi_e: float | None
    np_at_g: float | None
    runtime_ms: float


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return f"{v:.12g}"
    return str(v)


def write_csv(path: Path, fieldnames, rows) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(fieldnames)
        for row in rows:
            w.writerow([_fmt(v) for v in row])


def svg_line_chart(path: Path, xs, series: dict[str, list], title: str,
                   width: int = 640, height: int = 420) -> None:
    """Minimal standalone SVG line chart; keeps plotting dependency-free."""
    xs = [float(x) for x in xs]
    pts = [(k, [float(v) for v in vs]) for k, vs in series.items()]
    all_y = [v for _, vs in pts for v in vs if np.isfinite(v)]
    if not all_y or len(xs) < 2:
        return
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(all_y), max(all_y)
    if x1 == x0:
        x1 = x0 + 1.0
    if y1 == y0:
        y1 = y0 + 1.0
    pad = 50
    def sx(x):
        return pad + (x - x0) / (x1 - x0) * (width - 2 * pad)
    def sy(y):
        return height - pad - (y - y0) / (y1 - y0) * (height - 2 * pad)
    colors = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e"]
    out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
           f'<text x="{width//2}" y="20" text-anchor="middle" font-size="14">{title}</text>',
           f'<line x1="{pad}" y1="{height-pad}" x2="{width-pad}" y2="{height-pad}" stroke="black"/>',
           f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{height-pad}" stroke="black"/>',
           f'<text x="{pad}" y="{height-pad+16}" font-size="10">{x0:.4g}</text>',
           f'<text x="{width-pad}" y="{height-pad+16}" font-size="10" text-anchor="end">{x1:.4g}</text>',
           f'<text x="{pad-4}" y="{height-pad}" font-size="10" text-anchor="end">{y0:.4g}</text>',
           f'<text x="{pad-4}" y="{pad}" font-size="10" text-anchor="end">{y1:.4g}</text>']
    for i, (name, vs) in enumerate(pts):
        col = colors[i % len(colors)]
        coords = " ".join(f"{sx(x):.1f},{sy(y):.1f}" for x, y in zip(xs, vs)
                          if np.isfinite(y))
        out.append(f'<polyline fill="none" stroke="{col}" points="{coords}"/>')
        out.append(f'<text x="{width-pad+4}" y="{pad + 14*i}" font-size="11" '
                   f'fill="{col}" text-anchor="end">{name}</text>')
    out.append("</svg>")
    Path(path).write_text("\n".join(out))


# ---------------------------------------------------------------------------
# Scenario runner
# ---------------------------------------------------------------------------

def _sweep_point(cfg: ScenarioConfig, idx: int, value: float) -> ReportRow:
    t0 = time.perf_counter()
    gc, delta = cfg.game_cfg, cfg.delta
    if cfg.sweep_var in ("zbar", "delta", "sigma2"):
        zb = gc.z_bar
        if cfg.sweep_var == "zbar":
            zb = int(value)
        elif cfg.sweep_var == "delta":
            delta = float(value)
        else:
            gc = dataclasses.replace(gc, xi_sigma2=float(value))
        psi_e = epidemic.psi_eradicating(cfg.nu, cfg.disease.b)
    else:
        dis, costs = cfg.disease, cfg.costs
        if cfg.sweep_var == "theta_star":
            rho = 1.0 / (1.0 - float(value))
            dis = DiseaseParams(lam=rho * (dis.r + dis.b), r=dis.r, b=dis.b, d=dis.d)
        else:
            costs = dataclasses.replace(costs, s=float(value))
        zb, _ = leader.vaccine_optimal_k(costs, dis, gc.m)
        design = leader.construct_eps_vaccine_optimal_nu(zb, 1e-3, costs, dis, gc.m)
        psi_e = design.psi_e_achieved
        gc = dataclasses.replace(gc, z_bar=zb)

    mode = leader.PERFECT_INFO if gc.xi_sigma2 == 0.0 else leader.MONTE_CARLO
    smp = leader.ExpectationSampler(mode=mode, n_samples=cfg.samples,
                                    seed=cfg.seed * 100_003 + idx)
    sol = leader.solve_optimal_incentive(zb, leader.LeaderProblem(delta, gc, smp))
    return ReportRow(float(value), sol.g_star, sol.u_star, zb, psi_e,
                     sol.np_at_g, (time.perf_counter() - t0) * 1e3)


def run_scenario(cfg: ScenarioConfig) -> Path:
    """Execute the sweep and write report.csv (plus report.svg with plot)."""
    if cfg.workers > 1:
        with ThreadPoolExecutor(max_workers=cfg.workers) as pool:
            rows = list(pool.map(lambda iv: _sweep_point(cfg, *iv),
                                 enumerate(cfg.grid)))
    else:
        rows = [_sweep_point(cfg, i, v) for i, v in enumerate(cfg.grid)]
    cfg.outdir.mkdir(parents=True, exist_ok=True)
    out = cfg.outdir / "report.csv"
    fields = [f.name for f in dataclasses.fields(ReportRow)]
    write_csv(out, fields, [dataclasses.astuple(r) for r in rows])
    if cfg.plot:
        xs = [r.sweep_value for r in rows]
        series = {}
        if any(r.u_star is not None for r in rows):
            series["U*"] = [r.u_star if r.u_star is not None else float("nan")
                            for r in rows]
        if any(r.psi_e is not None for r in rows):
            series["psi_e"] = [r.psi_e if r.psi_e is not None else float("nan")
                               for r in rows]
        svg_line_chart(cfg.outdir / "report.svg", xs, series,
                       f"sweep over {cfg.sweep_var}")
    return out


# ---------------------------------------------------------------------------
# Figure presets
# ---------------------------------------------------------------------------

FIG_IDS = (1, 2, 3, 4, 5)
FIG_GAME = dict(m=40, t_horizon=20, c_v=1.0, c_i=5.0, c_se_1=3.0,
                xi_mean=5.0, xi_sigma2=2.0)
# theta-sweep cost set (infectious-fraction study)
FIG_THETA_COSTS = dict(c_v1=6.0, c_v2=2.0, c_v2_bar=15.0, c_i=50.0, s=0.5)
FIG_THETA_DISEASE = dict(r=5.0, b=2.0)
# sensitivity-sweep cost set
FIG_S_COSTS = dict(c_v1=0.2, c_v2=0.05, c_v2_bar=100.0, c_i=0.5)
FIG_S_DISEASE = dict(lam=15.0, r=2.0, b=2.0)


def _fig_cfg(z_bar: int, sigma2: float | None = None) -> game.InfluencerGameConfig:
    kw = dict(FIG_GAME)
    if sigma2 is not None:
        kw["xi_sigma2"] = sigma2
    return game.InfluencerGameConfig(z_bar=z_bar, **kw)


def reproduce_figure(fig_id: int, outdir: Path, seed: int = 0,
                     samples: int = 100_000) -> Path:
    """Emit the CSV for one canned parameter study (one of FIG_IDS).

    See the README for the qualitative claim each file supports.
    """
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    if fig_id == 1:
        smp = leader.ExpectationSampler(n_samples=samples, seed=seed)
        rows = []
        zbars = list(range(1, 41))
        for delta in (0.01, 0.05, 0.1):
            for zb in zbars:
                sol = leader.solve_optimal_incentive(
                    zb, leader.LeaderProblem(delta, _fig_cfg(zb), smp))
                rows.append([zb, delta, sol.g_star, sol.u_star, sol.np_at_g])
        out = outdir / "fig1_incentives_vs_zbar.csv"
        write_csv(out, ["zbar", "delta", "g_star", "u_star", "np_at_g"], rows)
        return out

    if fig_id == 2:
        smp = leader.ExpectationSampler(n_samples=samples, seed=seed)
        rows = []
        for delta in np.round(np.arange(0.01, 0.151, 0.01), 3):
            s1 = leader.solve_optimal_incentive(
                1, leader.LeaderProblem(float(delta), _fig_cfg(1), smp))
            sM = leader.solve_optimal_incentive(
                40, leader.LeaderProblem(float(delta), _fig_cfg(40), smp))
            rows.append([delta, s1.g_star, s1.u_star, sM.g_star, sM.u_star,
                         1 if sM.u_star < s1.u_star else 0])
        out = outdir / "fig2_crossover_vs_delta.csv"
        write_csv(out, ["delta", "g1", "u1", "gM", "uM", "uM_best"], rows)
        return out

    if fig_id == 3:
        smp = leader.ExpectationSampler(n_samples=samples, seed=seed)
        pi = leader.ExpectationSampler(mode=leader.PERFECT_INFO)
        rows = []
        for delta in (0.01, 0.05):
            p1 = leader.perfect_info_solution(
                1, leader.LeaderProblem(delta, _fig_cfg(1, 0.0), pi))
            pM = leader.perfect_info_solution(
                40, leader.LeaderProblem(delta, _fig_cfg(40, 0.0), pi))
            for sigma2 in (1e-4, 1e-3, 1e-2, 0.1, 0.5, 1.0, 2.0, 2.5):
                s1 = leader.solve_optimal_incentive(
                    1, leader.LeaderProblem(delta, _fig_cfg(1, sigma2), smp))
                sM = leader.solve_optimal_incentive(
                    40, leader.LeaderProblem(delta, _fig_cfg(40, sigma2), smp))
                rows.append([delta, sigma2, s1.g_star, sM.g_star + FIG_GAME["c_i"],
                             p1.g_star, pM.g_star + FIG_GAME["c_i"]])
        out = outdir / "fig3_convergence_vs_sigma2.csv"
        write_csv(out, ["delta", "sigma2", "g1", "gM_plus_Ci",
                        "g1_perfect", "gM_plus_Ci_perfect"], rows)
        return out

    if fig_id == 4:
        # Two sweeps; the caption chain is ambiguous about which cost set
        # the sensitivity sweep uses, so both parameter sets are emitted.
        rows = []
        for theta in np.round(np.arange(0.05, 0.96, 0.05), 3):
            rho = 1.0 / (1.0 - float(theta))
            dis = DiseaseParams(lam=rho * (FIG_THETA_DISEASE["r"] + FIG_THETA_DISEASE["b"]),
                                **FIG_THETA_DISEASE)
            costs = PublicCostModel(**FIG_THETA_COSTS)
            k, _ = leader.vaccine_optimal_k(costs, dis, 40)
            rows.append(["theta_star", theta, k])
        dis_s = DiseaseParams(**FIG_S_DISEASE)
        for s in np.round(np.arange(0.05, 0.51, 0.05), 3):
            costs = PublicCostModel(s=float(s), **FIG_S_COSTS)
            k, _ = leader.vaccine_optimal_k(costs, dis_s, 40)
            rows.append(["s", s, k])
        out = outdir / "fig4_zbar_vs_theta_and_s.csv"
        write_csv(out, ["sweep", "value", "zbar"], rows)
        return out

    if fig_id == 5:
        dis = DiseaseParams(**FIG_S_DISEASE)
        smp = leader.ExpectationSampler(n_samples=samples, seed=seed)
        rows = []
        for s in np.round(np.arange(0.02, 0.51, 0.02), 3):
            costs = PublicCostModel(s=float(s), **FIG_S_COSTS)
            k, _ = leader.vaccine_optimal_k(costs, dis, 40)
            design = leader.construct_eps_vaccine_optimal_nu(k, 1e-3, costs, dis, 40)
            row = [s, k, design.psi_e_achieved,
                   1 if design.incentive_optimal_exists else 0]
            for delta in (0.01, 0.1):
                sol = leader.solve_optimal_incentive(
                    k, leader.LeaderProblem(delta, _fig_cfg(k), smp))
                row.append(sol.u_star)
            psi_inc = None
            if design.incentive_optimal_exists:
                nu_inc = leader.construct_incentive_optimal_nu(costs, dis, 40)
                psi_inc = epidemic.psi_eradicating(nu_inc, dis.b)
            row.append(psi_inc)
            rows.append(row)
        out = outdir / "fig5_joint_design_vs_s.csv"
        write_csv(out, ["s", "k_star", "psi_e_vaccine_opt", "incentive_opt_exists",
                        "u_star_d0.01", "u_star_d0.1", "psi_e_incentive_opt"], rows)
        return out

    raise ConfigError(f"unknown figure id {fig_id}")


# ---------------------------------------------------------------------------
# Argument handling
# ---------------------------------------------------------------------------

CONFIG_SECTIONS = {
    "disease": ("lambda", "r", "b", "d"),
    "policy": ("nu_b", "nu_e"),
    "response": ("beta",),
    "costs": ("cv1", "cv2", "cv2_bar", "ci_public", "s", "cf_table"),
    "game": ("m", "t", "cv", "ci", "cse1", "xi_mean", "xi_var", "p0", "zbar", "g0"),
    "leader": ("delta", "mode", "samples"),
    "sweep": ("var", "grid"),
    "output": ("outdir", "csv", "seed", "plot", "workers"),
}


def load_config_file(path: str) -> dict:
    """Flatten an INI or JSON config file into CLI destination names."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    flat: dict = {}
    if text.lstrip().startswith("{"):
        data = json.loads(text)
        items = ((sec, dict(vals)) for sec, vals in data.items())
    else:
        cp = configparser.ConfigParser()
        try:
            cp.read_string(text)
        except configparser.Error as exc:
            raise ConfigError(f"bad config file {path}: {exc}") from exc
        items = ((sec, dict(cp[sec])) for sec in cp.sections())
    for sec, vals in items:
        if sec not in CONFIG_SECTIONS:
            raise ConfigError(f"unknown config section [{sec}]")
        for key, val in vals.items():
            if key not in CONFIG_SECTIONS[sec]:
                raise ConfigError(f"unknown key {key!r} in section [{sec}]")
            flat[key] = val
    return flat


def config_flag(key: str) -> str:
    """The command-line flag a config key stands for."""
    return "--" + key.replace("_", "-")


def _config_args(flat: dict, known: set[str]) -> list[str]:
    extra = []
    for key, val in flat.items():
        flag, val = config_flag(key), str(val)
        if flag in known and val.lower() != "false":
            extra += [flag] if val.lower() == "true" else [flag, val]
    return extra


def _add_disease_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--lambda", dest="lam", type=float, default=15.0)
    p.add_argument("--r", type=float, default=2.0)
    p.add_argument("--b", type=float, default=2.0)
    p.add_argument("--d", type=float, default=None,
                   help="death rate; defaults to b/4 (no reported value)")
    p.add_argument("--nu-b", dest="nu_b", type=float, default=5.0)
    p.add_argument("--nu-e", dest="nu_e", type=float, default=0.7)


def _add_cost_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--cv1", type=float, default=0.2)
    p.add_argument("--cv2", type=float, default=0.05)
    p.add_argument("--cv2-bar", dest="cv2_bar", type=float, default=100.0)
    p.add_argument("--ci-public", dest="ci_public", type=float, default=0.5)
    p.add_argument("--s", type=float, default=0.1,
                   help="linear insecurity sensitivity c_f(z) = s z")
    p.add_argument("--cf-table", dest="cf_table", default=None,
                   help="file with one c_f value per line (overrides --s)")


def _add_game_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--m", type=int, default=40)
    p.add_argument("--t", dest="t_horizon", type=int, default=20)
    p.add_argument("--cv", type=float, default=1.0)
    p.add_argument("--ci", type=float, default=5.0)
    p.add_argument("--cse1", type=float, default=3.0)
    p.add_argument("--xi-mean", dest="xi_mean", type=float, default=5.0)
    p.add_argument("--xi-var", dest="xi_var", type=float, default=2.0)
    p.add_argument("--p0", type=float, default=0.0)
    p.add_argument("--zbar", type=int, default=None)
    p.add_argument("--g0", type=float, default=0.0)


def _disease_from(args) -> DiseaseParams:
    d = args.d if args.d is not None else args.b / 4.0
    return DiseaseParams(lam=args.lam, r=args.r, b=args.b, d=d)


def _costs_from(args, m: int) -> PublicCostModel:
    kw = dict(c_v1=args.cv1, c_v2=args.cv2, c_v2_bar=args.cv2_bar,
              c_i=args.ci_public)
    if getattr(args, "cf_table", None):
        try:
            text = Path(args.cf_table).read_text()
        except OSError as exc:
            raise ConfigError(f"cannot read c_f table {args.cf_table}: "
                              f"{exc}") from exc
        vals = tuple(float(line) for line in text.split())
        if len(vals) != m + 1:
            raise ConfigError(f"c_f table must have {m + 1} entries")
        return PublicCostModel(c_f_table=vals, **kw)
    return PublicCostModel(s=args.s, **kw)


def _game_cfg_from(args, z_bar: int) -> game.InfluencerGameConfig:
    return game.InfluencerGameConfig(
        m=args.m, t_horizon=args.t_horizon, c_v=args.cv, c_i=args.ci,
        c_se_1=args.cse1, xi_mean=args.xi_mean, xi_sigma2=args.xi_var,
        p0=args.p0, z_bar=z_bar, g0=args.g0)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_analyze_ess(args) -> int:
    dis = _disease_from(args)
    nu = VaRatePolicy(args.nu_b, args.nu_e)
    costs = _costs_from(args, args.m)
    status = ess.is_admissible(nu, dis)
    out = {"admissibility": status.value, "rho": dis.rho}
    if dis.rho > 1.0:
        out["theta_star"] = dis.theta_star
        out["psi_e"] = epidemic.psi_eradicating(nu, dis.b)
    if status and costs.influence_sufficient(args.m):
        out["z_bar"] = ess.eradication_threshold(nu, costs, dis, args.m)
    reports = [ess.classify_esss(z, nu, costs, dis, args.m).to_dict()
               for z in range(args.m + 1)]
    out["per_z"] = reports
    print(json.dumps(out, indent=2))
    print(f"\n{'z':>4} {'h_i':>12} {'h_v':>12} {'erad':>5}  esss")
    for rep in reports:
        print(f"{rep['z']:>4} {rep['h_i']:>12.5g} {rep['h_v']:>12.5g} "
              f"{rep['eradication_conditional']:>5}  "
              f"{','.join(rep['esss_set'])}")
    return 0


def cmd_solve_influencer_game(args) -> int:
    if args.zbar is None:
        raise ConfigError("--zbar is required for solve-influencer-game")
    if args.samples < 1:
        raise ConfigError("--samples must be at least 1")
    cfg = _game_cfg_from(args, args.zbar)
    path = game.sample_cost_path(cfg, args.seed)
    c_final = path.final()
    p = game.ne_outcome_probability(args.g0, c_final, args.zbar, cfg)
    zs = game.sample_z_t(args.g0, cfg, args.seed, size=args.samples)
    hist = np.bincount(zs, minlength=cfg.m + 1)
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    out = outdir / "zt_histogram.csv"
    write_csv(out, ["z", "count"], [[z, int(n)] for z, n in enumerate(hist)])
    print(json.dumps({
        "c_final_sampled": c_final,
        "p_at_sampled_path": p,
        "p_mean": float(np.mean(game.p_from_gamma_vec(
            args.g0,
            game.final_gamma_draws(cfg, np.random.default_rng(args.seed),
                                   args.samples),
            args.zbar, cfg))),
        "histogram_csv": str(out)}, indent=2))
    return 0


def cmd_optimize_leader(args) -> int:
    dis = _disease_from(args)
    costs = _costs_from(args, args.m)
    if args.auto_zbar:
        nu = VaRatePolicy(args.nu_b, args.nu_e)
        zb = ess.eradication_threshold(nu, costs, dis, args.m)
    elif args.zbar is not None:
        zb = args.zbar
    else:
        raise ConfigError("give --zbar or --auto-zbar")
    cfg = _game_cfg_from(args, zb)
    mode = leader.PERFECT_INFO if args.mode == "perfect" else leader.MONTE_CARLO
    smp = leader.ExpectationSampler(mode=mode, n_samples=args.samples,
                                    seed=args.seed)
    sol = leader.solve_optimal_incentive(zb, leader.LeaderProblem(args.delta, cfg, smp))
    print(json.dumps(sol.to_dict(), indent=2))
    sweep = Path(args.csv)
    new = not sweep.exists()
    with open(sweep, "a", newline="") as fh:
        w = csv.writer(fh)
        if new:
            w.writerow(["zbar", "delta", "sigma2", "g_star", "U_star", "NP_at_g"])
        w.writerow([_fmt(v) for v in
                    [zb, args.delta, cfg.xi_sigma2, sol.g_star, sol.u_star,
                     sol.np_at_g]])
    return 0


def cmd_simulate(args) -> int:
    dis = _disease_from(args)
    nu = VaRatePolicy(args.nu_b, args.nu_e)
    beta = ResponseParams(args.beta)
    n0 = args.n0
    v0 = int(round(args.psi0 * n0))
    i0 = int(round(args.theta0 * n0))
    s0 = n0 - v0 - i0
    if s0 < 0:
        raise ConfigError("theta0 + psi0 must not exceed 1")
    eta0 = args.eta0
    if eta0 is None:
        att = epidemic.candidate_attractors(dis, nu, beta)
        active = att.active()
        eta0 = next(iter(active.values())).eta if active else 1.0
    jump = epidemic.simulate_jump_process((s0, v0, i0, n0), dis, nu, beta,
                                          seed=args.seed, n_events=args.events,
                                          eta0=eta0,
                                          record_every=max(args.events // 2000, 1))
    ode, sup = epidemic.matched_ode(jump, dis, nu, beta)
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    out = outdir / "trajectory.csv"
    epidemic.export_trajectory_csv(out, ode=ode, jump=jump)
    print(json.dumps({"trajectory_csv": str(out), "events": jump.events,
                      "extinct": jump.extinct,
                      "jump_final": [jump.theta[-1], jump.psi[-1], jump.eta[-1]],
                      "ode_final": [ode.limit.theta, ode.limit.psi,
                                    ode.limit.eta],
                      "sup_dist": sup}, indent=2))
    return 0


def cmd_reproduce_fig(args) -> int:
    ids = FIG_IDS if args.id == "all" else (int(args.id),)
    outs = [reproduce_figure(i, Path(args.outdir), seed=args.seed,
                             samples=args.samples) for i in ids]
    print(json.dumps({"csv": [str(out) for out in outs]}, indent=2))
    return 0


def cmd_sweep(args) -> int:
    try:
        grid = tuple(float(v) for v in args.grid.split(",") if v.strip())
    except ValueError as exc:
        raise ConfigError(f"bad sweep grid {args.grid!r}: {exc}") from exc
    dis = _disease_from(args)
    costs = _costs_from(args, args.m)
    zb = args.zbar if args.zbar is not None else args.m
    cfg = ScenarioConfig(
        sweep_var=args.var, grid=grid, disease=dis,
        nu=VaRatePolicy(args.nu_b, args.nu_e), costs=costs,
        game_cfg=_game_cfg_from(args, zb), delta=args.delta,
        outdir=Path(args.outdir), seed=args.seed, samples=args.samples,
        workers=args.workers, plot=args.plot)
    out = run_scenario(cfg)
    print(json.dumps({"csv": str(out)}, indent=2))
    return 0


def _config_parser() -> argparse.ArgumentParser:
    """The --config option alone, in both the `--config FILE` and the
    `--config=FILE` form; `main` reads it before the full parse."""
    p = argparse.ArgumentParser(prog="vaxgame", add_help=False,
                                allow_abbrev=False)
    p.add_argument("--config", default=None, help="INI or JSON config file")
    return p


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="vaxgame", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter,
                                 parents=[_config_parser()])
    sub = ap.add_subparsers(dest="command", required=True)

    common = dict(seed=lambda p: p.add_argument("--seed", type=int, default=0),
                  outdir=lambda p: p.add_argument("--outdir", default="out"),
                  samples=lambda p: p.add_argument("--samples", type=int,
                                                   default=100_000))

    p = sub.add_parser("analyze-ess", help="stability classification table")
    _add_disease_flags(p)
    _add_cost_flags(p)
    p.add_argument("--m", type=int, default=40)
    common["seed"](p)
    p.set_defaults(func=cmd_analyze_ess)

    p = sub.add_parser("solve-influencer-game", help="equilibrium outcome")
    _add_game_flags(p)
    common["seed"](p)
    common["outdir"](p)
    p.add_argument("--samples", type=int, default=10_000)
    p.set_defaults(func=cmd_solve_influencer_game)

    p = sub.add_parser("optimize-leader", help="constrained incentive design")
    _add_disease_flags(p)
    _add_cost_flags(p)
    _add_game_flags(p)
    p.add_argument("--delta", type=float, default=0.05)
    p.add_argument("--auto-zbar", action="store_true",
                   help="derive z_bar from the VA policy and costs")
    p.add_argument("--mode", choices=("mc", "perfect"), default="mc")
    p.add_argument("--csv", default="leader_sweep.csv",
                   help="sweep file to append the solution row to")
    common["seed"](p)
    common["samples"](p)
    p.set_defaults(func=cmd_optimize_leader)

    p = sub.add_parser("simulate", help="jump process vs ODE trajectories")
    _add_disease_flags(p)
    p.add_argument("--beta", type=float, default=2.0)
    p.add_argument("--n0", type=int, default=100_000)
    p.add_argument("--theta0", type=float, default=0.02)
    p.add_argument("--psi0", type=float, default=0.8)
    p.add_argument("--eta0", type=float, default=None)
    p.add_argument("--events", type=int, default=500_000)
    common["seed"](p)
    common["outdir"](p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("reproduce-fig", help="canned parameter studies")
    p.add_argument("--id", required=True,
                   choices=[str(i) for i in FIG_IDS] + ["all"],
                   help="study to write, or all five")
    common["seed"](p)
    common["outdir"](p)
    common["samples"](p)
    p.set_defaults(func=cmd_reproduce_fig)

    p = sub.add_parser("sweep", help="single-variable scenario sweep")
    _add_disease_flags(p)
    _add_cost_flags(p)
    _add_game_flags(p)
    p.add_argument("--var", choices=SWEEP_VARS, required=True)
    p.add_argument("--grid", required=True, help="comma-separated values")
    p.add_argument("--delta", type=float, default=0.05)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--plot", action="store_true")
    common["seed"](p)
    common["outdir"](p)
    common["samples"](p)
    p.set_defaults(func=cmd_sweep)
    return ap


def subcommand_flags(parser: argparse.ArgumentParser) -> dict[str, set[str]]:
    """The option strings each subcommand of `parser` accepts."""
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    return {name: {o for a in p._actions for o in a.option_strings}
            for name, p in sub.choices.items()}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        # the other arguments come back unparsed and in their order
        pre, argv = _config_parser().parse_known_args(argv)
        if pre.config is not None:
            flat = load_config_file(pre.config)
            flags = subcommand_flags(parser)
            cmd = next((j for j, a in enumerate(argv) if a in flags), None)
            if cmd is not None:
                # right after the subcommand, so flags given on the command
                # line come later and win; keys the subcommand has no flag
                # for are left out, so one file serves every subcommand
                argv[cmd + 1:cmd + 1] = _config_args(flat, flags[argv[cmd]])
        args = parser.parse_args(argv)
        return args.func(args)
    except InsufficientInfluenceError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        # ConfigError and every parameter check of the library objects
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SystemExit as exc:
        # argparse failures (unknown flags, bad values) land here
        return 2 if exc.code not in (0, None) else 0


if __name__ == "__main__":
    sys.exit(main())
