"""Batch CLI: scenario sweeps, figure-style reproductions, and one-shot
analyses of the three layers.

    vaxgame analyze-ess            stability report and threshold table
    vaxgame solve-influencer-game  equilibrium probability and Z_T histogram
    vaxgame optimize-leader        constrained incentive optimization
    vaxgame simulate               jump process vs ODE trajectory export
    vaxgame reproduce-fig          canned parameter studies (ids 1..5, or all)
    vaxgame sweep                  single-variable scenario sweep

Flags may be preloaded from --config FILE (or --config=FILE); INI-style
sections or a JSON object with the same section/key names (see README).
Exit codes: 0 ok; 1 a defect, with its traceback; 2 invalid input, that is
an argparse error or an InvalidInput (naming the flag) and nothing else; 3
infeasible model (insufficient influence, no joint design, or no incentive
that meets delta within the leader's bracket); 141 standard output closed
before the output was written (as a shell reports a process ended by
SIGPIPE).
"""
from __future__ import annotations

import argparse
import configparser
import csv
import dataclasses
import functools
import json
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import epidemic, ess, game, leader
from .params import (MAX_DRAWS, MAX_INFLUENCERS, DiseaseParams,
                     InsufficientInfluenceError, InvalidInput,
                     PublicCostModel, ResponseParams, VaRatePolicy,
                     finite_tuple, require_finite, require_integer,
                     require_scaled)

SWEEP_VARS = ("zbar", "delta", "sigma2", "theta_star", "s")


@dataclass(frozen=True)
class ScenarioConfig:
    """One sweep over a single variable, everything else held fixed.

    grid must hold finite numbers, seed an integer >= 0, samples one in
    1..MAX_DRAWS, workers (threads of the pool every point runs on) one
    >= 1, delta in (0, 1), an s sweep's disease rho > 1 and its costs
    linear (no c_f_table), and the game of a theta_star or s sweep must
    list no incentives, which fix it to its own z_bar while such a sweep
    solves each point at its design's k*; a bad field raises InvalidInput
    when the object is built, and it is frozen, so none is set after.
    So does a grid value whose point (see `point`) cannot be built, with a
    message that starts with "grid".
    """

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
            raise InvalidInput("sweep_var", f"must be one of {SWEEP_VARS}")
        if not finite_tuple("grid", self.grid):
            raise InvalidInput("grid", "must hold at least one value")
        require_integer("seed", self.seed, least=0)
        require_integer("samples", self.samples, 1, MAX_DRAWS)
        require_integer("workers", self.workers, least=1)
        require_finite("delta", self.delta)
        if not 0.0 < self.delta < 1.0:
            raise InvalidInput("delta",
                               f"must lie in (0, 1), got {self.delta!r}")
        if self.sweep_var == "s" and self.disease.rho <= 1.0:
            raise InvalidInput("disease", f"must have rho > 1 for an s sweep, "
                                          f"got rho = {self.disease.rho!r}")
        if self.sweep_var == "s" and self.costs.c_f_table is not None:
            raise InvalidInput("costs", "must be linear for an s sweep, which "
                               "sets their slope s, but hold a c_f_table")
        if (self.sweep_var in ("theta_star", "s")
                and self.game_cfg.incentives is not None):
            raise InvalidInput("game_cfg", f"must list no incentives for a "
                               f"{self.sweep_var} sweep, which solves each "
                               f"point at its design's threshold k*, but "
                               f"lists them for z_bar = {self.game_cfg.z_bar}")
        for idx, v in enumerate(self.grid):
            try:
                self.point(idx, v)
            except InvalidInput as exc:
                raise InvalidInput("grid", f"value {self.sweep_var} = {v!r} "
                                           f"is refused: {exc}") from exc

    def point(self, idx: int, value: float):
        """(leader problem, disease, costs) of grid point idx at value, the
        swept one built from value and so checked, with no design or solve.
        The problem holds the point's own sampler."""
        gc, delta, dis, costs = (self.game_cfg, self.delta, self.disease,
                                 self.costs)
        if self.sweep_var == "zbar":
            # a float that is not an integer is refused by the config
            zb = int(value) if float(value).is_integer() else value
            gc = dataclasses.replace(gc, z_bar=zb)
        elif self.sweep_var == "delta":
            delta = float(value)
        elif self.sweep_var == "sigma2":
            gc = dataclasses.replace(
                gc, xi=dataclasses.replace(gc.xi, sigma2=float(value)))
        elif self.sweep_var == "theta_star":
            dis = _theta_disease(float(value), dis.r, dis.b, dis.d)
        else:
            costs = dataclasses.replace(costs, s=float(value))
        smp = leader.ExpectationSampler(n_samples=self.samples,
                                        seed=self.seed * 100_003 + idx)
        return leader.LeaderProblem(delta, gc, smp), dis, costs


@dataclass
class ReportRow:
    sweep_value: float
    g_star: float
    u_star: float
    z_bar: int
    psi_e: float
    np_at_g: float
    runtime_ms: float


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return f"{v:.12g}"
    return str(v)


def write_csv(path: Path, fieldnames, rows) -> Path:
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows([_fmt(v) for v in row]
                                 for row in [fieldnames, *rows])
    return path


def svg_line_chart(path: Path, xs, series: dict[str, list], title: str) -> None:
    """Standalone 640x420 SVG line chart; keeps plotting dependency-free."""
    width, height = 640, 420
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

def _theta_disease(theta: float, r: float, b: float,
                   d: float = 0.0) -> DiseaseParams:
    """Disease rates whose endemic infected fraction 1 - 1/rho is theta:
    rho = 1/(1 - theta) and lam = rho (r + b), for theta in (0, 1) whose
    rho rounds above 1 (theta 1e-17 gives rho = 1.0)."""
    rho = 1.0 / (1.0 - theta) if 0.0 < theta < 1.0 else 0.0
    if not rho > 1.0:
        raise InvalidInput("theta_star", f"must lie in (0, 1) and give 1/(1 - "
                           f"theta_star) > 1, got {theta!r}")
    return DiseaseParams(lam=rho * (r + b), r=r, b=b, d=d)


# how far above theta* the vaccine-optimal supply design may put psi_e
DESIGN_EPS = 1e-3


def _vaccine_optimal_design(costs: PublicCostModel, dis: DiseaseParams,
                            m: int) -> leader.JointDesign:
    """k_star and its supply policy, psi_e within DESIGN_EPS of theta*."""
    k = leader.vaccine_optimal_k(costs, dis, m)
    return leader.construct_eps_vaccine_optimal_nu(k, DESIGN_EPS, costs, dis, m)


def _sweep_point(cfg: ScenarioConfig, idx: int, value: float) -> ReportRow:
    t0 = time.perf_counter()
    problem, dis, costs = cfg.point(idx, value)
    if cfg.sweep_var in ("theta_star", "s"):
        design = _vaccine_optimal_design(costs, dis, problem.cfg.m)
        problem = dataclasses.replace(problem, cfg=dataclasses.replace(
            problem.cfg, z_bar=design.k_star))
        psi_e = design.psi_e_achieved
    else:
        psi_e = epidemic.psi_eradicating(cfg.nu, dis.b)
    sol = leader.solve_optimal_incentive(problem.cfg.z_bar, problem)
    return ReportRow(float(value), sol.g_star, sol.u_star, sol.z_bar, psi_e,
                     sol.np_at_g, (time.perf_counter() - t0) * 1e3)


def run_scenario(cfg: ScenarioConfig) -> Path:
    """Execute the sweep and write report.csv (plus report.svg with plot)."""
    # only a sweep runs a pool, so no other command imports it
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(max_workers=cfg.workers) as pool:
        rows = list(pool.map(lambda iv: _sweep_point(cfg, *iv),
                             enumerate(cfg.grid)))
    cfg.outdir.mkdir(parents=True, exist_ok=True)
    out = cfg.outdir / "report.csv"
    fields = [f.name for f in dataclasses.fields(ReportRow)]
    write_csv(out, fields, [dataclasses.astuple(r) for r in rows])
    if cfg.plot:
        svg_line_chart(cfg.outdir / "report.svg",
                       [r.sweep_value for r in rows],
                       {"U*": [r.u_star for r in rows],
                        "psi_e": [r.psi_e for r in rows]},
                       f"sweep over {cfg.sweep_var}")
    return out


# ---------------------------------------------------------------------------
# Figure presets
# ---------------------------------------------------------------------------

FIG_IDS = (1, 2, 3, 4, 5)
FIG_GAME = dict(m=40, t_horizon=20, c_v=1.0, c_i=5.0, c_se_1=3.0,
                xi=game.XiModel(5.0, 2.0))
# theta-sweep cost set (infectious-fraction study)
FIG_THETA_COSTS = dict(c_v1=6.0, c_v2=2.0, c_v2_bar=15.0, c_i=50.0, s=0.5)
FIG_THETA_DISEASE = dict(r=5.0, b=2.0)
# sensitivity-sweep cost set
FIG_S_COSTS = dict(c_v1=0.2, c_v2=0.05, c_v2_bar=100.0, c_i=0.5)
FIG_S_DISEASE = dict(lam=15.0, r=2.0, b=2.0)


def _fig_cfg(z_bar: int, sigma2: float | None = None) -> game.InfluencerGameConfig:
    kw = dict(FIG_GAME)
    if sigma2 is not None:
        kw["xi"] = dataclasses.replace(kw["xi"], sigma2=sigma2)
    return game.InfluencerGameConfig(z_bar=z_bar, **kw)


def reproduce_figure(fig_id: int, outdir: Path,
                     sampler: leader.ExpectationSampler) -> Path:
    """Emit the CSV for one canned parameter study (one of FIG_IDS).

    Every draw comes from sampler, the run's cache, so the figures that
    share a law share its one draw set. See the README for the qualitative
    claim each file supports.
    """
    if fig_id not in FIG_IDS:
        raise InvalidInput("fig_id", f"must be in {FIG_IDS}, got {fig_id!r}")
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    if fig_id in (1, 2):
        problem = leader.LeaderProblem(0.01, _fig_cfg(40), sampler)
        if fig_id == 1:
            table = leader.compare_across_zbar(problem, range(1, 41),
                                               (0.01, 0.05, 0.1))
            return write_csv(
                outdir / "fig1_incentives_vs_zbar.csv",
                ["zbar", "delta", "g_star", "u_star", "np_at_g"],
                [[r.z_bar, r.delta, r.g_star, r.u_star, r.np_at_g]
                 for r in table])
        deltas = [float(d) for d in np.round(np.arange(0.01, 0.151, 0.01), 3)]
        table = leader.compare_across_zbar(problem, (1, 40), deltas)
        rows = [[r1.delta, r1.g_star, r1.u_star, rM.g_star, rM.u_star,
                 1 if rM.argmin else 0]
                for r1, rM in zip(table[::2], table[1::2])]
        return write_csv(outdir / "fig2_crossover_vs_delta.csv",
                         ["delta", "g1", "u1", "gM", "uM", "uM_best"], rows)

    if fig_id == 3:
        def g_star(z_bar: int, delta: float, sigma2: float) -> float:
            return leader.solve_optimal_incentive(z_bar, leader.LeaderProblem(
                delta, _fig_cfg(z_bar, sigma2), sampler)).g_star

        c_i, rows = FIG_GAME["c_i"], []
        for delta in (0.01, 0.05):
            # sigma2 = 0 is the point law, solved by the closed forms
            g1_pi, gM_pi = g_star(1, delta, 0.0), g_star(40, delta, 0.0)
            for sigma2 in (1e-4, 1e-3, 1e-2, 0.1, 0.5, 1.0, 2.0, 2.5):
                rows.append([delta, sigma2, g_star(1, delta, sigma2),
                             g_star(40, delta, sigma2) + c_i,
                             g1_pi, gM_pi + c_i])
        return write_csv(outdir / "fig3_convergence_vs_sigma2.csv",
                         ["delta", "sigma2", "g1", "gM_plus_Ci", "g1_perfect",
                          "gM_plus_Ci_perfect"], rows)

    if fig_id == 4:
        # Two sweeps; the caption chain is ambiguous about which cost set
        # the sensitivity sweep uses, so both parameter sets are emitted.
        rows = []
        for theta in np.round(np.arange(0.05, 0.96, 0.05), 3):
            dis = _theta_disease(float(theta), **FIG_THETA_DISEASE)
            costs = PublicCostModel(**FIG_THETA_COSTS)
            k = leader.vaccine_optimal_k(costs, dis, 40)
            rows.append(["theta_star", theta, k])
        dis_s = DiseaseParams(**FIG_S_DISEASE)
        for s in np.round(np.arange(0.05, 0.51, 0.05), 3):
            costs = PublicCostModel(s=float(s), **FIG_S_COSTS)
            k = leader.vaccine_optimal_k(costs, dis_s, 40)
            rows.append(["s", s, k])
        return write_csv(outdir / "fig4_zbar_vs_theta_and_s.csv",
                         ["sweep", "value", "zbar"], rows)

    dis = DiseaseParams(**FIG_S_DISEASE)
    rows = []
    for s in np.round(np.arange(0.02, 0.51, 0.02), 3):
        costs = PublicCostModel(s=float(s), **FIG_S_COSTS)
        design = _vaccine_optimal_design(costs, dis, 40)
        k = design.k_star
        try:
            nu_inc = leader.construct_incentive_optimal_nu(costs, dis, 40)
            psi_inc = epidemic.psi_eradicating(nu_inc, dis.b)
        except leader.JointDesignError:
            psi_inc = None
        u_stars = [leader.solve_optimal_incentive(k, leader.LeaderProblem(
            delta, _fig_cfg(k), sampler)).u_star for delta in (0.01, 0.1)]
        rows.append([s, k, design.psi_e_achieved, int(psi_inc is not None),
                     *u_stars, psi_inc])
    return write_csv(outdir / "fig5_joint_design_vs_s.csv",
                     ["s", "k_star", "psi_e_vaccine_opt", "incentive_opt_exists",
                      "u_star_d0.01", "u_star_d0.1", "psi_e_incentive_opt"], rows)


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
# keys whose flag is a switch (store_true): true or false in a file
_CONFIG_SWITCHES = ("plot",)


def load_config_file(path: str) -> dict:
    """Flatten an INI or JSON config file into CLI destination names; a file
    that cannot be read, parsed or used is refused naming --config."""
    def refused(why: str) -> InvalidInput:
        return InvalidInput("--config", f"file {path} {why}")

    try:
        text = Path(path).read_text()
        if text.lstrip().startswith("{"):
            items = json.loads(text).items()
        else:
            # no DEFAULT section: a [DEFAULT] is an unknown one
            cp = configparser.ConfigParser(default_section="")
            cp.read_string(text)
            # a value is interpolated when read, where a stray % fails
            items = [(sec, dict(cp[sec])) for sec in cp.sections()]
    except (OSError, ValueError, configparser.Error) as exc:
        # ValueError: text that is not UTF-8, or a JSONDecodeError
        raise refused(f"cannot be read: {exc}") from exc
    flat: dict = {}
    for sec, vals in items:
        if sec not in CONFIG_SECTIONS:
            raise refused(f"has an unknown section [{sec}]")
        if not isinstance(vals, dict):
            raise refused(f"section [{sec}] must be an object of keys, got "
                          f"{json.dumps(vals)}")
        for key, val in vals.items():
            if key not in CONFIG_SECTIONS[sec]:
                raise refused(f"has an unknown key {key!r} in section [{sec}]")
            if "\0" in str(val):  # no path or number holds one
                raise refused(f"holds a NUL character in {key!r}")
            if key in _CONFIG_SWITCHES and str(val).lower() not in (
                    "true", "false"):
                raise refused(f"must set {key!r} in section [{sec}] to true "
                              f"or false, got {str(val)!r}")
            flat[key] = val
    return flat


def config_flag(key: str) -> str:
    """The command-line flag a config key stands for."""
    return "--" + key.replace("_", "-")


def _config_args(flat: dict, known: set[str]) -> list[str]:
    """The flags of `known` that flat's keys set: a switch alone where it is
    true, any other key with its text as the value."""
    extra = []
    for key, val in flat.items():
        flag, val = config_flag(key), str(val)
        if flag in known and key not in _CONFIG_SWITCHES:
            extra += [flag, val]
        elif flag in known and val.lower() == "true":
            extra.append(flag)
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


def _add_game_flags(p: argparse.ArgumentParser, need_zbar=False) -> None:
    p.add_argument("--m", type=int, default=40)
    p.add_argument("--t", dest="t_horizon", type=int, default=20)
    p.add_argument("--cv", type=float, default=1.0)
    p.add_argument("--ci", type=float, default=5.0)
    p.add_argument("--cse1", type=float, default=3.0)
    p.add_argument("--xi-mean", dest="xi_mean", type=float, default=5.0)
    p.add_argument("--xi-var", dest="xi_var", type=float, default=2.0)
    p.add_argument("--p0", type=float, default=0.0)
    p.add_argument("--zbar", type=int, default=None, required=need_zbar)
    p.add_argument("--g0", type=float, default=0.0)


def _add_run_flags(p: argparse.ArgumentParser, samples=100_000, outdir=True):
    p.add_argument("--seed", type=int, default=0)
    if outdir:
        p.add_argument("--outdir", default="out")
    if samples:
        p.add_argument("--samples", type=int, default=samples)


def _from_flags(args, fn, *pos, **fields):
    """fn(*pos, **kw), each keyword of fn given the dest that feeds it
    (read off args), or a pair (value, text) where {dest} in text stands
    for the flag. An InvalidInput whose field is one of these keywords is
    re-raised naming the flag in its place, looked up in args.flag_of,
    which build_parser sets."""
    named = {f: (getattr(args, s), f"{{{s}}}") if isinstance(s, str) else s
             for f, s in fields.items()}
    try:
        return fn(*pos, **{f: v for f, (v, _) in named.items()})
    except InvalidInput as exc:
        if exc.field not in named:
            raise
        flag = named[exc.field][1].format_map(args.flag_of)
        raise InvalidInput(flag, exc.detail) from exc


def _check_output_paths(args) -> None:
    """Refuse, before any work, an --outdir that cannot be made a directory
    (it, or its first existing ancestor, is not one) and a --csv that is a
    directory or whose directory does not exist."""
    outdir, sheet = getattr(args, "outdir", None), getattr(args, "csv", None)
    if outdir is not None:
        path = Path(outdir)
        base = next(p for p in (path, *path.parents) if p.exists())
        if not base.is_dir():
            raise InvalidInput(args.flag_of["outdir"], f"must name a "
                               f"directory or a path where one can be made, "
                               f"but {str(base)!r} is not a directory")
    if sheet is not None:
        path = Path(sheet)
        if path.is_dir() or not path.parent.is_dir():
            raise InvalidInput(args.flag_of["csv"], f"must name a file in an "
                               f"existing directory, got {sheet!r}")


def _disease_from(args) -> tuple[DiseaseParams, VaRatePolicy]:
    """The disease and the supply policy of _add_disease_flags."""
    d = args.d if args.d is not None else args.b / 4.0
    return (_from_flags(args, DiseaseParams, lam="lam", r="r", b="b",
                        d=(d, "{d}")),
            _from_flags(args, VaRatePolicy, nu_b="nu_b", nu_e="nu_e"))


def _costs_from(args, m: int) -> PublicCostModel:
    kw = dict(c_v1="cv1", c_v2="cv2", c_v2_bar="cv2_bar", c_i="ci_public")
    if getattr(args, "cf_table", None):
        # m first: the table's length is checked against m + 1
        _from_flags(args,
                    lambda m: require_integer("m", m, 1, MAX_INFLUENCERS),
                    m=(m, "{m}"))
        try:
            vals = tuple(map(float, Path(args.cf_table).read_text().split()))
        except OSError as exc:
            raise InvalidInput("--cf-table", f"must name a readable file, "
                               f"got {args.cf_table}: {exc}") from exc
        except ValueError as exc:
            raise InvalidInput("--cf-table", f"must list one number per "
                               f"line: {exc}") from exc
        if len(vals) != m + 1:
            raise InvalidInput("--cf-table", f"must list m + 1 = {m + 1} "
                               f"values for --m {m}, got {len(vals)}")
        return _from_flags(args, PublicCostModel,
                           c_f_table=(vals, "{cf_table}"), **kw)
    return _from_flags(args, PublicCostModel, s="s", **kw)


def _game_cfg_from(args, z_bar: int) -> game.InfluencerGameConfig:
    """The game the flags describe, with z_bar given by the command."""
    law = _from_flags(args, game.XiModel, mean_param="xi_mean",
                      sigma2="xi_var", p0="p0")
    return _from_flags(
        args, game.InfluencerGameConfig, m="m", t_horizon="t_horizon",
        c_v="cv", c_i="ci", c_se_1="cse1", g0="g0", z_bar=(z_bar, "{zbar}"),
        xi=(law, "the law of {xi_mean}, {xi_var} and {p0}"))


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_analyze_ess(args) -> int:
    dis, nu = _disease_from(args)
    costs = _costs_from(args, args.m)
    # z = 0 is classified for every m, so a bad m is refused there
    reports = [_from_flags(args, ess.classify_esss, z, nu, costs, dis,
                           m="m").to_dict() for z in range(max(args.m, 0) + 1)]
    status = ess.is_admissible(nu, dis)
    out = {"admissibility": status.value, "rho": dis.rho}
    if dis.rho > 1.0:
        out["theta_star"] = dis.theta_star
        out["psi_e"] = epidemic.psi_eradicating(nu, dis.b)
    if status and costs.influence_sufficient(args.m):
        out["z_bar"] = ess.eradication_threshold(nu, costs, dis, args.m)
    out["per_z"] = reports
    print(json.dumps(out, indent=2))
    print(f"\n{'z':>4} {'h_i':>12} {'h_v':>12} {'erad':>5}  esss")
    for rep in reports:
        # a gap whose limit does not exist is null in the JSON, nan here
        h_i, h_v = (float("nan") if rep[k] is None else rep[k]
                    for k in ("h_i", "h_v"))
        print(f"{rep['z']:>4} {h_i:>12.5g} {h_v:>12.5g} "
              f"{rep['eradication_conditional']:>5}  "
              f"{','.join(rep['esss_set'] + ['fragile:' + n for n in rep['fragile']])}")
    return 0


def cmd_solve_influencer_game(args) -> int:
    cfg = _game_cfg_from(args, args.zbar)
    c_final = _from_flags(args, game.sample_cost_path, cfg,
                          seed="seed").final()
    p = game.ne_outcome_probability(args.g0, c_final, cfg)
    zs, ps = _from_flags(args, game.sample_z_t, args.g0, cfg, seed="seed",
                         size="samples")
    hist = np.bincount(zs, minlength=cfg.m + 1)
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    out = write_csv(outdir / "zt_histogram.csv", ["z", "count"],
                    [[z, int(n)] for z, n in enumerate(hist)])
    print(json.dumps({
        "c_final_sampled": c_final,
        "p_at_sampled_path": p,
        "p_mean": float(np.mean(ps)),
        "histogram_csv": str(out)}, indent=2))
    return 0


def cmd_optimize_leader(args) -> int:
    dis, nu = _disease_from(args)
    costs = _costs_from(args, args.m)
    if args.auto_zbar:
        zb = _from_flags(
            args, functools.partial(ess.eradication_threshold, costs=costs),
            nu=(nu, "the policy of {nu_b} and {nu_e}, at the rates "
                "{lam}, {r} and {b},"),
            disease=(dis, "the rates {lam}, {r} and {b}"), m="m")
    elif args.zbar is not None:
        zb = args.zbar
    else:
        raise InvalidInput("--zbar", "or --auto-zbar must be given")
    cfg = _game_cfg_from(args, zb)
    if args.mode == "perfect":
        # solve as if Gamma were known: the point law at the law's mean
        cfg = dataclasses.replace(cfg, xi=game.XiModel(cfg.xi.mean))
    smp = _from_flags(args, leader.ExpectationSampler, n_samples="samples",
                      seed="seed")
    sol = leader.solve_optimal_incentive(zb, _from_flags(
        args, lambda delta: leader.LeaderProblem(delta, cfg, smp), delta="delta"))
    print(json.dumps(sol.to_dict(), indent=2))
    sweep = Path(args.csv)
    new = not sweep.exists() or sweep.stat().st_size == 0
    with open(sweep, "a", newline="") as fh:
        w = csv.writer(fh)
        if new:
            w.writerow(["zbar", "delta", "sigma2", "g_star", "U_star", "NP_at_g"])
        w.writerow([_fmt(v) for v in
                    [zb, args.delta, args.xi_var, sol.g_star, sol.u_star,
                     sol.np_at_g]])
    return 0


def cmd_simulate(args) -> int:
    dis, nu = _disease_from(args)
    beta = _from_flags(args, ResponseParams, beta="beta")
    n0 = args.n0
    require_integer("--n0", n0, least=1)
    if n0 >= 2 ** 53:
        # the chain's own check, before theta0 * n0 below can overflow
        raise InvalidInput("--n0", f"must keep N0 below 2**53, where counts "
                                   f"are exact as floats, got N0 = {n0}")
    for flag, frac in (("--theta0", args.theta0), ("--psi0", args.psi0)):
        # before it reaches int(round(...))
        require_scaled(flag, frac, 1, least=0)
    if args.theta0 + args.psi0 > 1.0:
        raise InvalidInput("--theta0", "+ --psi0 must not exceed 1")
    i0 = int(round(args.theta0 * n0))
    # rounding half to even can take both counts up (0.3 and 0.7 of 5
    # give 2 and 4), so the vaccinated count gives way to keep S0 >= 0
    v0 = min(int(round(args.psi0 * n0)), n0 - i0)
    s0 = n0 - v0 - i0
    eta0 = args.eta0
    if eta0 is None:
        active = epidemic.candidate_attractors(dis, nu, beta).active()
        eta0 = next(iter(active.values())).eta if active else 1.0
    jump = _from_flags(
        args, lambda initial_counts, **kw: epidemic.simulate_jump_process(
            initial_counts, dis, nu, beta, **kw,
            record_every=max(args.events // 2000, 1)),
        initial_counts=((s0, v0, i0, n0), "{n0}"), seed="seed",
        n_events="events", eta0=(eta0, "{eta0}"))
    ode, sup = epidemic.matched_ode(jump, dis, nu, beta)
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    rows = [(*r, "ode") for r in zip(ode.t, *ode.states.T)]
    rows += [(*r, "jump") for r in zip(jump.t, jump.theta, jump.psi, jump.eta)]
    out = write_csv(outdir / "trajectory.csv",
                    ["t", "theta", "psi", "eta", "source"], rows)
    print(json.dumps({"trajectory_csv": str(out), "events": jump.events,
                      "extinct": jump.extinct,
                      "jump_final": [jump.theta[-1], jump.psi[-1], jump.eta[-1]],
                      "ode_final": [ode.limit.theta, ode.limit.psi,
                                    ode.limit.eta],
                      "sup_dist": sup}, indent=2))
    return 0


def cmd_reproduce_fig(args) -> int:
    ids = FIG_IDS if args.id == "all" else (int(args.id),)
    smp = _from_flags(args, leader.ExpectationSampler, n_samples="samples",
                      seed="seed")
    outs = [reproduce_figure(i, Path(args.outdir), smp) for i in ids]
    print(json.dumps({"csv": [str(out) for out in outs]}, indent=2))
    return 0


def cmd_sweep(args) -> int:
    try:
        grid = tuple(float(v) for v in args.grid.split(",") if v.strip())
    except ValueError as exc:
        raise InvalidInput(args.flag_of["grid"], f"must be comma-separated "
                           f"numbers, got {args.grid!r}") from exc
    dis, nu = _disease_from(args)
    costs = _costs_from(args, args.m)
    zb = args.zbar if args.zbar is not None else args.m
    scenario = functools.partial(
        ScenarioConfig, sweep_var=args.var, nu=nu,
        costs=costs, game_cfg=_game_cfg_from(args, zb),
        outdir=Path(args.outdir), plot=args.plot)
    cfg = _from_flags(args, scenario, grid=(grid, "{grid}"),
                      disease=(dis, "the rates {lam}, {r} and {b}"),
                      costs=(costs, "{cf_table} is refused with {var} s:"
                             " costs"),
                      delta="delta", seed="seed", samples="samples",
                      workers="workers")
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

    p = sub.add_parser("analyze-ess", help="stability classification table")
    _add_disease_flags(p)
    _add_cost_flags(p)
    p.add_argument("--m", type=int, default=40)
    p.set_defaults(func=cmd_analyze_ess)

    p = sub.add_parser("solve-influencer-game", help="equilibrium outcome")
    _add_game_flags(p, need_zbar=True)
    _add_run_flags(p, samples=10_000)
    p.set_defaults(func=cmd_solve_influencer_game)

    p = sub.add_parser("optimize-leader", help="constrained incentive design")
    _add_disease_flags(p)
    _add_cost_flags(p)
    _add_game_flags(p)
    p.add_argument("--delta", type=float, default=0.05)
    p.add_argument("--auto-zbar", action="store_true",
                   help="derive z_bar from the VA policy and costs")
    p.add_argument("--mode", choices=("mc", "perfect"), default="mc",
                   help="perfect: solve at the point law of the data's mean")
    p.add_argument("--csv", default="leader_sweep.csv",
                   help="sweep file to append the solution row to")
    _add_run_flags(p, outdir=False)
    p.set_defaults(func=cmd_optimize_leader)

    p = sub.add_parser("simulate", help="jump process vs ODE trajectories")
    _add_disease_flags(p)
    p.add_argument("--beta", type=float, default=2.0)
    p.add_argument("--n0", type=int, default=100_000)
    p.add_argument("--theta0", type=float, default=0.02)
    p.add_argument("--psi0", type=float, default=0.8)
    p.add_argument("--eta0", type=float, default=None)
    p.add_argument("--events", type=int, default=500_000)
    _add_run_flags(p, samples=None)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("reproduce-fig", help="canned parameter studies")
    p.add_argument("--id", required=True,
                   choices=[str(i) for i in FIG_IDS] + ["all"],
                   help="study to write, or all five")
    _add_run_flags(p)
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
    _add_run_flags(p)
    p.set_defaults(func=cmd_sweep)
    for p in sub.choices.values():
        # each dest's flag, for the refusals _from_flags names
        p.set_defaults(flag_of={a.dest: a.option_strings[0]
                                for a in p._actions if a.option_strings})
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
        _check_output_paths(args)
        code = args.func(args)
        # a closed stdout shows up here, not in the flush at exit
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader went away (`vaxgame ... | head`): point stdout at
        # devnull so the flush at exit does not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (InsufficientInfluenceError, leader.BracketingError,
            leader.JointDesignError) as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 3
    except InvalidInput as exc:
        # any other exception is a defect: its traceback, exit 1
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SystemExit as exc:
        # argparse failures (unknown flags, bad values) land here
        return 2 if exc.code not in (0, None) else 0


if __name__ == "__main__":
    sys.exit(main())
