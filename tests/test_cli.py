import argparse
import contextlib
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vaxgame as vg
from vaxgame.cli import (_CONFIG_SWITCHES, CONFIG_SECTIONS, SWEEP_VARS,
                         _from_flags, build_parser, config_flag,
                         load_config_file, main, reproduce_figure,
                         subcommand_flags, svg_line_chart)


def child_env(**extra) -> dict:
    """The environment for a child interpreter, with the directory this
    process imported vaxgame from first on PYTHONPATH, so the child runs
    the same source whether or not the package is installed."""
    env = {k: v for k, v in os.environ.items() if k not in extra}
    src = str(Path(vg.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    env.update({k: v for k, v in extra.items() if v is not None})
    return env


def run_main(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestSubcommands:
    def test_analyze_ess_json_and_table(self, capsys):
        code, out, _ = run_main(capsys, "analyze-ess", "--lambda", "15",
                                "--r", "2", "--b", "2", "--nu-b", "5",
                                "--nu-e", "0.7", "--m", "40", "--s", "0.2")
        assert code == 0
        data = json.loads(out.split("\n\n")[0])
        assert data["admissibility"] == "admissible"
        # h_i binds: 0.2 + 100(1 - z/40) - 0.34375 - 0.2 z <= 0 from z = 37
        assert data["z_bar"] == 37
        assert "esss" in out

    @pytest.mark.parametrize("flags", [
        ["--lambda", "7", "--r", "1", "--b", "1", "--nu-b", "5", "--nu-e", "0"],
        ["--lambda", "15", "--r", "2", "--b", "2", "--nu-b", "5",
         "--nu-e", "0.7", "--m", "40"]], ids=["cancelling", "fig5"])
    def test_an_admissible_policy_has_no_co_occurring_gap(self, capsys,
                                                          flags):
        # admissible means psi_o > theta*, so the co-occurring point has
        # theta < 0 and is no state; at lam 7, r 1, b 1, nu_b 5, nu_e 0,
        # lam theta + nu(psi_o) there is exactly 0, which raised
        code, out, _ = run_main(capsys, "analyze-ess", *flags)
        assert code == 0
        data = json.loads(out.split("\n\n")[0])
        assert data["admissibility"] == "admissible"
        assert [row["h_v_o"] for row in data["per_z"]] == [None] * 41

    def test_a_gap_within_its_band_is_reported(self, capsys):
        # with c_v2 = 0 at the other defaults, h_v(2) = c_v1 - 2 s = 0.2 -
        # 0.2 lies within its band of 0: the row names it, in the JSON and
        # in the table, and nothing goes to stderr
        code, out, err = run_main(capsys, "analyze-ess", "--cv2", "0")
        assert code == 0 and err == ""
        report, table = out.split("\n\n")
        rows = json.loads(report)["per_z"]
        assert [row["fragile"] for row in rows] == ([[]] * 2 + [["h_v"]]
                                                    + [[]] * 38)
        assert table.splitlines()[3].endswith(",fragile:h_v")

    def test_a_zero_admissibility_gap_is_reported(self, capsys):
        # b rho - nu_b / theta* = 4 - 1 is nu_e: the gap is exactly 0, so
        # the policy is refused and every row says that rounding may have
        # set that sign
        code, out, err = run_main(capsys, "analyze-ess", "--lambda", "8",
                                  "--r", "1", "--b", "1", "--nu-b", "0.75",
                                  "--nu-e", "3", "--m", "4")
        assert code == 0 and err == ""
        report, table = out.split("\n\n")
        data = json.loads(report)
        assert data["admissibility"] == "not-admissible"
        assert all("admissibility" in row["fragile"]
                   for row in data["per_z"])
        assert table.count("fragile:admissibility") == 5

    def test_analyze_ess_prints_strict_json(self, capsys):
        # rho = 1/4: no gap has a limit, so each is null, as JSON (RFC 8259)
        # has no NaN; the table still prints nan
        code, out, _ = run_main(capsys, "analyze-ess", "--lambda", "1",
                                "--r", "2", "--b", "2", "--m", "2")
        assert code == 0

        def refuse(constant):
            raise ValueError(f"{constant} is not JSON")

        report, table = out.split("\n\n")
        data = json.loads(report, parse_constant=refuse)
        assert [(r["h_i"], r["h_v"], r["h_v_o"]) for r in data["per_z"]] == [
            (None, None, None)] * 3
        assert [row.split()[1:3] for row in table.splitlines()[1:]] == [
            ["nan", "nan"]] * 3

    def test_solve_influencer_game(self, capsys, tmp_path):
        code, out, _ = run_main(capsys, "solve-influencer-game", "--zbar", "40",
                                "--g0", "2.0", "--samples", "2000",
                                "--outdir", str(tmp_path))
        assert code == 0
        data = json.loads(out)
        assert 0.0 <= data["p_mean"] <= 1.0
        hist = (tmp_path / "zt_histogram.csv").read_text().splitlines()
        assert hist[0] == "z,count"
        assert len(hist) == 42

    def test_optimize_leader_appends_sweep_row(self, capsys, tmp_path):
        csv_path = tmp_path / "sweep.csv"
        for _ in range(2):
            code, out, _ = run_main(capsys, "optimize-leader", "--delta", "0.05",
                                    "--zbar", "40", "--mode", "perfect",
                                    "--csv", str(csv_path))
            assert code == 0
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "zbar,delta,sigma2,g_star,U_star,NP_at_g"
        assert len(lines) == 3
        assert lines[1] == lines[2]
        # --mode perfect solves at the law's mean, and the row still names
        # the --xi-var the user gave (default 2)
        assert lines[1].split(",")[2] == "2"

    def test_perfect_information_meets_a_vanishing_delta(self, capsys,
                                                         tmp_path):
        # p* solves F_40(0; p) = (1-p)^40 = delta, which 200 Newton steps
        # on F from p = 1/2 do not reach: they end near 0.99684, where N_P
        # is 9.9e-101
        code, out, _ = run_main(capsys, "optimize-leader", "--mode", "perfect",
                                "--zbar", "1", "--delta", "1e-150",
                                "--csv", str(tmp_path / "s.csv"))
        assert code == 0
        assert json.loads(out)["np_at_g"] == pytest.approx(1e-150, rel=1e-6,
                                                        abs=0.0)

    def test_optimize_leader_heads_an_empty_sweep_file(self, capsys,
                                                       tmp_path):
        # a file that exists but holds nothing gets the header, as a new
        # one does
        csv_path = tmp_path / "s.csv"
        csv_path.touch()
        code, _, _ = run_main(capsys, "optimize-leader", "--zbar", "40",
                              "--samples", "2000", "--csv", str(csv_path))
        assert code == 0
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "zbar,delta,sigma2,g_star,U_star,NP_at_g"
        assert len(lines) == 2 and lines[1].startswith("40,0.05,2,")

    def test_optimize_leader_past_the_recurrence_is_quiet(self, capsys,
                                                          tmp_path):
        # 200 influencers: knot tables with subnormal widths
        code, _, err = run_main(capsys, "optimize-leader", "--m", "200",
                                "--zbar", "50", "--samples", "20000",
                                "--csv", str(tmp_path / "s.csv"))
        assert code == 0 and err == ""

    def test_simulate_writes_both_sources(self, capsys, tmp_path):
        code, out, _ = run_main(capsys, "simulate", "--n0", "2000",
                                "--events", "4000", "--nu-b", "8",
                                "--nu-e", "3", "--outdir", str(tmp_path))
        assert code == 0
        lines = (tmp_path / "trajectory.csv").read_text().splitlines()
        assert lines[0] == "t,theta,psi,eta,source"
        sources = {line.rsplit(",", 1)[1] for line in lines[1:]}
        assert sources == {"ode", "jump"}
        # the reported sup-distance is matched_ode's on the same chain: the
        # defaults are d = b/4, beta 2, theta0 0.02, psi0 0.8, seed 0, and
        # eta0 is that of the one active candidate
        dis = vg.DiseaseParams(lam=15.0, r=2.0, b=2.0, d=0.5)
        nu, beta = vg.VaRatePolicy(8.0, 3.0), vg.ResponseParams(2.0)
        (cand,) = vg.candidate_attractors(dis, nu, beta).active().values()
        chain = vg.simulate_jump_process((360, 1600, 40, 2000), dis, nu,
                                         beta, seed=0, n_events=4000,
                                         eta0=cand.eta, record_every=2)
        assert json.loads(out)["sup_dist"] == vg.matched_ode(
            chain, dis, nu, beta)[1]

    def test_auto_zbar_solves_at_the_ess_threshold(self, capsys, tmp_path):
        # --auto-zbar derives z_bar from the policy and the costs, as
        # analyze-ess reports it at the same defaults
        code, out, _ = run_main(capsys, "analyze-ess")
        assert code == 0
        z_bar = json.loads(out.split("\n\n")[0])["z_bar"]
        assert z_bar == 39
        sheet = tmp_path / "s.csv"
        code, out, _ = run_main(capsys, "optimize-leader", "--auto-zbar",
                                "--samples", "20000", "--csv", str(sheet))
        assert code == 0
        assert json.loads(out)["z_bar"] == z_bar
        header, row = sheet.read_text().splitlines()
        assert header.startswith("zbar,") and row.startswith(f"{z_bar},")

    def test_simulate_zero_events(self, capsys, tmp_path):
        code, out, _ = run_main(capsys, "simulate", "--n0", "2000",
                                "--events", "0", "--outdir", str(tmp_path))
        assert code == 0
        assert json.loads(out)["events"] == 0

    # each rejected command line with the start of its one-line message
    REJECTED = [
        (["optimize-leader", "--delta", "0", "--zbar", "40", "--csv", "{tmp}/s.csv"],
         "--delta must lie in (0, 1)"),
        (["optimize-leader", "--zbar", "50", "--m", "40", "--csv", "{tmp}/s.csv"],
         "--zbar must be an integer in 1..40, got 50"),
        (["optimize-leader", "--zbar", "40", "--xi-var", "-1", "--csv", "{tmp}/s.csv"],
         "--xi-var must be nonnegative"),
        (["optimize-leader", "--zbar", "40", "--samples", "0", "--csv", "{tmp}/s.csv"],
         "--samples must be an integer in 1..10000000, got 0"),
        (["solve-influencer-game", "--zbar", "40", "--samples", "0", "--outdir", "{tmp}"],
         "--samples must be an integer in 1..10000000, got 0"),
        (["analyze-ess", "--m", "0"], "--m must be an integer in 1..10000, got 0"),
        (["sweep", "--var", "zbar", "--grid", "0", "--outdir", "{tmp}"],
         "--grid value zbar = 0.0 is refused: z_bar must be an integer in "
         "1..40, got 0"),
        (["simulate", "--n0", "2000", "--events", "-1", "--outdir", "{tmp}"],
         "--events must be an integer >= 0, got -1"),
        # past 2**53 the chain's float counts would no longer be exact
        (["simulate", "--n0", "9007199254740992", "--outdir", "{tmp}"],
         "--n0 must keep N0 below 2**53"),
        (["simulate", "--n0", "2000", "--eta0", "0", "--outdir", "{tmp}"],
         "--eta0 must be positive and finite, got 0.0"),
        (["analyze-ess", "--m", "2", "--cf-table", "{tmp}/nosuch.txt"],
         "--cf-table must name a readable file, got {tmp}/nosuch.txt: "
         "[Errno 2] No such file or directory: '{tmp}/nosuch.txt'"),
        (["analyze-ess", "--m", "2", "--cf-table", "{tmp}"],
         "--cf-table must name a readable file, got {tmp}: [Errno 21] Is a "
         "directory: '{tmp}'"),
        (["sweep", "--var", "theta_star", "--grid", "1", "--samples", "2000",
          "--outdir", "{tmp}"],
         "--grid value theta_star = 1.0 is refused: theta_star must lie in "
         "(0, 1)"),
        (["sweep", "--var", "zbar", "--grid", "2.5", "--samples", "2000",
          "--outdir", "{tmp}"],
         "--grid value zbar = 2.5 is refused: z_bar must be an integer in "
         "1..40, got 2.5"),
        (["sweep", "--var", "zbar", "--grid", "2", "--workers", "0",
          "--samples", "2000", "--outdir", "{tmp}"],
         "--workers must be an integer >= 1, got 0"),
        (["sweep", "--var", "zbar", "--grid", "2", "--workers", "-3",
          "--samples", "2000", "--outdir", "{tmp}"],
         "--workers must be an integer >= 1, got -3"),
        # theta0 + psi0 = 1.1: an over-full start, whatever the rounding
        (["simulate", "--theta0", "0.5", "--psi0", "0.6", "--n0", "7",
          "--outdir", "{tmp}"], "--theta0 + --psi0 must not exceed 1"),
        # the start's fractions are checked before they are rounded to
        # counts, and the chain's own errors name the flags
        (["simulate", "--theta0", "nan", "--outdir", "{tmp}"],
         "--theta0 must be a finite number, got nan"),
        (["simulate", "--psi0", "nan", "--outdir", "{tmp}"],
         "--psi0 must be a finite number, got nan"),
        (["simulate", "--theta0", "-0.1", "--outdir", "{tmp}"],
         "--theta0 must be nonnegative, got -0.1"),
        (["simulate", "--psi0", "inf", "--outdir", "{tmp}"],
         "--psi0 must be a finite number, got inf"),
        (["simulate", "--n0", "0", "--outdir", "{tmp}"],
         "--n0 must be an integer >= 1, got 0"),
        (["simulate", "--n0", "2000", "--events", "-5", "--outdir", "{tmp}"],
         "--events must be an integer >= 0, got -5"),
        (["simulate", "--n0", "2000", "--eta0", "nan", "--outdir", "{tmp}"],
         "--eta0 must be positive and finite, got nan"),
        # library messages that start with their field, so the flag can
        # take its place; the 2**53 guard names the argument that crossed
        (["simulate", "--lambda", "0", "--outdir", "{tmp}"],
         "--lambda must be at least 1e-06, got 0.0"),
        (["simulate", "--d", "3", "--outdir", "{tmp}"],
         "--d must be below the birth rate 2.0, got 3.0"),
        (["simulate", "--n0", "1000", "--events", "9007199254740992",
          "--outdir", "{tmp}"], "--events must keep N0 + n_events"),
        (["simulate", "--n0", "1000", "--events", "1000", "--eta0", "1e-308",
          "--outdir", "{tmp}"], "--eta0 must keep the clock index"),
        # the public's c_i, a name the game's c_i (--ci) shares
        (["analyze-ess", "--ci-public", "-1"],
         "--ci-public must be nonnegative, got -1.0"),
        # sizes just past their budgets, refused before any array is built
        (["solve-influencer-game", "--zbar", "1", "--samples", "10000001",
          "--outdir", "{tmp}"],
         "--samples must be an integer in 1..10000000, got 10000001"),
        (["optimize-leader", "--zbar", "1", "--samples", "10000001",
          "--csv", "{tmp}/s.csv"],
         "--samples must be an integer in 1..10000000, got 10000001"),
        (["solve-influencer-game", "--zbar", "1", "--m", "10001",
          "--outdir", "{tmp}"],
         "--m must be an integer in 1..10000, got 10001"),
        (["analyze-ess", "--m", "10001"],
         "--m must be an integer in 1..10000, got 10001"),
        (["sweep", "--var", "s", "--grid", "0.1", "--m", "10001",
          "--outdir", "{tmp}"],
         "--m must be an integer in 1..10000, got 10001"),
        (["optimize-leader", "--zbar", "1", "--t", "1001", "--csv", "{tmp}/s.csv"],
         "--t must be an integer in 2..1000, got 1001"),
        (["reproduce-fig", "--id", "4", "--samples", "0", "--outdir", "{tmp}"],
         "--samples must be an integer in 1..10000000, got 0"),
        # magnitudes past the float range's headroom
        (["optimize-leader", "--zbar", "1", "--xi-mean", "1e308",
          "--csv", "{tmp}/s.csv"],
         "--xi-mean must be at most 1e+300 in magnitude, got 1e+308"),
        (["simulate", "--lambda", "1e308", "--outdir", "{tmp}"],
         "--lambda must be at most 1e+06 in magnitude, got 1e+308"),
        # the seed the user gave, on every subcommand that draws
        *[([command, *extra, "--seed", "-5", *out],
           "--seed must be an integer >= 0, got -5")
          for command, extra, out in (
              ("simulate", ["--events", "10"], ("--outdir", "{tmp}")),
              ("solve-influencer-game", ["--zbar", "1"], ("--outdir", "{tmp}")),
              ("optimize-leader", ["--zbar", "1"], ("--csv", "{tmp}/s.csv")),
              ("reproduce-fig", ["--id", "4"], ("--outdir", "{tmp}")),
              ("sweep", ["--var", "delta", "--grid", "0.05"],
               ("--outdir", "{tmp}")))],
        # a sweep refuses when it is built, not at its first point
        (["sweep", "--var", "zbar", "--grid", "1", "--delta", "0",
          "--outdir", "{tmp}"], "--delta must lie in (0, 1), got 0.0"),
        (["sweep", "--var", "s", "--grid", "0.1", "--lambda", "1",
          "--outdir", "{tmp}"],
         "the rates --lambda, --r and --b must have rho > 1 for an s sweep, "
         "got rho = 0.25"),
        # past the float range, refused before theta0 * n0 is rounded
        (["simulate", "--n0", "1" + "0" * 310, "--outdir", "{tmp}"],
         "--n0 must keep N0 below 2**53"),
        # every grid value is built with its point's object when the sweep
        # is, before the worker pool, and is refused naming --grid
        *[(["sweep", "--var", var, "--grid", value, "--outdir", "{tmp}"],
           f"--grid value {var} = {float(value)!r} is refused: {message}")
          for var, value, message in (
              ("delta", "1.5", "delta must lie in (0, 1)"),
              ("s", "-1", "s must be nonnegative, got -1.0"),
              ("sigma2", "-1", "sigma2 must be nonnegative"),
              ("theta_star", "0.9999999", "lam must be at most 1e+06"),
              ("theta_star", "1.5", "theta_star must lie in (0, 1)"),
              # 1 - 1e-308 rounds to 1, so rho would be 1
              ("theta_star", "1e-308", "theta_star must lie in (0, 1) and "
               "give 1/(1 - theta_star) > 1"))],
        (["sweep", "--var", "s", "--grid", "0.1,abc", "--outdir", "{tmp}"],
         "--grid must be comma-separated numbers, got '0.1,abc'"),
        (["sweep", "--var", "s", "--grid", ",", "--outdir", "{tmp}"],
         "--grid must hold at least one value"),
        # this file's text is not one number per line
        (["analyze-ess", "--m", "1", "--cf-table", __file__],
         "--cf-table must list one number per line"),
        # an output path the run could not write to is refused before any
        # solve, sweep point or chain: this file is no directory
        *[([*argv, "--outdir", outdir], "--outdir must name a directory or "
           f"a path where one can be made, but {__file__!r} is not a "
           "directory")
          for argv, outdir in (
              (["sweep", "--var", "s", "--grid", "0.1"], __file__),
              (["reproduce-fig", "--id", "4"], __file__),
              (["simulate"], __file__),
              (["solve-influencer-game", "--zbar", "40"],
               os.path.join(__file__, "out")))],
        *[(["optimize-leader", "--zbar", "40", "--csv", sheet],
           f"--csv must name a file in an existing directory, got '{sheet}'")
          for sheet in ("{tmp}", "{tmp}/missing/s.csv")],
        # a c_f table of the wrong length: the null device lists none
        (["analyze-ess", "--m", "3", "--cf-table", os.devnull],
         "--cf-table must list m + 1 = 4 values for --m 3, got 0"),
        # --auto-zbar's threshold, refused naming the policy or the disease
        (["optimize-leader", "--auto-zbar", "--nu-e", "0", "--csv",
          "{tmp}/s.csv"],
         "the policy of --nu-b and --nu-e, at the rates --lambda, --r and "
         "--b, must have nu_e > b*rho - "
         "nu_b/theta_star = 0.681818 to be admissible, got nu_e = 0.0"),
        (["optimize-leader", "--auto-zbar", "--lambda", "1", "--csv",
          "{tmp}/s.csv"],
         "the rates --lambda, --r and --b must have rho > 1 to need a "
         "threshold, got rho = 0.25"),
        (["optimize-leader", "--csv", "{tmp}/s.csv"],
         "--zbar or --auto-zbar must be given"),
        # --m is checked before a table's length is set against m + 1
        (["analyze-ess", "--m", "-1", "--cf-table", os.devnull],
         "--m must be an integer in 1..10000, got -1"),
        # a fraction past 1, refused before the sum of the two is
        (["simulate", "--theta0", "1.5", "--outdir", "{tmp}"],
         "--theta0 must be at most 1 in magnitude, got 1.5"),
    ]

    @pytest.mark.parametrize("argv,message", REJECTED,
                             ids=[f"argv{j}" for j in range(len(REJECTED))])
    def test_rejected_parameters_exit_2(self, capsys, tmp_path, argv,
                                        message):
        argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
        message = message.replace("{tmp}", str(tmp_path))
        code, out, err = run_main(capsys, *argv)
        assert code == 2
        assert err.startswith(f"error: {message}"), err
        assert not out
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("argv", [
        ["optimize-leader", "--zbar", "1", "--xi-mean", "inf", "--csv", "{tmp}/s.csv"],
        ["optimize-leader", "--zbar", "1", "--cse1", "nan", "--csv", "{tmp}/s.csv"],
        ["optimize-leader", "--zbar", "1", "--g0", "nan", "--csv", "{tmp}/s.csv"],
        ["optimize-leader", "--zbar", "1", "--xi-var", "inf", "--csv", "{tmp}/s.csv"],
        ["sweep", "--var", "sigma2", "--grid", "1,inf", "--zbar", "1",
         "--samples", "2000", "--outdir", "{tmp}"],
        ["sweep", "--var", "zbar", "--grid", "1,2", "--xi-mean", "inf",
         "--samples", "2000", "--outdir", "{tmp}"],
    ])
    def test_non_finite_game_inputs_exit_2(self, capsys, tmp_path, argv):
        argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
        code, _, err = run_main(capsys, *argv)
        assert code == 2
        assert err.startswith("error: ")
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("flags,message", [
        (["--xi-var", "-1"], "--xi-var must be nonnegative, got -1.0"),
        (["--p0", "1.5"], "--p0 must lie in [0, 1)"),
        (["--xi-mean", "nan"], "--xi-mean must be a finite number, got nan"),
        (["--xi-mean", "-3", "--xi-var", "0"],
         "the law of --xi-mean, --xi-var and --p0 must have a positive "
         "mean, got 0.0"),
        # the game's own fields, named by their flags as the law's are
        (["--m", "0"], "--m must be an integer in 1..10000, got 0"),
        (["--t", "1"], "--t must be an integer in 2..1000, got 1"),
        (["--cv", "nan"], "--cv must be a finite number, got nan"),
        (["--ci", "0"], "--ci must be positive"),
        (["--cse1", "-1"], "--cse1 must be nonnegative, got -1.0"),
        (["--zbar", "0"], "--zbar must be an integer in 1..40, got 0"),
        (["--g0", "nan"], "--g0 must be a finite number, got nan"),
    ], ids=["xi_var", "p0", "xi_mean", "mean", "m", "t", "cv", "ci", "cse1",
            "zbar", "g0"])
    def test_law_errors_name_the_flag(self, capsys, tmp_path, flags,
                                      message):
        code, out, err = run_main(capsys, "optimize-leader", "--zbar", "1",
                                  *flags, "--csv", str(tmp_path / "s.csv"))
        assert code == 2 and out == ""
        assert err == f"error: {message}\n"
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("theta0,psi0,n0,counts", [
        # round half to even takes both counts up: 2 + 4 of 5, 4 + 4 of 7
        ("0.3", "0.7", "5", (0, 3, 2, 5)),
        ("0.5", "0.5", "7", (0, 3, 4, 7)),
        ("0.02", "0.8", "2000", (360, 1600, 40, 2000)),
    ], ids=["5", "7", "defaults"])
    def test_simulate_starts_inside_the_simplex(self, capsys, tmp_path,
                                                monkeypatch, theta0, psi0,
                                                n0, counts):
        starts = []
        orig = vg.epidemic.simulate_jump_process

        def spy(start, *args, **kw):
            starts.append(start)
            return orig(start, *args, **kw)

        monkeypatch.setattr(vg.epidemic, "simulate_jump_process", spy)
        code, _, _ = run_main(capsys, "simulate", "--theta0", theta0,
                              "--psi0", psi0, "--n0", n0, "--events", "50",
                              "--outdir", str(tmp_path))
        assert code == 0
        assert starts == [counts]

    def test_non_finite_cf_table_exits_2(self, capsys, tmp_path):
        table = tmp_path / "cf.txt"
        table.write_text("0\nnan\n1\n")
        code, out, err = run_main(capsys, "analyze-ess", "--m", "2",
                                  "--cf-table", str(table))
        assert code == 2 and out == ""
        assert err.startswith("error: --cf-table must be a sequence of finite")
        assert list(tmp_path.iterdir()) == [table]

    def test_s_sweep_refuses_a_cf_table(self, capsys, tmp_path):
        # an s sweep sets the slope of linear costs, so a table has no s
        # to replace: refused before any point is built
        table = tmp_path / "cf.txt"
        table.write_text("\n".join(str(0.5 * z) for z in range(5)))
        code, out, err = run_main(capsys, "sweep", "--var", "s", "--grid",
                                  "0.1,0.2", "--m", "4", "--cf-table",
                                  str(table), "--outdir",
                                  str(tmp_path / "out"))
        assert code == 2 and out == ""
        assert err.startswith("error: --cf-table is refused with --var s:")
        assert list(tmp_path.iterdir()) == [table]

    def test_unbracketed_root_exits_3(self, capsys, tmp_path):
        # finite but so large a data mean that N_P stays above delta over
        # the whole doubling budget of the leader's bracket
        code, _, err = run_main(capsys, "optimize-leader", "--zbar", "1",
                                "--xi-mean", "1e300", "--csv",
                                str(tmp_path / "s.csv"))
        assert code == 3
        assert err.startswith("infeasible: ") and "delta" in err
        assert not list(tmp_path.iterdir())

    def test_entry_point_runs(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "vaxgame.cli", "optimize-leader",
             "--delta", "0.1", "--zbar", "1", "--mode", "perfect",
             "--csv", str(tmp_path / "sweep.csv")],
            capture_output=True, text=True, env=child_env())
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["z_bar"] == 1

    def test_import_loads_neither_scipy_stats_nor_optimize(self):
        # each of them would more than double the package's import time
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, vaxgame; print(sorted("
             "m for m in ('scipy.stats', 'scipy.optimize') if m in "
             "sys.modules))"],
            capture_output=True, text=True, timeout=120, env=child_env())
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_runs_without_a_binomial_law_load_no_scipy(self, tmp_path):
        # scipy.special is imported on the first binomial call, so neither
        # the package's import nor analyze-ess nor simulate loads scipy
        script = (
            "import contextlib, io, sys\n"
            "def scipy_modules():\n"
            "    return sorted(m for m in sys.modules\n"
            "                  if m.partition('.')[0] == 'scipy')\n"
            "import vaxgame.cli\n"
            "loaded = [scipy_modules()]\n"
            "for argv in (['analyze-ess', '--m', '4'],\n"
            "             ['simulate', '--events', '1000', '--outdir', "
            f"{str(tmp_path)!r}]):\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert vaxgame.cli.main(argv) == 0\n"
            "    loaded.append(scipy_modules())\n"
            "print(loaded)\n")
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True, timeout=120,
                              env=child_env())
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[[], [], []]"

    @pytest.mark.parametrize("unbuffered", [False, True])
    def test_closed_stdout_exits_141(self, unbuffered):
        # the read end is closed before the child starts, so its output
        # fails as it does under `| head` once head has exited: at the first
        # print when unbuffered, and otherwise when the buffer is flushed
        env = child_env(PYTHONUNBUFFERED="1" if unbuffered else None)
        r, w = os.pipe()
        os.close(r)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "vaxgame.cli", "analyze-ess", "--m", "4"],
                stdout=w, stderr=subprocess.PIPE, text=True, env=env,
                timeout=120)
        finally:
            os.close(w)
        assert proc.returncode == 141
        assert "Traceback" not in proc.stderr
        assert "BrokenPipeError" not in proc.stderr


class TestSweep:
    def test_deterministic_csv(self, capsys, tmp_path):
        outs = []
        for name in ("a", "b"):
            d = tmp_path / name
            code, _, _ = run_main(capsys, "sweep", "--var", "delta",
                                  "--grid", "0.05,0.1", "--zbar", "40",
                                  "--samples", "5000", "--seed", "3",
                                  "--outdir", str(d))
            assert code == 0
            rows = (d / "report.csv").read_text().splitlines()
            # runtime_ms differs between runs; compare the science columns
            outs.append([r.rsplit(",", 1)[0] for r in rows])
        assert outs[0] == outs[1]

    def test_zero_atom_law_is_solved_by_monte_carlo(self, capsys, tmp_path):
        # sigma2 = 0 with an atom at zero is not a point law, so the sweep
        # solves it as optimize-leader --mode mc does with the same seed
        law = ["--zbar", "1", "--xi-var", "0", "--p0", "0.3",
               "--samples", "2000"]
        code, _, _ = run_main(capsys, "sweep", "--var", "delta", "--grid",
                              "0.05", *law, "--outdir", str(tmp_path))
        assert code == 0
        sweep = (tmp_path / "report.csv").read_text().splitlines()[1]
        code, _, _ = run_main(capsys, "optimize-leader", "--delta", "0.05",
                              *law, "--mode", "mc", "--seed", "0",
                              "--csv", str(tmp_path / "mc.csv"))
        assert code == 0
        mc = (tmp_path / "mc.csv").read_text().splitlines()[1]
        # report: value, g*, U*, ...; leader CSV: zbar, delta, sigma2, g*, U*
        assert sweep.split(",")[1:3] == mc.split(",")[3:5]

    def test_an_s_sweep_solves_at_the_designed_threshold(self, capsys,
                                                         tmp_path):
        # at s = 0.1 the design's k* is 39, not the game's --zbar (m = 40):
        # the point is solved on its game at k*, as optimize-leader solves
        # --zbar 39 on the same draws (a one-point grid's sampler seed is
        # the run's --seed)
        law = ["--delta", "0.05", "--samples", "2000", "--seed", "0"]
        code, _, _ = run_main(capsys, "sweep", "--var", "s", "--grid", "0.1",
                              *law, "--outdir", str(tmp_path))
        assert code == 0
        head, row = (tmp_path / "report.csv").read_text().splitlines()
        row = dict(zip(head.split(","), row.split(",")))
        assert row["z_bar"] == "39"
        code, _, _ = run_main(capsys, "optimize-leader", "--zbar", "39",
                              *law, "--csv", str(tmp_path / "leader.csv"))
        assert code == 0
        leader_row = (tmp_path / "leader.csv").read_text().splitlines()[1]
        # leader CSV: zbar, delta, sigma2, g*, U*, NP_at_g
        assert (leader_row.split(",")[3:] == [row["g_star"], row["u_star"],
                                              row["np_at_g"]])

    @pytest.mark.parametrize("zbar", ["39", "40"])
    def test_point_law_is_solved_alike_by_both_commands(self, capsys,
                                                        tmp_path, zbar):
        # --xi-var 0 with --p0 0 is a point law: optimize-leader's default
        # Monte Carlo sampler gives the closed form, as the sweep does
        law = ["--zbar", zbar, "--xi-var", "0", "--delta", "0.05",
               "--samples", "1000"]
        code, out, _ = run_main(capsys, "optimize-leader", *law,
                                "--csv", str(tmp_path / "leader.csv"))
        assert code == 0
        sol = json.loads(out)
        assert sol["mode"] == "perfect_info"
        assert sol["epsilon"] == (1e-6 if zbar == "40" else None)
        code, _, _ = run_main(capsys, "sweep", "--var", "sigma2", "--grid",
                              "0", *law, "--outdir", str(tmp_path))
        assert code == 0
        sweep = (tmp_path / "report.csv").read_text().splitlines()[1]
        row = (tmp_path / "leader.csv").read_text().splitlines()[1]
        # both CSVs write g* to 12 digits
        assert sweep.split(",")[1] == row.split(",")[3]

    def test_sweep_points_keep_the_rest_of_the_law(self, capsys, tmp_path,
                                                   monkeypatch):
        # a sigma2 point replaces only the law's variance, and a point that
        # picks its own threshold (an s sweep) keeps the whole law
        seen = []
        solve = vg.leader.solve_optimal_incentive

        def spy(z_bar, prob):
            seen.append(prob.cfg.xi)
            return solve(z_bar, prob)

        monkeypatch.setattr(vg.leader, "solve_optimal_incentive", spy)
        law = ["--xi-mean", "4", "--xi-var", "3", "--p0", "0.2",
               "--samples", "500", "--workers", "1", "--zbar", "20"]
        for var, grid in (("sigma2", "0.5,2"), ("s", "0.05")):
            code, _, _ = run_main(capsys, "sweep", "--var", var, "--grid",
                                  grid, *law, "--outdir", str(tmp_path / var))
            assert code == 0
        assert seen == [vg.XiModel(4.0, 0.5, 0.2), vg.XiModel(4.0, 2.0, 0.2),
                        vg.XiModel(4.0, 3.0, 0.2)]

    def test_empty_grid_is_config_error(self, capsys):
        code, _, err = run_main(capsys, "sweep", "--var", "delta",
                                "--grid", ",", "--zbar", "40")
        assert code == 2

    def test_infeasible_model_exit_code(self, capsys, tmp_path):
        # c_v1 above every insecurity level: influence can never suffice
        code, _, err = run_main(capsys, "sweep", "--var", "s",
                                "--grid", "0.001,0.002", "--cv1", "500",
                                "--outdir", str(tmp_path))
        assert code == 3

    def test_auto_zbar_without_enough_influence_exit_3(self, capsys):
        # s = 0 leaves c_v1 - c_f(40) = c_v1 >= 0: the threshold refuses
        # with a message that names no flag, which passes through as an
        # infeasible run rather than an argument error
        code, out, err = run_main(capsys, "optimize-leader", "--auto-zbar",
                                  "--s", "0", "--samples", "200")
        assert code == 3 and out == ""
        assert err == ("infeasible: c_v1 - c_f(40) = 0.2 >= 0; eradication "
                       "unreachable for every influencer count\n")

    def test_a_tie_of_the_crossing_is_designed_by_the_sweep(self, capsys,
                                                            tmp_path):
        # c_v1 - c_f(19) = 0.9 - 0.95 ties L_19 = -0.05, which rounding
        # once read as a crossing at k = 19, a threshold no design reaches
        # (exit 3). The tie is left to the near-minimal policies, whose
        # threshold is 20, and the design at 20 is built
        code, _, err = run_main(
            capsys, "sweep", "--var", "s", "--grid", "0.05", "--cv1", "0.9",
            "--cv2", "1", "--cv2-bar", "1", "--ci-public", "1", "--m", "20",
            "--zbar", "20", "--lambda", "8.226652580551361", "--r", "1",
            "--b", "3.3875480429607263", "--d", "0", "--samples", "1000",
            "--outdir", str(tmp_path / "out"))
        assert code == 0, err
        head, row = (tmp_path / "out" / "report.csv").read_text().splitlines()
        assert dict(zip(head.split(","), row.split(",")))["z_bar"] == "20"

    def test_workers_do_not_change_results(self, capsys, tmp_path):
        rows = []
        for w, name in ((1, "w1"), (3, "w3")):
            d = tmp_path / name
            code, _, _ = run_main(capsys, "sweep", "--var", "zbar",
                                  "--grid", "1,20,40", "--samples", "4000",
                                  "--workers", str(w), "--outdir", str(d))
            assert code == 0
            rows.append([r.rsplit(",", 1)[0] for r in
                         (d / "report.csv").read_text().splitlines()])
        assert rows[0] == rows[1]

    def test_plot_written_when_asked(self, capsys, tmp_path):
        code, _, _ = run_main(capsys, "sweep", "--var", "delta",
                              "--grid", "0.05,0.1,0.2", "--zbar", "10",
                              "--samples", "3000", "--plot",
                              "--outdir", str(tmp_path))
        assert code == 0
        svg = (tmp_path / "report.svg").read_text()
        assert svg.startswith("<svg") and "polyline" in svg

    @pytest.mark.parametrize("xs,ys,drawn", [
        ([0.1], [2.0], False),                  # one grid point
        ([0.1, 0.2], [float("nan")] * 2, False),  # no finite value
        ([0.1, 0.1], [2.0, 3.0], True),         # flat x range
        ([0.1, 0.2], [2.0, 2.0], True),         # flat y range
    ], ids=["one-point", "no-finite", "flat-x", "flat-y"])
    def test_degenerate_chart(self, tmp_path, xs, ys, drawn):
        # a chart needs two points and a finite value; a flat range is
        # widened by 1, so no coordinate divides by zero
        path = tmp_path / "chart.svg"
        svg_line_chart(path, xs, {"u": ys}, "t")
        assert path.exists() == drawn
        if drawn:
            points = re.search(r'points="([^"]*)"', path.read_text())[1]
            coords = [float(v) for p in points.split() for v in p.split(",")]
            assert len(coords) == 4 and all(map(math.isfinite, coords))


def test_fig5_steps_s_as_the_sweep_does(capsys, tmp_path):
    # a one-point s sweep at fig 5's first s writes fig 5's first row at
    # both of its deltas: the same k*, psi_e and U* from the same draws
    code, _, _ = run_main(capsys, "reproduce-fig", "--id", "5", "--samples",
                          "2000", "--seed", "0", "--outdir", str(tmp_path))
    assert code == 0
    fig = (tmp_path / "fig5_joint_design_vs_s.csv").read_text().splitlines()
    s, k_star, psi_e, _, *u_stars = fig[1].split(",")[:6]
    assert [s, k_star, psi_e, *u_stars] == [
        "0.02", "40", "0.733346370281", "62.8185958442", "46.6979484009"]
    for delta, u_star in zip(("0.01", "0.1"), u_stars):
        out = tmp_path / delta
        code, _, _ = run_main(capsys, "sweep", "--var", "s", "--grid", s,
                              "--delta", delta, "--samples", "2000",
                              "--seed", "0", "--outdir", str(out))
        assert code == 0
        # sweep_value, g_star, u_star, z_bar, psi_e, np_at_g, runtime_ms
        row = (out / "report.csv").read_text().splitlines()[1].split(",")
        assert [row[0], row[3], row[4], row[2]] == [s, k_star, psi_e, u_star]


class TestConfigFiles:
    def test_ini_roundtrip(self, capsys, tmp_path):
        cfgfile = tmp_path / "run.ini"
        cfgfile.write_text(
            "[game]\nzbar = 1\nxi_var = 0\n[leader]\ndelta = 0.1\nmode = perfect\n"
            f"[output]\ncsv = {tmp_path}/s.csv\n")
        code, out, _ = run_main(capsys, "--config", str(cfgfile),
                                "optimize-leader")
        assert code == 0
        assert json.loads(out)["z_bar"] == 1

    def test_json_roundtrip(self, capsys, tmp_path):
        cfgfile = tmp_path / "run.json"
        cfgfile.write_text(json.dumps({
            "game": {"zbar": 1, "xi_var": 0},
            "leader": {"delta": 0.1, "mode": "perfect"},
            "output": {"csv": str(tmp_path / "s.csv")}}))
        code, out, _ = run_main(capsys, "--config", str(cfgfile),
                                "optimize-leader")
        assert code == 0
        assert json.loads(out)["z_bar"] == 1

    def test_unknown_section_rejected(self, tmp_path):
        bad = tmp_path / "bad.ini"
        bad.write_text("[nosuch]\nx = 1\n")
        with pytest.raises(Exception):
            load_config_file(str(bad))
        assert main(["--config", str(bad), "optimize-leader"]) == 2

    def test_unknown_key_rejected(self, capsys, tmp_path):
        bad = tmp_path / "bad.ini"
        bad.write_text("[game]\nbogus = 1\n")
        code, _, err = run_main(capsys, "--config", str(bad), "optimize-leader")
        assert code == 2

    @pytest.mark.parametrize("name, body, message", [
        ("truncated.json", b'{"disease": {"lambda": ',
         "--config file {path} cannot be read: Expecting value"),
        ("latin1.ini", b"[disease]\nlambda = 8\n# caf\xe9\n",
         "--config file {path} cannot be read: 'utf-8' codec"),
        # a path with a NUL byte, which no file system takes
        ("nul.json", b'{"output": {"outdir": "out\\u0000"}}',
         "--config file {path} holds a NUL character in 'outdir'"),
        # a value is interpolated when it is read, where a lone % fails
        ("percent.ini", b"[sweep]\ngrid = 1%\n",
         "--config file {path} cannot be read: '%' must be followed by"),
        # configparser would copy a DEFAULT section into every other one
        ("default.ini", b"[DEFAULT]\nzbar = 7\n",
         "--config file {path} has an unknown section [DEFAULT]\n"),
        ("default_game.ini", b"[DEFAULT]\nseed = 3\n[game]\nm = 40\n",
         "--config file {path} has an unknown section [DEFAULT]\n"),
        # a switch's flag takes no value: only true or false sets it
        *[(name, body, "--config file {path} must set 'plot' in section "
           f"[output] to true or false, got {value!r}\n")
          for name, body, value in (
              ("yes.ini", b"[output]\nplot = yes\n", "yes"),
              ("one.ini", b"[output]\nplot = 1\n", "1"),
              ("empty.ini", b"[output]\nplot =\n", ""),
              ("one.json", b'{"output": {"plot": 1}}', "1"))],
    ], ids=["truncated_json", "not_utf8", "nul_byte", "stray_percent",
            "default_alone", "default_beside_game", "plot_yes", "plot_one",
            "plot_empty", "plot_json_number"])
    def test_unparsable_config_is_refused_by_name(self, capsys, tmp_path,
                                                  name, body, message):
        cfgfile = tmp_path / name
        cfgfile.write_bytes(body)
        code, _, err = run_main(capsys, "--config", str(cfgfile),
                                "analyze-ess", "--m", "2")
        assert code == 2
        assert err.startswith("error: " + message.format(path=cfgfile)), err


    def test_explicit_flags_beat_config(self, capsys, tmp_path):
        cfgfile = tmp_path / "run.ini"
        cfgfile.write_text(
            "[game]\nzbar = 1\nxi_var = 0\n[leader]\ndelta = 0.1\n"
            f"[output]\ncsv = {tmp_path}/s.csv\n")
        code, out, _ = run_main(capsys, "--config", str(cfgfile),
                                "optimize-leader", "--delta", "0.05",
                                "--mode", "perfect")
        assert code == 0
        assert json.loads(out)["np_at_g"] <= 0.05
        row = (tmp_path / "s.csv").read_text().splitlines()[1].split(",")
        assert row[:2] == ["1", "0.05"]

    def test_shared_config_serves_every_subcommand(self, capsys, tmp_path):
        # [leader], [game] and [output] seed have no analyze-ess flag; they
        # are left out for it, while its own keys still apply
        cfgfile = tmp_path / "shared.ini"
        cfgfile.write_text(
            "[disease]\nlambda = 8\n[leader]\ndelta = 0.1\n"
            "[game]\nzbar = 1\n[output]\nseed = 3\n")
        code, out, _ = run_main(capsys, "--config", str(cfgfile),
                                "analyze-ess", "--m", "4")
        assert code == 0
        report = json.loads(out[:out.index("\n\n")])
        assert report["rho"] == pytest.approx(8.0 / (2.0 + 2.0))
        assert len(report["per_z"]) == 5

    def test_config_equals_form(self, capsys, tmp_path):
        cfgfile = tmp_path / "run.ini"
        cfgfile.write_text(
            "[game]\nzbar = 1\nxi_var = 0\n[leader]\nmode = perfect\n"
            f"[output]\ncsv = {tmp_path}/s.csv\n")
        code, out, _ = run_main(capsys, f"--config={cfgfile}",
                                "optimize-leader", "--delta=0.1")
        assert code == 0
        assert json.loads(out)["z_bar"] == 1

    @pytest.mark.parametrize("argv", [
        ["optimize-leader", "--config"],
        ["--config", "{tmp}/nosuch.ini", "optimize-leader"],
        ["--config", "{tmp}/nosection.ini", "optimize-leader"],
        *[["--config", f"{{tmp}}/{name}.json", "optimize-leader"]
          for name in ("list", "number", "null")],
    ])
    def test_unusable_config_exit_2(self, capsys, tmp_path, argv):
        (tmp_path / "nosection.ini").write_text("zbar = 1\n")
        for name, section in (("list", "[1, 2]"), ("number", "5"),
                              ("null", "null")):
            (tmp_path / f"{name}.json").write_text(f'{{"game": {section}}}')
        argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
        code, _, err = run_main(capsys, *argv)
        assert code == 2
        assert "error:" in err and "Traceback" not in err
        if argv[1].endswith(".json"):
            assert err.startswith(f"error: --config file {argv[1]} section "
                                  f"[game] must be an object of keys"), err

    def test_every_config_key_is_a_flag(self):
        # the config filter keeps a key only where this flag exists
        flags = set().union(*subcommand_flags(build_parser()).values())
        for sec, keys in CONFIG_SECTIONS.items():
            for key in keys:
                assert config_flag(key) in flags, (sec, key)

    @pytest.mark.parametrize("value", ["false", "true", "False"])
    def test_true_and_false_are_a_keys_text(self, capsys, tmp_path,
                                            monkeypatch, value):
        monkeypatch.chdir(tmp_path)
        cfgfile = tmp_path / "run.ini"
        cfgfile.write_text(f"[output]\noutdir = {value}\n")
        code, out, _ = run_main(capsys, "--config", str(cfgfile),
                                "reproduce-fig", "--id", "4")
        assert code == 0
        assert json.loads(out)["csv"] == [
            f"{value}/fig4_zbar_vs_theta_and_s.csv"]
        assert not (tmp_path / "out").exists()

    def test_a_false_csv_is_a_file_name(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfgfile = tmp_path / "run.ini"
        cfgfile.write_text("[game]\nzbar = 1\nxi_var = 0\n[leader]\n"
                           "delta = 0.1\nmode = perfect\n[output]\n"
                           "csv = False\n")
        code, _, _ = run_main(capsys, "--config", str(cfgfile),
                              "optimize-leader")
        assert code == 0
        assert (tmp_path / "False").read_text().startswith("zbar,delta,")
        assert not (tmp_path / "leader_sweep.csv").exists()

    @pytest.mark.parametrize("value, drawn", [("TRUE", True),
                                              ("False", False)])
    def test_plot_switch_reads_true_or_false(self, capsys, tmp_path, value,
                                             drawn):
        cfgfile = tmp_path / "run.ini"
        cfgfile.write_text(f"[output]\nplot = {value}\n")
        code, _, _ = run_main(capsys, "--config", str(cfgfile), "sweep",
                              "--var", "zbar", "--grid", "1,2",
                              "--samples", "2000", "--outdir", str(tmp_path))
        assert code == 0
        assert (tmp_path / "report.svg").exists() == drawn

    def test_every_configurable_switch_is_listed(self):
        # a switch's flag takes no value, so a file sets it by true/false
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        switches = {a.dest for p in sub.choices.values() for a in p._actions
                    if isinstance(a, argparse._StoreTrueAction)}
        keys = {key for keys in CONFIG_SECTIONS.values() for key in keys}
        assert set(_CONFIG_SWITCHES) == switches & keys == {"plot"}


# a value each numeric flag's field refuses; a numeric flag missing here
# fails its case below
_BAD_VALUES = {
    "--lambda": "-1", "--r": "-1", "--b": "-1", "--d": "-1", "--nu-b": "-1",
    "--nu-e": "-1", "--beta": "-1", "--cv1": "-1", "--cv2": "-1",
    "--cv2-bar": "-1", "--ci-public": "-1", "--s": "-1", "--m": "0",
    "--t": "1", "--cv": "nan", "--ci": "0", "--cse1": "-1", "--xi-mean": "nan",
    "--xi-var": "-1", "--p0": "1.5", "--zbar": "0", "--g0": "nan",
    "--delta": "1.5", "--seed": "-1", "--samples": "0", "--workers": "0",
    "--n0": "0", "--theta0": "-0.5", "--psi0": "1.5", "--eta0": "-1",
    "--events": "-1"}
# required arguments (--zbar too, so that no check of its absence answers
# first), and sizes that keep a run short should a bad value slip through
_BASE_ARGS = {
    "reproduce-fig": ["--id", "4"],
    "sweep": ["--var", "s", "--grid", "0.1", "--samples", "200"],
    "optimize-leader": ["--zbar", "1", "--samples", "200"],
    "solve-influencer-game": ["--zbar", "1", "--samples", "200"],
    "simulate": ["--events", "1000", "--n0", "1000"]}


# the type each subcommand's flag converts its value to
_KINDS = {(name, opt): a.type
          for name, p in next(a for a in build_parser()._actions
                              if isinstance(a, argparse._SubParsersAction)
                              ).choices.items()
          for a in p._actions for opt in a.option_strings}


def _numeric_flags() -> list[tuple[str, str]]:
    return sorted(key for key, kind in _KINDS.items() if kind in (int, float))


@pytest.mark.parametrize("command,flag", _numeric_flags())
def test_every_numeric_flag_refuses_a_bad_value(capsys, tmp_path, monkeypatch,
                                                command, flag):
    # exit 2 with the error, naming the flag, first on stderr, no
    # traceback, and no output file written (default outputs land in the
    # working directory)
    monkeypatch.chdir(tmp_path)
    flags = subcommand_flags(build_parser())[command]
    out = ["--outdir", str(tmp_path / "out")] if "--outdir" in flags else []
    code, _, err = run_main(capsys, command, *_BASE_ARGS.get(command, []),
                            *out, flag, _BAD_VALUES[flag])
    assert code == 2
    assert err.startswith("error: ") and "Traceback" not in err
    assert _named_in(flag, err), err
    assert not [p for p in tmp_path.rglob("*") if p.is_file()]


# What the property draws for a numeric flag: both ends of the float range,
# 2**53 (past which floats skip integers), signs, zero, one and a
# non-number, or else a small value the flag accepts (_IN_RANGE, or 0.5),
# so that no run outgrows the base sizes of _BASE_ARGS. An integer
# flag's parser refuses every non-integer alike, so it draws one of them.
_EDGE_VALUES = {float: ("nan", "inf", "-inf", "-1", "0", "1", "1e308",
                        "1e-308", str(2 ** 53), "abc"),
                int: ("-1", "0", "1", str(2 ** 53), "1e308")}
_IN_RANGE = {"--m": "3", "--t": "3", "--samples": "50", "--events": "100",
             "--n0": "50", "--workers": "2", "--zbar": "2", "--seed": "7"}
# A sweep's grid is two points, so that an in-range --workers never
# exceeds it: an in-range value of the drawn --var, and a value drawn like a
# float flag's or a second in-range one.
_GRID = {var: ("1", "2") if var == "zbar" else ("0.1", "0.2")
         for var in SWEEP_VARS}
_PRESENT = subcommand_flags(build_parser())
# An --outdir or --csv is the run's temporary directory, a regular file in
# it, or a path under a subdirectory that does not exist.
_OUTPUT_PATHS = ("{tmp}", "{tmp}/file", "{tmp}/missing/out")
_NUMERIC = {}
for _command, _flag in _numeric_flags():
    _NUMERIC.setdefault(_command, []).append(_flag)


def _named_in(flag: str, text: str) -> bool:
    """Whether text names flag as a whole word (--t is not --theta0)."""
    return re.search(rf"(?<![\w-]){re.escape(flag)}(?![\w-])", text) is not None


def test_a_defect_is_raised_not_reported_as_bad_input(tmp_path,
                                                      monkeypatch):
    # a ValueError that no input check raised, here one from numpy inside
    # a solve, is a defect: main lets it through, so that the command line
    # ends with its traceback and exit 1, not with exit 2 as if a flag
    # were bad
    def broken(*args, **kwargs):
        raise ValueError("operands could not be broadcast together")

    monkeypatch.setattr(vg.leader, "solve_optimal_incentive", broken)
    with pytest.raises(ValueError, match="broadcast") as info:
        main(["optimize-leader", "--zbar", "2", "--samples", "100",
              "--csv", str(tmp_path / "sweep.csv")])
    assert not isinstance(info.value, vg.InvalidInput)


def test_a_refusal_of_an_unnamed_field_keeps_its_field():
    # _from_flags puts a flag in place of the fields it was handed alone;
    # a refusal of any other field passes through as it was raised
    args = build_parser().parse_args(["analyze-ess"])

    def refuse(m):
        raise vg.InvalidInput("z", "must lie in 0..m")

    with pytest.raises(vg.InvalidInput) as info:
        _from_flags(args, refuse, m="m")
    assert (info.value.field, str(info.value)) == ("z", "z must lie in 0..m")


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_every_input_runs_or_names_its_flag(data):
    """Any few numeric flags of any subcommand, and a sweep's grid, at the
    edges of their range, with an output path of _OUTPUT_PATHS and
    optimize-leader's --mode, with or without --auto-zbar: the run exits
    0, 2 or 3 with no exception (a RuntimeWarning counts as one, under the
    suite's warnings-as-errors), and an exit 2 names a flag of its command
    line. The (subcommand, flag) pair is drawn first, so that a flag of
    one subcommand alone is drawn as often as any other, and up to two
    more flags of the same subcommand join it."""
    command, first = data.draw(st.sampled_from(_numeric_flags()))
    base = _BASE_ARGS.get(command, [])
    if command == "sweep":
        var = data.draw(st.sampled_from(SWEEP_VARS))
        value = data.draw(st.sampled_from(_EDGE_VALUES[float] + (None,)))
        low, high = _GRID[var]
        base = ["--var", var, "--grid", f"{low},{value or high}",
                "--samples", "200"]
    flags = [first, *data.draw(st.lists(st.sampled_from(
        [f for f in _NUMERIC[command] if f != first]),
        max_size=2, unique=True))]
    values = [data.draw(st.sampled_from(
        _EDGE_VALUES[_KINDS[command, flag]] + (None,))) for flag in flags]
    for flag in ("--outdir", "--csv"):
        if flag in _PRESENT[command]:
            flags.append(flag)
            values.append(data.draw(st.sampled_from(_OUTPUT_PATHS)))
    if command == "optimize-leader":
        flags.append("--mode")
        values.append(data.draw(st.sampled_from(("mc", "perfect"))))
        if data.draw(st.booleans()):
            base = [*base, "--auto-zbar"]
    with tempfile.TemporaryDirectory() as tmp:
        Path(tmp, "file").touch()
        argv = [command, *base]
        for flag, value in zip(flags, values):
            value = value or _IN_RANGE.get(flag, "0.5")
            argv += [flag, value.format(tmp=tmp)]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 2, 3), (argv, err.getvalue())
    if code == 2:
        assert any(_named_in(a, err.getvalue()) for a in argv
                   if a.startswith("--")), (argv, err.getvalue())


class TestFigures:
    def test_reproductions_byte_identical(self, tmp_path):
        # a fresh sampler, then the same one warm: a cache hit gives the
        # bytes a fill gives
        for fig_id, samples in ((4, 100), (2, 4000)):
            smp = vg.ExpectationSampler(n_samples=samples, seed=5)
            bodies = [reproduce_figure(fig_id, tmp_path / name,
                                       smp).read_bytes()
                      for name in ("a", "b")]
            assert bodies[0] == bodies[1]

    def test_fig4_shape(self, tmp_path):
        out = reproduce_figure(4, tmp_path,
                               vg.ExpectationSampler(n_samples=1000))
        rows = out.read_text().splitlines()
        assert rows[0] == "sweep,value,zbar"
        theta_rows = [r for r in rows[1:] if r.startswith("theta_star")]
        s_rows = [r for r in rows[1:] if r.startswith("s,")]
        assert theta_rows and s_rows
        ks = [int(r.split(",")[2]) for r in s_rows]
        assert all(b <= a for a, b in zip(ks, ks[1:]))

    def test_unknown_figure_id(self, tmp_path):
        with pytest.raises(ValueError, match=r"^fig_id must be in "
                           r"\(1, 2, 3, 4, 5\), got 9$"):
            reproduce_figure(9, tmp_path,
                             vg.ExpectationSampler(n_samples=100))

    def test_all_matches_each_id(self, capsys, tmp_path):
        code, out, _ = run_main(capsys, "reproduce-fig", "--id", "all",
                                "--samples", "1000",
                                "--outdir", str(tmp_path / "all"))
        assert code == 0
        paths = [Path(p) for p in json.loads(out)["csv"]]
        assert sorted(p.name for p in (tmp_path / "all").iterdir()) == sorted(
            p.name for p in paths)
        assert len(paths) == 5
        for fig_id, path in enumerate(paths, start=1):
            one = tmp_path / str(fig_id)
            code, out, _ = run_main(capsys, "reproduce-fig", "--id",
                                    str(fig_id), "--samples", "1000",
                                    "--outdir", str(one))
            assert code == 0
            (single,) = json.loads(out)["csv"]
            assert Path(single).name == path.name
            assert Path(single).read_bytes() == path.read_bytes()


@pytest.mark.parametrize("argv,fills", [
    # laws: the preset (figs 1, 2, 5 and fig 3's sigma2 = 2) and fig 3's
    # seven other variances; fig 3's sigma2 = 0 is the point law, which
    # draws nothing
    (["reproduce-fig", "--id", "all", "--samples", "500"], 8),
    (["solve-influencer-game", "--zbar", "20", "--g0", "1.5",
      "--samples", "500"], 1),
], ids=["reproduce-fig", "solve-influencer-game"])
def test_a_run_fills_each_law_once(capsys, tmp_path, monkeypatch, argv,
                                   fills):
    laws = []
    for module in (vg.game, vg.leader):
        def spy(cfg, *args, fill=module.final_gamma_draws, **kw):
            laws.append(cfg.xi)
            return fill(cfg, *args, **kw)
        monkeypatch.setattr(module, "final_gamma_draws", spy)
    code, _, _ = run_main(capsys, *argv, "--outdir", str(tmp_path))
    assert code == 0
    assert len(laws) == fills and len(set(laws)) == fills, laws


def readme_commands() -> list[str]:
    """Every `vaxgame ...` command in the README's fenced code blocks,
    with backslash continuations joined. The usage synopsis, whose
    subcommand is a `{a | b}` choice, is not a command."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    blocks = text.split("```")[1::2]
    lines = [line.strip() for block in blocks
             for line in block.replace("\\\n", " ").splitlines()]
    return [line for line in lines
            if line.startswith("vaxgame ") and not line.split()[1].startswith("{")]


def test_readme_examples_parse():
    commands = readme_commands()
    assert len(commands) >= 6
    for line in commands:
        try:
            args = build_parser().parse_args(shlex.split(line)[1:])
        except SystemExit:
            pytest.fail(f"README example does not parse: {line}")
        assert callable(args.func)


def test_help_lists_every_subcommand():
    # the module docstring is the parser's description, so --help shows
    # one line per subcommand
    from vaxgame import cli
    for name in subcommand_flags(build_parser()):
        assert re.search(rf"^    vaxgame {re.escape(name)} ", cli.__doc__,
                         re.MULTILINE), name


def test_readme_library_block_runs():
    # the README's only python block documents the library entry points
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    blocks = [b[len("python\n"):] for b in text.split("```")[1::2]
              if b.startswith("python\n")]
    assert len(blocks) == 1
    scope: dict = {}
    exec(compile(blocks[0], "README.md", "exec"), scope)
    assert scope["sol"].binding and scope["sol"].g_star > 0.0
    assert scope["design"].k_star == scope["k"]
