import json
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import vaxgame as vg
from vaxgame.cli import (CONFIG_SECTIONS, build_parser, config_flag,
                         load_config_file, main, reproduce_figure,
                         subcommand_flags)


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

    def test_simulate_writes_both_sources(self, capsys, tmp_path):
        code, out, _ = run_main(capsys, "simulate", "--n0", "2000",
                                "--events", "4000", "--nu-b", "8",
                                "--nu-e", "3", "--outdir", str(tmp_path))
        assert code == 0
        body = (tmp_path / "trajectory.csv").read_text()
        assert ",ode" in body and ",jump" in body
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

    def test_simulate_zero_events(self, capsys, tmp_path):
        code, out, _ = run_main(capsys, "simulate", "--n0", "2000",
                                "--events", "0", "--outdir", str(tmp_path))
        assert code == 0
        assert json.loads(out)["events"] == 0

    @pytest.mark.parametrize("argv", [
        ["optimize-leader", "--delta", "0", "--zbar", "40", "--csv", "{tmp}/s.csv"],
        ["optimize-leader", "--zbar", "50", "--m", "40", "--csv", "{tmp}/s.csv"],
        ["optimize-leader", "--zbar", "40", "--xi-var", "-1", "--csv", "{tmp}/s.csv"],
        ["optimize-leader", "--zbar", "40", "--samples", "0", "--csv", "{tmp}/s.csv"],
        ["solve-influencer-game", "--zbar", "40", "--samples", "0", "--outdir", "{tmp}"],
        ["analyze-ess", "--m", "0"],
        ["sweep", "--var", "zbar", "--grid", "0", "--outdir", "{tmp}"],
        ["simulate", "--n0", "2000", "--events", "-1", "--outdir", "{tmp}"],
        # past 2**53 the chain's float counts would no longer be exact
        ["simulate", "--n0", "9007199254740992", "--outdir", "{tmp}"],
        ["simulate", "--n0", "2000", "--eta0", "0", "--outdir", "{tmp}"],
        ["analyze-ess", "--m", "2", "--cf-table", "{tmp}/nosuch.txt"],
        ["analyze-ess", "--m", "2", "--cf-table", "{tmp}"],
    ])
    def test_rejected_parameters_exit_2(self, capsys, tmp_path, argv):
        argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
        code, _, err = run_main(capsys, *argv)
        assert code == 2
        assert err.startswith("error: ")
        assert not list(tmp_path.iterdir())

    def test_entry_point_runs(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "vaxgame.cli", "optimize-leader",
             "--delta", "0.1", "--zbar", "1", "--mode", "perfect",
             "--csv", str(tmp_path / "sweep.csv")],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["z_bar"] == 1


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
        # [leader] and [game] keys have no analyze-ess flag; they are left
        # out for it, while its own keys still apply
        cfgfile = tmp_path / "shared.ini"
        cfgfile.write_text(
            "[disease]\nlambda = 8\n[leader]\ndelta = 0.1\n"
            "[game]\nzbar = 1\n")
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
    ])
    def test_unusable_config_exit_2(self, capsys, tmp_path, argv):
        (tmp_path / "nosection.ini").write_text("zbar = 1\n")
        argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
        code, _, err = run_main(capsys, *argv)
        assert code == 2
        assert "error:" in err and "Traceback" not in err

    def test_every_config_key_is_a_flag(self):
        # the config filter keeps a key only where this flag exists
        flags = set().union(*subcommand_flags(build_parser()).values())
        for sec, keys in CONFIG_SECTIONS.items():
            for key in keys:
                assert config_flag(key) in flags, (sec, key)


class TestFigures:
    def test_reproductions_byte_identical(self, tmp_path):
        for fig_id, samples in ((4, 100), (2, 4000)):
            bodies = []
            for name in ("a", "b"):
                out = reproduce_figure(fig_id, tmp_path / name, seed=5,
                                       samples=samples)
                bodies.append(out.read_bytes())
            assert bodies[0] == bodies[1]

    def test_fig4_shape(self, tmp_path):
        out = reproduce_figure(4, tmp_path, seed=0, samples=1000)
        rows = out.read_text().splitlines()
        assert rows[0] == "sweep,value,zbar"
        theta_rows = [r for r in rows[1:] if r.startswith("theta_star")]
        s_rows = [r for r in rows[1:] if r.startswith("s,")]
        assert theta_rows and s_rows
        ks = [int(r.split(",")[2]) for r in s_rows]
        assert all(b <= a for a, b in zip(ks, ks[1:]))

    def test_unknown_figure_id(self, tmp_path):
        with pytest.raises(Exception):
            reproduce_figure(9, tmp_path)

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
