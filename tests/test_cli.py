import json
import subprocess
import sys

import pytest

from vaxgame.cli import load_config_file, main, reproduce_figure


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
