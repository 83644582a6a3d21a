import os
import subprocess
import sys
from pathlib import Path

import vaxgame as vg

ROOT = Path(__file__).resolve().parents[1]
PARAMS = Path(vg.__file__).with_name("params.py")


def _line_of(text: str) -> int:
    """The number of the one line of params.py that holds text."""
    (line,) = [n for n, row in enumerate(PARAMS.read_text().splitlines(), 1)
               if text in row]
    return line


def test_line_reach_lists_a_line_no_test_reaches(tmp_path):
    # a run that builds linear costs alone never refuses an empty table
    (tmp_path / "test_tiny.py").write_text(
        "from vaxgame.params import PublicCostModel\n\n"
        "def test_linear_costs():\n"
        "    costs = PublicCostModel(0.2, 0.05, 100.0, 0.5, s=0.5)\n"
        "    assert costs.c_f(2) == 1.0\n")
    report = tmp_path / "reach.txt"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(PARAMS.parents[1]), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-p", "tests.tools.line_reach", f"--line-reach={report}",
         str(tmp_path / "test_tiny.py")],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "1 passed" in proc.stdout
    missed = {owner: set(map(int, lines.split())) for owner, lines in
              (row.split(": ") for row in report.read_text().splitlines())}
    assert (_line_of('"c_f_table must be non-empty"')
            in missed["params.py PublicCostModel.__post_init__"])
    # reached: the linear branch of c_f, and the module body at import
    assert (_line_of("return self.s * z")
            not in missed.get("params.py PublicCostModel.c_f", ()))
    assert "params.py <module>" not in missed
