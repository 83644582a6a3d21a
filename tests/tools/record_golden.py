"""Rewrite the golden science outputs in tests/golden/ from the code as it
stands, and versions.json, the Python, numpy and scipy versions that made
them.

    PYTHONPATH=src python tests/tools/record_golden.py

Each of RUNS writes into its own directory tests/golden/<name>/: the files
the run writes there, and its standard output as stdout.txt, with OUT in
place of that directory. A sweep's report.csv drops its runtime_ms column,
the one column that is wall time.

tests/test_golden.py compares a fresh run with these files. Re-record them
only in a change meant to move outputs, and list the cells that moved. On
unchanged code the script rewrites every file byte for byte.
"""
from __future__ import annotations

import contextlib
import csv
import io
import json
import platform
import shutil
import sys
from pathlib import Path

import numpy as np
import scipy

from vaxgame import cli

GOLDEN = Path(__file__).resolve().parents[1] / "golden"
# OUT stands for the run's own output directory, in its arguments and in
# what it prints
OUT = "OUT"
SWEEPS = {"s": "0.1,0.3,0.5", "zbar": "1,5,20,40", "sigma2": "0,1,4",
          "delta": "0.01,0.1", "theta_star": "0.5,0.7"}
RUNS = {
    "figures": ["reproduce-fig", "--id", "all", "--seed", "0",
                "--outdir", OUT],
    "simulate": ["simulate", "--outdir", OUT],
    **{f"sweep_{var}": ["sweep", "--var", var, "--grid", grid,
                        "--outdir", OUT] for var, grid in SWEEPS.items()},
    "analyze_ess": ["analyze-ess"],
    "optimize_leader": ["optimize-leader", "--zbar", "20",
                        "--csv", f"{OUT}/leader_sweep.csv"],
    "solve_game": ["solve-influencer-game", "--zbar", "20", "--outdir", OUT],
}


def versions() -> dict[str, str]:
    """The versions whose arithmetic the golden bytes record."""
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__}


def _drop_runtime(report: Path) -> None:
    with open(report, newline="") as fh:
        rows = list(csv.reader(fh))
    col = rows[0].index("runtime_ms")
    with open(report, "w", newline="") as fh:
        csv.writer(fh).writerows(row[:col] + row[col + 1:] for row in rows)


def write_outputs(outdir: Path) -> list[Path]:
    """Run each of RUNS in-process into outdir/<name>; the files written,
    relative to outdir and sorted."""
    for name, argv in RUNS.items():
        out = outdir / name
        out.mkdir(parents=True)
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = cli.main([a.replace(OUT, str(out)) for a in argv])
        if code != 0:
            raise RuntimeError(f"{' '.join(argv)} exited {code}")
        (out / "stdout.txt").write_text(
            stdout.getvalue().replace(str(out), OUT))
        if (out / "report.csv").exists():
            _drop_runtime(out / "report.csv")
    return sorted(p.relative_to(outdir) for p in outdir.rglob("*")
                  if p.is_file())


def main() -> int:
    shutil.rmtree(GOLDEN, ignore_errors=True)
    GOLDEN.mkdir()
    for path in write_outputs(GOLDEN):
        print(Path(GOLDEN.name) / path)
    (GOLDEN / "versions.json").write_text(
        json.dumps(versions(), indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
