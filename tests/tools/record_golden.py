"""Rewrite the golden science outputs in tests/golden/ from the code as it
stands: the five CSVs of `reproduce-fig --id all --seed 0` at the default
1e5 samples, the `trajectory.csv` of a default `simulate`, and
versions.json, the Python, numpy and scipy versions that made them.

    PYTHONPATH=src python tests/tools/record_golden.py

tests/test_golden.py compares a fresh run with these files. Re-record them
only in a change meant to move outputs, and list the cells that moved. On
unchanged code the script rewrites every file byte for byte.
"""
from __future__ import annotations

import contextlib
import io
import json
import platform
import sys
from pathlib import Path

import numpy as np
import scipy

from vaxgame import cli

GOLDEN = Path(__file__).resolve().parents[1] / "golden"
RUNS = (["reproduce-fig", "--id", "all", "--seed", "0"], ["simulate"])


def versions() -> dict[str, str]:
    """The versions whose arithmetic the golden bytes record."""
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__}


def write_outputs(outdir: Path) -> list[Path]:
    """Run each of RUNS in-process into outdir; the CSVs it wrote, sorted."""
    for argv in RUNS:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main([*argv, "--outdir", str(outdir)])
        if code != 0:
            raise RuntimeError(f"{' '.join(argv)} exited {code}")
    return sorted(outdir.glob("*.csv"))


def main() -> int:
    GOLDEN.mkdir(exist_ok=True)
    for path in GOLDEN.glob("*.csv"):
        path.unlink()
    for path in write_outputs(GOLDEN):
        print(path.relative_to(GOLDEN.parent))
    (GOLDEN / "versions.json").write_text(
        json.dumps(versions(), indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
