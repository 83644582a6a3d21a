"""Record the reference outputs the benchmark checks leader_mc and
design_sweep against, at the full sizes.

    python3 perfbench/record_references.py     # from the checkout root

Writes perfbench/references.json. Rerun only when a change is meant to
move g*, U*, k* or psi_e, and say so in that change.
"""
from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

from run import REFERENCES, import_program


def main() -> int:
    import_program(Path.cwd())
    import workloads as wl

    refs = {"rel_tol": wl.REL_TOL, "leader_mc": {}, "design_sweep": {}}
    for draw_set in range(wl.DRAW_SETS):
        work = wl.LeaderMC(draw_set, wl.FULL)
        rows = []
        for item in work.grid:
            sol = work.op(item)
            rows.append([item[0], item[1], sol.g_star, sol.u_star,
                         sol.binding])
        refs["leader_mc"][str(draw_set)] = rows
        print(f"leader_mc draw set {draw_set} recorded", file=sys.stderr)

    with tempfile.TemporaryDirectory(dir=".") as tmp:
        for sweep_seed in range(wl.DRAW_SETS):
            # op 0 of a run seeded with sweep_seed sweeps with sweep_seed
            work = wl.DesignSweep(sweep_seed, wl.FULL, Path(tmp))
            report = work.op(0)
            refs["design_sweep"][str(sweep_seed)] = [
                [float(r["sweep_value"]), float(r["g_star"]),
                 float(r["u_star"]), int(r["z_bar"]), float(r["psi_e"])]
                for r in wl.read_report(report)]
            print(f"design_sweep seed {sweep_seed} recorded", file=sys.stderr)

    REFERENCES.write_text(json.dumps(refs, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
