"""Tests of the benchmark itself: a tiny pass of every workload prints every
named metric with its unit, and the output checks catch wrong results.

    python3 -m pytest perfbench       # from the checkout root
"""
from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import pytest

import run

ROOT = Path(__file__).resolve().parent.parent
run.import_program(ROOT)

import workloads as wl  # noqa: E402  (needs the program on the path)
from vaxgame import epidemic  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_pass_prints_every_metric(workload, trace):
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
         workload, "--seed", "3", "--seconds", "0.2", "--trace", str(trace),
         "--tiny"], cwd=ROOT, capture_output=True, text=True, timeout=170,
        check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec}
    assert all(isinstance(v["value"], float)
               for v in result["metrics"].values())


def _check_all(work, items, outputs, refs):
    """(ops with a problem, whether some produced value was wrong)."""
    found = [run.check_op(work, i, o, None, refs) for i, o in zip(items, outputs)]
    return sum(bool(p) for p, _ in found), any(bad for _, bad in found)


def test_leader_check_counts_perturbed_g_star():
    work = wl.LeaderMC(5, wl.TINY)
    sols = [work.op(item) for item in work.grid]
    refs = {"leader_mc": {str(work.draw_set): [
        [*item, s.g_star, s.u_star, s.binding]
        for item, s in zip(work.grid, sols)]}}
    assert _check_all(work, work.grid, sols, refs) == (0, False)

    bumped = [dataclasses.replace(s, g_star=s.g_star * (1 + 1e-6) + 1e-6)
              for s in sols]
    assert _check_all(work, work.grid, bumped, refs) == (len(sols), True)

    # far enough off that N_P(g*) leaves the sampler's confidence band, so
    # the check needs no reference
    binding = [(i, s) for i, s in zip(work.grid, sols) if s.binding]
    assert binding
    items, far = zip(*[(i, dataclasses.replace(s, g_star=s.g_star + 0.5))
                       for i, s in binding])
    assert _check_all(work, items, far, None) == (len(far), True)


def test_population_check_counts_moved_limit_and_non_convergence():
    work = wl.Population(5, wl.TINY)
    items = list(work.items(0))
    outs = [work.op(k) for k in items]
    assert _check_all(work, items, outs, None) == (0, False)

    def moved(out):
        cand, res = out
        lim = res.limit
        return cand, dataclasses.replace(res, limit=epidemic.OdeState(
            lim.theta, lim.psi + 1e-3, lim.eta))

    assert _check_all(work, items, [moved(o) for o in outs], None) == (
        len(outs), True)

    # the integrator's own failure report fails the op without marking
    # its (still verified) limit wrong
    stalled = [(c, dataclasses.replace(r, converged=False)) for c, r in outs]
    assert _check_all(work, items, stalled, None) == (len(outs), False)


def test_design_check_counts_wrong_k_star():
    rows = [{"sweep_value": "0.1", "g_star": "1.5", "u_star": "20",
             "z_bar": "7", "psi_e": "0.5", "np_at_g": "0.05",
             "runtime_ms": "3"}]
    disease = wl.DesignSweep(0, wl.TINY).disease
    psi = disease.theta_star + 5e-4
    rows[0]["psi_e"] = repr(psi)
    ref = [[0.1, 1.5, 20.0, 7, psi]]
    assert wl.check_design_report(rows, (0.1,), 0.05, 2000, disease, ref) == []
    bad = [dict(rows[0], z_bar="8")]
    assert wl.check_design_report(bad, (0.1,), 0.05, 2000, disease, ref)
