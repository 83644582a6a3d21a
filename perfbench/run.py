"""vaxgame benchmark: one workload per run, end-to-end or traced.

    python3 perfbench/run.py --workload leader_mc --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; the program is imported from
./src. The run sets up the workload (timed in separate processes, see
`setup_s`), makes a fixed number of whole passes of ops in a closed loop
with one caller, about --seconds of op time on the reference host, and
checks each op's output as it goes. Op times are scaled to a reference host speed (see HOST_REF_S). The
last line of standard output is one JSON object: `correct`, `attempted`,
`failed` and `metrics`, the end-to-end metrics with --trace 0 and the
per-layer metrics with --trace 1, as BENCHMARK.json lists them. A fuller
record (machine, versions, sizes, seeds, unscaled and scaled op times,
failures and, when traced, every span) goes to
.bench_out/<workload>_seed<seed>_trace<trace>.json.
"""
from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import nullcontext
from pathlib import Path

import numpy as np
import scipy
from scipy.integrate import RK45

SETUP_REPEATS = 3
OUT_DIR = ".bench_out"
REFERENCES = Path(__file__).with_name("references.json")

# Op times are scaled to a host on which host_kernel_s() takes HOST_REF_S
# (its time on an uncontended vCPU of the 2-vCPU Xeon the benchmark was
# written on). The kernel is sampled between single-threaded ops (see
# host_sample_s), and each op's time is multiplied by HOST_REF_S over the
# mean of the samples before and after it; ops on several threads are not
# scaled, as a one-thread kernel did not track them. On that host a vCPU's speed swings by up to 1.6x for tens of
# seconds as neighbours load the machine, which no amount of work per run
# averages out: unscaled, ops_per_s spread by 7-29% (quartile distance
# over median) across runs; scaled, by 3-7%. The kernel shares no code
# with vaxgame and mixes the three kinds of work the workloads do: a
# Python loop, np.interp over unsorted points and scipy RK45 steps.
# Unscaled figures are kept in the run record.
HOST_REF_S = 3.6e-3
HOST_SHARE = 0.03
_HOST_X = np.random.default_rng(0).random(20_000)
_HOST_XP = np.linspace(0.0, 1.0, 4097)
_HOST_FP = _HOST_XP ** 2
_HOST_A = np.array([[-1.0, 0.3, 0.0], [0.0, -0.5, 0.2], [0.1, 0.0, -0.8]])


def host_kernel_s() -> float:
    """Time one fixed calibration kernel (see HOST_REF_S)."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(20_000):
        acc += i * i
    np.interp(_HOST_X, _HOST_XP, _HOST_FP)
    solver = RK45(lambda t, y: _HOST_A @ y, 0.0, np.ones(3), t_bound=1e9,
                  rtol=1e-9, atol=1e-12, max_step=0.05)
    for _ in range(25):
        solver.step()
    return time.perf_counter() - t0


def host_sample_s(op_s: float) -> float:
    """Median kernel time over repeats that take about HOST_SHARE of the
    op just timed (at least one, at most 9), so one short stall of the
    host does not set the scale of a long op."""
    times = [host_kernel_s()]
    while len(times) < 9 and sum(times) < HOST_SHARE * op_s:
        times.append(host_kernel_s())
    return statistics.median(times)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("leader_mc", "design_sweep", "population",
                             "jump_chain"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="test sizes; outputs are checked without references")
    ap.add_argument("--setup-only", action="store_true",
                    help="set up, print the wall clock in ns and exit")
    return ap.parse_args(argv)


def import_program(root: Path):
    """Import vaxgame from root/src, and refuse any other copy."""
    src = root / "src"
    if not (src / "vaxgame" / "__init__.py").is_file():
        raise SystemExit(f"error: no vaxgame sources under {src}")
    sys.path.insert(0, str(src))
    import vaxgame
    if Path(vaxgame.__file__).resolve().parent != (src / "vaxgame").resolve():
        raise SystemExit(f"error: imported vaxgame from {vaxgame.__file__}")


def time_setups(args, repeats: int) -> list[tuple[float, float]]:
    """(seconds, host scale) from process start to the end of set-up
    (imports plus input generation), each in a fresh interpreter, with the
    host kernel timed just before and after it."""
    out = []
    for _ in range(repeats):
        k0 = host_kernel_s()
        t0 = time.time_ns()
        done = subprocess.run(
            [sys.executable, __file__, "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
            + (["--tiny"] if args.tiny else []),
            capture_output=True, text=True, timeout=120, check=True)
        setup_s = (int(done.stdout.split()[-1]) - t0) / 1e9
        out.append((setup_s, 2 * HOST_REF_S / (k0 + host_kernel_s())))
    return out


def check_op(work, item, out, err, refs) -> tuple[list[str], bool]:
    """Problems of one op, and whether a produced value failed a check."""
    if err is not None:
        return [err], False
    found = work.check(item, out, refs)
    return [f.message for f in found], any(f.wrong for f in found)


def pass_count(work, seconds: float) -> int:
    """Whole passes of one run: about `seconds` of op time on the reference
    host. It depends on the workload and `seconds` alone, not on how fast
    the host runs, so two runs with one seed make the same ops and count
    the same failures."""
    return max(1, round(seconds / work.pass_s))


def measure(work, seconds: float, refs, tracer=None) -> dict:
    """Closed loop, one caller, pass_count() whole passes. With a tracer,
    passes alternate untraced and traced, so both halves see the same host,
    and the loop makes twice as many passes and ends on a traced one. The
    host kernel is timed between single-threaded ops; each output is
    checked after that, outside the op's time, and then dropped."""
    ops, notes, sup_dists = [], [], []
    failed, wrong = 0, False
    passes = pass_count(work, seconds) * (2 if tracer else 1)
    scaled = work.threads == 1
    k_prev = host_sample_s(0.0) if scaled else None
    for pass_no in range(passes):
        traced = tracer is not None and pass_no % 2 == 1
        if tracer:
            tracer.active = traced
        for item in work.items(pass_no):
            out = err = None
            t0 = time.perf_counter()
            try:
                with tracer.span("op") if traced else nullcontext():
                    out = work.op(item)
            except Exception as exc:  # counted as a failed op
                err = f"{type(exc).__name__}: {exc}"
            lat = time.perf_counter() - t0
            scale = 1.0
            if scaled:
                k_next = host_sample_s(lat)
                scale = 2 * HOST_REF_S / (k_prev + k_next)
                k_prev = k_next
            ops.append((lat, scale, traced))
            with tracer.paused() if tracer else nullcontext():
                problems, bad = check_op(work, item, out, err, refs)
            failed += bool(problems)
            wrong = wrong or bad
            notes.extend(problems)
            if traced and hasattr(out, "sup_dist"):
                sup_dists.append(out.sup_dist)
    return {"ops": ops, "passes": passes, "failed": failed,
            "correct": not wrong, "notes": notes, "sup_dists": sup_dists}


def latency_stats(lat_s) -> dict:
    ms = np.asarray(lat_s) * 1e3
    return {"ops_per_s": len(ms) / (ms.sum() / 1e3),
            "op_ms_p50": float(np.percentile(ms, 50)),
            "op_ms_p90": float(np.percentile(ms, 90))}


def e2e_metrics(ops, setups: list[tuple[float, float]]) -> dict:
    return {
        **latency_stats([lat * scale for lat, scale, _ in ops]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "setup_s": statistics.median(t * scale for t, scale in setups),
    }


def git_commit(root: Path) -> str:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        path = root / ".git" / ref[5:]
        return path.read_text().strip() if path.is_file() else ref[5:]
    return ref


def src_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(path.relative_to(root).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(root: Path, args, sizes, threads: int) -> dict:
    return {
        "commit": git_commit(root), "src_sha256": src_digest(root),
        "nproc": os.cpu_count(), "cpu_model": cpu_model(),
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "workload": args.workload,
        "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "sizes": dataclasses.asdict(sizes),
        "worker_threads": threads,
    }


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    root = Path.cwd()
    import_program(root)
    import tracing
    import workloads

    sizes = workloads.TINY if args.tiny else workloads.FULL
    out_dir = root / OUT_DIR
    if args.setup_only:
        workloads.build(args.workload, args.seed, sizes, out_dir)
        print(time.time_ns())
        return 0

    setups = time_setups(args, 1 if args.tiny else SETUP_REPEATS)
    out_dir.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_dir))
    try:
        work = workloads.build(args.workload, args.seed, sizes, scratch)
        refs = None if args.tiny else json.loads(REFERENCES.read_text())
        tracer = tracing.Tracer() if args.trace else None
        if tracer:
            tracing.instrument(tracer)
        try:
            res = measure(work, args.seconds, refs, tracer)
        finally:
            if tracer:
                tracer.restore()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    ops = res["ops"]
    if tracer:
        traced = [lat * scale for lat, scale, t in ops if t]
        plain = [lat * scale for lat, scale, t in ops if not t]
        overhead = (sum(traced) / len(traced)) / (sum(plain) / len(plain)) - 1
        named = tracing.layer_metrics(tracer.spans, len(traced), overhead)
        named["epidemic.jump.sup_dist_max"] = max(res["sup_dists"],
                                                  default=0.0)
    else:
        named = e2e_metrics(ops, setups)
    spec = json.loads((root / "BENCHMARK.json").read_text())
    metrics = {m["name"]: {"value": named[m["name"]], "unit": m["unit"]}
               for m in spec["per_layer" if tracer else "end_to_end"]}

    result = {"correct": res["correct"], "attempted": len(ops),
              "failed": res["failed"], "metrics": metrics}
    record = {
        "environment": environment(root, args, sizes, work.threads),
        "setup_s_samples": [{"s": t, "host_scale": scale}
                            for t, scale in setups],
        "passes": res["passes"],
        "host_ref_s": HOST_REF_S,
        "unscaled": latency_stats([lat for lat, _, t in ops if not t]),
        "ops": [{"ms": lat * 1e3, "host_scale": scale, "traced": t}
                for lat, scale, t in ops],
        "failures": res["notes"],
        "spans": tracer.spans if tracer else [],
        **result,
    }
    side = out_dir / f"{args.workload}_seed{args.seed}_trace{args.trace}.json"
    side.write_text(json.dumps(record, default=str))
    for note in res["notes"][:10]:
        print(f"failed op: {note}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
