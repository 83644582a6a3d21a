"""Spans and counts for the traced run, recorded from outside the program.

`instrument` replaces the public functions one layer calls in another with
wrappers that record a span each; `restore` puts the originals back. Spans
live in memory (name, start, end, parent, thread, and counts read from the
result) and are written out when the run ends. Nothing here is active in
an untraced run.
"""
from __future__ import annotations

import contextlib
import functools
import threading
import time
from collections import defaultdict

import numpy as np

from vaxgame import cli, epidemic, leader


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 0
        self._undo = []
        self.active = True

    def _stack(self) -> list:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def _record(self, rec: dict) -> None:
        with self._lock:
            rec["id"] = self._next_id
            self._next_id += 1
            self.spans.append(rec)

    @contextlib.contextmanager
    def paused(self):
        """Record nothing inside, e.g. while the benchmark checks outputs."""
        was, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was

    @contextlib.contextmanager
    def span(self, name: str, cpu: bool = False):
        stack = self._stack()
        rec = {"name": name, "parent": stack[-1] if stack else None,
               "thread": threading.get_ident()}
        self._record(rec)
        stack.append(rec["id"])
        c0 = time.process_time() if cpu else 0.0
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            if cpu:
                rec["cpu_s"] = time.process_time() - c0
            stack.pop()

    def wrap(self, owner, attr: str, name: str, counts=None,
             cpu: bool = False) -> None:
        orig = getattr(owner, attr)

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            if not self.active:
                return orig(*args, **kwargs)
            with self.span(name, cpu) as rec:
                out = orig(*args, **kwargs)
                if counts is not None:
                    rec.update(counts(out))
                return out

        setattr(owner, attr, traced)
        self._undo.append((owner, attr, orig))

    def wrap_draws(self) -> None:
        """gamma_draws either fills the sampler's draw cache or reads it; only
        fills get a span, since reads cost a dict lookup."""
        owner = leader.ExpectationSampler
        orig = owner.gamma_draws

        @functools.wraps(orig)
        def traced(sampler, cfg):
            if not self.active:
                return orig(sampler, cfg)
            before = len(getattr(sampler, "_cache", ()))
            stack = self._stack()
            parent = stack[-1] if stack else None
            t0 = time.perf_counter()
            out = orig(sampler, cfg)
            t1 = time.perf_counter()
            if len(getattr(sampler, "_cache", ())) > before:
                self._record({"name": "leader.draw_fill", "parent": parent,
                              "thread": threading.get_ident(),
                              "start": t0, "end": t1})
            return out

        owner.gamma_draws = traced
        self._undo.append((owner, "gamma_draws", orig))

    def restore(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)


def instrument(tracer: Tracer) -> None:
    """Wrap each layer boundary the workloads cross. Names imported into
    `leader` from `game` and `ess` are wrapped where `leader` looks them up."""
    w = tracer.wrap
    w(leader, "solve_optimal_incentive", "leader.solve")
    w(leader, "non_eradication_probability", "leader.np_eval")
    w(leader, "vaccine_optimal_k", "leader.vaccine_optimal_k")
    w(leader, "construct_eps_vaccine_optimal_nu", "leader.eps_design")
    w(leader, "p_from_gamma_vec", "game.p_vec")
    w(leader, "binom_cdf_vec_interp", "game.cdf_interp")
    w(leader, "eradication_threshold", "ess.threshold")
    tracer.wrap_draws()
    w(cli, "run_scenario", "cli.run_scenario", cpu=True)
    w(epidemic, "candidate_attractors", "epidemic.candidates")
    w(epidemic, "integrate_to_equilibrium", "epidemic.ode",
      counts=lambda r: {"steps": len(r.t) - 1, "converged": bool(r.converged)})
    w(epidemic, "simulate_jump_process", "epidemic.jump",
      counts=lambda r: {"events": int(r.events), "extinct": bool(r.extinct)})


def _dur(s: dict) -> float:
    return s["end"] - s["start"]


def _p50(xs, scale: float) -> float:
    return float(np.median(xs)) * scale if len(xs) else 0.0


def _rank(xs, q: float) -> float:
    # nearest rank, so a count repeats exactly however many passes ran
    return float(np.percentile(xs, q, method="inverted_cdf")) if len(xs) else 0.0


def _self_time(span: dict, children: list[dict]) -> float:
    """Span duration minus the part of it its children cover."""
    covered, edge = 0.0, span["start"]
    for c in sorted(children, key=lambda c: c["start"]):
        lo, hi = max(c["start"], edge), min(c["end"], span["end"])
        if hi > lo:
            covered += hi - lo
            edge = hi
    return _dur(span) - covered


def _joint_design_times(spans: list[dict]) -> list[float]:
    """vaccine_optimal_k plus the eps design that follows it in the same
    thread: the joint design of one sweep point."""
    out, last_k = [], {}
    for s in sorted(spans, key=lambda s: s["start"]):
        if s["name"] == "leader.vaccine_optimal_k":
            last_k[s["thread"]] = _dur(s)
        elif s["name"] == "leader.eps_design":
            out.append(last_k.pop(s["thread"], 0.0) + _dur(s))
    return out


def layer_metrics(spans: list[dict], n_ops: int,
                  overhead_frac: float) -> dict[str, float]:
    """Per-layer metrics from the spans of n_ops traced ops."""
    by = defaultdict(list)
    kids = defaultdict(list)
    for s in spans:
        by[s["name"]].append(s)
        if s["parent"] is not None:
            kids[s["parent"]].append(s)
    durs = defaultdict(list, {name: [_dur(s) for s in ss]
                              for name, ss in by.items()})
    per_op = 1.0 / n_ops
    solves = by["leader.solve"]
    odes = by["epidemic.ode"]
    steps = [s["steps"] for s in odes]
    jumps = by["epidemic.jump"]
    events = sum(s["events"] for s in jumps)
    sweeps = by["cli.run_scenario"]
    m = {
        "leader.np_evals_per_solve":
            len(by["leader.np_eval"]) / len(solves) if solves else 0.0,
        "leader.np_eval_ms_p50": _p50(durs["leader.np_eval"], 1e3),
        "leader.solve_self_ms_p50":
            _p50([_self_time(s, kids[s["id"]]) for s in solves], 1e3),
        "leader.draw_fills": len(by["leader.draw_fill"]) * per_op,
        "leader.draw_fill_ms_p50": _p50(durs["leader.draw_fill"], 1e3),
        "leader.joint_design_ms_p50": _p50(_joint_design_times(spans), 1e3),
        "game.p_vec_calls": len(by["game.p_vec"]) * per_op,
        "game.p_vec_ms_p50": _p50(durs["game.p_vec"], 1e3),
        "game.cdf_interp_ms_p50": _p50(durs["game.cdf_interp"], 1e3),
        "ess.threshold_calls": len(by["ess.threshold"]) * per_op,
        "ess.threshold_us_p50": _p50(durs["ess.threshold"], 1e6),
        "epidemic.ode.steps_p50": _rank(steps, 50),
        "epidemic.ode.steps_p90": _rank(steps, 90),
        "epidemic.ode.steps_max": float(max(steps)) if steps else 0.0,
        "epidemic.ode.us_per_step":
            sum(durs["epidemic.ode"]) / sum(steps) * 1e6 if steps else 0.0,
        "epidemic.ode.converged_frac":
            sum(s["converged"] for s in odes) / len(odes) if odes else 0.0,
        "epidemic.candidates_us_p50": _p50(durs["epidemic.candidates"], 1e6),
        "epidemic.jump.events": events / len(jumps) if jumps else 0.0,
        "epidemic.jump.events_per_s":
            events / sum(durs["epidemic.jump"]) if jumps else 0.0,
        "epidemic.jump.extinct_frac":
            sum(s["extinct"] for s in jumps) / len(jumps) if jumps else 0.0,
        "cli.sweep.cpu_util":
            (sum(s["cpu_s"] for s in sweeps) / sum(durs["cli.run_scenario"])
             if sweeps else 0.0),
        "trace.overhead_frac": overhead_frac,
    }
    return m
