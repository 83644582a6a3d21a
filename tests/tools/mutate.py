"""Mutation checks of src/vaxgame, with the standard library alone.

From the root of a source checkout:

    python -m tests.tools.mutate epidemic.py --lines 790-860 \
        tests/test_epidemic.py

(pytest options go after --, as in `-- tests -k chain`).

It copies the checkout (without .git, caches and benchmark outputs) to a
temporary directory and runs the tests given (pytest arguments, tests/ if
none) there twice: plainly, where they must pass, and under the line-reach
plugin (tests/tools/line_reach.py), which maps each line of src/vaxgame to
the tests that reach it; a test that fails only under its tracing is
named in the report. Then, one mutant at a time, it changes one site on
the chosen lines of the module in the copy:

- flip a comparison: < and >=, <= and >, == and !=, is and is not, in and
  not in (one mutant for each operator of a chained comparison);
- drop a raise (it becomes pass);
- shift an integer constant by one, up and down;
- swap min and max;

and runs only the tests that reach the site's lines, stopping at the
first failure. A site outside every function runs at import, in no test,
so it is tried against every test that reaches the module. A mutant is
killed when they fail, or run _HANG times as long as the traced run of
all the tests took (a mutant can loop forever); it survives when they
pass, and is unreached when no test reaches its lines, so it is never
run. Each mutant is one line of the report,
the survivors are listed again at the end, and the exit status is 1 if
any mutant survived. Mutants run one after another, from sources that
are never cached as bytecode, so no mutant sees another's module. SIGTERM
ends a run as an error would: the running pytest is killed, the copy is
removed, and the exit status is 143.
"""
from __future__ import annotations

import argparse
import ast
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
# a mutant's tests, some of the traced run's and without its tracing, that
# take this many times as long as that run are taken to hang
_HANG = 3

_SYMBOL = {ast.Lt: "<", ast.GtE: ">=", ast.LtE: "<=", ast.Gt: ">",
           ast.Eq: "==", ast.NotEq: "!=", ast.Is: "is", ast.IsNot: "is not",
           ast.In: "in", ast.NotIn: "not in"}
_FLIP = {ast.Lt: ast.GtE, ast.LtE: ast.Gt, ast.Eq: ast.NotEq,
         ast.Is: ast.IsNot, ast.In: ast.NotIn}
_FLIP.update({b: a for a, b in _FLIP.items()})
_SWAP = {"min": "max", "max": "min"}


@dataclass(frozen=True)
class Mutant:
    """One change to a module: the source span from (line, col) to
    (end_line, end_col), columns in UTF-8 bytes as ast gives them,
    replaced by text."""

    line: int
    col: int
    end_line: int
    end_col: int
    text: str
    what: str

    def apply(self, source: str) -> str:
        rows = source.encode().splitlines(keepends=True)
        head = b"".join(rows[:self.line - 1]) + rows[self.line - 1][:self.col]
        tail = (rows[self.end_line - 1][self.end_col:]
                + b"".join(rows[self.end_line:]))
        return (head + self.text.encode() + tail).decode()


def mutants(source: str, lines: set[int] | None = None) -> list[Mutant]:
    """Every mutant of the sites that start on the given lines (all lines
    if None), in source order. Nothing inside an f-string is mutated:
    before Python 3.12 its nodes' columns are unreliable."""
    found = []

    def at(node, text, what):
        found.append(Mutant(node.lineno, node.col_offset, node.end_lineno,
                            node.end_col_offset, text, what))

    tree = ast.parse(source)
    in_fstring = {id(sub) for node in ast.walk(tree)
                  if isinstance(node, ast.JoinedStr) for sub in ast.walk(node)}
    for node in ast.walk(tree):
        if (id(node) in in_fstring or lines is not None
                and getattr(node, "lineno", None) not in lines):
            continue
        if isinstance(node, ast.Compare):
            for k, op in enumerate(node.ops):
                flipped = _FLIP[type(op)]
                ops = node.ops[:k] + [flipped()] + node.ops[k + 1:]
                new = ast.Compare(node.left, ops, node.comparators)
                at(node, f"({ast.unparse(new)})",
                   f"flip {_SYMBOL[type(op)]} to {_SYMBOL[flipped]}")
        elif isinstance(node, ast.Raise):
            at(node, "pass", "drop raise")
        elif isinstance(node, ast.Constant) and type(node.value) is int:
            for step in (1, -1):
                at(node, f"({node.value + step})",
                   f"shift {node.value} to {node.value + step}")
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id in _SWAP):
            at(node.func, _SWAP[node.func.id],
               f"swap {node.func.id} to {_SWAP[node.func.id]}")
    return sorted(found, key=lambda m: (m.line, m.col, m.what))


def import_lines(source: str) -> set[int]:
    """The lines of source outside every function: the ones that run when
    the module is imported."""
    inside = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inside.update(range(node.body[0].lineno, node.end_lineno + 1))
        elif isinstance(node, ast.Lambda):
            inside.update(range(node.body.lineno, node.body.end_lineno + 1))
    return set(range(1, len(source.splitlines()) + 1)) - inside


def _pytest(cwd: Path, args: list[str], timeout: float | None = None):
    """Run pytest in the copy cwd, on its own src, writing no bytecode."""
    env = dict(os.environ, PYTHONPATH=str(cwd / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-o", "addopts=", *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=timeout)


def copy_checkout(root: Path, dest: Path) -> None:
    """The checkout, without version control, caches and outputs."""
    shutil.copytree(root, dest, dirs_exist_ok=True,
                    ignore=shutil.ignore_patterns(
                        ".git", "__pycache__", "*.pyc", ".hypothesis",
                        ".pytest_cache", ".bench_out", ".benchmarks"))


def line_map(copy: Path, tests: list[str]
             ) -> tuple[dict[str, dict[int, list]], float]:
    """The tests that reach each line, from one traced run of tests, and
    the seconds that run took. The tests must first pass untraced, as a
    plain pytest run takes them; the traced run is read for its map alone,
    and a test that fails only there (a wall-clock budget that tracing
    overruns, say) is named, not taken for a failure."""
    proc = _pytest(copy, tests)
    if proc.returncode != 0:
        raise SystemExit("the unmutated tests do not pass:\n"
                         + proc.stdout[-4000:] + proc.stderr[-4000:])
    out = copy / "line-map.json"
    start = time.monotonic()
    proc = _pytest(copy, ["-p", "tests.tools.line_reach",
                          f"--line-map={out}", *tests])
    seconds = time.monotonic() - start
    if not out.exists():
        raise SystemExit("the traced run wrote no line map:\n"
                         + proc.stdout[-4000:] + proc.stderr[-4000:])
    for row in proc.stdout.splitlines():
        if row.startswith(("FAILED", "ERROR")):
            print(f"failed only under tracing: {row}", flush=True)
    return ({name: {int(line): ids for line, ids in rows.items()}
             for name, rows in json.loads(out.read_text()).items()}, seconds)


def _verdict(copy: Path, ids: list[str], timeout: float) -> tuple[str, str]:
    """Whether the tests ids kill the mutant in the copy, and how."""
    try:
        proc = _pytest(copy, ["-x", *ids], timeout)
    except subprocess.TimeoutExpired:
        return "killed", f"timeout {timeout:.0f} s"
    if proc.returncode == 0:
        return "survived", f"{len(ids)} tests"
    return "killed", next((row for row in proc.stdout.splitlines()
                           if row.startswith(("FAILED", "ERROR"))),
                          f"exit {proc.returncode}")


def run(module: str, lines: set[int] | None, tests: list[str]) -> list:
    """Mutate module (a file name under src/vaxgame) on the given lines,
    print a row for each mutant, and return (mutant, outcome, detail)."""
    results = []
    with tempfile.TemporaryDirectory(prefix="mutate-") as tmp:
        copy = Path(tmp)
        copy_checkout(ROOT, copy)
        reach, seconds = line_map(copy, tests)
        reach = reach.get(module, {})
        timeout = _HANG * seconds
        everyone = sorted({t for ids in reach.values() for t in ids})
        target = copy / "src" / "vaxgame" / module
        source = target.read_text()
        at_import = import_lines(source)
        for m in mutants(source, lines):
            ids = (everyone if m.line in at_import else
                   sorted({t for line in range(m.line, m.end_line + 1)
                           for t in reach.get(line, ())}))
            if not ids:
                outcome, detail = "unreached", ""
            else:
                target.write_text(m.apply(source))
                try:
                    outcome, detail = _verdict(copy, ids, timeout)
                finally:
                    target.write_text(source)
            results.append((m, outcome, detail))
            print(f"{module}:{m.line} {m.what}: {outcome}"
                  + (f" ({detail})" if detail else ""), flush=True)
    survivors = [m for m, outcome, _ in results if outcome == "survived"]
    print(f"{len(results)} mutants, {len(survivors)} survived"
          + "".join(f"\n  {module}:{m.line} {m.what}" for m in survivors))
    return results


def _lines(spec: str) -> set[int]:
    """'10-20,31' -> {10, ..., 20, 31}."""
    out = set()
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out.update(range(int(lo), int(hi or lo) + 1))
    return out


def _exit_on_signal(signum, frame):
    sys.exit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    signal.signal(signal.SIGTERM, _exit_on_signal)
    ap = argparse.ArgumentParser(prog="python -m tests.tools.mutate",
                                 description=__doc__.split("\n\n")[0])
    ap.add_argument("module", help="file under src/vaxgame, e.g. params.py")
    ap.add_argument("tests", nargs="*", default=["tests"],
                    help="pytest arguments that select the tests to map")
    ap.add_argument("--lines", type=_lines, default=None,
                    help="line numbers to mutate, e.g. 790-860,901")
    args = ap.parse_intermixed_args(argv)
    results = run(args.module, args.lines, args.tests)
    return int(any(outcome == "survived" for _, outcome, _ in results))


if __name__ == "__main__":
    sys.exit(main())
