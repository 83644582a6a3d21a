"""Which lines of src/vaxgame a pytest run never reaches: a plugin that
uses only the standard library (no coverage package is needed).

Off unless loaded with -p, from the root of a source checkout:

    python -m pytest -p tests.tools.line_reach --line-reach=reach.txt tests

It records every line of the vaxgame package that the run imports (found
on the run's path, src/vaxgame in a checkout) on every thread, with
sys.settrace and threading.settrace (Python 3.11 has no sys.monitoring),
and lists the executable lines it never reached, one function a line, in
the file given or else at the end of the terminal report:

    params.py PublicCostModel.__post_init__: 205 207

A line is executable when the compiled module maps an instruction to it;
a function's lines are listed under the innermost function that holds
them. With --line-map=FILE it also writes, as JSON, the tests that reach
each line, {"params.py": {"212": ["tests/test_x.py::test_y", ...]}}: the
lines a test's setup, call and teardown run, module bodies run at import
belonging to no test. So that a line behind a functools.lru_cache is
mapped to every test that needs it, not only to the first, that option
clears the lru_cache of every vaxgame function before each test. The
mutation runner (tests/tools/mutate.py) reads the map. Tracing and those
clears slow the run several-fold and change no test's result.
"""
from __future__ import annotations

import importlib.util
import json
import sys
import threading
import types
from collections import deque
from pathlib import Path

import pytest


def executable_lines(path: Path) -> dict[int, str]:
    """Each executable line of the module at path, with the qualified name
    of the innermost function, class body or <module> that holds it."""
    owner: dict[int, str] = {}
    todo = deque([compile(path.read_text(), str(path), "exec")])
    while todo:
        # breadth first, so an inner code object overrides its parent's
        # claim on a line they share (a def line)
        code = todo.popleft()
        owner.update((line, code.co_qualname)
                     for _, _, line in code.co_lines() if line is not None)
        todo.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return owner


class Recorder:
    """The lines each file of a directory reached, keyed by its name, in
    the whole run and in the running test."""

    def __init__(self, root: Path):
        self.root = root.resolve()
        self.reached: dict[str, set[int]] = {}
        self.test_reached: dict[str, set[int]] = {}
        self._names: dict[str, str | None] = {}

    def _name(self, filename: str) -> str | None:
        """The name of a traced file, or None outside the root."""
        if filename not in self._names:
            path = Path(filename).resolve()
            self._names[filename] = (path.name if path.parent == self.root
                                     else None)
        return self._names[filename]

    def call(self, frame, event, arg):
        """Global trace function: a frame of the root gets the line tracer."""
        name = self._name(frame.f_code.co_filename)
        if name is None:
            return None
        lines = self.reached.setdefault(name, set())
        mine = self.test_reached.setdefault(name, set())
        lines.add(frame.f_lineno)
        mine.add(frame.f_lineno)

        def line(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
                mine.add(frame.f_lineno)
            return line
        return line

    def unreached(self) -> list[str]:
        """One "module.py function: lines" row per function with executable
        lines that no traced frame reached, by module and first line."""
        rows = []
        for path in sorted(self.root.glob("*.py")):
            reached = self.reached.get(path.name, set())
            missed: dict[str, list[int]] = {}
            for line, owner in sorted(executable_lines(path).items()):
                if line not in reached:
                    missed.setdefault(owner, []).append(line)
            rows += [f"{path.name} {owner}: {' '.join(map(str, lines))}"
                     for owner, lines in missed.items()]
        return rows


def pytest_addoption(parser):
    parser.addoption("--line-reach", metavar="FILE", default=None,
                     help="write the unreached lines of src/vaxgame to FILE")
    parser.addoption("--line-map", metavar="FILE", default=None,
                     help="write the tests that reach each line to FILE")


_RECORDER = pytest.StashKey[Recorder]()
_MAP = pytest.StashKey[dict]()


def pytest_configure(config):
    # found, not imported, so that the module bodies run under the tracer
    package = Path(importlib.util.find_spec("vaxgame").origin).parent
    recorder = config.stash[_RECORDER] = Recorder(package)
    config.stash[_MAP] = {}
    threading.settrace(recorder.call)
    sys.settrace(recorder.call)


def clear_caches() -> None:
    """Empty the lru_cache of every function of the imported vaxgame
    modules."""
    for name, module in list(sys.modules.items()):
        if name == "vaxgame" or name.startswith("vaxgame."):
            for value in vars(module).values():
                if (hasattr(value, "cache_clear")
                        and getattr(value, "__module__", None) == name):
                    value.cache_clear()


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_protocol(item, nextitem):
    recorder = item.config.stash[_RECORDER]
    recorder.test_reached = {}
    if item.config.getoption("line_map") is not None:
        clear_caches()
    yield
    by_line = item.config.stash[_MAP]
    for name, lines in recorder.test_reached.items():
        tests = by_line.setdefault(name, {})
        for line in lines:
            tests.setdefault(line, []).append(item.nodeid)
    recorder.test_reached = {}


def pytest_unconfigure(config):
    sys.settrace(None)
    threading.settrace(None)


def pytest_terminal_summary(terminalreporter, config):
    rows = config.stash[_RECORDER].unreached()
    out = config.getoption("line_reach")
    if config.getoption("line_map") is not None:
        Path(config.getoption("line_map")).write_text(json.dumps(
            {name: {str(line): tests for line, tests in sorted(lines.items())}
             for name, lines in sorted(config.stash[_MAP].items())}))
    terminalreporter.section("line reach of src/vaxgame")
    if out is None:
        for row in rows:
            terminalreporter.write_line(row)
    else:
        Path(out).write_text("".join(row + "\n" for row in rows))
        terminalreporter.write_line(f"{len(rows)} functions with unreached "
                                    f"lines, listed in {out}")
