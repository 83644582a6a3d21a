import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import vaxgame as vg
from tests.tools.line_reach import executable_lines

ROOT = Path(__file__).resolve().parents[1]
PARAMS = Path(vg.__file__).with_name("params.py")
UNREACHED = ROOT / "tests" / "tools" / "unreached.txt"


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
    assert (_line_of('"c_f_table", "must be non-empty"')
            in missed["params.py PublicCostModel.__post_init__"])
    # reached: the linear branch of c_f, and the module body at import
    assert (_line_of("return self.s * z")
            not in missed.get("params.py PublicCostModel.c_f", ()))
    assert "params.py <module>" not in missed



def test_line_map_gives_a_cached_line_to_every_test(tmp_path):
    # both tests ask for the same lru_cached grid; without a clear before
    # each test only the first would run its body
    (tmp_path / "test_tiny.py").write_text(
        "from vaxgame import game\n\n"
        "def test_first():\n"
        "    assert game._bdtr_grid(5, 2)[0] == 0.0\n\n"
        "def test_second():\n"
        "    assert game._bdtr_grid(5, 2)[-1] == 1.0\n")
    out = tmp_path / "map.json"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(PARAMS.parents[1]), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-p", "tests.tools.line_reach", f"--line-map={out}",
         str(tmp_path / "test_tiny.py")],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    game = PARAMS.with_name("game.py").read_text().splitlines()
    (line,) = [n for n, row in enumerate(game, 1)
               if "return _read_only(binom_cdf(" in row]
    ids = json.loads(out.read_text())["game.py"][str(line)]
    assert sorted(name.rsplit("::", 1)[1] for name in ids) == [
        "test_first", "test_second"]

def test_mutation_runner_kills_a_known_mutant(tmp_path):
    # a checkout of params.py alone, under a package that imports nothing
    # (so each of the runner's pytest runs starts fast), the two tools and
    # one test file: c_f(2) is 1.0, and c_f(-1) is refused. The runner
    # copies the checkout it sits in, so it is run from this one
    (tmp_path / "src" / "vaxgame").mkdir(parents=True)
    (tmp_path / "src" / "vaxgame" / "__init__.py").write_text("")
    shutil.copy2(PARAMS, tmp_path / "src" / "vaxgame")
    shutil.copy2(ROOT / "pyproject.toml", tmp_path)
    (tmp_path / "tests" / "tools").mkdir(parents=True)
    for tool in ("line_reach.py", "mutate.py"):
        shutil.copy2(ROOT / "tests" / "tools" / tool,
                     tmp_path / "tests" / "tools")
    # test_runs_untraced fails only under the traced run's line tracing,
    # as a wall-clock budget can: it is named, and the run goes on
    (tmp_path / "tests" / "test_tiny.py").write_text(
        "import sys\n\n"
        "import pytest\n"
        "from vaxgame.params import PublicCostModel\n\n"
        "COSTS = PublicCostModel(0.2, 0.05, 100.0, 0.5, s=0.5)\n\n"
        "def test_linear_costs():\n"
        "    assert COSTS.c_f(2) == 1.0\n\n"
        "def test_negative_count_is_refused():\n"
        "    with pytest.raises(ValueError):\n"
        "        COSTS.c_f(-1)\n\n"
        "def test_runs_untraced():\n"
        "    assert sys.gettrace() is None\n")
    sign = _line_of("if z < 0:")
    table = _line_of("if z >= len(self.c_f_table):")
    proc = subprocess.run(
        [sys.executable, "-m", "tests.tools.mutate", "params.py",
         "--lines", f"{sign},{table}", "tests/test_tiny.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    rows = {row.split(" (")[0] for row in proc.stdout.splitlines()}
    # z >= 0 refuses c_f(2), z < -1 takes c_f(-1); z < 1 passes both tests
    # (no test asks for c_f(0)), and no test reaches the table's lines
    assert rows >= {f"params.py:{sign} flip < to >=: killed",
                    f"params.py:{sign} shift 0 to -1: killed",
                    f"params.py:{sign} shift 0 to 1: survived",
                    f"params.py:{table} flip >= to <: unreached",
                    "4 mutants, 1 survived"}
    assert f"  params.py:{sign} shift 0 to 1" in proc.stdout.splitlines()
    assert [row.split(" - ")[0] for row in proc.stdout.splitlines()
            if row.startswith("failed only under tracing: ")] == [
        "failed only under tracing: FAILED "
        "tests/test_tiny.py::test_runs_untraced"]
    # the checkout itself is never changed
    assert (tmp_path / "src" / "vaxgame" / "params.py").read_text() == \
        PARAMS.read_text()


def test_mutation_runner_cleans_up_on_sigterm(tmp_path):
    # the runner's first pytest run reaches a test that records its pid
    # and sleeps; SIGTERM then kills that pytest and removes the runner's
    # copy of the checkout from TMPDIR
    checkout, tmp, pid_file = (tmp_path / "checkout", tmp_path / "tmp",
                               tmp_path / "pid")
    (checkout / "tests" / "tools").mkdir(parents=True)
    (checkout / "src" / "vaxgame").mkdir(parents=True)
    (checkout / "src" / "vaxgame" / "__init__.py").write_text("")
    tmp.mkdir()
    for tool in ("line_reach.py", "mutate.py"):
        shutil.copy2(ROOT / "tests" / "tools" / tool,
                     checkout / "tests" / "tools")
    (checkout / "tests" / "test_sleeps.py").write_text(
        "import os\nimport time\n\n"
        "def test_sleeps():\n"
        f"    with open({str(pid_file)!r}, 'w') as out:\n"
        "        out.write(str(os.getpid()))\n"
        "    time.sleep(60)\n")
    runner = subprocess.Popen(
        [sys.executable, "-m", "tests.tools.mutate", "params.py",
         "tests/test_sleeps.py"], cwd=checkout,
        env=dict(os.environ, TMPDIR=str(tmp)), stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL)
    try:
        deadline = time.monotonic() + 30
        while not pid_file.exists() or not pid_file.read_text():
            assert time.monotonic() < deadline and runner.poll() is None
            time.sleep(0.02)
        child = int(pid_file.read_text())
        assert list(tmp.glob("mutate-*"))
        runner.send_signal(signal.SIGTERM)
        assert runner.wait(timeout=30) == 143
    finally:
        runner.kill()
        runner.wait()
    assert not list(tmp.glob("mutate-*"))
    with pytest.raises(ProcessLookupError):
        os.kill(child, 0)


def test_unreached_list_names_executable_lines_with_reasons():
    # each entry is a row of the plugin's report, "module.py function:
    # lines", then "  # " and why no test reaches it; the lines are
    # executable lines of that function, in order, and the rows come one a
    # function in the plugin's order, by module and first line
    src = Path(vg.__file__).parent
    keys = []
    for row in UNREACHED.read_text().splitlines():
        entry, sep, reason = row.partition("  # ")
        assert sep and reason.strip() and "#" not in entry, row
        module, _, rest = entry.partition(" ")
        owner, _, lines = rest.rpartition(": ")
        numbers = [int(n) for n in lines.split()]
        assert numbers and numbers == sorted(set(numbers)), row
        owners = executable_lines(src / module)
        assert [owners.get(n) for n in numbers] == [owner] * len(numbers), row
        keys.append((module, numbers[0], owner))
    assert keys == sorted(keys)
    assert len({(module, owner) for module, _, owner in keys}) == len(keys)
