"""The per-test time limit of the root conftest.py, seen from a child
pytest that runs deliberately stalled tests under a 2 s limit."""
import shutil
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

STALLS = '''
import time

from hypothesis import given, settings
from hypothesis import strategies as st


def test_spins():
    while True:
        pass


@settings(deadline=None, database=None)
@given(st.integers())
def test_given_spins(n):
    while True:
        pass


def test_passes():
    time.sleep(0.1)
'''


def test_the_suite_has_a_time_limit(pytestconfig):
    # the default, which no ini file of the repository overrides
    assert pytestconfig.getini("test_time_limit") == "60"


def test_a_stalled_test_fails_by_name_within_its_limit(tmp_path):
    # a plain loop and a @given one: the limit ends each, names it, and
    # hypothesis does not shrink the second into a hang; the run goes on
    # to the next test
    shutil.copy(ROOT / "conftest.py", tmp_path)
    (tmp_path / "test_stalls.py").write_text(STALLS)
    report = tmp_path / "report.xml"
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-o", "test_time_limit=2", f"--junitxml={report}", "test_stalls.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    cases = {case.get("name"): case
             for case in ET.parse(report).iter("testcase")}
    assert sorted(cases) == ["test_given_spins", "test_passes", "test_spins"]
    for name in ("test_spins", "test_given_spins"):
        failure = cases[name].find("failure")
        assert failure is not None
        assert failure.get("message").startswith(
            f"conftest.TestTimeLimit: test_stalls.py::{name} ran past the "
            "2 s limit (ini key test_time_limit)")
        assert 2.0 <= float(cases[name].get("time")) < 4.0
    assert cases["test_passes"].find("failure") is None
