"""The science outputs of a fixed set of runs (tests/tools/record_golden.py)
match the files recorded in tests/golden/.

Where the Python, numpy and scipy versions are those in
tests/golden/versions.json, each output must equal its file byte for byte.
Where any differs, the arithmetic may round differently, so each line is
split into fields at whitespace and the CSV and JSON punctuation, and each
field that parses as a number must match within REL_TOL relative (absolute
below 1), and every other field exactly. The failure message says which
mode ran. The files record what the code does, so this test detects
change; it does not certify that the outputs are right.
"""
import json
import re

from tests.tools.record_golden import GOLDEN, versions, write_outputs

REL_TOL = 1e-9
_SEPARATORS = re.compile(r'[\s,:\[\]{}"]+')


def _close(a: str, b: str) -> bool:
    if a == b:
        return True
    try:
        x, y = float(a), float(b)
    except ValueError:
        return False
    return abs(x - y) <= REL_TOL * max(1.0, abs(y))


def test_outputs_match_the_golden_files(tmp_path):
    recorded = json.loads((GOLDEN / "versions.json").read_text())
    exact = recorded == versions()
    mode = ("bytes, at the recorded versions" if exact else
            f"numbers at {REL_TOL:g}, since {versions()} differs from the "
            f"recorded {recorded}")
    outputs = write_outputs(tmp_path)
    assert outputs == sorted(p.relative_to(GOLDEN) for p in GOLDEN.rglob("*")
                             if p.is_file() and p.parent != GOLDEN), mode
    for rel in outputs:
        out, gold = tmp_path / rel, GOLDEN / rel
        if exact:
            assert out.read_bytes() == gold.read_bytes(), f"{rel}: {mode}"
            continue
        lines = out.read_text().splitlines()
        want = gold.read_text().splitlines()
        assert len(lines) == len(want), f"{rel}: {mode}"
        for i, (line, ref) in enumerate(zip(lines, want)):
            got, exp = _SEPARATORS.split(line), _SEPARATORS.split(ref)
            assert len(got) == len(exp) and all(map(_close, got, exp)), (
                f"{rel} line {i}: {line!r} != {ref!r} ({mode})")
