"""The science outputs of a fixed set of runs (tests/tools/record_golden.py)
match the files recorded in tests/golden/.

Where the Python, numpy and scipy versions are those in
tests/golden/versions.json, each output must equal its file byte for byte.
Where any differs, the arithmetic may round differently, so each cell that
parses as a number must match within REL_TOL relative (absolute below 1),
and every other cell exactly. The failure message says which mode ran. The
files record what the code does, so this test detects change; it does not
certify that the outputs are right.
"""
import csv
import json

from tests.tools.record_golden import GOLDEN, versions, write_outputs

REL_TOL = 1e-9


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
    assert ([p.name for p in outputs]
            == sorted(p.name for p in GOLDEN.glob("*.csv"))), mode
    for out in outputs:
        gold = GOLDEN / out.name
        if exact:
            assert out.read_bytes() == gold.read_bytes(), f"{out.name}: {mode}"
            continue
        with open(out, newline="") as fo, open(gold, newline="") as fg:
            rows, want = list(csv.reader(fo)), list(csv.reader(fg))
        assert len(rows) == len(want), f"{out.name}: {mode}"
        for i, (row, ref) in enumerate(zip(rows, want)):
            assert (len(row) == len(ref)
                    and all(map(_close, row, ref))), (
                f"{out.name} row {i}: {row} != {ref} ({mode})")
