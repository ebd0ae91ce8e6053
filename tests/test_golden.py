"""Golden CLI corpus: every invocation in tests/golden/cases.json must
reproduce its recorded stdout byte for byte, its exit code and its stderr.
The recordings are made by tests/golden/capture.py."""

import io
import json
from pathlib import Path

import pytest

from vone.cli import run

GOLDEN = Path(__file__).resolve().parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text())
EXPECTED = json.loads((GOLDEN / "expected.json").read_text())


def test_corpus_covers_every_subcommand():
    commands = {case["argv"][0] for case in CASES}
    assert commands == {"certify", "enumerate", "sq1", "imj", "theta", "marks", "telescope"}
    assert set(EXPECTED) == {case["name"] for case in CASES}
    assert {entry["exit"] for entry in EXPECTED.values()} == {0, 1, 2}


@pytest.mark.parametrize("case", CASES, ids=[case["name"] for case in CASES])
def test_golden_invocation(case, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # the width argparse wraps usage to
    out, err = io.StringIO(), io.StringIO()
    code = run(list(case["argv"]), out, err)
    expected = EXPECTED[case["name"]]
    stdout = (GOLDEN / f"{case['name']}.out").read_bytes().decode()
    assert out.getvalue() == stdout
    assert code == expected["exit"]
    assert err.getvalue() == expected["stderr"]
