"""Record the golden CLI corpus.

Runs every invocation in ``cases.json`` through ``vone.cli.run`` and writes
its stdout to ``<name>.out`` and its exit code and stderr to
``expected.json``. ``tests/test_golden.py`` compares them byte for byte,
also at 80 columns, the width argparse wraps usage text to.
Regenerate only when an output change is intended:

    PYTHONPATH=src python tests/golden/capture.py
"""

from __future__ import annotations

import io
import json
import os
from pathlib import Path

from vone.cli import run

HERE = Path(__file__).resolve().parent


# argparse wraps its usage text to the terminal width; record at 80 columns
os.environ["COLUMNS"] = "80"


def invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(list(argv), out, err)
    return code, out.getvalue(), err.getvalue()


def main() -> None:
    cases = json.loads((HERE / "cases.json").read_text())
    expected = {}
    for case in cases:
        code, out, err = invoke(case["argv"])
        (HERE / f"{case['name']}.out").write_text(out, newline="")
        expected[case["name"]] = {"exit": code, "stderr": err}
    (HERE / "expected.json").write_text(json.dumps(expected, indent=2) + "\n")


if __name__ == "__main__":
    main()
