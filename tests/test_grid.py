"""Grid golden: a deterministic grid of CLI requests, each recorded as one
line of tests/golden/grid.txt with its exit code and a digest of its exit
code, stdout and stderr.

Where tests/golden/cases.json keeps a few dozen outputs in full, the grid
sweeps certify over every cyclic p-group up to C32, C27 and C25 and the
quaternion groups up to Q32, with X over a small coefficient box (full
support included) and V = c*W or c*H, in both output formats; then small
sweeps of the other subcommands and a set of malformed inputs. A changed
answer names its request. Regenerate only when an output change is
intended:

    PYTHONPATH=src python tests/test_grid.py
"""

from __future__ import annotations

import hashlib
import io
import shlex
from pathlib import Path

from vone.cli import run
from vone.groups import GroupDescriptor, build_group

GRID = Path(__file__).resolve().parent / "golden" / "grid.txt"

CYCLIC = ("C2", "C4", "C8", "C16", "C32", "C3", "C9", "C27", "C5", "C25")
QUATERNION = ("Q8", "Q16", "Q32")
BOX = (-1, 0, 1, 2)


def _orbits(name: str) -> list:
    G = build_group(GroupDescriptor.parse(name))
    return [f"[{name}/{cls.label}]" for cls in G.subgroup_classes()]


def _gset(orbits, coeffs) -> str:
    terms = [f"{c}*{o}" for c, o in zip(coeffs, orbits) if c]
    return "+".join(terms).replace("+-", "-") or "0"


def _gsets(name: str) -> list:
    """Every (size // 24)-th point of BOX^(orbits) from a name-dependent
    offset, 16 to 32 of them, and the full support sum: the same X on
    every run."""
    orbits = _orbits(name)
    size = len(BOX) ** len(orbits)
    stride = max(1, size // 24)
    picked = []
    for index in range(sum(map(ord, name)) % stride, size, stride):
        digits = []
        for _ in orbits:
            index, d = divmod(index, len(BOX))
            digits.append(BOX[d])
        picked.append(_gset(orbits, digits))
    return picked + ["+".join(orbits)]


def _certify() -> list:
    """Each X twice, once per output format, with V = c*W or c*H for two
    multiplicities c; every third X also at ell = 7."""
    mults = (1, 2, 3, 4, 8, 9, 16, 25, 27)
    requests = []
    for name in CYCLIC + QUATERNION:
        std = "H" if name[0] == "Q" else "W"
        for i, X in enumerate(_gsets(name)):
            ell = ["--ell", "7"] if i % 3 == 0 else []
            base = ["certify", "--group", name, "--gset", X]
            requests.append([*base, "--rep", f"{mults[i % 9]}*{std}", *ell, "--json"])
            requests.append([*base, "--rep", f"{mults[-1 - i % 9]}*{std}", *ell, "--text"])
    return requests


def _requests() -> list:
    requests = _certify()
    for name in ("C2", "C8", "C9", "C25", "Q8", "Q16"):
        requests.append(["marks", "--group", name])
        requests.append(["marks", "--group", name, "--gset", "+".join(_orbits(name)), "--json"])
        requests.append(["sq1", "--group", name, "--gset", _orbits(name)[0], "--json"])
    for value in (-7, 0, 1, 2, 3, 6, 15):
        requests.append(["sq1", "--int", str(value)])
    for name, rep in (("C4", "2*W"), ("C8", "W+1"), ("C9", "3*W"), ("C5", "W"), ("Q8", "H"),
                      ("Q16", "2*H"), ("C2", "3*sigma")):
        requests.append(["theta", "--group", name, "--rep", rep, "--json"])
        requests.append(["theta", "--group", name, "--rep", rep, "--ell", "5"])
    for name in ("C2", "C4", "C8", "C3", "C9", "C5", "Q8", "Q16", "C6"):
        requests.append(["enumerate", "--group", name, "--json"])
        requests.append(["enumerate", "--group", name, "--mode", "thm511", "--s-max", "2"])
    for p, n, i in ((2, 1, 0), (2, 3, 2), (3, 2, 1), (5, 1, 4), (2, 0, 0)):
        requests.append(["telescope", "--p", str(p), "--n", str(n), "--i", str(i)])
        requests.append(["telescope", "--p", str(p), "--n", str(n), "--i", str(i), "--json"])
    for s in (1, 2, 3, 6, 12):
        requests.append(["imj", "--s", str(s)])
        requests.append(["imj", "--degree", str(4 * s - 1), "--json"])
    # full support, F = x^N - 1, with a lambda of about 2^20 bits: even
    # marks make step 2 eliminate at k = 256, odd ones answer at M = 0
    for name, c, X in (("C256", 4096, "+".join(f"2*{o}" for o in _orbits("C256"))),
                       ("C512", 2048, "+".join(_orbits("C512")))):
        requests.append(["certify", "--group", name, "--gset", X, "--rep", f"{c}*W", "--text"])
    return requests + MALFORMED


MALFORMED = [
    ["certify", "--group", "C6", "--gset", "[C6/e]", "--rep", "W"],
    ["certify", "--group", "C0", "--gset", "[C0/e]", "--rep", "W", "--json"],
    ["certify", "--group", "Q12", "--gset", "[Q12/e]", "--rep", "H"],
    ["certify", "--group", "C4", "--gset", "[C4/C3]", "--rep", "4*W"],
    ["certify", "--group", "C4", "--gset", "[C4/e", "--rep", "4*W", "--json"],
    ["certify", "--group", "C4", "--gset", "[C8/e]", "--rep", "4*W"],
    ["certify", "--group", "C4", "--gset", "[C4/e]", "--rep", "W+"],
    ["certify", "--group", "C4", "--gset", "[C4/e]", "--rep", "-W"],
    ["certify", "--group", "C4", "--gset", "[C4/e]", "--rep", "0", "--json"],
    ["certify", "--group", "C4", "--gset", "0", "--rep", "4*W"],
    *[["certify", "--group", "C4", "--gset", "[C4/e]", "--rep", "4*W", "--ell", str(ell)]
      for ell in (-3, -1, 0, 1, 2, 4)],
    ["certify", "--group", "C9", "--gset", "[C9/e]", "--rep", "3*W", "--ell", "3", "--json"],
    ["certify", "--group", "C4", "--gset", "[C4/e]", "--rep", "4*W", "--json", "--text"],
    ["certify", "--group", "C4", "--gset", "[C4/e]"],
    ["theta", "--group", "C4", "--rep", "W", "--ell", "0"],
    ["theta", "--group", "C4", "--rep", "W-1", "--json"],
    ["marks", "--group", "D8"],
    ["marks", "--group", "C4", "--gset", "[C4/C8]"],
    ["sq1", "--group", "C4"],
    ["imj", "--degree", "5"],
    ["imj", "--s", "0", "--json"],
    ["telescope", "--p", "4", "--n", "1", "--i", "0"],
    ["telescope", "--p", "2", "--n", "1", "--i", "0", "--j", "-1"],
    ["enumerate", "--group", "C4", "--mode", "thm2"],
    ["frobnicate"],
    [],
]


def _line(argv) -> str:
    """The exit code, a digest and the request; a request that argparse
    itself rejects keeps only its exit code, as the usage text argparse
    prints differs between Python versions."""
    out, err = io.StringIO(), io.StringIO()
    code = run(list(argv), out, err)
    if err.getvalue().startswith("usage: ") and not out.getvalue():
        digest = "argparse"
    else:
        digest = hashlib.sha256(f"{code}\0{out.getvalue()}\0{err.getvalue()}".encode()).hexdigest()[:16]
    return f"{code} {digest} {shlex.join(argv)}".rstrip()


def _lines() -> list:
    return [_line(argv) for argv in _requests()]


def test_grid_matches_recording():
    recorded = GRID.read_text().splitlines()
    got = _lines()
    assert len(got) == len(recorded), "the grid changed shape; regenerate it on purpose"
    changed = [f"{old}\n  now {new}" for old, new in zip(recorded, got) if old != new]
    assert not changed, f"{len(changed)} grid requests changed:\n" + "\n".join(changed[:20])


def test_grid_spans_verdicts_and_commands():
    lines = GRID.read_text().splitlines()
    assert {line.split()[0] for line in lines} == {"0", "1", "2"}
    commands = {shlex.split(line)[2] for line in lines if len(shlex.split(line)) > 2}
    assert commands == {"certify", "enumerate", "sq1", "imj", "theta", "marks", "telescope", "frobnicate"}


if __name__ == "__main__":
    GRID.write_text("\n".join(_lines()) + "\n")
