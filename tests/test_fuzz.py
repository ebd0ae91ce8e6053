"""Fuzz the CLI expression parser with criterion 8's random G-set and
representation expressions and with mutations of them: a dropped or doubled
character, exponents at and around `MAX_EXPONENT`, nesting at and around
`MAX_NESTING`, and unknown names. Every case goes through `vone.cli.run` as
`marks --gset`, `certify --rep` or `theta --rep`, which must return 0, 1 or
2 without raising, print nothing on stdout when it refuses the input (a
JSON error document under --json), and answer within a second.
"""

from __future__ import annotations

import io
import json
import random
import time

import pytest

from vone.cli import run
from vone.groups import GroupDescriptor, build_group
from vone.limits import MAX_EXPONENT, MAX_NESTING

from test_acceptance import _rand_gset_text, _rand_rep_text

GROUPS = ("C4", "C8", "C16", "C9", "C27", "Q8", "Q16")
UNKNOWN = ("foo", "Z", "u9", "rho99", "Lx", "sigma", "taut", "h", "[C8/C7]", "[Q8/C3]",
           "[C4]", "[/]", "[C9/e", "e]", "$", "1.5")
CASES = 40  # per group and command


def _mutate(text: str, rng: random.Random) -> str:
    i = rng.randrange(len(text))
    kind = rng.randrange(7)
    if kind == 0:
        return text[:i] + text[i + 1:]
    if kind == 1:
        return text[:i] + text[i] + text[i:]
    if kind == 2:
        return f"({text})^{MAX_EXPONENT + rng.choice((-1, 0, 1))}"
    if kind == 3:
        a = rng.choice((2, 3, 64))
        return f"(({text})^{a})^{MAX_EXPONENT // a + rng.choice((0, 1))}"
    if kind == 4:
        d = rng.choice((MAX_NESTING - 2, MAX_NESTING - 1, MAX_NESTING, 5 * MAX_NESTING))
        return "(" * d + text + ")" * d
    if kind == 5:
        d = rng.choice((MAX_NESTING - 2, MAX_NESTING, 5 * MAX_NESTING))
        return "-" * d + f"({text})" + rng.choice(("", "+1" * 50 * MAX_NESTING))
    return text[:i] + rng.choice(UNKNOWN) + text[i:]


def _check(argv: list, as_json: bool) -> int:
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    code = run(argv, out, err)
    took = time.perf_counter() - start
    assert code in (0, 1, 2), argv
    assert took < 1.0, (argv, took)
    if code == 2:
        if as_json:
            assert list(json.loads(out.getvalue())) == ["schema", "error"], argv
        else:
            assert out.getvalue() == "", argv
    return code


@pytest.mark.parametrize("command", ["marks", "certify", "theta"])
def test_fuzz_expressions_through_the_cli(command: str) -> None:
    rng = random.Random(f"fuzz-{command}")
    codes = set()
    for name in GROUPS:
        g = build_group(GroupDescriptor.parse(name))
        for _ in range(CASES):
            gset = _rand_gset_text(g, rng)
            rep = _rand_rep_text(g, rng)
            if command == "marks":
                gset = _mutate(gset, rng) if rng.random() < 0.8 else gset
                argv = ["marks", "--group", name, f"--gset={gset}"]
            else:
                rep = _mutate(rep, rng) if rng.random() < 0.8 else rep
                argv = [command, "--group", name, f"--rep={rep}"]
                if command == "certify":
                    argv.append(f"--gset={gset}")
            as_json = rng.random() < 0.5
            codes.add(_check(argv + ["--json"] * as_json, as_json))
    # the draw reaches both answers and refusals
    assert 0 in codes and 2 in codes
