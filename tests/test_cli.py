import io
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from vone.burnside import VirtualGSet, bmul, orbit
from vone.certify import certify_self_map, enumerate_5_1, enumerate_quaternion
from vone.cli import (
    ParseError,
    _check_printed,
    parse_expr,
    parse_gset,
    parse_rep,
    run,
)
from vone.groups import GroupDescriptor, GroupModel, build_group
from vone.limits import (
    DEFAULT_ORDER_BOUND,
    MAX_ADAMS_BITS,
    MAX_DIGITS,
    MAX_EXPONENT,
    MAX_NESTING,
    MAX_PRIME,
    MAX_ROWS,
    MAX_SQ1_WORK,
    SWEEP_LIMIT,
)
from vone.repring import VirtualRep, standard_rep


def cyc(m):
    return build_group(GroupDescriptor.cyclic_of_order(m))


def quat(order):
    return build_group(GroupDescriptor.quaternion(order))


def go(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(list(argv), out, err)
    return code, out.getvalue(), err.getvalue()


def test_parse_gset_examples():
    c2 = cyc(2)
    assert parse_gset("h", c2) == orbit(c2, 0)
    assert parse_gset("h^3", c2).coeffs == (4, 0)
    c4 = cyc(4)
    assert parse_gset("2*[C4/C2]+[C4/e]", c4).coeffs == (1, 2, 0)
    assert parse_gset("2*[C4/C2]-[C4/C4]", c4).coeffs == (0, 2, -1)
    assert parse_gset("3", c4).coeffs == (0, 0, 3)
    assert parse_gset("[C4/C2]^2", c4) == bmul(orbit(c4, "C2"), orbit(c4, "C2"))
    assert parse_gset("-(2+h)", c2).coeffs == (-1, -2)


def test_parse_gset_errors():
    c4 = cyc(4)
    with pytest.raises(ParseError):
        parse_gset("[C4/C3]", c4)
    with pytest.raises(ParseError):
        parse_gset("[C8/C2]", c4)
    with pytest.raises(ParseError):
        parse_gset("[C4C2]", c4)
    with pytest.raises(ParseError):
        parse_gset("2*", c4)
    with pytest.raises(ParseError):
        parse_gset("foo", c4)
    with pytest.raises(ParseError):
        parse_gset("h^L", c4)
    with pytest.raises(ParseError) as exc:
        parse_gset("h + $", c4)
    assert "position" in str(exc.value)


def test_parse_rep_examples():
    c4 = cyc(4)
    L = standard_rep(c4, "L")
    assert parse_rep("L+L^3", c4) == standard_rep(c4, "W")
    assert parse_rep("2*L", c4) == 2 * L
    c2 = cyc(2)
    notes = []
    assert parse_rep("8*sigma", c2, notes) == 4 * standard_rep(c2, "L")
    assert notes and "4*L" in notes[0]
    c8 = cyc(8)
    W = standard_rep(c8, "W")
    assert parse_rep("2*W", c8) == 2 * W
    assert parse_rep("2*W", c8).coeffs == (0, 2, 0, 2, 0, 2, 0, 2)
    q8 = quat(8)
    assert parse_rep("4*H", q8) == 4 * standard_rep(q8, "H")
    assert parse_rep("rho1-u1", q8) == VirtualRep.irreducible(
        q8, 4
    ) - VirtualRep.irreducible(q8, 1)
    assert parse_rep("reg", c4) == VirtualRep.regular(c4)
    assert parse_rep("(1+L)^2", c4) == (VirtualRep.trivial(c4) + L) ** 2


def test_parse_rep_errors():
    c2, c4 = cyc(2), cyc(4)
    with pytest.raises(ParseError):
        parse_rep("3*sigma", c2)
    with pytest.raises(ParseError):
        parse_rep("sigma", c4)
    with pytest.raises(ParseError):
        parse_rep("sigma*L", c2)
    with pytest.raises(ParseError):
        parse_rep("sigma^2", c2)
    with pytest.raises(ParseError):
        parse_rep("2*sigma+L", c2)
    with pytest.raises(ParseError, match="negative sigma multiplicity"):
        parse_rep("-2*sigma", c2)
    with pytest.raises(ParseError, match="sigma can only be scaled by integers"):
        parse_rep("L*sigma", c2)
    with pytest.raises(ParseError, match="sigma terms cannot mix"):
        parse_rep("1+sigma", c2)
    with pytest.raises(ParseError, match="sigma terms cannot mix"):
        parse_rep("sigma-1", c2)
    with pytest.raises(ParseError):
        parse_rep("[C4/C2]", c4)
    with pytest.raises(ParseError):
        parse_rep("H", c4)
    with pytest.raises(ParseError):
        parse_rep("", c4)


def test_parse_rep_unknown_name_over_a_cyclic_group_builds_no_character_table(monkeypatch):
    """Cyclic irreducibles are 1, L and L^a, so no name is looked up."""
    import vone.cli as cli

    def refuse(G):
        raise AssertionError("irreducible names were listed")

    monkeypatch.setattr(cli, "_irreducible_names", refuse)
    c64 = GroupModel(GroupDescriptor.cyclic_of_order(64))
    with pytest.raises(ParseError, match="unknown representation name 'u1'"):
        parse_rep("u1", c64)
    assert parse_rep("L^3+reg-W", c64).coeffs[3] == 1


def _random_gset_text(rng, G):
    name = G.descriptor.name
    classes = G.subgroup_classes()

    def atom(depth):
        r = rng.random()
        if r < 0.3:
            return str(rng.randrange(4))
        if r < 0.4 and depth:
            return f"({expr(depth - 1)})"
        cls = rng.choice(classes)
        return f"[{name}/{cls.label}]"

    def factor(depth):
        base = atom(depth)
        if rng.random() < 0.2 and not base.startswith("("):
            return f"{base}^{rng.randrange(3)}"
        return base

    def term(depth):
        parts = [factor(depth) for _ in range(rng.randrange(1, 3))]
        return "*".join(parts)

    def expr(depth):
        out = term(depth)
        for _ in range(rng.randrange(3)):
            out += rng.choice("+-") + term(depth)
        return out

    def expr_signed(depth):
        lead = "-" if rng.random() < 0.2 else ""
        return lead + expr(depth)

    return expr_signed(2)


def _random_rep_text(rng, G):
    if G.descriptor.kind == "cyclic":
        names = ["L", "W", "reg", "1"] + [f"L^{a}" for a in range(G.order)]
    else:
        from vone.repring import character_table

        names = list(character_table(G).names) + ["H", "reg", "taut"]

    def factor():
        r = rng.random()
        if r < 0.3:
            return str(rng.randrange(4))
        return rng.choice(names)

    def term():
        return "*".join(factor() for _ in range(rng.randrange(1, 3)))

    out = term()
    for _ in range(rng.randrange(3)):
        out += rng.choice("+-") + term()
    return out


def test_parser_round_trip_corpus():
    rng = random.Random(41)
    groups = [cyc(2), cyc(4), cyc(8), cyc(9), quat(8)]
    for _ in range(150):
        G = rng.choice(groups)
        text = _random_gset_text(rng, G)
        value = parse_gset(text, G)
        again = parse_gset(repr(value), G)
        assert again == value, text
    for _ in range(150):
        G = rng.choice(groups)
        text = _random_rep_text(rng, G)
        value = parse_rep(text, G)
        again = parse_rep(repr(value), G)
        assert again == value, text


def test_expression_ast_shape():
    from vone.cli import BinOp, Lit, Sym

    ast = parse_expr("2*L^3+1")
    assert isinstance(ast, BinOp) and ast.op == "+"
    assert ast.right == Lit(1)
    assert ast.left == BinOp("*", Lit(2), BinOp("^", Sym("L"), Lit(3)))


def test_cli_certify_exit_codes():
    code, out, _ = go("certify", "--group", "C2", "--gset", "h", "--rep", "8*sigma")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "1"
    assert doc["verdict"] == "certified"
    code, out, _ = go("certify", "--group", "C2", "--gset", "h^4", "--rep", "8*sigma")
    assert code == 1
    assert json.loads(out)["verdict"] == "hypothesis-failed"
    code, _, err = go("certify", "--group", "C2", "--gset", "h(", "--rep", "8*sigma")
    assert code == 2 and "error" in err
    code, _, err = go("certify", "--group", "K4", "--gset", "h", "--rep", "L")
    assert code == 2
    # step failures are mathematical negatives, not input errors
    code, out, _ = go("certify", "--group", "Q8", "--gset", "[Q8/C4a]", "--rep", "2*H")
    assert code == 1
    assert json.loads(out)["verdict"] == "step-failed"


def test_cli_certify_non_prime_power_order_is_an_input_error():
    code, out, err = go("certify", "--group", "C1", "--gset", "1", "--rep", "1")
    assert code == 2 and out == ""
    assert "not a prime power" in err


def test_cli_usage_errors_and_help_reach_the_given_streams(capsys):
    code, out, err = go("certify", "--group", "C4", "--gset", "h")
    assert code == 2 and out == ""
    assert err.startswith("usage: vone certify") and "required: --rep" in err
    code, out, err = go("marks", "--help")
    assert code == 0 and err == ""
    assert out.startswith("usage: vone marks")
    assert capsys.readouterr() == ("", "")


def test_cli_certify_ell_not_prime_to_p_is_an_input_error():
    code, out, err = go(
        "certify", "--group", "C4", "--gset", "[C4/e]", "--rep", "8*W", "--ell", "2"
    )
    assert code == 2 and out == ""
    assert "not prime to p = 2" in err
    code, out, _ = go(
        "certify", "--group", "C4", "--gset", "[C4/e]", "--rep", "8*W", "--ell", "5"
    )
    assert code in (0, 1) and json.loads(out)["parameters"]["ell"] == "5"


def test_cli_json_integers_are_strings():
    code, out, _ = go("certify", "--group", "C4", "--gset", "[C4/e]", "--rep", "4*W")
    assert code == 0
    doc = json.loads(out)
    assert doc["parameters"]["k"] == "4"
    assert doc["steps"]["adams_divisibility"]["lam"] == "1640"
    assert isinstance(doc["hypothesis"]["passed"], bool)


def test_cli_json_deterministic():
    a = go("certify", "--group", "C2", "--gset", "h", "--rep", "8*sigma")
    b = go("certify", "--group", "C2", "--gset", "h", "--rep", "8*sigma")
    assert a == b
    a = go("enumerate", "--group", "C8", "--json")
    b = go("enumerate", "--group", "C8", "--json")
    assert a == b


def test_cli_imj():
    code, out, _ = go("imj", "--degree", "7", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["order"] == "240"
    assert doc["parts"] == {"2": "16", "3": "3", "5": "5"}
    code, _, _ = go("imj", "--degree", "8")
    assert code == 2
    code, _, _ = go("imj")
    assert code == 2


def test_cli_sq1_refuses_both_int_and_gset():
    """--int 3 beside --group and --gset answered Sq1(3) and exited 0,
    dropping the G-set."""
    message = "give --int or --group and --gset, not both"
    for extra in (("--group", "Q8", "--gset", "[Q8/e]"), ("--group", "Q8"), ("--gset", "[Q8/e]")):
        assert go("sq1", *extra, "--int", "3") == (2, "", f"error: {message}\n"), extra
        assert json_error("sq1", *extra, "--int", "3", "--json") == message, extra


def test_cli_imj_refuses_both_degree_and_s():
    """--degree 7 --s 5 answered for degree 7 and exited 0."""
    message = "give --degree or --s, not both"
    assert json_error("imj", "--degree", "7", "--s", "5", "--json") == message
    assert go("imj", "--degree", "7", "--s", "5") == (2, "", f"error: {message}\n")


def test_cli_theta_over_c1():
    """Over C1 [regular] = 1, so theta - 1 = (ell^dim - 1) [regular]; it
    printed "not a multiple of the regular representation" and lam null."""
    for rep, lam, valuations in (("3", "26", {}), ("0", "0", None)):
        code, out, _ = go("theta", "--group", "C1", "--rep", rep, "--json")
        doc = json.loads(out)
        assert (code, doc["lam"], doc["valuations"]) == (0, lam, valuations), rep
    assert go("theta", "--group", "C1", "--rep", "3") == (
        0, "theta_3(3*1) over C1 = 27*1\ntheta - 1 = 26 * [regular]\n", "")


def test_cli_theta_and_sq1():
    code, out, _ = go("theta", "--group", "C2", "--rep", "4*L", "--json")
    doc = json.loads(out)
    assert code == 0 and doc["lam"] == "40" and doc["valuations"]["2"] == "3"
    code, out, _ = go("sq1", "--group", "C4", "--gset", "[C4/e]", "--json")
    doc = json.loads(out)
    assert code == 0
    assert doc["components"]["e"]["eta"] == "1"
    code, out, _ = go("sq1", "--int", "-5", "--json")
    assert code == 0 and json.loads(out)["value"] == "eta"
    code, out, _ = go("sq1", "--int", "-4", "--json")
    assert code == 0 and json.loads(out)["value"] == "0"
    code, _, _ = go("sq1")
    assert code == 2


def json_error(*argv) -> str:
    """The message of the error document a --json request prints."""
    code, out, err = go(*argv)
    doc = json.loads(out)
    assert (code, err, list(doc)) == (2, "", ["schema", "error"]), argv
    assert doc["schema"] == "1"
    return doc["error"]


def test_orbit_group_is_matched_by_group_not_spelling():
    """[Dic2/e] under --group Dic2 and [C08/e] under --group C08 name the
    active group, whose names are Q8 and C8: both exited 2 with "orbit group
    'Dic2' is not the active group 'Q8'". They certify as the canonical
    spelling does; only the echoed input text differs."""
    for group, spelled, name, rep, want_code in (("Dic2", "Dic2", "Q8", "H", 1),
                                                  ("Q8", "Dic2", "Q8", "H", 1),
                                                  ("C08", "C08", "C8", "8*W", 0)):
        code, out, err = go("certify", "--group", group, "--gset", f"[{spelled}/e]",
                            "--rep", rep, "--json")
        assert (code, err) == (want_code, ""), (group, spelled)
        base = go("certify", "--group", name, "--gset", f"[{name}/e]", "--rep", rep, "--json")
        doc, want = json.loads(out), json.loads(base[1])
        assert doc["inputs"].pop("gset") == f"[{spelled}/e]"
        del want["inputs"]["gset"]
        assert doc == want and base[0] == want_code


def test_orbit_of_another_or_no_group_is_an_input_error():
    for spelled in ("C4", "X", "Dic1", "Q12"):
        message = f"orbit group {spelled!r} is not the active group 'C8'"
        argv = ("certify", "--group", "C8", "--gset", f"[{spelled}/e]", "--rep", "8*W")
        assert go(*argv) == (2, "", f"error: {message}\n"), spelled
        assert json_error(*argv, "--json") == message, spelled


def test_cli_enumerate_rejects_negative_bounds():
    for flag in ("--s-max", "--d-max"):
        code, out, err = go("enumerate", "--group", "C8", flag, "-5")
        assert (code, out) == (2, "") and "must be >= 0" in err, flag
        assert "must be >= 0" in json_error("enumerate", "--group", "C8", "--json", flag, "-5")
    code, out, err = go("enumerate", "--group", "Q8", "--t-max", "-1")
    assert (code, out) == (2, "") and "must be >= 0" in err
    assert "must be >= 0" in json_error("enumerate", "--group", "Q8", "--json", "--t-max", "-1")


def test_cli_enumerate_rejects_sweeps_over_the_limit():
    for flag in ("--s-max", "--d-max"):
        code, out, err = go("enumerate", "--group", "C8", flag, "200")
        assert (code, out) == (2, "") and f"must be <= {SWEEP_LIMIT}" in err, flag
        words = json_error("enumerate", "--group", "C8", "--json", flag, "200")
        assert f"must be <= {SWEEP_LIMIT}" in words, flag
    code, out, err = go("enumerate", "--group", "Q8", "--t-max", str(SWEEP_LIMIT + 1))
    assert (code, out) == (2, "") and f"must be <= {SWEEP_LIMIT}" in err
    words = json_error("enumerate", "--group", "Q8", "--json", "--t-max", str(SWEEP_LIMIT + 1))
    assert f"must be <= {SWEEP_LIMIT}" in words
    limit = str(SWEEP_LIMIT)
    assert go("enumerate", "--group", "C8", "--s-max", limit, "--d-max", limit)[0] == 0
    assert go("enumerate", "--group", "Q8", "--t-max", limit)[0] == 0
    with pytest.raises(ValueError):
        enumerate_5_1(2, 3, s_max=SWEEP_LIMIT + 1)
    with pytest.raises(ValueError):
        enumerate_quaternion(3, SWEEP_LIMIT + 1)


def test_cli_large_exponent_is_a_vone_input_error():
    for expr, words in (
        ("h^200000", f"exponent 200000 exceeds the limit {MAX_EXPONENT}"),
        ("(h^100)^100", f"nested exponents multiply to 10000, over the limit {MAX_EXPONENT}"),
        ("((h^2)^2)^2000", f"nested exponents multiply to 8000, over the limit {MAX_EXPONENT}"),
    ):
        assert go("marks", "--group", "C2", "--gset", expr) == (2, "", f"error: {words}\n")
    code, _, err = go("certify", "--group", "C4", "--gset", "[C4/e]", "--rep", "L^5000")
    assert code == 2 and "exceeds the limit" in err
    code, out, _ = go("marks", "--group", "C2", "--gset", f"h^{MAX_EXPONENT}")
    assert code == 0 and out.split()[-2:] == [str(2**MAX_EXPONENT), "0"]
    assert go("marks", "--group", "C2", "--gset", "(h^10)^100")[0] == 0


def test_cli_result_over_the_digit_limit_is_an_input_error():
    """A value past Python's int-to-str digit limit: exit 2, nothing on
    stdout, one vone error line; the limit is kept, not lifted."""
    message = f"an integer of more than {MAX_DIGITS} digits exceeds the limit {MAX_DIGITS}"
    # a 5330-digit mark, rendered after the label line
    assert go("marks", "--group", "C2", "--gset", "(10*h)^4096") == (2, "", f"error: {message}\n")
    assert go("marks", "--group", "C2", "--gset", "1" * (MAX_DIGITS + 1)) == (2, "", f"error: {message}\n")
    assert json_error("marks", "--json", "--group", "C2", "--gset", "(10*h)^4096") == message
    assert go("marks", "--group", "C2", "--gset", "10^4")[0] == 0


def test_cli_input_errors_under_json_are_json_documents():
    assert json_error("marks", "--json", "--group", "C7x") == "unrecognized group name 'C7x'"
    text = go("marks", "--group", "C8", "--gset", "[C8/C2")[2]
    assert text == f"error: {json_error('marks', '--json', '--group', 'C8', '--gset', '[C8/C2')}\n"
    words = json_error("certify", "--json", "--group", "C1", "--gset", "1", "--rep", "1")
    assert "not a prime power" in words
    words = json_error("marks", "--json", "--group", f"C{DEFAULT_ORDER_BOUND + 1}")
    assert words == f"group order {DEFAULT_ORDER_BOUND + 1} exceeds bound {DEFAULT_ORDER_BOUND}"
    assert "exceeds the limit" in json_error("sq1", "--json", "--group", "C2", "--gset", "h^5000")
    # argparse usage errors stay text on stderr, certify without --json too
    code, out, err = go("marks", "--json")
    assert (code, out) == (2, "") and err.startswith("usage: vone marks")
    code, out, err = go("certify", "--group", "C1", "--gset", "1", "--rep", "1")
    assert (code, out) == (2, "") and err.startswith("error: ")


def test_cold_start_loads_no_dataclasses_and_matches_a_golden_case():
    """A fresh interpreter, site off and only src on the path, as a vone
    command starts: importing vone.cli loads none of dataclasses, inspect
    and typing, and one golden request comes out byte for byte."""
    tests = Path(__file__).resolve().parent
    env = {**os.environ, "PYTHONPATH": str(tests.parent / "src"), "COLUMNS": "80"}
    probe = "import sys, vone.cli; print(sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))"
    loaded = subprocess.run(
        [sys.executable, "-S", "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert loaded.stdout == "[]\n"
    case = next(
        c
        for c in json.loads((tests / "golden" / "cases.json").read_text())
        if c["name"] == "certify-c4-certified"
    )
    expected = json.loads((tests / "golden" / "expected.json").read_text())[case["name"]]
    done = subprocess.run(
        [sys.executable, "-S", "-m", "vone.cli", *case["argv"]], env=env, capture_output=True
    )
    assert done.stdout == (tests / "golden" / f"{case['name']}.out").read_bytes()
    assert done.returncode == expected["exit"]
    assert done.stderr == expected["stderr"].encode()


def test_cli_enumerate_and_marks_and_telescope():
    code, out, _ = go("enumerate", "--group", "C8", "--json", "--s-max", "1", "--d-max", "2")
    assert code == 0
    rows = json.loads(out)["rows"]
    cells = {(r["s"], r["i"], r["d"]): r for r in rows}
    assert cells[("0", "2", "1")]["thm1"] and cells[("0", "2", "1")]["thm511"]
    code, out, _ = go("enumerate", "--group", "Q8", "--json", "--t-max", "2")
    assert code == 0
    assert all(r["passed"] for r in json.loads(out)["rows"])
    code, out, _ = go("marks", "--group", "Q8", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["rows"]["[Q8/e]"] == ["8", "0", "0", "0", "0", "0"]
    code, out, _ = go("telescope", "--p", "3", "--n", "2", "--s", "1", "--i", "1", "--json")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert rows[0]["telescope"] == "v1-telescope" and rows[0]["modulus"] == "9"
    assert rows[1]["telescope"] == "zero"
    assert rows[2]["ku"] == "ku-rational-pair" and rows[2]["ku_conductor"] == "9"
    code, _, _ = go("telescope", "--p", "3", "--n", "2", "--s", "1", "--i", "4")
    assert code == 2


def test_cli_certify_ell_below_two_is_an_input_error():
    """Both exited 1 before; --ell 1 also printed "valuation of zero is
    undefined" as a step detail."""
    for ell in ("-3", "1"):
        code, out, err = go(
            "certify", "--group", "C4", "--gset", "[C4/e]", "--rep", "8*W", "--ell", ell
        )
        assert (code, out, err) == (2, "", f"error: ell = {ell} must be an integer >= 2\n")


def test_cli_enumerate_over_a_non_quaternion_dicyclic_group_is_an_input_error():
    """Dic3 died with a TypeError traceback and exit 1."""
    message = "group Dic3 is not a quaternion group"
    assert go("enumerate", "--group", "Dic3") == (2, "", f"error: {message}\n")
    assert json_error("enumerate", "--group", "Dic3", "--json") == message


def test_cli_telescope_with_a_composite_p_is_an_input_error():
    assert go("telescope", "--p", "4", "--n", "2", "--i", "1") == (2, "", "error: p must be a prime\n")


def test_cli_certify_work_is_bounded():
    """ell^dim for 32000000-dimensional V took 25 s to compute. Step 2
    reads v_p(lambda) without it, so `--text` answers; `--json` prints
    a null lambda past `MAX_ADAMS_BITS`, unformed, and its valuation."""
    start = time.perf_counter()
    argv = ("certify", "--group", "C4", "--gset", "[C4/e]", "--rep", "16000000*W")
    code, out, err = go(*argv, "--text")
    assert (code, err) == (0, "") and out.endswith("verdict    certified\n")
    code, out, err = go(*argv, "--json")
    step2 = json.loads(out)["steps"]["adams_divisibility"]
    assert (code, err, step2["lam"], step2["valuation"]) == (0, "", None, "11")
    assert time.perf_counter() - start < 1.0


def test_cli_certify_prints_the_same_verdict_in_both_formats():
    """`--json` exited 2 on a lambda past `MAX_DIGITS` (5000*W) or past
    `MAX_ADAMS_BITS` (1000000000*W) where `--text` certified; now both
    exit 0 at once and the JSON prints "lam": null. Just below the digit
    limit lambda is printed in full."""
    for mult in (5000, 1000000000):
        argv = ("certify", "--group", "C4", "--gset", "[C4/e]", "--rep", f"{mult}*W")
        start = time.perf_counter()
        text = go(*argv, "--text")
        code, out, err = go(*argv, "--json")
        assert time.perf_counter() - start < 0.5, mult
        assert text[0] == code == 0 and err == "" and text[1].endswith("verdict    certified\n")
        doc = json.loads(out)
        assert doc["verdict"] == "certified" and doc["steps"]["adams_divisibility"]["lam"] is None
    # the largest c whose lambda = (3^(2c) - 1)/4, dim c*W = 2c, still prints
    c = 1
    while (9 ** (c + 1) - 1) // 4 < 10**MAX_DIGITS:
        c += 1
    for mult, lam in ((c, (9**c - 1) // 4), (c + 1, None)):
        argv = ("certify", "--group", "C4", "--gset", "[C4/e]", "--rep", f"{mult}*W")
        code, out, _ = go(*argv, "--json")
        printed = json.loads(out)["steps"]["adams_divisibility"]["lam"]
        assert printed == (None if lam is None else str(lam)), mult


def _random_certify_input(rng: random.Random, G: GroupModel) -> tuple[str, str]:
    """A G-set and a representation expression over G: mostly multiples of
    the standard W or H, sometimes any honest combination of irreducibles."""
    X = VirtualGSet(G, [rng.randrange(-2, 3) for _ in G.subgroup_classes()])
    std = "W" if G.descriptor.kind == "cyclic" else "H"
    if rng.random() < 0.7:
        rep = f"{rng.randrange(1, 9)}*{std}"
    else:
        size = len(VirtualRep.trivial(G).coeffs)
        rep = repr(VirtualRep(G, [rng.randrange(0, 3) for _ in range(size)]))
    return repr(X), rep


def test_cli_and_library_share_one_input_policy():
    """vone certify exits 2 exactly when certify_self_map raises
    ValueError; otherwise 0 for certified and 1 for any other verdict."""
    rng = random.Random(14)
    names = [f"C{m}" for m in range(1, 17)] + ["Q8", "Q16", "Dic3"]
    seen = set()
    for _ in range(400):
        G = build_group(GroupDescriptor.parse(rng.choice(names)))
        gset, rep = _random_certify_input(rng, G)
        ell = rng.choice((None, None, -3, 0, 1, 2, 3, 5, 7, 9, 10, 11))
        # --gset=... because a leading minus would read as an option
        argv = ["certify", "--group", G.descriptor.name, f"--gset={gset}", f"--rep={rep}"]
        if ell is not None:
            argv.append(f"--ell={ell}")
        code, out, _ = go(*argv)
        try:
            cert = certify_self_map(G, parse_gset(gset, G), parse_rep(rep, G), ell)
        except ValueError:
            want = 2
        else:
            want = 0 if cert.verdict == "certified" else 1
        assert code == want, argv
        if want != 2:
            assert json.loads(out)["verdict"] == cert.verdict
        seen.add(want)
    assert seen == {0, 1, 2}


def test_cli_expression_with_a_leading_minus_is_a_value():
    """argparse read '-[...]' after --gset as an option and exited 2 with
    "expected one argument", so only --gset=-[...] was read; both forms
    are now the same request, for --gset and --rep of every subcommand."""
    expr = "-[Q8/e]+2*[Q8/C4a]"
    code, out, err = go("certify", "--group", "Q8", "--gset", expr, "--rep", "2*H")
    assert code == 1 and json.loads(out)["inputs"]["gset"] == expr and err == ""
    assert go("certify", "--group", "Q8", f"--gset={expr}", "--rep", "2*H") == (code, out, err)
    requests = [
        ("certify", "--group", "C4", "--gset", "-[C4/e]", "--rep", "4*W"),
        ("certify", "--group", "C4", "--gset", "[C4/e]", "--rep", "-L+2*L+L^3", "--text"),
        ("marks", "--group", "C4", "--gset", "-[C4/e]+[C4/C4]"),
        ("sq1", "--group", "C4", "--gset", "-h", "--json"),
        ("theta", "--group", "C4", "--rep", "-1+2*L"),
    ]
    for argv in requests:
        attached = list(argv)
        i = attached.index("--gset" if "--gset" in argv else "--rep")
        attached[i:i + 2] = [f"{argv[i]}={argv[i + 1]}"]
        assert go(*argv) == go(*attached), argv
    assert go(*requests[2]) == (0, "e  C2  C4\n-3  1  1\n", "")
    assert go(*requests[0])[0] == 0
    # real errors stay input errors, and JSON under --json
    code, out, err = go("certify", "--group", "C4", "--gset", "-[C4/e", "--rep", "4*W", "--json")
    assert code == 2 and "error" in json.loads(out) and err == ""
    code, out, err = go("theta", "--group", "C4", "--rep", "-L")
    assert (code, out) == (2, "") and err.startswith("error: ")
    # a value that begins with "--" is the next option
    code, out, err = go("certify", "--group", "C4", "--gset", "--rep", "4*W")
    assert (code, out) == (2, "") and "argument --gset: expected one argument" in err


def test_cli_abbreviated_expression_options_take_a_leading_minus():
    """argparse accepts unambiguous prefixes of --gset and --rep; a value
    with a leading minus after one of them is joined to it as well, so
    "--gse -[C4/e]" is the request "--gset -[C4/e]" (it exited 2 with
    "expected one argument")."""
    full = go("certify", "--group", "C4", "--gset", "-[C4/e]", "--rep", "4*W")
    assert full[0] == 0
    for option in ("--gs", "--gse"):
        assert go("certify", "--group", "C4", option, "-[C4/e]", "--rep", "4*W") == full
    full = go("certify", "--group", "C4", "--gset", "[C4/e]", "--rep", "-W+5*W")
    assert full[0] == 0
    for option in ("--r", "--re"):
        assert go("certify", "--group", "C4", "--gset", "[C4/e]", option, "-W+5*W") == full
    assert go("theta", "--group", "C4", "--re", "-1+2*L") == go("theta", "--group", "C4",
                                                               "--rep", "-1+2*L")
    # "--g" could be --group or --gset: argparse still refuses it
    code, out, err = go("certify", "--group", "C4", "--g", "-[C4/e]", "--rep", "4*W")
    assert (code, out) == (2, "") and "ambiguous option" in err


def test_cli_sq1_is_bounded_and_cyclic_sq1_is_closed_form():
    """The free orbit of C256 is a closed form; over a dicyclic group the
    walk on one diagonal block per orbit type is bounded by MAX_SQ1_WORK:
    Q256's free orbit (about ten seconds of work) and Q128's beside a
    second type exit 2 at once, and Q128's free orbit, at the bound,
    answers."""
    start = time.perf_counter()
    code, out, _ = go("sq1", "--group", "C256", "--gset", "[C256/e]", "--json")
    assert code == 0 and json.loads(out)["components"]["e"] == {"eta": "1", "weyl": ["128"]}
    assert time.perf_counter() - start < 0.3
    start = time.perf_counter()
    bound = (f"exceeds the limit {MAX_SQ1_WORK} on the sum of |G/H|^2 * |G| "
             "over the orbit types H of T")
    message = f"Sq1 over Q256 {bound}"
    assert go("sq1", "--group", "Q256", "--gset", "[Q256/e]") == (2, "", f"error: {message}\n")
    assert json_error("sq1", "--json", "--group", "Q256", "--gset", "[Q256/e]") == message
    assert json_error("sq1", "--json", "--group", "Q128",
                      "--gset", "[Q128/e]+[Q128/Q128]") == f"Sq1 over Q128 {bound}"
    assert time.perf_counter() - start < 0.5
    start = time.perf_counter()
    code, out, _ = go("sq1", "--group", "Q128", "--gset", "[Q128/e]", "--json")
    components = json.loads(out)["components"]
    assert code == 0 and components.pop("e") == {"eta": "1", "weyl": ["0", "0"]}
    assert all(c["eta"] == "0" and not any(int(w) for w in c["weyl"]) for c in components.values())
    assert time.perf_counter() - start < 20


def test_cli_theta_work_is_bounded():
    """theta convolved for 2.6 s (400000*W) and 18.5 s (1600000*W) before
    the printed digits gave out; the Adams-bits bound now stops it first."""
    start = time.perf_counter()
    for c in (400000, 1600000):
        code, out, err = go("theta", "--group", "C4", "--rep", f"{c}*W")
        assert (code, out) == (2, "") and f"exceeds the limit {MAX_ADAMS_BITS}" in err
    assert time.perf_counter() - start < 0.5


def test_cli_enumerate_over_a_large_prime_answers_at_once():
    """`default_ell` trial-divided p(p-1), 36 s at p = 10^9 + 7, once for
    each of the 40 rows: about 24 minutes in all."""
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    done = subprocess.run(
        [sys.executable, "-m", "vone.cli", "enumerate", "--group", "C1000000007", "--json"],
        env=env, capture_output=True, text=True, timeout=10,
    )
    assert done.returncode == 0, done.stderr
    assert len(json.loads(done.stdout)["rows"]) == 40


def test_cli_enumerate_and_telescope_bound_p():
    """p = 10^14 + 31 took over a second of trial division; above
    `MAX_PRIME` it is an input error before any. A power of a prime below
    the bound still answers, read off an integer root."""
    big = 10**14 + 31
    start = time.perf_counter()
    message = f"{big} is not a power of a prime p <= {MAX_PRIME}, the limit on p"
    assert go("enumerate", "--group", f"C{big}") == (2, "", f"error: {message}\n")
    assert json_error("enumerate", "--group", f"C{big}", "--json") == message
    message = f"p = {big} exceeds the limit {MAX_PRIME}"
    assert go("telescope", "--p", str(big), "--n", "1", "--i", "0") == (2, "", f"error: {message}\n")
    assert json_error("telescope", "--p", str(big), "--n", "1", "--i", "0", "--json") == message
    code, out, _ = go("enumerate", "--group", f"C{(10**9 + 7) ** 2}")
    assert code == 0 and out.startswith(f"C{(10**9 + 7) ** 2} (p=1000000007, n=2)")
    assert go("enumerate", "--group", "C6")[0] == 2
    assert time.perf_counter() - start < 0.5


def test_cli_telescope_checks_its_digits_before_the_rows():
    """--p 2 --n 50000 --i 0 rendered rows for 5.2 s before the 4300-digit
    limit stopped it; the largest number printed is checked first."""
    message = f"an integer of more than {MAX_DIGITS} digits exceeds the limit {MAX_DIGITS}"
    start = time.perf_counter()
    assert go("telescope", "--p", "2", "--n", "50000", "--i", "0") == (2, "", f"error: {message}\n")
    assert json_error("telescope", "--p", "2", "--n", "10000000", "--i", "0", "--json") == message
    assert time.perf_counter() - start < 0.5
    e = (10**MAX_DIGITS).bit_length() - 1  # 2^e has MAX_DIGITS digits, 2^(e+1) one more
    code, out, _ = go("telescope", "--p", "2", "--n", str(e), "--i", "0", "--j", "0", "--json")
    assert code == 0 and json.loads(out)["rows"][0]["modulus"] == str(2**e)
    code, out, _ = go("telescope", "--p", "2", "--n", str(e), "--i", "1", "--j", str(e), "--json")
    assert code == 0 and json.loads(out)["rows"][0]["ku_conductor"] == str(2**e)
    for i, j in (("0", "0"), ("1", str(e + 1))):
        argv = ("telescope", "--p", "2", "--n", str(e + 1), "--i", i, "--j", j)
        assert go(*argv) == (2, "", f"error: {message}\n")


def test_cli_telescope_bounds_its_rows():
    """`telescope --p 2 --n 300000 --i 300000` printed 300,001 rows (6.9 s
    and 45 MB of JSON): a request makes at most `MAX_ROWS` rows, checked
    after the digit limit."""
    start = time.perf_counter()
    message = f"the request makes 300001 rows, over the limit {MAX_ROWS}"
    argv = ("telescope", "--p", "2", "--n", "300000", "--i", "300000")
    assert go(*argv) == (2, "", f"error: {message}\n")
    assert json_error(*argv, "--json") == message
    assert time.perf_counter() - start < 0.5


def test_cli_expressions_bound_their_nesting():
    """400 parentheses, or 1000 unary minus signs, raised RecursionError out
    of `run`, and so did a chain of 1000 sums in the evaluator: nesting is
    bounded by `MAX_NESTING`, counted over both, and a chain of any length
    is evaluated in a loop."""
    message = f"expression nests deeper than the limit {MAX_NESTING}"
    ok = "(" * (MAX_NESTING - 1) + "[C8/e]" + ")" * (MAX_NESTING - 1)
    assert go("marks", "--group", "C8", "--gset", ok)[0] == 0
    for text in ("(" * 400 + "h" + ")" * 400, "-(" * (MAX_NESTING // 2) + "h" + ")" * 50,
                 "-" * 1000 + "h", "(" * MAX_NESTING + "h" + ")" * MAX_NESTING):
        assert go("marks", "--group", "C2", f"--gset={text}") == (2, "", f"error: {message}\n")
        assert json_error("marks", "--group", "C2", f"--gset={text}", "--json") == message
    code, out, _ = go("marks", "--group", "C2", "--gset", "+".join(["h"] * 5000), "--json")
    assert code == 0 and json.loads(out)["marks"] == {"e": "10000", "C2": "0"}
    assert parse_rep("-" * (MAX_NESTING - 1) + "L", cyc(4)) == -standard_rep(cyc(4), "L")


@pytest.mark.parametrize("n", ["-1", "-5"])
def test_cli_telescope_refuses_a_negative_n(n: str):
    """n < 0 leaves no row j = 0..n: `--p 2 --n -1 --i 0` printed its header
    and exited 0, and `--p 0 --n -1 --i 0 --json` printed "rows": [] without
    checking p. The request is checked as the library checks its row 0."""
    message = "need 0 <= i <= n and 0 <= j <= n"
    argv = ("telescope", "--p", "2", "--n", n, "--i", "0")
    assert go(*argv) == (2, "", f"error: {message}\n")
    assert json_error(*argv, "--json") == message
    argv = ("telescope", "--p", "0", "--n", n, "--i", "0")
    assert go(*argv) == (2, "", "error: p must be a prime\n")
    assert json_error(*argv, "--json") == "p must be a prime"


def test_cli_enumerate_bounds_its_rows():
    """`enumerate` over C_{2^3000} made 60,020 rows: the sweep makes at
    most `MAX_ROWS`, in the library and so in the CLI."""
    start = time.perf_counter()
    big = f"C{2**3000}"
    message = f"the request makes 60020 rows, over the limit {MAX_ROWS}"
    assert go("enumerate", "--group", big) == (2, "", f"error: {message}\n")
    assert json_error("enumerate", "--group", big, "--json") == message
    with pytest.raises(ValueError, match=f"over the limit {MAX_ROWS}"):
        enumerate_5_1(2, 3000)
    assert time.perf_counter() - start < 0.5
    # at the limit: (3 + 1)(n + 1)(4 + 1) rows with the default sweep
    assert len(enumerate_5_1(2, MAX_ROWS // 20 - 1)) == MAX_ROWS
    message = f"the request makes {MAX_ROWS + 20} rows, over the limit {MAX_ROWS}"
    assert go("enumerate", "--group", f"C{2 ** (MAX_ROWS // 20)}") == (2, "", f"error: {message}\n")


def test_cli_telescope_checks_p_once_per_request(monkeypatch):
    """Each row checked p by trial division twice, a few ms a check at
    p = 2^31 - 1, so `--n 2000` took 11.4 s; a request checks it once and
    answers at the row limit in well under a second of work."""
    import vone.geomfix

    calls = []
    check = vone.geomfix.check_prime
    monkeypatch.setattr(vone.geomfix, "check_prime", lambda p: calls.append(p) or check(p))
    assert go("telescope", "--p", "3", "--n", "5", "--i", "2", "--json")[0] == 0
    assert calls == [3]
    monkeypatch.undo()
    p, n = 2**31 - 1, MAX_ROWS - 1
    start = time.perf_counter()
    code, out, _ = go("telescope", "--p", str(p), "--n", str(n), "--i", str(n), "--json")
    took = time.perf_counter() - start
    rows = json.loads(out)["rows"]
    assert code == 0 and len(rows) == MAX_ROWS
    assert rows[0]["modulus"] == "1" and rows[-1]["telescope"] == "zero"
    assert took < 2, f"{MAX_ROWS} rows at p = 2^31 - 1 took {took:.2f} s"


def test_cli_theta_checks_its_digits_before_convolving():
    """`--group C128 --rep 2000*W` convolved for 144 s before printing ran
    into the digit limit: a coefficient of theta is at least
    ell^dim // |G|, checked after the Adams-bits bound."""
    message = f"an integer of more than {MAX_DIGITS} digits exceeds the limit {MAX_DIGITS}"
    start = time.perf_counter()
    assert go("theta", "--group", "C128", "--rep", "2000*W") == (2, "", f"error: {message}\n")
    assert json_error("theta", "--group", "C128", "--rep", "2000*W", "--json") == message
    code, _, err = go("theta", "--group", "C128", "--rep", "100000*W")
    assert code == 2 and f"exceeds the limit {MAX_ADAMS_BITS}" in err
    assert time.perf_counter() - start < 0.5


def test_printed_digit_rule_is_the_exact_test():
    """`theta` and `telescope` share one digit rule: it refuses exactly
    base^exp // den >= 10^MAX_DIGITS, and its bit-length shortcut, which
    forms no power, refuses nothing the exact test would let print."""
    rng = random.Random(11)
    outcomes = set()
    for _ in range(400):
        base = rng.choice((2, 3, 10, 17, 255, 256, rng.randrange(2, 10**6)))
        den = rng.choice((1, 2, 243, 512, rng.randrange(1, 10**5)))
        exp = max(0, MAX_DIGITS * 3322 // (1000 * (base.bit_length() - 1)) - rng.randrange(-200, 1500))
        refused = base**exp // den >= 10**MAX_DIGITS
        try:
            _check_printed(base, exp, den)
        except ValueError:
            assert refused, (base, exp, den)
        else:
            assert not refused, (base, exp, den)
        outcomes.add(refused)
    assert outcomes == {True, False}
    with pytest.raises(ValueError):
        _check_printed(10, MAX_DIGITS)
    _check_printed(10, MAX_DIGITS, 2)
    with pytest.raises(ValueError):
        _check_printed(2, 10**12, 10**6)  # refused from bit lengths alone
