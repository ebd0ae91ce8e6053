import io
import json
import random

import pytest

from vone.burnside import VirtualGSet, bmul, orbit
from vone.cli import (
    ParseError,
    parse_expr,
    parse_gset,
    parse_rep,
    render_gset,
    render_rep,
    run,
)
from vone.groups import GroupDescriptor, GroupModel, build_group
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


def test_parse_rep_unknown_name_over_a_cyclic_group_builds_no_character_table():
    # a model of its own, not the shared one from build_group
    c64 = GroupModel(GroupDescriptor.cyclic_of_order(64))
    with pytest.raises(ParseError, match="unknown representation name 'u1'"):
        parse_rep("u1", c64)
    assert parse_rep("L^3+reg-W", c64).coeffs[3] == 1
    assert c64._character_table is None


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
        again = parse_gset(render_gset(value), G)
        assert again == value, text
    for _ in range(150):
        G = rng.choice(groups)
        text = _random_rep_text(rng, G)
        value = parse_rep(text, G)
        again = parse_rep(render_rep(value), G)
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
