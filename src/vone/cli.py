"""Command line front end.

Expressions use the display notation: orbits as [C8/C2], lines as L^a,
the standard fixed point free forms W and H, reg for the regular
representation, and sigma for the real sign line of C2 (an even real
multiple ks realifies to (k/2)L). Precedence is ^ over * over +/-.

Output is a text table by default and JSON with --json; certify emits
JSON unless --text is given. All integers in JSON are decimal strings
so arbitrarily large prime powers survive any consumer. Exit codes:
0 success or certified, 1 negative mathematical verdict, 2 bad input.
"""

from __future__ import annotations

import argparse
import json
import operator
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from math import gcd

from .burnside import VirtualGSet, marks, orbit
from .certify import Certificate, certify_self_map, enumerate_5_1, enumerate_quaternion
from .exactmath import factorize, prime_power, pvaluation
from .geomfix import ku_cofiber_fixed_points, telescope_fixed_points
from .groups import GroupDescriptor, GroupModel, build_group
from .jtheory import default_ell, imj_order_oracle, theta
from .powerop import sq1_gset, sq1_int
from .repring import (
    VirtualRep,
    character_table,
    standard_rep,
)

__all__ = [
    "ExprAST",
    "ParseError",
    "parse_expr",
    "parse_gset",
    "parse_rep",
    "render_gset",
    "render_rep",
    "certificate_json",
    "run",
    "main",
]

SCHEMA_VERSION = "1"


class ParseError(ValueError):
    def __init__(self, message: str, text: str | None = None, pos: int | None = None):
        if text is not None and pos is not None:
            message = f"{message} at position {pos} in {text!r}"
        super().__init__(message)


# ---------------------------------------------------------------------------
# expression grammar


@dataclass(frozen=True)
class ExprAST:
    pass


@dataclass(frozen=True)
class Lit(ExprAST):
    value: int


@dataclass(frozen=True)
class Sym(ExprAST):
    name: str


@dataclass(frozen=True)
class OrbitTerm(ExprAST):
    inner: str  # text between the brackets, "C8/C2"


@dataclass(frozen=True)
class Neg(ExprAST):
    arg: ExprAST


@dataclass(frozen=True)
class BinOp(ExprAST):
    op: str  # "+", "-", "*", "^"
    left: ExprAST
    right: ExprAST


_TOKEN = re.compile(
    r"(?P<ws>\s+)"
    r"|(?P<int>\d+)"
    r"|(?P<name>[A-Za-z][A-Za-z0-9]*)"
    r"|(?P<orbit>\[[^\[\]]*\])"
    r"|(?P<op>[+\-*^()])"
)


def _tokenize(text: str):
    pos, out = 0, []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ParseError(f"unrecognized character {text[pos]!r}", text, pos)
        if m.lastgroup != "ws":
            out.append((m.lastgroup, m.group(), m.start()))
        pos = m.end()
    return out


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.toks = _tokenize(text)
        self.i = 0

    def _peek(self):
        return self.toks[self.i] if self.i < len(self.toks) else None

    def _next(self):
        tok = self._peek()
        if tok is None:
            raise ParseError("unexpected end of expression", self.text, len(self.text))
        self.i += 1
        return tok

    def parse(self) -> ExprAST:
        if not self.toks:
            raise ParseError("empty expression", self.text, 0)
        node = self._sum()
        tok = self._peek()
        if tok is not None:
            raise ParseError(f"unexpected {tok[1]!r}", self.text, tok[2])
        return node

    def _sum(self) -> ExprAST:
        node = self._term()
        while True:
            tok = self._peek()
            if tok is None or tok[1] not in "+-":
                return node
            self.i += 1
            rhs = self._term()
            node = BinOp(tok[1], node, rhs)

    def _term(self) -> ExprAST:
        node = self._factor()
        while True:
            tok = self._peek()
            if tok is None or tok[1] != "*":
                return node
            self.i += 1
            node = BinOp("*", node, self._factor())

    def _factor(self) -> ExprAST:
        # unary minus binds looser than ^, so -L^4 means -(L^4)
        tok = self._peek()
        if tok is not None and tok[1] == "-":
            self.i += 1
            return Neg(self._factor())
        node = self._atom()
        tok = self._peek()
        if tok is not None and tok[1] == "^":
            self.i += 1
            kind, value, pos = self._next()
            if kind != "int":
                raise ParseError("exponent must be an integer literal", self.text, pos)
            return BinOp("^", node, Lit(int(value)))
        return node

    def _atom(self) -> ExprAST:
        kind, value, pos = self._next()
        if kind == "int":
            return Lit(int(value))
        if kind == "name":
            return Sym(value)
        if kind == "orbit":
            return OrbitTerm(value[1:-1])
        if value == "(":
            node = self._sum()
            tok = self._peek()
            if tok is None or tok[1] != ")":
                raise ParseError("missing closing parenthesis", self.text, pos)
            self.i += 1
            return node
        raise ParseError(f"unexpected {value!r}", self.text, pos)


def parse_expr(text: str) -> ExprAST:
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# evaluation against an active group


def _resolve_orbit(G: GroupModel, inner: str) -> VirtualGSet:
    if "/" not in inner:
        raise ParseError(f"orbit term [{inner}] must have the form [G/H]")
    gname, label = inner.split("/", 1)
    if gname != G.descriptor.name:
        raise ParseError(
            f"orbit group {gname!r} is not the active group {G.descriptor.name!r}"
        )
    try:
        cls = G.class_of_label(label)
    except (KeyError, ValueError):
        raise ParseError(f"unknown subgroup label {label!r} of {gname}") from None
    return orbit(G, cls)


_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "^": operator.pow}


def _eval(node: ExprAST, symbol):
    """Apply the expression's operators to ints and ring elements; symbol
    resolves a name or an orbit term."""
    if isinstance(node, Lit):
        return node.value
    if isinstance(node, (Sym, OrbitTerm)):
        return symbol(node)
    if isinstance(node, Neg):
        return -_eval(node.arg, symbol)
    return _OPS[node.op](_eval(node.left, symbol), _eval(node.right, symbol))


def _gset_symbol(G: GroupModel, node) -> VirtualGSet:
    if isinstance(node, OrbitTerm):
        return _resolve_orbit(G, node.inner)
    if node.name == "h":
        return orbit(G, 0)
    raise ParseError(f"unknown G-set name {node.name!r}")


def parse_gset(text: str, G: GroupModel) -> VirtualGSet:
    value = _eval(parse_expr(text), partial(_gset_symbol, G))
    if isinstance(value, int):
        return value * VirtualGSet.unit(G)
    return value


@dataclass(frozen=True)
class _Sigma:
    """count * sigma, the real sign line of C2: it adds only to itself and
    scales only by integers; parse_rep realifies an even count."""

    count: int

    def __add__(self, other):
        if isinstance(other, _Sigma):
            return _Sigma(self.count + other.count)
        raise ParseError("sigma terms cannot mix with complex terms")

    __radd__ = __add__

    def __neg__(self):
        return _Sigma(-self.count)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            return _Sigma(self.count * other)
        raise ParseError("sigma can only be scaled by integers")

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if e == 1:
            return self
        raise ParseError("sigma has no tensor powers; scale it instead")

    def realify(self, G: GroupModel, notes: list | None) -> VirtualRep:
        if self.count < 0:
            raise ParseError("negative sigma multiplicity")
        if self.count % 2:
            raise ParseError(
                f"{self.count}*sigma has no complex form; real sign multiplicity must be even"
            )
        if notes is not None:
            notes.append(f"{self.count}*sigma realified to {self.count // 2}*L")
        return (self.count // 2) * standard_rep(G, "L")


def _rep_symbol(G: GroupModel, node):
    if isinstance(node, OrbitTerm):
        raise ParseError("orbit terms belong to G-set expressions, not representations")
    name = node.name
    if name == "sigma":
        if G.descriptor.kind != "cyclic" or G.order != 2:
            raise ParseError("sigma is the real sign line of C2; set --group C2")
        return _Sigma(1)
    if name in ("L", "W", "H", "taut", "reg"):
        try:
            return standard_rep(G, "regular" if name == "reg" else name)
        except ValueError as exc:
            raise ParseError(str(exc)) from None
    # cyclic irreducibles are 1, L and L^a, never a single name token, so
    # only a dicyclic group needs its character table here
    if G.descriptor.kind == "dicyclic":
        names = character_table(G).names
        if name in names:
            return VirtualRep.irreducible(G, names.index(name))
    raise ParseError(f"unknown representation name {name!r}")


def parse_rep(text: str, G: GroupModel, notes: list | None = None) -> VirtualRep:
    value = _eval(parse_expr(text), partial(_rep_symbol, G))
    if isinstance(value, int):
        return value * VirtualRep.trivial(G)
    if isinstance(value, _Sigma):
        return value.realify(G, notes)
    return value


def render_gset(X: VirtualGSet) -> str:
    return repr(X)


def render_rep(V: VirtualRep) -> str:
    return repr(V)


# ---------------------------------------------------------------------------
# JSON rendering: every integer as a decimal string


def _jval(x):
    if isinstance(x, bool) or x is None or isinstance(x, str):
        return x
    if isinstance(x, int):
        return str(x)
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, (list, tuple)):
        return [_jval(v) for v in x]
    if isinstance(x, dict):
        return {k: _jval(v) for k, v in x.items()}
    return repr(x)


def certificate_json(cert: Certificate, gset_text: str, rep_text: str, notes) -> str:
    par = cert.parameters
    doc = {
        "schema": SCHEMA_VERSION,
        "command": "certify",
        "group": cert.group.descriptor.name,
        "inputs": {
            "gset": gset_text,
            "gset_value": render_gset(cert.X),
            "rep": rep_text,
            "rep_value": render_rep(cert.V),
            "ell": _jval(cert.ell),
        },
        "notes": list(notes),
        "parameters": None
        if par is None
        else {
            "p": _jval(par.p),
            "n": _jval(par.n),
            "t": _jval(par.t),
            "c_x": _jval(par.c_x),
            "k": _jval(par.k),
            "c_v": _jval(par.c_v),
            "ell": _jval(par.ell),
            "multiplicity": _jval(cert.multiplicity),
        },
        "hypothesis": None
        if cert.hypothesis is None
        else {"passed": cert.hypothesis.passed, "clause": cert.hypothesis.clause},
        "steps": {
            "im_j_order": None
            if cert.step1 is None
            else {
                "degree": _jval(cert.step1.degree),
                "valuation": _jval(cert.step1.valuation),
                "expected": _jval(cert.step1.expected),
                "claimed_order": _jval(cert.step1.claimed_order),
                "transfer_exponent": _jval(cert.step1.transfer_exponent),
                "passed": cert.step1.passed,
                "detail": cert.step1.detail,
            },
            "adams_divisibility": None
            if cert.step2 is None
            else {
                "lam": _jval(cert.step2.report.lam if cert.step2.report else None),
                "valuation": _jval(
                    cert.step2.report.valuation if cert.step2.report else None
                ),
                "fixedness": cert.step2.fixedness,
                "passed": cert.step2.passed,
                "detail": cert.step2.detail,
            },
            "bracket": None
            if cert.step3 is None
            else {
                "sq1": repr(cert.step3.sq1) if cert.step3.sq1 is not None else None,
                "nonzero": cert.step3.nonzero,
                "coefficient_exponent": _jval(cert.step3.coefficient_exponent),
                "passed": cert.step3.passed,
                "detail": cert.step3.detail,
            },
        },
        "verdict": cert.verdict,
        "warnings": list(cert.warnings),
    }
    return json.dumps(doc, indent=2) + "\n"


def _certificate_text(cert: Certificate, notes) -> str:
    lines = [f"group      {cert.group.descriptor.name}"]
    lines.append(f"X          {render_gset(cert.X)}")
    lines.append(f"V          {render_rep(cert.V)}")
    for note in notes:
        lines.append(f"note       {note}")
    if cert.parameters is not None:
        par = cert.parameters
        lines.append(
            f"parameters p={par.p} n={par.n} t={par.t} c_X={par.c_x} "
            f"k={par.k} c_V={par.c_v} ell={par.ell}"
        )
    if cert.hypothesis is not None:
        word = "pass" if cert.hypothesis.passed else "FAIL"
        lines.append(f"hypothesis {word}: {cert.hypothesis.clause}")
    for label, step in (
        ("step 1", cert.step1),
        ("step 2", cert.step2),
        ("step 3", cert.step3),
    ):
        if step is None:
            continue
        word = "pass" if step.passed else "FAIL"
        lines.append(f"{label}     {word}: {step.detail}")
    for w in cert.warnings:
        lines.append(f"warning    {w}")
    lines.append(f"verdict    {cert.verdict}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# subcommands


def _build_group(name: str) -> GroupModel:
    return build_group(GroupDescriptor.parse(name))


def _cmd_certify(args, out) -> int:
    G = _build_group(args.group)
    # input errors exit 2; certify_self_map would report them as a verdict
    pp = prime_power(G.order)
    if pp is None:
        raise ValueError(f"group order {G.order} is not a prime power")
    if args.ell is not None and gcd(args.ell, pp[0]) != 1:
        raise ValueError(f"ell = {args.ell} is not prime to p = {pp[0]}")
    notes: list = []
    X = parse_gset(args.gset, G)
    V = parse_rep(args.rep, G, notes)
    cert = certify_self_map(G, X, V, ell=args.ell)
    if args.text:
        out.write(_certificate_text(cert, notes))
    else:
        out.write(certificate_json(cert, args.gset, args.rep, notes))
    return 0 if cert.verdict == "certified" else 1


def _cmd_enumerate(args, out) -> int:
    desc = GroupDescriptor.parse(args.group)
    if desc.kind == "dicyclic":
        pp = prime_power(desc.order)
        rows = enumerate_quaternion(pp[1], args.t_max)
        if args.json:
            doc = {
                "schema": SCHEMA_VERSION,
                "command": "enumerate",
                "group": desc.name,
                "rows": [
                    {
                        "t": _jval(r.t),
                        "exponent": _jval(r.exponent),
                        "multiplicity": _jval(r.multiplicity),
                        "k": _jval(r.parameters.k),
                        "passed": r.hypothesis.passed,
                        "clause": r.hypothesis.clause,
                    }
                    for r in rows
                ],
            }
            out.write(json.dumps(doc, indent=2) + "\n")
        else:
            out.write(f"{desc.name}: 2^max(2,t) multiples of the induced H\n")
            out.write("t  exponent  multiplicity  k  hypothesis\n")
            for r in rows:
                word = "pass" if r.hypothesis.passed else "FAIL"
                out.write(
                    f"{r.t}  {r.exponent:8d}  {r.multiplicity:12d}  "
                    f"{r.parameters.k}  {word}\n"
                )
        return 0
    pp = prime_power(desc.order)
    if pp is None:
        raise ParseError(f"group {desc.name} is not a prime power cyclic group")
    p, n = pp
    rows = enumerate_5_1(p, n, mode=args.mode, s_max=args.s_max, d_max=args.d_max)
    if args.json:
        doc = {
            "schema": SCHEMA_VERSION,
            "command": "enumerate",
            "group": desc.name,
            "mode": args.mode,
            "rows": [
                {
                    "s": _jval(r.s),
                    "i": _jval(r.i),
                    "d": _jval(r.d),
                    "t": _jval(r.t),
                    "k": _jval(r.k),
                    "verdict": r.verdict,
                    "thm1": r.thm1,
                    "thm511": r.thm511,
                    "consistent": r.consistent,
                }
                for r in rows
            ],
        }
        out.write(json.dumps(doc, indent=2) + "\n")
    else:
        out.write(f"{desc.name} (p={p}, n={n}), mode {args.mode}\n")
        out.write("s  i  d  t  k  thm1  thm511  agree\n")
        for r in rows:
            out.write(
                f"{r.s}  {r.i}  {r.d}  {r.t}  {r.k}  "
                f"{'pass' if r.thm1 else 'fail'}  "
                f"{'pass' if r.thm511 else 'fail'}    "
                f"{'yes' if r.consistent else 'NO'}\n"
            )
    return 0


def _cmd_sq1(args, out) -> int:
    if args.int is not None:
        value = sq1_int(args.int)
        if args.json:
            doc = {
                "schema": SCHEMA_VERSION,
                "command": "sq1",
                "input": _jval(args.int),
                "value": repr(value),
            }
            out.write(json.dumps(doc, indent=2) + "\n")
        else:
            out.write(f"Sq1({args.int}) = {value!r}\n")
        return 0
    if args.group is None or args.gset is None:
        raise ParseError("sq1 needs either --int N or both --group and --gset")
    G = _build_group(args.group)
    X = parse_gset(args.gset, G)
    value = sq1_gset(X)
    if args.json:
        classes = G.subgroup_classes()
        doc = {
            "schema": SCHEMA_VERSION,
            "command": "sq1",
            "group": G.descriptor.name,
            "gset": render_gset(X),
            "components": {
                cls.label: {
                    "eta": _jval(comp[0]),
                    "weyl": _jval(list(comp[1])),
                }
                for cls, comp in zip(classes, value.components)
            },
        }
        out.write(json.dumps(doc, indent=2) + "\n")
    else:
        out.write(f"Sq1({render_gset(X)}) = {value!r}\n")
    return 0


def _cmd_imj(args, out) -> int:
    if args.degree is not None:
        if args.degree % 4 != 3:
            raise ParseError("image-of-J degrees are 3 mod 4")
        s = (args.degree + 1) // 4
    elif args.s is not None:
        s = args.s
    else:
        raise ParseError("imj needs --degree or --s")
    order = imj_order_oracle(s)
    parts = {p: p**e for p, e in sorted(factorize(order).items())}
    if args.json:
        doc = {
            "schema": SCHEMA_VERSION,
            "command": "imj",
            "degree": _jval(4 * s - 1),
            "s": _jval(s),
            "order": _jval(order),
            "parts": {str(p): _jval(v) for p, v in parts.items()},
        }
        out.write(json.dumps(doc, indent=2) + "\n")
    else:
        out.write(f"degree {4 * s - 1} (s = {s}): order {order}\n")
        for p, v in parts.items():
            out.write(f"  {p}-part {v}\n")
    return 0


def _cmd_theta(args, out) -> int:
    G = _build_group(args.group)
    pp = prime_power(G.order)
    ell = args.ell if args.ell is not None else default_ell(pp[0] if pp else 2)
    V = parse_rep(args.rep, G, [])
    th = theta(ell, V)
    diff = th - VirtualRep.trivial(G)
    reg = VirtualRep.regular(G)
    lam = None
    if G.order > 1:
        q = Fraction(ell ** V.dim() - 1, G.order)
        if tuple(q * c for c in reg.coeffs) == tuple(Fraction(c) for c in diff.coeffs):
            lam = q
    if args.json:
        doc = {
            "schema": SCHEMA_VERSION,
            "command": "theta",
            "group": G.descriptor.name,
            "ell": _jval(ell),
            "rep": render_rep(V),
            "theta": render_rep(th),
            "lam": _jval(lam),
            "valuations": None
            if lam is None or lam == 0
            else {
                str(p): _jval(pvaluation(lam, p))
                for p in sorted(factorize(G.order))
            },
        }
        out.write(json.dumps(doc, indent=2) + "\n")
    else:
        out.write(f"theta_{ell}({render_rep(V)}) over {G.descriptor.name} = {render_rep(th)}\n")
        if lam is not None:
            out.write(f"theta - 1 = {lam} * [regular]\n")
            if lam != 0:
                for p in sorted(factorize(G.order)):
                    out.write(f"  v_{p}({lam}) = {pvaluation(lam, p)}\n")
        else:
            out.write("theta - 1 is not a multiple of the regular representation\n")
    return 0


def _cmd_marks(args, out) -> int:
    G = _build_group(args.group)
    classes = G.subgroup_classes()
    labels = [cls.label for cls in classes]
    if args.gset is not None:
        X = parse_gset(args.gset, G)
        mk = marks(X)
        if args.json:
            doc = {
                "schema": SCHEMA_VERSION,
                "command": "marks",
                "group": G.descriptor.name,
                "gset": render_gset(X),
                "marks": {lab: _jval(v) for lab, v in zip(labels, mk)},
            }
            out.write(json.dumps(doc, indent=2) + "\n")
        else:
            out.write("  ".join(labels) + "\n")
            out.write("  ".join(str(v) for v in mk) + "\n")
        return 0
    rows = [marks(orbit(G, cls)) for cls in classes]
    if args.json:
        doc = {
            "schema": SCHEMA_VERSION,
            "command": "marks",
            "group": G.descriptor.name,
            "columns": labels,
            "rows": {
                f"[{G.descriptor.name}/{lab}]": _jval(list(row))
                for lab, row in zip(labels, rows)
            },
        }
        out.write(json.dumps(doc, indent=2) + "\n")
    else:
        name = G.descriptor.name
        width = max(len(f"[{name}/{lab}]") for lab in labels)
        out.write(" " * (width + 2) + "  ".join(labels) + "\n")
        for lab, row in zip(labels, rows):
            cells = "  ".join(
                str(v).rjust(len(labels[i])) for i, v in enumerate(row)
            )
            out.write(f"[{name}/{lab}]".ljust(width + 2) + cells + "\n")
    return 0


def _cmd_telescope(args, out) -> int:
    js = range(args.n + 1) if args.j is None else [args.j]
    rows = []
    for j in js:
        tel = telescope_fixed_points(args.p, args.n, args.s, args.i, j)
        ku = ku_cofiber_fixed_points(args.p, args.n, args.s, args.i, j)
        rows.append((j, tel, ku))
    if args.json:
        doc = {
            "schema": SCHEMA_VERSION,
            "command": "telescope",
            "p": _jval(args.p),
            "n": _jval(args.n),
            "s": _jval(args.s),
            "i": _jval(args.i),
            "rows": [
                {
                    "j": _jval(j),
                    "telescope": tel.kind,
                    "modulus": _jval(tel.modulus),
                    "ku": ku.kind,
                    "ku_modulus": _jval(ku.modulus),
                    "ku_conductor": _jval(ku.conductor),
                }
                for j, tel, ku in rows
            ],
        }
        out.write(json.dumps(doc, indent=2) + "\n")
    else:
        out.write(f"p={args.p} n={args.n} s={args.s} i={args.i}\n")
        out.write("j  telescope fixed points        KU shadow\n")
        for j, tel, ku in rows:
            if tel.kind == "v1-telescope":
                left = f"v1 telescope mod {tel.modulus}"
                right = f"KU/({ku.modulus})"
            elif tel.kind == "zero":
                left, right = "0", "0"
            else:
                left = "HQ + suspension"
                right = f"KU_Q(zeta_{ku.conductor}) pair"
            out.write(f"{j}  {left:28s}  {right}\n")
    return 0


def _build_argparser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="vone",
        description="exact arithmetic certificates for v1 self maps of G-set cofibers",
    )
    sub = top.add_subparsers(dest="command", required=True)

    c = sub.add_parser("certify", help="run the three-step certificate")
    c.add_argument("--group", required=True)
    c.add_argument("--gset", required=True)
    c.add_argument("--rep", required=True)
    c.add_argument("--ell", type=int, default=None)
    fmt = c.add_mutually_exclusive_group()
    fmt.add_argument("--text", action="store_true")
    fmt.add_argument("--json", action="store_true")

    e = sub.add_parser("enumerate", help="sweep the certified parameter ranges")
    e.add_argument("--group", required=True)
    e.add_argument("--mode", choices=("thm1", "thm511"), default="thm1")
    e.add_argument("--s-max", type=int, default=3, dest="s_max")
    e.add_argument("--d-max", type=int, default=4, dest="d_max")
    e.add_argument("--t-max", type=int, default=6, dest="t_max")
    e.add_argument("--json", action="store_true")

    s = sub.add_parser("sq1", help="first power operation on a G-set or integer")
    s.add_argument("--group")
    s.add_argument("--gset")
    s.add_argument("--int", type=int, default=None)
    s.add_argument("--json", action="store_true")

    i = sub.add_parser("imj", help="image-of-J order and factorization")
    i.add_argument("--degree", type=int, default=None)
    i.add_argument("--s", type=int, default=None)
    i.add_argument("--json", action="store_true")

    t = sub.add_parser("theta", help="multiplicative Bott class of a representation")
    t.add_argument("--group", required=True)
    t.add_argument("--rep", required=True)
    t.add_argument("--ell", type=int, default=None)
    t.add_argument("--json", action="store_true")

    m = sub.add_parser("marks", help="table of marks, or marks of one G-set")
    m.add_argument("--group", required=True)
    m.add_argument("--gset", default=None)
    m.add_argument("--json", action="store_true")

    tl = sub.add_parser("telescope", help="fixed points of the inverted-v1 cofiber")
    tl.add_argument("--p", type=int, required=True)
    tl.add_argument("--n", type=int, required=True)
    tl.add_argument("--s", type=int, default=0)
    tl.add_argument("--i", type=int, required=True)
    tl.add_argument("--j", type=int, default=None)
    tl.add_argument("--json", action="store_true")
    return top


_HANDLERS = {
    "certify": _cmd_certify,
    "enumerate": _cmd_enumerate,
    "sq1": _cmd_sq1,
    "imj": _cmd_imj,
    "theta": _cmd_theta,
    "marks": _cmd_marks,
    "telescope": _cmd_telescope,
}


def run(argv=None, out=None, err=None) -> int:
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    parser = _build_argparser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code if exc.code is not None else 0
        return code if isinstance(code, int) else 2
    try:
        return _HANDLERS[args.command](args, out)
    except (ParseError, ValueError, ArithmeticError) as exc:
        err.write(f"error: {exc}\n")
        return 2


def main(argv=None) -> None:
    sys.exit(run(argv))


if __name__ == "__main__":
    main()
