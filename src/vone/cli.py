"""Command line front end.

Expressions use the display notation: orbits as [C8/C2], lines as L^a,
the standard fixed point free forms W and H, reg for the regular
representation, and sigma for the real sign line of C2 (an even real
multiple ks realifies to (k/2)L). Precedence is ^ over * over +/-.

Output is a text table by default and JSON with --json; certify emits
JSON unless --text is given. All integers in JSON are decimal strings
so arbitrarily large prime powers survive any consumer. Exit codes:
0 success or certified, 1 negative mathematical verdict, 2 bad input,
including an input over one of the limits in vone.limits. For certify
the setting (group, ell) is checked by certify_self_map alone, which
raises ValueError for a bad one. An input error under --json is a
{"schema", "error"} document on stdout; argparse usage errors stay text
on stderr.
"""

from __future__ import annotations

import argparse
import io
import json
import operator
import re
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from functools import partial

from .burnside import VirtualGSet, marks, orbit
from .certify import Certificate, certify_self_map, enumerate_5_1, enumerate_quaternion
from .exactmath import factorize, prime_power, pvaluation
from .geomfix import _ku_shadow, _telescope_row, telescope_fixed_points
from .groups import GroupDescriptor, GroupModel, build_group, table_of_marks
from .jtheory import _check_adams_bits, default_ell, imj_order_oracle, theta
from .limits import MAX_DIGITS, MAX_EXPONENT, MAX_NESTING, check_rows
from .powerop import sq1_gset, sq1_int
from .record import record
from .repring import VirtualRep, _irreducible_names, standard_rep

__all__ = [
    "ExprAST",
    "ParseError",
    "parse_expr",
    "parse_gset",
    "parse_rep",
    "certificate_json",
    "run",
    "main",
]

SCHEMA_VERSION = "1"

_DIGITS_MESSAGE = f"an integer of more than {MAX_DIGITS} digits exceeds the limit {MAX_DIGITS}"


def _check_printed(base: int, exp: int, den: int = 1) -> None:
    """ValueError when base^exp // den, base and den >= 1, has more than
    `MAX_DIGITS` digits, so that a command refuses a number it could not
    print before it computes anything. As base >= 2^(bit_length(base) - 1)
    and den < 2^bit_length(den), exp (bit_length(base) - 1) at least
    3.33 MAX_DIGITS above bit_length(den) (log2 10 < 3.33) implies the
    exact test and refuses without forming the power; below that bound
    the power is small enough to test exactly."""
    if MAX_DIGITS and (
        100 * (exp * (base.bit_length() - 1) - den.bit_length()) >= 333 * MAX_DIGITS
        or base**exp // den >= 10**MAX_DIGITS
    ):
        raise ValueError(_DIGITS_MESSAGE)


def _json_document(doc: dict) -> str:
    """The one JSON format of every --json output: the schema version first,
    then doc with every integer as a decimal string (`_jval`), indented by
    2, with a trailing newline."""
    return json.dumps(_jval({"schema": SCHEMA_VERSION, **doc}), indent=2) + "\n"


class ParseError(ValueError):
    def __init__(self, message: str, text: str | None = None, pos: int | None = None):
        if text is not None and pos is not None:
            message = f"{message} at position {pos} in {text!r}"
        super().__init__(message)


# ---------------------------------------------------------------------------
# expression grammar


@record
class ExprAST:
    pass


@record
class Lit(ExprAST):
    value: int


@record
class Sym(ExprAST):
    name: str


@record
class OrbitTerm(ExprAST):
    inner: str  # text between the brackets, "C8/C2"


@record
class Neg(ExprAST):
    arg: ExprAST


@record
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
        self.depth = 0  # calls of _factor open at once

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
        # unary minus binds looser than ^, so -L^4 means -(L^4); each
        # parenthesis and unary minus nests one more call of _factor
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError(f"expression nests deeper than the limit {MAX_NESTING}")
        tok = self._peek()
        if tok is not None and tok[1] == "-":
            self.i += 1
            node = Neg(self._factor())
        else:
            node = self._atom()
            tok = self._peek()
            if tok is not None and tok[1] == "^":
                self.i += 1
                kind, value, pos = self._next()
                if kind != "int":
                    raise ParseError("exponent must be an integer literal", self.text, pos)
                node = BinOp("^", node, Lit(int(value)))
        self.depth -= 1
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
    try:
        same = GroupDescriptor.parse(gname) == G.descriptor
    except ValueError:
        same = False
    if not same:
        raise ParseError(
            f"orbit group {gname!r} is not the active group {G.descriptor.name!r}"
        )
    try:
        cls = G.class_of_label(label)
    except (KeyError, ValueError):
        raise ParseError(f"unknown subgroup label {label!r} of {gname}") from None
    return orbit(G, cls)


_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul}


def _eval(node: ExprAST, symbol, power: int = 1):
    """Apply the expression's operators to ints and ring elements; symbol
    resolves a name or an orbit term. power is the product of the
    exponents of the ^ nodes above node. The left spine of a chain
    a + b - c ... is walked in a loop; the parser bounds other nesting."""
    if isinstance(node, Lit):
        return node.value
    if isinstance(node, (Sym, OrbitTerm)):
        return symbol(node)
    if isinstance(node, Neg):
        return -_eval(node.arg, symbol, power)
    if node.op == "^":
        e = node.right.value
        if e > MAX_EXPONENT:
            raise ParseError(f"exponent {e} exceeds the limit {MAX_EXPONENT}")
        power *= max(e, 1)
        if power > MAX_EXPONENT:
            raise ParseError(f"nested exponents multiply to {power}, over the limit {MAX_EXPONENT}")
        return _eval(node.left, symbol, power) ** e
    spine = []
    while isinstance(node, BinOp) and node.op in _OPS:
        spine.append(node)
        node = node.left
    value = _eval(node, symbol, power)
    for op in reversed(spine):
        value = _OPS[op.op](value, _eval(op.right, symbol, power))
    return value


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


@record
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
    # only a dicyclic group's names are looked up here
    if G.descriptor.kind == "dicyclic":
        names = _irreducible_names(G)
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


def _fields(rec) -> dict:
    """A record as JSON: its fields by name, in declaration order, so the
    keys are the record's field names."""
    return {name: getattr(rec, name) for name in rec.__record_fields__}


def _printable_lam(report) -> int | None:
    """lambda of a step-2 report, or None where it would pass
    `MAX_ADAMS_BITS` or `MAX_DIGITS`, decided by the rules that guard theta
    before lambda is formed; the report's valuation is there either way."""
    dim = report.V.dim()
    try:
        _check_adams_bits(report.ell, dim)
        _check_printed(report.ell, dim, report.V.group.order)
    except ValueError:
        return None
    return report.lam


def certificate_json(cert: Certificate, gset_text: str, rep_text: str, notes) -> str:
    par = cert.parameters
    doc = {
        "command": "certify",
        "group": cert.group.descriptor.name,
        "inputs": {
            "gset": gset_text,
            "gset_value": repr(cert.X),
            "rep": rep_text,
            "rep_value": repr(cert.V),
            "ell": cert.ell,
        },
        "notes": list(notes),
        "parameters": None if par is None else {**_fields(par), "multiplicity": cert.multiplicity},
        "hypothesis": None if cert.hypothesis is None else _fields(cert.hypothesis),
        "steps": {
            "im_j_order": None
            if cert.step1 is None
            else {
                "degree": cert.step1.degree,
                "valuation": cert.step1.valuation,
                "expected": cert.step1.expected,
                "claimed_order": cert.step1.claimed_order,
                "transfer_exponent": cert.step1.transfer_exponent,
                "passed": cert.step1.passed,
                "detail": cert.step1.detail,
            },
            "adams_divisibility": None
            if cert.step2 is None
            else {
                "lam": _printable_lam(cert.step2.report),
                "valuation": cert.step2.report.valuation,
                "fixedness": cert.step2.fixedness,
                "passed": cert.step2.passed,
                "detail": cert.step2.detail,
            },
            "bracket": None if cert.step3 is None else _fields(cert.step3),
        },
        "verdict": cert.verdict,
        "warnings": list(cert.warnings),
    }
    return _json_document(doc)


def _certificate_text(cert: Certificate, notes) -> str:
    lines = [f"group      {cert.group.descriptor.name}"]
    lines.append(f"X          {cert.X!r}")
    lines.append(f"V          {cert.V!r}")
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
    pp = prime_power(desc.order)
    if pp is None:
        kind = "quaternion" if desc.kind == "dicyclic" else "prime power cyclic"
        raise ParseError(f"group {desc.name} is not a {kind} group")
    p, n = pp
    if desc.kind == "dicyclic":
        rows = enumerate_quaternion(n, args.t_max)
        if args.json:
            doc = {
                "command": "enumerate",
                "group": desc.name,
                "rows": [
                    {
                        "t": r.t,
                        "exponent": r.exponent,
                        "multiplicity": r.multiplicity,
                        "k": r.parameters.k,
                        "passed": r.hypothesis.passed,
                        "clause": r.hypothesis.clause,
                    }
                    for r in rows
                ],
            }
            out.write(_json_document(doc))
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
    rows = enumerate_5_1(p, n, mode=args.mode, s_max=args.s_max, d_max=args.d_max)
    if args.json:
        doc = {
            "command": "enumerate",
            "group": desc.name,
            "mode": args.mode,
            "rows": [_fields(r) for r in rows],
        }
        out.write(_json_document(doc))
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
    if args.int is not None and (args.group is not None or args.gset is not None):
        raise ParseError("give --int or --group and --gset, not both")
    if args.int is not None:
        value = sq1_int(args.int)
        if args.json:
            doc = {
                "command": "sq1",
                "input": args.int,
                "value": repr(value),
            }
            out.write(_json_document(doc))
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
            "command": "sq1",
            "group": G.descriptor.name,
            "gset": repr(X),
            "components": {
                cls.label: {
                    "eta": comp[0],
                    "weyl": comp[1],
                }
                for cls, comp in zip(classes, value.components)
            },
        }
        out.write(_json_document(doc))
    else:
        out.write(f"Sq1({X!r}) = {value!r}\n")
    return 0


def _cmd_imj(args, out) -> int:
    if args.degree is not None and args.s is not None:
        raise ParseError("give --degree or --s, not both")
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
            "command": "imj",
            "degree": 4 * s - 1,
            "s": s,
            "order": order,
            "parts": {str(p): v for p, v in parts.items()},
        }
        out.write(_json_document(doc))
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
    if ell >= 1 and V.is_honest():
        # theta's coefficients are >= 0 and sum to ell^dim against
        # dimensions totalling at most |G|, so one of them is at least
        # ell^dim // |G|: refuse before convolving when it cannot print
        _check_adams_bits(ell, V.dim())
        _check_printed(ell, V.dim(), G.order)
    th = theta(ell, V)
    diff = th - VirtualRep.trivial(G)
    # lambda is the multiplicity of the trivial representation in theta - 1,
    # provided theta - 1 is lambda * [regular] at all
    lam = None
    if diff.coeffs[0] * VirtualRep.regular(G) == diff:
        lam = diff.coeffs[0]
    if args.json:
        doc = {
            "command": "theta",
            "group": G.descriptor.name,
            "ell": ell,
            "rep": repr(V),
            "theta": repr(th),
            "lam": lam,
            "valuations": None
            if lam is None or lam == 0
            else {
                str(p): pvaluation(lam, p)
                for p in sorted(factorize(G.order))
            },
        }
        out.write(_json_document(doc))
    else:
        out.write(f"theta_{ell}({V!r}) over {G.descriptor.name} = {th!r}\n")
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
    labels = [cls.label for cls in G.subgroup_classes()]
    if args.gset is not None:
        X = parse_gset(args.gset, G)
        mk = marks(X)
        if args.json:
            doc = {
                "command": "marks",
                "group": G.descriptor.name,
                "gset": repr(X),
                "marks": dict(zip(labels, mk)),
            }
            out.write(_json_document(doc))
        else:
            out.write("  ".join(labels) + "\n")
            out.write("  ".join(str(v) for v in mk) + "\n")
        return 0
    rows = table_of_marks(G).entries
    if args.json:
        doc = {
            "command": "marks",
            "group": G.descriptor.name,
            "columns": labels,
            "rows": {
                f"[{G.descriptor.name}/{lab}]": row
                for lab, row in zip(labels, rows)
            },
        }
        out.write(_json_document(doc))
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
    p, n, s, i = args.p, args.n, args.s, args.i
    js = range(n + 1) if args.j is None else [args.j]
    # row j = 0 (the first, or the refused one for n < 0) checks the input,
    # p included, once per request; the largest number printed is the
    # modulus p^(s+n-i) at j = 0 or the conductor p^j at the top j above i;
    # the row count is checked after
    telescope_fixed_points(p, n, s, i, js[0] if js else 0)
    _check_printed(p, max(s + n - i if js[0] == 0 else 0, js[-1] if js[-1] > i else 0))
    check_rows(len(js))
    rows = []
    for j in js:
        tel = _telescope_row(p, n, s, i, j)
        rows.append((j, tel, _ku_shadow(p, j, tel)))
    if args.json:
        doc = {
            "command": "telescope",
            "p": p,
            "n": n,
            "s": s,
            "i": i,
            "rows": [
                {
                    "j": j,
                    "telescope": tel.kind,
                    "modulus": tel.modulus,
                    "ku": ku.kind,
                    "ku_modulus": ku.modulus,
                    "ku_conductor": ku.conductor,
                }
                for j, tel, ku in rows
            ],
        }
        out.write(_json_document(doc))
    else:
        out.write(f"p={p} n={n} s={s} i={i}\n")
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


# --gset and --rep with the abbreviations argparse accepts for them ("--g"
# could also be --group)
_EXPRESSION_OPTIONS = ("--gs", "--gse", "--gset", "--r", "--re", "--rep")


def _attach_expressions(argv: list) -> list:
    """argv with "--gset -X" joined into "--gset=-X", and likewise for
    --rep and the abbreviations of both: an expression may begin with a
    minus sign, and argparse reads a separate value that does as an
    option. "--X" stays an option."""
    out: list = []
    for arg in argv:
        if out and out[-1] in _EXPRESSION_OPTIONS and arg[:1] == "-" and arg[:2] != "--":
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


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
        # argparse writes usage and help to the sys streams
        with redirect_stdout(out), redirect_stderr(err):
            args = parser.parse_args(_attach_expressions(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        code = exc.code if exc.code is not None else 0
        return code if isinstance(code, int) else 2
    # the whole output is rendered before any of it is written, so an
    # error leaves stdout empty
    buf = io.StringIO()
    try:
        code = _HANDLERS[args.command](args, buf)
    except (ParseError, ValueError, ArithmeticError) as exc:
        message = str(exc)
        if "integer string conversion" in message:  # Python's int/str digit limit
            message = _DIGITS_MESSAGE
        if args.json:
            out.write(_json_document({"error": message}))
        else:
            err.write(f"error: {message}\n")
        return 2
    out.write(buf.getvalue())
    return code


def main(argv=None) -> None:
    sys.exit(run(argv))


if __name__ == "__main__":
    main()
