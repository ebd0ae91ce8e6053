"""Seeded input corpora for the four workloads.

Every corpus is a list of plain JSON-able dicts built from ``random.Random(seed)``
and closed-form group facts only; nothing here imports ``vone``. Each corpus
has a fixed shape: the strata (group, input shape, request kind) and their
counts are the same for every seed, and the seed picks the members of each
stratum (subgroup, multiplicity, coefficients, order). The costliest inputs
of each workload are anchors, the same under every seed, so that two seeds
cost about the same.
"""

from __future__ import annotations

import random
from math import gcd

WORKLOADS = ("certify-cyclic", "certify-quaternion", "cli-cold", "ring-ops")


# ---------------------------------------------------------------------------
# closed-form group facts


def parse_group(name: str) -> tuple[str, int]:
    return ("cyclic" if name[0] == "C" else "quaternion"), int(name[1:])


def prime_power(m: int) -> tuple[int, int]:
    p = next(q for q in range(2, m + 1) if m % q == 0)
    n = 0
    while m > 1:
        assert m % p == 0, "corpus groups have prime power order"
        m //= p
        n += 1
    return p, n


def subgroup_labels(name: str) -> list[tuple[str, int]]:
    """(label, order) of each subgroup class, in the library's class order."""
    kind, order = parse_group(name)
    p, n = prime_power(order)
    if kind == "cyclic":
        return [("e" if i == 0 else f"C{p**i}", p**i) for i in range(n + 1)]
    out = [("e", 1), ("C2", 2), ("C4a", 4), ("C4b", 4), ("C4c", 4)]
    for k in range(3, n):
        out += [(f"C{2**k}", 2**k), (f"Q{2**k}a", 2**k), (f"Q{2**k}b", 2**k)]
    return out + [(name, order)]


def rep_dim(name: str) -> int:
    """Dimension of the standard fixed point free form: W = sum of the
    faithful lines of C_m, H = sum of the faithful 2-dimensional irreducibles
    of Q_{4m}."""
    kind, order = parse_group(name)
    if kind == "cyclic":
        return sum(1 for a in range(order) if gcd(a, order) == 1)
    return order // 4


def coeff_vector(name: str, X: dict) -> list:
    """X = {label: coefficient} as a vector in the library's class order."""
    return [X.get(lab, 0) for lab, _ in subgroup_labels(name)]


def gset_expr(name: str, coeffs: dict) -> str:
    """CLI expression for sum(c * [G/H]) with the orbit of the whole group
    written as the integer it is."""
    terms = []
    for label, c in coeffs.items():
        term = str(c) if label == name else f"[{name}/{label}]"
        if label != name and c != 1:
            term = f"{c}*{term}"
        terms.append(term)
    return "+".join(terms)


# ---------------------------------------------------------------------------
# certificates

# Anchors are the same under every seed. They are the eleven costliest
# certificates (about two thirds of a round), so that throughput and the tail
# latency (the 11th largest) do not depend on which members the seed draws;
# the seeded strata below them vary the group, the shape of X and the
# multiplicity. One stratum is large enough to hold the median.
CYCLIC_ANCHORS = (
    ("C128", "orbit", {"e": 1}, 1),
    ("C128", "pmult", {"C2": 2}, 2),
    ("C128", "index-p", {"C64": 1}, 1),
    ("C125", "orbit", {"C5": 1}, 1),
    ("C125", "pmult", {"e": 5}, 5),
    ("C81", "orbit", {"e": 1}, 1),
    ("C81", "orbit", {"C3": 1}, 1),
    ("C81", "orbit", {"C9": 1}, 3),
    ("C81", "pmult", {"e": 3}, 3),
    ("C81", "orbit+unit", {"e": 1, "C81": 1}, 1),
    ("C81", "orbit+unit", {"C3": 1, "C81": 1}, 2),
)
# (group, count): every count is a multiple of the number of shapes
CYCLIC_STRATA = (
    ("C64", 8), ("C32", 20), ("C27", 6), ("C25", 6), ("C16", 4), ("C9", 3), ("C8", 4),
)
CYCLIC_SHAPES = ("orbit", "pmult", "orbit+unit", "index-p")
QUATERNION_ANCHORS = (
    ("Q64", "orbit+unit", {"e": 1, "Q64": 1}, 1),
    ("Q32", "orbit", {"e": 1}, 1),
    ("Q32", "orbit", {"C2": 1}, 2),
    ("Q32", "orbit", {"C4a": 1}, 8),
    ("Q32", "orbit", {"C4b": 1}, 4),
    ("Q32", "orbit", {"C8": 1}, 8),
    ("Q32", "orbit", {"Q8a": 1}, 2),
    ("Q32", "orbit", {"C16": 1}, 1),
    ("Q32", "orbit", {"Q16b": 1}, 4),
    ("Q32", "pmult", {"C4c": 2}, 8),
    ("Q32", "orbit+unit", {"e": 1, "Q32": 1}, 1),
)
QUATERNION_STRATA = (("Q16", 18), ("Q8", 21))
QUATERNION_SHAPES = ("orbit", "pmult", "orbit+unit")
MAX_DIM = 600  # of V in the seeded strata; lambda = (ell^dim - 1)/|G| has ~dim/2 digits


def _multiplicity(rng: random.Random, name: str, odd_only: bool = False) -> int:
    p, _ = prime_power(parse_group(name)[1])
    dim = rep_dim(name)
    while True:
        unit = rng.choice((1, 3) if p != 3 else (1, 2))
        c = unit if odd_only else unit * p ** rng.randrange(0, 4 if p == 2 else 3)
        if c * dim <= MAX_DIM:
            return c


def _certificate(rng: random.Random, name: str, shape: str) -> dict:
    labels = subgroup_labels(name)
    p, n = prime_power(parse_group(name)[1])
    proper = labels[:-1]
    if shape == "index-p":
        # [G/C_{p^(n-1)}] with an odd multiplicity at p = 2: t = 1 and k = n,
        # so the hypothesis holds and the bracket step fails
        X = {proper[-1][0]: 1}
        c = _multiplicity(rng, name, odd_only=True)
    else:
        label = rng.choice(proper)[0]
        if shape == "orbit":
            X = {label: 1}
        elif shape == "pmult":
            X = {label: p ** rng.randrange(1, 3)}
        else:
            X = {label: 1, name: 1}
        c = _multiplicity(rng, name)
    return {"op": "certify", "group": name, "X": X, "c": c, "shape": shape}


def _certify_corpus(rng: random.Random, anchors, strata, shapes_for) -> list:
    items = [{"op": "certify", "group": name, "X": dict(X), "c": c, "shape": shape}
             for name, shape, X, c in anchors]
    for name, count in strata:
        shapes = shapes_for(name)
        for j in range(count):
            items.append(_certificate(rng, name, shapes[j % len(shapes)]))
    rng.shuffle(items)
    return items


def certify_cyclic(rng: random.Random) -> list:
    def shapes(name):
        p, n = prime_power(parse_group(name)[1])
        return CYCLIC_SHAPES if p == 2 and n >= 3 else CYCLIC_SHAPES[:3]

    return _certify_corpus(rng, CYCLIC_ANCHORS, CYCLIC_STRATA, shapes)


def certify_quaternion(rng: random.Random) -> list:
    return _certify_corpus(rng, QUATERNION_ANCHORS, QUATERNION_STRATA,
                           lambda name: QUATERNION_SHAPES)


# ---------------------------------------------------------------------------
# ring operations


def _virtual_gset(rng: random.Random, name: str) -> dict:
    labels = subgroup_labels(name)
    X = {lab: rng.randrange(-3, 4) for lab, _ in labels}
    if not any(X.values()):
        X[labels[0][0]] = 1
    return X


def _ideal_gset(rng: random.Random, name: str) -> dict:
    """One orbit, a p-multiple of one, one plus [G/G], or one plus twice
    another. (A random combination of every orbit makes the integer Smith
    form on the RU side grow its entries: one over C27 took 100 s.)"""
    labels = [lab for lab, _ in subgroup_labels(name)]
    p, _ = prime_power(parse_group(name)[1])
    a, b = rng.sample(labels, 2)
    return rng.choice(({a: 1}, {a: p}, {a: 1, name: 1} if a != name else {a: 2}, {a: 1, b: 2}))


def _rep_coeffs(rng: random.Random, name: str) -> list:
    """A virtual representation: coefficients over the lines L^a of C_m, or
    over the m + 3 irreducibles of Q_{4m}."""
    kind, order = parse_group(name)
    size = order if kind == "cyclic" else order // 4 + 3
    vec = [rng.randrange(-2, 3) if rng.random() < 0.5 else 0 for _ in range(size)]
    vec[rng.randrange(size)] = rng.randrange(1, 3)
    return vec


RING_CYCLIC = ("C8", "C9", "C16", "C25", "C27", "C32", "C64", "C81")
RING_QUATERNION = ("Q8", "Q16")
# the costliest calls, the same under every seed (see CYCLIC_ANCHORS); the
# eleven above 40 ms hold the tail
RING_ANCHORS = (
    {"op": "sq1", "group": "Q64", "X": {"e": 1}},
    {"op": "sq1", "group": "Q32", "X": {"e": 1}},
    {"op": "sq1", "group": "C56", "X": {"e": 1}},
    {"op": "sq1", "group": "C52", "X": {"e": 1}},
    {"op": "sq1", "group": "C48", "X": {"e": 1}},
    {"op": "sq1", "group": "C44", "X": {"e": 1}},
    {"op": "sq1", "group": "C40", "X": {"e": 1}},
    {"op": "sq1", "group": "C36", "X": {"e": 1}},
    {"op": "adams", "group": "Q64", "V": [1, 0, 2, 0, 1, 0, 0, 1, 0, 0, 0, 2, 0, 0, 1, 0, 0, 0, 1], "ell": 3},
    {"op": "adams", "group": "Q64", "V": [0, 2, 0, 1, 0, 1, 1, 0, 0, 2, 1, 0, 0, 1, 0, 0, 1, 0, 0], "ell": 5},
    {"op": "linearize", "group": "Q64", "X": {"e": 1, "C4a": 2, "Q8b": 1, "C16": -1, "Q64": 1}},
    {"op": "linearize", "group": "Q64", "X": {"C2": 3, "C8": 1, "Q16a": -2, "Q32b": 1}},
    {"op": "adams", "group": "Q32", "V": [0, 1, 0, 2, 1, 0, 0, 1, 0, 1, 0], "ell": 5},
    {"op": "linearize", "group": "Q32", "X": {"e": 2, "C2": 1, "Q8a": 1, "Q32": -1}},
    {"op": "ideal", "group": "C32", "X": {"e": 1, "C2": 2}, "side": "A", "pair": "C32:anchor"},
    {"op": "ideal", "group": "C32", "X": {"e": 1, "C2": 2}, "side": "RU", "pair": "C32:anchor"},
)
# (op, groups, count per group)
RING_STRATA = (
    ("bmul", RING_CYCLIC + RING_QUATERNION + ("Q32", "Q64"), 2),
    ("marks", RING_CYCLIC + RING_QUATERNION + ("Q32", "Q64"), 1),
    ("from_marks", RING_CYCLIC + RING_QUATERNION + ("Q32", "Q64"), 1),
    ("rep_mul", RING_CYCLIC + RING_QUATERNION + ("Q32",), 2),
    ("adams", RING_CYCLIC + RING_QUATERNION, 1),
    ("linearize", RING_CYCLIC + RING_QUATERNION, 1),
    ("ideal", ("C8", "C9", "C16", "C25", "C27"), 2),
    ("sq1", ("Q8", "Q16"), 1),
)
# Sq1 costs about |X|^2: one free orbit of C_n per band of n
SQ1_CYCLIC_BANDS = ((2, 8), (8, 16), (16, 24), (24, 32))


def ring_ops(rng: random.Random) -> list:
    items = [dict(item) for item in RING_ANCHORS]
    for op, groups, count in RING_STRATA:
        for name in groups:
            for j in range(count):
                if op in ("bmul",):
                    item = {"X": _virtual_gset(rng, name), "Y": _virtual_gset(rng, name)}
                elif op in ("marks", "from_marks", "linearize"):
                    item = {"X": _virtual_gset(rng, name)}
                elif op == "rep_mul":
                    item = {"V": _rep_coeffs(rng, name), "W": _rep_coeffs(rng, name)}
                elif op == "adams":
                    item = {"V": _rep_coeffs(rng, name), "ell": rng.choice((2, 3, 5, 7))}
                elif op == "ideal":
                    # the pair (A side, RU side) shares X so that the two can be compared
                    X = _ideal_gset(rng, name) if j % 2 == 0 else items[-1]["X"]
                    item = {"X": X, "side": "RU" if j % 2 else "A", "pair": f"{name}:{j // 2}"}
                else:
                    item = {"X": {"e": 1}}  # Sq1 of the free orbit
                items.append({"op": op, "group": name, **item})
    for lo, hi in SQ1_CYCLIC_BANDS:
        order = rng.randrange(lo, hi)
        items.append({"op": "sq1", "group": f"C{order}", "X": {"e": 1}})
    rng.shuffle(items)
    return items


# ---------------------------------------------------------------------------
# cold CLI requests


def _req(kind: str, argv: list, expect: dict | None = None, **extra) -> dict:
    return {"op": "cli", "kind": kind, "argv": argv + ["--json"], "expect": expect or {}, **extra}


def _cli_cert(name: str, X: dict, c: int) -> dict:
    rep = "W" if name[0] == "C" else "H"
    argv = ["certify", "--group", name, "--gset", gset_expr(name, X), "--rep", f"{c}*{rep}"]
    return _req("certify", argv, {"group": name, "X": X, "c": c})


def _cli_certify(rng: random.Random, name: str, shape: str) -> dict:
    item = _certificate(rng, name, shape)
    return _cli_cert(name, item["X"], item["c"])


# the two requests below are input errors that exit 1 at the time of writing
# (certify_self_map turns their ValueError into a step-failed verdict); they
# stay in the corpus and count as failures until the exit code is 2
KNOWN_DEFECTS = (
    (["certify", "--group", "C1", "--gset", "1", "--rep", "1"],
     "group C1 is rejected as a verdict (exit 1), not as an input error"),
    (["certify", "--group", "C4", "--gset", "[C4/e]", "--rep", "8*W", "--ell", "2"],
     "ell = 2 over C4 is rejected as a verdict (exit 1), not as an input error"),
)

MALFORMED = (
    lambda rng: ["certify", "--group", "C8", "--gset", "[C8/C2", "--rep", "4*W"],
    lambda rng: ["marks", "--group", rng.choice(("X9", "D8", "C0x"))],
    lambda rng: ["imj", "--degree", str(4 * rng.randrange(1, 20))],
    lambda rng: ["marks", "--group", "C16", "--gset", f"[C16/C{rng.choice((3, 5, 32))}]"],
)


# the eleven costliest requests, the same under every seed (see
# CYCLIC_ANCHORS); every seeded request below is cheaper
CLI_ANCHORS = (
    ["marks", "--group", "C256"],
    ["marks", "--group", "Q64"],
    ["marks", "--group", "C128"],
    ["marks", "--group", "C81"],
    ["marks", "--group", "Q32"],
    ["theta", "--group", "C128", "--rep", "3*W"],
    ["theta", "--group", "Q32", "--rep", "3*H"],
    ["sq1", "--group", "C64", "--gset", "[C64/e]"],
    ["sq1", "--group", "Q32", "--gset", "[Q32/e]"],
)


def cli_cold(rng: random.Random) -> list:
    items = [_cli_cert("C64", {"C2": 1, "C64": 1}, 2), _cli_cert("Q32", {"C4a": 1}, 4)]
    for argv in CLI_ANCHORS:
        group = argv[2]
        if argv[0] == "marks":
            items.append(_req("marks-table", list(argv), {"group": group}))
        elif argv[0] == "theta":
            items.append(_req("theta", list(argv), {"group": group, "c": 3}))
        else:
            items.append(_req("sq1-free", list(argv), {"group": group}))
    for name, shape in (
        (rng.choice(("C8", "C16", "C9")), "orbit+unit"),
        (rng.choice(("C27", "C25", "C16")), "orbit"),
        (rng.choice(("C16", "C27")), "pmult"),
        (rng.choice(("Q8", "Q16")), rng.choice(QUATERNION_SHAPES)),
    ):
        items.append(_cli_certify(rng, name, shape))
    for name in (rng.choice(("Q8", "Q16")), rng.choice(("C16", "C27", "C32"))):
        items.append(_req("marks-table", ["marks", "--group", name], {"group": name}))
    for name in (rng.choice(("C25", "C32")), rng.choice(("C16", "C27"))):
        labels = subgroup_labels(name)[:-1]
        X = {rng.choice(labels)[0]: rng.randrange(1, 3)}
        Y = {rng.choice(labels)[0]: rng.randrange(1, 3)}
        expr = f"({gset_expr(name, X)})*({gset_expr(name, Y)})"
        items.append(_req("marks-product", ["marks", "--group", name, "--gset", expr],
                          {"group": name, "X": X, "Y": Y}))
    n_int = rng.randrange(-50, 50)
    items.append(_req("sq1-int", ["sq1", "--int", str(n_int)], {"n": n_int}))
    for name in (f"C{rng.randrange(2, 25)}", rng.choice(("Q8", "Q16"))):
        items.append(_req("sq1-free", ["sq1", "--group", name, "--gset", f"[{name}/e]"],
                          {"group": name}))
    for name in (rng.choice(("C9", "C25", "C27")), rng.choice(("Q8", "Q16"))):
        c = _multiplicity(rng, name)
        rep = "W" if name[0] == "C" else "H"
        items.append(_req("theta", ["theta", "--group", name, "--rep", f"{c}*{rep}"],
                          {"group": name, "c": c}))
    p, n = rng.choice(((2, 3), (2, 4), (3, 2), (5, 1), (3, 3)))
    mode = rng.choice(("thm1", "thm511"))
    items.append(_req("enumerate", ["enumerate", "--group", f"C{p**n}", "--mode", mode],
                      {"p": p, "n": n, "mode": mode, "s_max": 3, "d_max": 4}))
    qn = rng.randrange(3, 7)
    items.append(_req("enumerate-q", ["enumerate", "--group", f"Q{2**qn}"], {"n": qn, "t_max": 6}))
    s = rng.randrange(1, 40)
    items.append(_req("imj", ["imj", "--degree", str(4 * s - 1)], {"s": s}))
    p, n = rng.choice((2, 3, 5)), rng.randrange(1, 4)
    i, s = rng.randrange(0, n + 1), rng.randrange(0, 3)
    items.append(_req("telescope", ["telescope", "--p", str(p), "--n", str(n), "--i", str(i),
                                    "--s", str(s)], {"p": p, "n": n, "i": i, "s": s}))
    for make in MALFORMED:
        items.append(_req("malformed", make(rng), {"exit": 2}))
    for argv, why in KNOWN_DEFECTS:
        items.append(_req("known-defect", list(argv), {"exit": 2}, defect=why))
    rng.shuffle(items)
    return items


GENERATORS = {
    "certify-cyclic": certify_cyclic,
    "certify-quaternion": certify_quaternion,
    "cli-cold": cli_cold,
    "ring-ops": ring_ops,
}


def generate(workload: str, seed: int) -> list:
    # string seeding is stable across runs and Python versions
    rng = random.Random(f"{workload}:{seed}")
    return GENERATORS[workload](rng)
