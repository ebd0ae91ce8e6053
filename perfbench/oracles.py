"""Independent checks of every result the benchmark gets back.

Each check takes a corpus item and the plain-data summary of one result and
returns a list of problems (empty when the result is right). The checks use
closed forms (lambda, valuations, the hypothesis clause, cyclic marks, cyclic
convolution, image-of-J orders, the Sq1 of free orbits) and ring identities
evaluated through library calls other than the one being timed. None of
them raises on a wrong result: a wrong result is a problem, not an error.
"""

from __future__ import annotations

from fractions import Fraction

from corpus import coeff_vector, parse_group, prime_power, rep_dim, subgroup_labels


def pval(x, p: int) -> int:
    x = Fraction(x)
    if x == 0:
        raise ValueError("valuation of zero")
    v, num, den = 0, abs(x.numerator), x.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def default_ell(p: int) -> int:
    """3 at p = 2, else the least primitive root mod p^2."""
    if p == 2:
        return 3
    return next(g for g in range(2, p * p) if g % p and _order_mod(g, p * p) == p * (p - 1))


def _order_mod(g: int, m: int) -> int:
    k, x = 1, g % m
    while x != 1:
        x = x * g % m
        k += 1
    return k


def cardinality(name: str, X: dict) -> int:
    order = parse_group(name)[1]
    sizes = dict(subgroup_labels(name))
    return sum(c * (order // sizes[lab]) for lab, c in X.items())


def imj_valuation(s: int, p: int) -> int:
    """v_p of the image-of-J order in degree 4s-1 (Adams)."""
    if p == 2:
        return pval(4 * s, 2) + 1
    return 1 + pval(2 * s, p) if (2 * s) % (p - 1) == 0 else 0


def imj_order(s: int) -> int:
    """Denominator of B_{2s}/4s, prime by prime: p^(1 + v_p(2s)) for every
    prime p with (p - 1) | 2s, and 2^(v_2(4s) + 1) at p = 2."""
    out = 2 ** imj_valuation(s, 2)
    for p in range(3, 2 * s + 2):
        if all(p % q for q in range(2, int(p**0.5) + 1)) and (2 * s) % (p - 1) == 0:
            out *= p ** imj_valuation(s, p)
    return out


def hypothesis(p: int, n: int, t: int, k: int) -> bool:
    if p == 2 and k < 3:
        return False
    if (p, t) == (2, 1) and k > n:
        return True
    return k + 1 >= n + t


def certificate_facts(name: str, X: dict, c: int) -> dict:
    """Everything a certificate for (G, X, V = c * W or c * H) must report
    that follows from closed forms."""
    kind, order = parse_group(name)
    p, n = prime_power(order)
    dim = c * rep_dim(name)
    card = cardinality(name, X)
    t = pval(card, p)
    if p == 2:
        k = pval(dim, 2) + 1
        c_v = dim >> (k - 1)
    else:
        k = pval(dim, p)
        c_v = dim // p**k // (p - 1)
    ell = default_ell(p)
    lam = (ell**dim - 1) // order
    assert (ell**dim - 1) % order == 0
    val = pval(lam, p)
    s = dim // 2
    step1 = dim % 2 == 0 and imj_valuation(s, p) == k + 1 and k + 1 - t >= 0
    step3 = k > n if (p, t) == (2, 1) else True
    divisible = val <= k + 1 - n
    hyp = hypothesis(p, n, t, k)
    if not hyp:
        verdict = {"hypothesis-failed"}
    elif not (step1 and step3 and divisible):
        verdict = {"step-failed"}
    elif kind == "cyclic":
        verdict = {"certified", "step-failed"}  # step 2 also needs X-fixedness
    else:
        verdict = {"certified"}
    return {
        "p": p, "n": n, "t": t, "c_x": Fraction(card, p**t), "k": k, "c_v": c_v,
        "ell": ell, "mult": c, "hyp": hyp, "lam": lam, "val": val,
        "step1": step1, "step3": step3, "verdicts": verdict, "kind": kind,
    }


def check_certificate(item: dict, got: dict) -> list:
    """got: verdict, hyp, params (p, n, t, c_x, k, c_v, ell), mult, lam, val,
    step1, step3, fixed -- as the library or the CLI reports them."""
    f = certificate_facts(item["group"], item["X"], item["c"])
    bad = []
    if got.get("verdict") not in f["verdicts"]:
        bad.append(f"verdict {got.get('verdict')} not in {sorted(f['verdicts'])}")
    want_params = [f["p"], f["n"], f["t"], f["c_x"], f["k"], f["c_v"], f["ell"]]
    if got.get("params") != [str(x) for x in want_params]:
        bad.append(f"parameters {got.get('params')} != {want_params}")
    if got.get("mult") != str(f["mult"]):
        bad.append(f"multiplicity {got.get('mult')} != {f['mult']}")
    if got.get("hyp") is not f["hyp"]:
        bad.append(f"hypothesis {got.get('hyp')} != {f['hyp']}")
    if got.get("lam") != str(f["lam"]):
        bad.append("lambda differs from (ell^dim - 1)/|G|")
    if got.get("val") != str(f["val"]):
        bad.append(f"valuation {got.get('val')} != {f['val']}")
    if got.get("step1") is not f["step1"] or got.get("step3") is not f["step3"]:
        bad.append("step 1 or step 3 disagrees with the closed form")
    if got.get("verdict") == "certified":
        if not f["hyp"] or f["val"] != f["k"] + 1 - f["n"]:
            bad.append("certified without the hypothesis or with valuation != k+1-n")
        if f["kind"] == "cyclic" and got.get("fixed") is not True:
            bad.append("certified without X-fixedness")
    elif got.get("verdict") == "step-failed" and f["kind"] == "cyclic" and f["step1"] \
            and f["step3"] and f["hyp"] and got.get("fixed") is not False:
        bad.append("step-failed although every closed-form step passes and X-fixedness holds")
    return bad


# ---------------------------------------------------------------------------
# Burnside ring over C_m: |(C_m/C_d)^{C_e}| = m/d if e | d, else 0


def cyclic_marks(name: str, X: dict) -> list:
    m = parse_group(name)[1]
    labels = subgroup_labels(name)
    sizes = dict(labels)
    return [
        sum(c * (m // sizes[lab]) for lab, c in X.items() if sizes[lab] % e == 0)
        for _, e in labels
    ]


def as_dict(name: str, coeffs) -> dict:
    return {lab: int(c) for (lab, _), c in zip(subgroup_labels(name), coeffs) if int(c)}


# ---------------------------------------------------------------------------
# library results


class LibraryOracle:
    """Checks for the warm library workloads. It builds objects from the
    summaries through a set-up ``Workload`` so that identities can be
    evaluated, never by calling the operation under test on the same input."""

    def __init__(self, workload):
        self.vone = workload.vone
        self.group, self.gset, self.rep = workload.group, workload.gset, workload.rep

    def check(self, item: dict, got) -> list:
        op = item["op"]
        if op == "certify":
            return check_certificate(item, got)
        return getattr(self, "_" + op)(item, got)

    def _marks(self, item, got):
        name, X = item["group"], item["X"]
        bad = []
        if got[0] != cardinality(name, X):
            bad.append("mark at e is not the cardinality")
        if name[0] == "C":
            if got != cyclic_marks(name, X):
                bad.append("marks differ from the closed form")
        elif list(self.vone.from_marks(self.group(name), got).coeffs) != coeff_vector(name, X):
            bad.append("from_marks(marks(X)) != X")
        return bad

    def _from_marks(self, item, got):
        if got != coeff_vector(item["group"], item["X"]):
            return ["from_marks(marks(X)) != X"]
        return []

    def _bmul(self, item, got):
        name, X, Y = item["group"], item["X"], item["Y"]
        P = as_dict(name, got)
        if cardinality(name, P) != cardinality(name, X) * cardinality(name, Y):
            return ["|X * Y| != |X| |Y|"]
        if name[0] == "C":
            mx, my, mp = cyclic_marks(name, X), cyclic_marks(name, Y), cyclic_marks(name, P)
        else:
            marks = self.vone.marks
            mx, my = marks(self.gset(name, X)), marks(self.gset(name, Y))
            mp = marks(self.gset(name, P))
        if list(mp) != [a * b for a, b in zip(mx, my)]:
            return ["marks of the product are not the products of the marks"]
        return []

    def _rep_mul(self, item, got):
        name, V, W = item["group"], item["V"], item["W"]
        if name[0] == "C":
            m = len(V)
            want = [0] * m
            for i, x in enumerate(V):
                for j, y in enumerate(W):
                    want[(i + j) % m] += x * y
            return [] if [Fraction(c) for c in got] == want else ["convolution differs"]
        vals = [a * b for a, b in zip(self.rep(name, V).class_values(),
                                       self.rep(name, W).class_values())]
        if list(self.rep(name, got).class_values()) != vals:
            return ["character of the product is not the product of the characters"]
        return []

    def _adams(self, item, got):
        name, V, ell = item["group"], item["V"], item["ell"]
        if name[0] == "C":
            m = len(V)
            want = [0] * m
            for a, c in enumerate(V):
                want[a * ell % m] += c
            return [] if [Fraction(c) for c in got] == want else ["psi^ell differs from a -> ell*a"]
        adams, rep = self.vone.adams, self.rep
        bad = []
        result = rep(name, got)
        if result.dim() != rep(name, V).dim():
            bad.append("psi^ell changed the dimension")
        parts = [c * adams(ell, self.vone.VirtualRep.irreducible(self.group(name), i))
                 for i, c in enumerate(V) if c]
        if sum(parts[1:], parts[0]) != result:
            bad.append("psi^ell is not additive")
        if adams(2, result) != adams(2 * ell, rep(name, V)):
            bad.append("psi^2 psi^ell != psi^(2 ell)")
        return bad

    def _linearize(self, item, got):
        name, X = item["group"], item["X"]
        if name[0] == "C":
            m = parse_group(name)[1]
            sizes = dict(subgroup_labels(name))
            want = [sum(c for lab, c in X.items() if a % sizes[lab] == 0) for a in range(m)]
            return [] if [Fraction(c) for c in got] == want else ["permutation character differs"]
        G = self.group(name)
        lin = self.rep(name, got)
        marks = self.vone.marks(self.gset(name, X))
        table = self.vone.character_table(G)
        want = [marks[G.cyclic_class_of(r)] for r in table.reps]
        if [v.rational_value() for v in lin.class_values()] != want:
            return ["character of C[X] is not the mark at the cyclic subgroup"]
        return []

    def _ideal(self, item, got):
        name, X = item["group"], item["X"]
        m = parse_group(name)[1]
        sizes = dict(subgroup_labels(name))
        if got["side"] == "A":
            zeros = sum(1 for v in cyclic_marks(name, X) if v == 0)
        else:
            # character of C[X] at L^j: sum over orbits C_m/C_d of (m/d)[m | j d]
            zeros = sum(
                1 for j in range(m)
                if not sum(c * (m // sizes[lab]) for lab, c in X.items() if (j * sizes[lab]) % m == 0)
            )
        bad = []
        if got["ann_rank"] != zeros or got["quot_free"] != zeros:
            bad.append("kernel rank differs from the number of zero character values")
        if got["quot_gens"] != len(got["quot_factors"]) + got["quot_free"]:
            bad.append("quotient generator count differs from its rank and factors")
        return bad

    def _sq1(self, item, got):
        return sq1_free_orbit(item["group"], got)


def sq1_free_orbit(name: str, got) -> list:
    """Sq1 of the free orbit [G/e] (acceptance criterion 2): the swap on G x G
    permutes the free orbits by x -> x^-1, so the eta part is the sign of
    inversion and the Weyl part is the product of all elements in the
    abelianization; every other component vanishes."""
    kind, order = parse_group(name)
    involutions = 1 if (kind == "quaternion" or order % 2 == 0) else 0
    eta = ((order - 1 - involutions) // 2) % 2
    # the Weyl part is the product of all elements in the abelianization
    weyl = [order // 2] if kind == "cyclic" and order % 2 == 0 else None
    first_eta, first_weyl = got[0]
    bad = []
    if first_eta != eta:
        bad.append(f"eta part {first_eta} != {eta}")
    if (weyl is None and any(first_weyl)) or (weyl is not None and first_weyl != weyl):
        bad.append(f"Weyl part {first_weyl} != {weyl or 'zero'}")
    if any(s or any(w) for s, w in got[1:]):
        bad.append("nonzero component away from the free orbit")
    return bad


def check_ideal_pairs(items: list, summaries: dict) -> dict:
    """The A-side and the Galois-fixed RU-side presentations of one X must
    agree; returns {index: [problems]} for the items of each disagreeing pair."""
    by_pair: dict = {}
    for i, item in enumerate(items):
        if item["op"] == "ideal" and i in summaries:
            by_pair.setdefault(item["pair"], {})[item["side"]] = i
    out = {}
    for sides in by_pair.values():
        if set(sides) != {"A", "RU"}:
            continue
        a, r = summaries[sides["A"]], summaries[sides["RU"]]
        if (a["ann_rank"], a["quot_free"], a["quot_factors"]) != (
            r["ann_fixed_rank"], r["quot_fixed_free"], r["quot_fixed_factors"]
        ):
            for i in sides.values():
                out[i] = ["A side and Galois-fixed RU side disagree"]
    return out


# ---------------------------------------------------------------------------
# CLI results: the math content of --json output and the exit-code class


def _cli_certificate(item: dict, doc: dict, code: int) -> list:
    par = doc.get("parameters") or {}
    steps = doc.get("steps") or {}
    adams = steps.get("adams_divisibility") or {}
    got = {
        "verdict": doc.get("verdict"),
        "hyp": (doc.get("hypothesis") or {}).get("passed"),
        "params": [par.get(k) for k in ("p", "n", "t", "c_x", "k", "c_v", "ell")],
        "mult": par.get("multiplicity"),
        "lam": adams.get("lam"),
        "val": adams.get("valuation"),
        "step1": (steps.get("im_j_order") or {}).get("passed"),
        "step3": (steps.get("bracket") or {}).get("passed"),
        "fixed": adams.get("fixedness"),
    }
    bad = check_certificate(item["expect"], got)
    if code != (0 if got["verdict"] == "certified" else 1):
        bad.append(f"exit code {code} does not match verdict {got['verdict']}")
    return bad


def check_cli(item: dict, code: int, doc) -> list:
    """doc is the parsed --json output (None if stdout was not JSON)."""
    exp = item["expect"]
    kind = item["kind"]
    if kind in ("malformed", "known-defect"):
        return [] if code == exp["exit"] else [f"exit code {code}, expected {exp['exit']}"]
    if code not in (0, 1) or not isinstance(doc, dict):
        return [f"exit code {code} or output not JSON"]
    if kind == "certify":
        return _cli_certificate(item, doc, code)
    if code != 0:
        return [f"exit code {code}, expected 0"]
    return _CLI_CHECKS[kind](exp, doc)


def _ints(values) -> list:
    return [int(v) for v in values]


def _cli_marks_table(exp, doc):
    name = exp["group"]
    labels = subgroup_labels(name)
    order = parse_group(name)[1]
    if doc.get("columns") != [lab for lab, _ in labels]:
        return ["columns are not the subgroup classes"]
    bad = []
    for lab, size in labels:
        row = _ints(doc["rows"][f"[{name}/{lab}]"])
        if name[0] == "C":
            if row != cyclic_marks(name, {lab: 1}):
                bad.append(f"row {lab} differs from the closed form")
        else:
            sizes = [s for _, s in labels]
            if row[0] != order // size or row[-1] != (1 if size == order else 0):
                bad.append(f"row {lab}: mark at e or at G is wrong")
            if any(v for v, s in zip(row, sizes) if size % s):
                bad.append(f"row {lab}: nonzero mark at a subgroup not subconjugate")
    return bad


def _cli_marks_product(exp, doc):
    name = exp["group"]
    mx, my = cyclic_marks(name, exp["X"]), cyclic_marks(name, exp["Y"])
    got = [int(doc["marks"][lab]) for lab, _ in subgroup_labels(name)]
    return [] if got == [a * b for a, b in zip(mx, my)] else ["marks of the product differ"]


def _cli_sq1_int(exp, doc):
    n = exp["n"]
    want = "eta" if ((n * n - n) // 2) % 2 else "0"
    return [] if doc.get("value") == want else [f"Sq1({n}) = {doc.get('value')}, expected {want}"]


def _cli_sq1_free(exp, doc):
    name = exp["group"]
    comps = doc["components"]
    got = [(int(c["eta"]), _ints(c["weyl"])) for c in comps.values()]
    return sq1_free_orbit(name, got)


def _cli_theta(exp, doc):
    name, c = exp["group"], exp["c"]
    kind, order = parse_group(name)
    p, _ = prime_power(order)
    ell, dim = default_ell(p), c * rep_dim(name)
    lam = (ell**dim - 1) // order
    bad = []
    if doc.get("ell") != str(ell) or doc.get("lam") != str(lam):
        bad.append("ell or lambda differs from (ell^dim - 1)/|G|")
    if (doc.get("valuations") or {}).get(str(p)) != str(pval(lam, p)):
        bad.append("valuation of lambda differs")
    return bad


def _cli_enumerate(exp, doc):
    p, n, mode = exp["p"], exp["n"], exp["mode"]
    rows = doc.get("rows", [])
    want = []
    for s in range(exp["s_max"] + 1):
        for i in range(n + 1):
            for d in range(exp["d_max"] + 1):
                t = s + n - i
                k = d + n if p == 2 else d + n - 1
                direct = d >= (max(1, 3 - n, s + n - i - 1) if p == 2 else s + n - i - 1)
                derived = hypothesis(p, n, t, k)
                want.append([str(s), str(i), str(d), str(t), str(k),
                             derived if mode == "thm1" else direct, derived, direct,
                             derived == direct])
    keys = ("s", "i", "d", "t", "k", "verdict", "thm1", "thm511", "consistent")
    got = [[r.get(key) for key in keys] for r in rows]
    return [] if got == want else ["enumeration rows differ from the closed form"]


def _cli_enumerate_q(exp, doc):
    n = exp["n"]
    want = []
    for t in range(exp["t_max"] + 1):
        e = max(2, t)
        want.append([str(t), str(e), str(2**e), str(e + n - 1), hypothesis(2, n, t, e + n - 1)])
    got = [[r.get(k) for k in ("t", "exponent", "multiplicity", "k", "passed")]
           for r in doc.get("rows", [])]
    return [] if got == want else ["quaternion rows differ from the closed form"]


def _cli_imj(exp, doc):
    s = exp["s"]
    order = imj_order(s)
    bad = []
    if doc.get("order") != str(order):
        bad.append(f"image-of-J order {doc.get('order')} != {order}")
    parts = {str(q): str(q ** pval(order, q)) for q in range(2, 2 * s + 2)
             if order % q == 0 and all(q % r for r in range(2, q))}
    if doc.get("parts") != parts:
        bad.append("p-parts differ")
    return bad


def _cli_telescope(exp, doc):
    p, n, i, s = exp["p"], exp["n"], exp["i"], exp["s"]
    want = []
    for j in range(n + 1):
        if j == 0:
            mod = str(p ** (s + n - i))
            want.append([str(j), "v1-telescope", mod, "ku-mod", mod, None])
        elif j <= i:
            want.append([str(j), "zero", None, "zero", None, None])
        else:
            want.append([str(j), "rational-pair", None, "ku-rational-pair", None, str(p**j)])
    keys = ("j", "telescope", "modulus", "ku", "ku_modulus", "ku_conductor")
    got = [[r.get(k) for k in keys] for r in doc.get("rows", [])]
    return [] if got == want else ["telescope rows differ from the three-case table"]


_CLI_CHECKS = {
    "marks-table": _cli_marks_table,
    "marks-product": _cli_marks_product,
    "sq1-int": _cli_sq1_int,
    "sq1-free": _cli_sq1_free,
    "theta": _cli_theta,
    "enumerate": _cli_enumerate,
    "enumerate-q": _cli_enumerate_q,
    "imj": _cli_imj,
    "telescope": _cli_telescope,
}
