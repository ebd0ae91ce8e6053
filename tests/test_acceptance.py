"""End-to-end acceptance gate.

One test per numbered criterion. Each runs the full check inside a timed
block and prints a single [PASS]/[FAIL] line with the runtime against the
budget for that criterion (run pytest with -s to see the lines as they go).
"""

from __future__ import annotations

import random
import time
from contextlib import contextmanager

from vone.burnside import VirtualGSet, bmul, from_marks, marks, orbit
from vone.certify import certify_self_map, enumerate_5_1, enumerate_quaternion
from vone.cli import parse_gset, parse_rep
from vone.exactmath import IntMatrix, prime_power, pvaluation, smith_normal_form
from vone.geomfix import phi_bott_valuation, psi_power_fixed, telescope_fixed_points
from vone.groups import GroupDescriptor, build_group
from vone.jtheory import (
    default_ell,
    imj_order_oracle,
    imj_valuation,
    theta,
    verify_adams_bott,
)
from vone.powerop import EtaClass, sq1_gset, sq1_int
from vone.repring import (
    VirtualRep,
    adams,
    annihilator_and_quotient,
    linearize,
    standard_rep,
)


def grp(name: str):
    return build_group(GroupDescriptor.parse(name))


@contextmanager
def budget(num: int, label: str, seconds: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {num}: {label}")
        raise
    took = time.perf_counter() - start
    line = f"criterion {num}: {label} ({took:.2f}s, budget {seconds:.0f}s)"
    if took >= seconds:
        print(f"[FAIL] {line}")
        raise AssertionError(f"over budget: {line}")
    print(f"[PASS] {line}")


# -- 1. orbit products against brute-force decomposition


def _cosets(g, sub):
    seen, out = set(), []
    for x in range(g.order):
        if x not in seen:
            cs = frozenset(g.mul(x, h) for h in sub)
            out.append(cs)
            seen |= cs
    return out


def _brute_product(g, hid: int, kid: int) -> tuple:
    """Coefficients of [G/H]*[G/K] by walking the diagonal action on pairs."""
    classes = g.subgroup_classes()
    A = _cosets(g, classes[hid].representative)
    B = _cosets(g, classes[kid].representative)
    where_a = {x: i for i, cs in enumerate(A) for x in cs}
    where_b = {x: i for i, cs in enumerate(B) for x in cs}
    rep_a = [min(cs) for cs in A]
    rep_b = [min(cs) for cs in B]
    coeffs = [0] * len(classes)
    left = {(i, j) for i in range(len(A)) for j in range(len(B))}
    while left:
        i, j = min(left)
        hit = {
            (where_a[g.mul(x, rep_a[i])], where_b[g.mul(x, rep_b[j])])
            for x in range(g.order)
        }
        stab = frozenset(
            x
            for x in range(g.order)
            if where_a[g.mul(x, rep_a[i])] == i and where_b[g.mul(x, rep_b[j])] == j
        )
        coeffs[g.class_index_of(stab)] += 1
        left -= hit
    return tuple(coeffs)


def test_criterion_1_burnside_products():
    with budget(1, "Burnside products vs brute-force orbit counting", 10.0):
        c2 = grp("C2")
        h = orbit(c2, 0)
        assert bmul(h, h) == h + h
        for name in ("C2", "C4", "C8", "Q8", "Q16"):
            g = grp(name)
            classes = g.subgroup_classes()
            basis = [orbit(g, c.id) for c in classes]
            for hid in range(len(classes)):
                for kid in range(hid, len(classes)):
                    prod = bmul(basis[hid], basis[kid])
                    assert prod.coeffs == _brute_product(g, hid, kid), (name, hid, kid)
                    mh, mk = marks(basis[hid]), marks(basis[kid])
                    assert marks(prod) == tuple(a * b for a, b in zip(mh, mk))


# -- 2. Sq1 of free orbits and of integers


def test_criterion_2_sq1_tables():
    with budget(2, "Sq1 free-orbit table and integer values", 10.0):
        for n in range(2, 17):
            g = grp(f"C{n}")
            out = sq1_gset(orbit(g, 0))
            eta, weyl = out.component("e")
            # sign part: eta exactly when n = 0, 3 (mod 4)
            assert bool(eta) == (n % 4 in (0, 3)), n
            # product-of-elements part: g^(n/2) for even n, trivial for odd
            wd = g.weyl_data(0)
            expected = wd.coords(n // 2) if n % 2 == 0 else wd.zero()
            assert weyl == expected, n
            for cls in g.subgroup_classes()[1:]:
                s, w = out.component(cls)
                assert not s and not any(w), (n, cls.label)
        # integers: the swap on an n-by-n grid has sign (-1)^(n(n-1)/2)
        for n in range(-20, 21):
            assert sq1_int(n) == EtaClass(((n * n - n) // 2) % 2), n
        # additivity with the eta cross term
        for a in range(-20, 21):
            for b in range(-20, 21):
                assert sq1_int(a + b) == sq1_int(a) + sq1_int(b) + EtaClass((a * b) % 2)


# -- 3. image-of-J orders


def test_criterion_3_image_of_j():
    with budget(3, "image-of-J valuations vs Bernoulli denominators", 5.0):
        for s in range(1, 31):
            order = imj_order_oracle(s)
            for p in (2, 3, 5, 7):
                assert imj_valuation(s, p).valuation == pvaluation(order, p), (s, p)
        # the degree families of p-valuation exactly k+1
        for p in (3, 5):
            for k in range(5):
                for c in (1, 2):
                    s = p**k * c * (p - 1) // 2
                    assert imj_valuation(s, p).valuation == k + 1, (p, k, c)
        # at p = 2 the halved family s = 2^(k-2) c carries valuation k+1;
        # the unhalved s = 2^(k-1) c lands one step higher
        for k in range(2, 5):
            for c in (1, 3):
                assert imj_valuation(2 ** (k - 2) * c, 2).valuation == k + 1, (k, c)
                assert imj_valuation(2 ** (k - 1) * c, 2).valuation == k + 2, (k, c)


# -- 4. Bott class divisibility sweep


def test_criterion_4_theta_sweep():
    with budget(4, "Bott class sweep: lambda, valuation, norms", 60.0):
        rng = random.Random(41)
        for p in (2, 3, 5):
            ell = default_ell(p)
            for n in (1, 2, 3):
                g = grp(f"C{p ** n}")
                W = standard_rep(g, "W")
                k_lo = max(3, n) if p == 2 else n - 1
                for k in range(k_lo, k_lo + 3):
                    mult = 2 ** (k - n) if p == 2 else p ** (k - n + 1)
                    r = verify_adams_bott(mult * W, ell)
                    assert (r.p, r.n, r.k) == (p, n, k)
                    assert r.matches and r.valuation == k + 1 - n, (p, n, k)
                    # away from e every value of theta collapses to 1, and
                    # the convolution agrees with the closed-form lambda
                    th = theta(ell, mult * W)
                    vals = th.class_values()
                    assert all(v.rational_value() == 1 for v in vals[1:]), (p, n, k)
                    assert th - VirtualRep.trivial(g) == r.lam * VirtualRep.regular(g)
                # exponentiality on random honest representations
                for _ in range(3):
                    coeffs = len(VirtualRep.zero(g).coeffs)
                    v = VirtualRep(g, [rng.randrange(3) for _ in range(coeffs)])
                    w = VirtualRep(g, [rng.randrange(3) for _ in range(coeffs)])
                    assert theta(ell, v + w) == theta(ell, v) * theta(ell, w)


# -- 5. annihilators and quotients in both rings


def _lattice_factors(pres) -> tuple:
    if not pres.generators:
        return ()
    d = smith_normal_form(IntMatrix.from_columns(pres.generators))[0]
    return tuple(
        d.entries[i][i] for i in range(min(d.rows, d.cols)) if d.entries[i][i]
    )


def test_criterion_5_ideal_structures():
    with budget(5, "ideal structure agreement across the two rings", 30.0):
        for name in ("C2", "C4", "C3"):
            g = grp(name)
            p = prime_power(g.order)[0]
            free = orbit(g, 0)
            cp = orbit(g, next(c.id for c in g.subgroup_classes() if c.order == p))
            shapes = (free, cp, p * free, free + VirtualGSet.unit(g), 2 * cp)
            for X in shapes:
                sa = annihilator_and_quotient(X, side="A")
                sr = annihilator_and_quotient(X, side="RU")
                assert sa.annihilator.free_rank == sr.annihilator_fixed.free_rank
                assert _lattice_factors(sa.annihilator) == _lattice_factors(
                    sr.annihilator_fixed
                ), (name, X)
                assert sa.quotient.free_rank == sr.quotient_fixed.free_rank, (name, X)
                assert sa.quotient.factors == sr.quotient_fixed.factors, (name, X)


# -- 6. certifier fidelity


def test_criterion_6_certifier_fidelity():
    with budget(6, "certifier fidelity on the worked examples", 30.0):
        c2 = grp("C2")
        sigma8 = parse_rep("8*sigma", c2)
        assert certify_self_map(c2, parse_gset("h", c2), sigma8).verdict == "certified"
        cert = certify_self_map(c2, parse_gset("h^4", c2), sigma8)
        assert cert.verdict == "hypothesis-failed" and cert.parameters.t == 4
        # free-orbit family over odd and even primes
        for p, n, s in ((3, 1, 1), (3, 2, 1), (2, 2, 1), (2, 1, 2)):
            g = grp(f"C{p ** n}")
            V = p**n * s * standard_rep(g, "W")
            assert certify_self_map(g, orbit(g, 0), V).verdict == "certified", (p, n, s)
        # C8 cells hold under both the direct and the step-by-step reading
        rows = {(r.s, r.i, r.d): r for r in enumerate_5_1(2, 3)}
        for cell in ((0, 2, 1), (0, 1, 1), (0, 0, 2)):
            assert rows[cell].thm511 and rows[cell].thm1, cell
        # quaternion examples certify at the tabulated multiplicities
        q8 = grp("Q8")
        H = standard_rep(q8, "H")
        qrows = {r.t: r for r in enumerate_quaternion(3, 4)}
        for X, t in ((orbit(q8, 0), 3), (orbit(q8, "C2"), 2), (orbit(q8, "C4b"), 1)):
            assert qrows[t].hypothesis.passed, t
            mult = qrows[t].multiplicity
            assert certify_self_map(q8, X, mult * H).verdict == "certified", t
        # the odd-p disagreement point stays flagged, not silently resolved
        odd = {(r.s, r.i, r.d): r for r in enumerate_5_1(3, 1)}
        flag = odd[(1, 0, 1)]
        assert flag.thm511 and not flag.thm1 and not flag.consistent


# -- 7. geometric fixed point displays


def test_criterion_7_geometric_fixed_points():
    with budget(7, "geometric fixed point displays", 10.0):
        for d in range(1, 21):
            for k in range(1, 21):
                out = psi_power_fixed(d, k)
                if d == 1:
                    assert out.kind == "degree" and out.degree == k
                elif k % d == 0:
                    assert out.kind == "zero"
                else:
                    assert out.kind == "identity"
        for p in (2, 3, 5):
            for n in (1, 2, 3):
                for j in range(1, n + 1):
                    for d in range(3):
                        out = phi_bott_valuation(p, n, j, d)
                        assert out.exponent == p ** (n - j + d)
                        assert out.value() == p ** p ** (n - j + d)
        for p in (2, 3, 5):
            for n in (1, 2, 3):
                for s in (0, 1, 2):
                    for i in range(n + 1):
                        for j in range(n + 1):
                            out = telescope_fixed_points(p, n, s, i, j)
                            if j == 0:
                                assert out.kind == "v1-telescope"
                                assert out.modulus == p ** (s + n - i)
                            elif j <= i:
                                assert out.is_zero()
                            else:
                                assert out.kind == "rational-pair"


# -- 8. randomized property suites


def _rand_gset(g, rng) -> VirtualGSet:
    r = len(g.subgroup_classes())
    return VirtualGSet(g, [rng.randrange(-3, 4) for _ in range(r)])


def _rand_rep(g, rng) -> VirtualRep:
    r = len(VirtualRep.zero(g).coeffs)
    return VirtualRep(g, [rng.randrange(-3, 4) for _ in range(r)])


def _rand_gset_text(g, rng, depth=0) -> str:
    labels = [c.label for c in g.subgroup_classes()]
    pick = rng.randrange(6 if depth < 2 else 4)
    if pick == 0:
        return str(rng.randrange(9))
    if pick == 1:
        return f"[{g.descriptor.name}/{rng.choice(labels)}]"
    if pick == 2:
        return "h" if g.order == 2 else f"{rng.randrange(1, 5)}*[{g.descriptor.name}/{rng.choice(labels)}]"
    if pick == 3:
        inner = f"[{g.descriptor.name}/{rng.choice(labels)}]"
        return f"{inner}^{rng.randrange(4)}"
    a = _rand_gset_text(g, rng, depth + 1)
    b = _rand_gset_text(g, rng, depth + 1)
    if pick == 4:
        return f"({a}{rng.choice('+-')}{b})"
    return f"-({a})" if rng.random() < 0.3 else f"{a}{rng.choice('+-')}{b}"


def _rand_rep_text(g, rng, depth=0) -> str:
    atoms = ["L", "W", "reg"] if g.descriptor.kind == "cyclic" else [
        "H",
        "u1",
        "rho1",
        "reg",
    ]
    pick = rng.randrange(6 if depth < 2 else 4)
    if pick == 0:
        return str(rng.randrange(9))
    if pick == 1:
        return rng.choice(atoms)
    if pick == 2:
        return f"{rng.randrange(1, 5)}*{rng.choice(atoms)}"
    if pick == 3:
        return f"{rng.choice(atoms)}^{rng.randrange(4)}"
    a = _rand_rep_text(g, rng, depth + 1)
    b = _rand_rep_text(g, rng, depth + 1)
    if pick == 4:
        return f"({a}{rng.choice('+-')}{b})"
    return f"-({a})" if rng.random() < 0.3 else f"({a})*({b})"


def test_criterion_8_property_suites():
    with budget(8, "randomized property suites (4 x 1000 cases)", 120.0):
        rng = random.Random(2026)
        pool = [grp(name) for name in ("C4", "C8", "C16", "C9", "C27", "Q8", "Q16")]
        # Adams operations: additive, multiplicative, composition
        for i in range(1000):
            g = pool[i % len(pool)]
            v, w = _rand_rep(g, rng), _rand_rep(g, rng)
            ell = rng.randrange(1, 12)
            assert adams(ell, v + w) == adams(ell, v) + adams(ell, w)
            assert adams(ell, v * w) == adams(ell, v) * adams(ell, w)
            a, b = rng.randrange(1, 8), rng.randrange(1, 8)
            assert adams(a, adams(b, v)) == adams(a * b, v)
        # linearization: character at g equals the mark at <g>
        for i in range(1000):
            g = pool[i % len(pool)]
            x = _rand_gset(g, rng)
            lin = linearize(x)
            ms = marks(x)
            for gg in rng.sample(range(g.order), min(4, g.order)):
                want = ms[g.cyclic_class_of(gg)]
                assert lin.character(gg).rational_value() == want, (g.descriptor.name, gg)
        # marks: ring homomorphism with from_marks as section
        for i in range(1000):
            g = pool[i % len(pool)]
            x, y = _rand_gset(g, rng), _rand_gset(g, rng)
            mx, my = marks(x), marks(y)
            assert marks(bmul(x, y)) == tuple(a * b for a, b in zip(mx, my))
            assert from_marks(g, mx) == x
        # parser: parse, render, reparse lands on the same value
        for i in range(1000):
            g = pool[i % len(pool)]
            if i % 2:
                t = _rand_gset_text(g, rng)
                v = parse_gset(t, g)
                assert parse_gset(repr(v), g) == v, t
            else:
                t = _rand_rep_text(g, rng)
                v = parse_rep(t, g)
                assert parse_rep(repr(v), g) == v, t
