import random
import time
from fractions import Fraction
from math import gcd

import pytest

from vone.burnside import VirtualGSet, marks, orbit
from vone.exactmath import IntMatrix, kernel_basis, p_local_in_image, prime_power, pvaluation
from vone.groups import GroupDescriptor, build_group
from vone.jtheory import (
    _q_line,
    _theta_fixed_mod_X,
    default_ell,
    imj_order_oracle,
    imj_valuation,
    theta,
    verify_adams_bott,
    verify_bott_fixed_mod_X,
)
from vone.repring import VirtualRep, linearize, standard_rep


def cyc(m):
    return build_group(GroupDescriptor.cyclic_of_order(m))


def dic(m):
    return build_group(GroupDescriptor.dicyclic(m))


def test_imj_oracle_small_values():
    assert imj_order_oracle(1) == 24
    assert imj_order_oracle(2) == 240
    assert imj_order_oracle(3) == 504


def test_imj_valuation_examples():
    assert imj_valuation(2, 2).valuation == 4
    assert imj_valuation(1, 3).valuation == 1
    assert imj_valuation(1, 3).degree == 3
    assert imj_valuation(1, 5).valuation == 0


def test_imj_valuation_matches_oracle():
    for s in range(1, 31):
        full = imj_order_oracle(s)
        for p in (2, 3, 5, 7):
            assert imj_valuation(s, p).valuation == pvaluation(full, p), (s, p)


def test_imj_specialization_gives_k_plus_one():
    # s chosen so 4s is twice the dimension p^k c (p-1), c prime to p
    for p in (3, 5):
        for k in range(5):
            for c in (1, 2):
                s = p**k * c * (p - 1) // 2
                assert imj_valuation(s, p).valuation == k + 1
    for k in (2, 3, 4):
        for c in (1, 3):
            s = 2 ** (k - 2) * c
            assert imj_valuation(s, 2).valuation == k + 1


def test_imj_errors():
    with pytest.raises(ValueError):
        imj_valuation(0, 2)
    with pytest.raises(ValueError):
        imj_order_oracle(51)
    assert imj_order_oracle(51, bound=60) > 1


def test_default_ell():
    assert default_ell(2) == 3
    assert default_ell(3) == 2
    assert default_ell(5) == 2
    assert default_ell(7) == 3
    for p in (3, 5, 7, 11):
        ell = default_ell(p)
        order = 1
        x = ell % (p * p)
        while x != 1:
            x = x * ell % (p * p)
            order += 1
        assert order == p * (p - 1)


def test_theta_examples():
    c2, c3 = cyc(2), cyc(3)
    assert theta(3, standard_rep(c2, "L")).coeffs == (2, 1)
    t = theta(2, standard_rep(c3, "W"))
    assert t.coeffs == (2, 1, 1)
    assert [v.rational_value() for v in t.class_values()] == [4, 1, 1]
    t = theta(3, 4 * standard_rep(c2, "L"))
    assert t.coeffs == (41, 40)
    assert [v.rational_value() for v in t.class_values()] == [81, 1]


def test_theta_trivial_ell():
    g = cyc(4)
    V = 2 * standard_rep(g, "W") + VirtualRep.trivial(g)
    assert theta(1, V) == VirtualRep.trivial(g)


def test_theta_rejects_virtual_input():
    g = cyc(4)
    with pytest.raises(ValueError):
        theta(3, standard_rep(g, "L") - VirtualRep.trivial(g))
    with pytest.raises(ValueError):
        theta(0, standard_rep(g, "L"))


def _random_honest(g, rng, width=3):
    n = len(VirtualRep.zero(g).coeffs)
    return VirtualRep(g, [rng.randrange(width) for _ in range(n)])


def test_theta_exponential():
    rng = random.Random(11)
    for g in (cyc(8), cyc(9), dic(2)):
        for _ in range(15):
            v, w = _random_honest(g, rng), _random_honest(g, rng)
            ell = rng.choice((2, 3, 5))
            assert theta(ell, v + w) == theta(ell, v) * theta(ell, w)


def test_theta_dimension_value():
    rng = random.Random(12)
    for g in (cyc(8), dic(3)):
        for _ in range(10):
            v = _random_honest(g, rng)
            ell = rng.choice((2, 3))
            assert theta(ell, v).character(0).rational_value() == ell ** v.dim()


def test_theta_galois_norm_one():
    # fixed point free rational input: all values away from e collapse to 1
    cases = [
        (cyc(4), standard_rep(cyc(4), "W"), 3),
        (cyc(8), 2 * standard_rep(cyc(8), "W"), 3),
        (cyc(9), standard_rep(cyc(9), "W"), 2),
        (dic(2), standard_rep(dic(2), "H"), 3),
        (dic(4), standard_rep(dic(4), "H"), 5),
    ]
    for g, v, ell in cases:
        assert gcd(ell, g.order) == 1
        vals = theta(ell, v).class_values()
        assert all(x.rational_value() == 1 for x in vals[1:])


def test_q_line_matches_term_by_term_sum():
    for m in range(1, 33):
        g = cyc(m)
        for a in range(m):
            for ell in range(3 * m + 1):
                vec = [0] * m
                for t in range(ell):
                    vec[a * t % m] += 1
                assert _q_line(g, a, ell) == VirtualRep(g, vec), (m, a, ell)


def test_theta_large_ell_is_bounded():
    # counting by residue makes a line's theta O(m), not O(ell)
    c4 = cyc(4)
    ell = 10000001
    start = time.perf_counter()
    th = theta(ell, standard_rep(c4, "W"))
    assert time.perf_counter() - start < 0.5
    assert th - VirtualRep.trivial(c4) == (ell**2 - 1) // 4 * VirtualRep.regular(c4)


def _bott_k(dim, p):
    # the k of _check_bott_dimension: dim = p^k c (p-1), or 2^(k-1) c at p = 2
    return pvaluation(dim, 2) + 1 if p == 2 else pvaluation(dim // (p - 1), p)


def test_adams_multiplier_matches_theta_convolution():
    # the closed form lambda = (ell^dim - 1)/|G| against theta computed
    # by convolution (cyclic) and cyclotomic character values (dicyclic)
    cases = []
    for p, top in ((2, 7), (3, 4), (5, 3)):
        for n in range(1, top + 1):
            cases.append((cyc(p**n), "W", p, n))
    for n in range(3, 7):
        cases.append((dic(2 ** (n - 2)), "H", 2, n))
    start = time.perf_counter()
    for g, name, p, n in cases:
        for c in sorted({1, 2, p}):
            V = c * standard_rep(g, name)
            k = _bott_k(V.dim(), p)
            for ell in (default_ell(p), 7):
                r = verify_adams_bott(V, ell, p=p, n=n, k=k)
                assert r.lam * VirtualRep.regular(g) == theta(ell, V) - VirtualRep.trivial(g), (
                    g.descriptor.name, c, ell,
                )
    assert time.perf_counter() - start < 3.0


def test_verify_adams_bott_examples():
    c2 = cyc(2)
    r = verify_adams_bott(4 * standard_rep(c2, "L"), 3, p=2, n=1, k=3)
    assert (r.lam, r.valuation, r.d, r.matches) == (40, 3, 5, True)

    c3 = cyc(3)
    r = verify_adams_bott(standard_rep(c3, "W"), 2, p=3, n=1, k=0)
    assert (r.lam, r.valuation, r.d, r.matches) == (1, 0, 1, True)

    c4 = cyc(4)
    r = verify_adams_bott(2 * standard_rep(c4, "W"), 3, p=2, n=2, k=3)
    assert (r.lam, r.valuation, r.d, r.matches) == (20, 2, 5, True)


def test_verify_adams_bott_quaternion():
    q8 = dic(2)
    r = verify_adams_bott(4 * standard_rep(q8, "H"), 3, p=2, n=3, k=4)
    assert (r.lam, r.valuation, r.matches) == (820, 2, True)
    assert r.d == 205 and r.d.denominator == 1 and r.d % 2 == 1


def test_verify_adams_bott_identity_is_exact():
    c8 = cyc(8)
    r = verify_adams_bott(2 * standard_rep(c8, "W"), 3, p=2, n=3, k=4)
    reg = VirtualRep.regular(c8)
    assert r.theta - VirtualRep.trivial(c8) == r.lam * reg
    assert r.valuation == 2 and r.matches


def test_verify_adams_bott_rejections():
    c4 = cyc(4)
    W = standard_rep(c4, "W")
    with pytest.raises(ValueError):
        verify_adams_bott(W + VirtualRep.trivial(c4), 3, p=2, n=2, k=1)
    with pytest.raises(ValueError):
        verify_adams_bott(standard_rep(c4, "L"), 3, p=2, n=2, k=1)
    with pytest.raises(ValueError):
        verify_adams_bott(W, 3, p=2, n=2, k=3)  # dim 2 is not 4c
    with pytest.raises(ValueError):
        verify_adams_bott(W, 6, p=2, n=2, k=2)  # ell not prime to p
    with pytest.raises(ValueError):
        verify_adams_bott(W, 3, p=2, n=3, k=2)  # |G| != 2^3
    with pytest.raises(ValueError):
        verify_adams_bott(standard_rep(dic(3), "H"), 5, p=2, n=3, k=3)
    for ell in (0, -1):
        with pytest.raises(ValueError):
            verify_adams_bott(W, ell, p=2, n=2, k=2)


def test_verify_adams_bott_small_sweep():
    for p, n in ((2, 1), (2, 2), (3, 1), (3, 2)):
        g = cyc(p**n)
        W = standard_rep(g, "W")
        ell = default_ell(p)
        for extra in range(3):
            k = (n - 1) + extra + (4 - n if p == 2 and n < 4 else 0)
            mult = 2 ** (k - n) if p == 2 else p ** (k - n + 1)
            r = verify_adams_bott(mult * W, ell, p=p, n=n, k=k)
            assert r.matches, (p, n, k)
            assert r.valuation == k + 1 - n


def test_mismatched_valuation_is_flagged_not_hidden():
    # ell = 1 mod p^2 inflates the valuation; report it, don't mask it
    c3 = cyc(3)
    r = verify_adams_bott(standard_rep(c3, "W"), 10, p=3, n=1, k=0)
    assert r.lam == 33
    assert r.valuation == 1
    assert not r.matches


def test_bott_fixed_examples():
    c2 = cyc(2)
    L = standard_rep(c2, "L")
    h = orbit(c2, 0)
    assert verify_bott_fixed_mod_X(4 * L, h, 3)
    assert verify_bott_fixed_mod_X(L, h, 3)
    # X = 1: everything is a multiple of 1, annihilator vanishes
    assert verify_bott_fixed_mod_X(4 * L, orbit(c2, "C2"), 3)


def test_bott_fixed_negative():
    c2, c4 = cyc(2), cyc(4)
    # theta - 1 = 1 + L is not 2-locally divisible by 2
    assert not verify_bott_fixed_mod_X(standard_rep(c2, "L"), 2 * orbit(c2, "C2"), 3)
    assert not verify_bott_fixed_mod_X(standard_rep(c4, "W"), 4 * orbit(c4, "C4"), 3)


def test_bott_fixed_p_local_scaling():
    c2 = cyc(2)
    X = VirtualGSet(c2, [Fraction(1, 3), 0], p_local=2)
    assert verify_bott_fixed_mod_X(4 * standard_rep(c2, "L"), X, 3)


def two_half_fixed_mod_X(diff, X) -> bool:
    """Step 2 in two halves: p-local membership of diff in the ideal of
    the permutation character w of X, then diff * a = 0 for every a in an
    integer basis of the annihilator of w (the kernel of w's circulant)."""
    G = diff.group
    p = prime_power(G.order)[0]
    m = G.order
    w = list(linearize(X).coeffs)
    scale = 1
    for c in w:
        if isinstance(c, Fraction):
            scale = scale * c.denominator // gcd(scale, c.denominator)
    w = [int(c * scale) for c in w]
    M = IntMatrix([[w[(a - b) % m] for b in range(m)] for a in range(m)])
    if not p_local_in_image(M, diff.coeffs, p):
        return False
    zero = VirtualRep.zero(G)
    return all(diff * VirtualRep(G, vec) == zero for vec in kernel_basis(M))


def test_bott_fixed_matches_two_half_check():
    # Membership alone decides: d = w*y gives d*a = y*(w*a) = 0 on the
    # annihilator. Coefficients stay small because the dense integer SNF
    # can take seconds to minutes on some X with large ones, e.g. the
    # zero-cardinality (2, 1, 0, 0, -8, -64) over C32 (ROADMAP item 4).
    rng = random.Random(31)
    outcomes = set()
    for m in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32):
        g = cyc(m)
        p = prime_power(m)[0]
        classes = g.subgroup_classes()
        r = len(classes)
        W = standard_rep(g, "W")
        for c in (1, p):
            diff = theta(default_ell(p), c * W) - VirtualRep.trivial(g)
            for k in range(3):
                if k == 1 and r > 1:
                    # zero cardinality: a([G/H] - p[G/K]) for |K:H| = p
                    vec = [0] * r
                    for _ in range(2):
                        i = rng.randrange(r - 1)
                        a = rng.choice((-2, -1, 1, 2))
                        vec[i] += a
                        vec[i + 1] -= a * p
                    X = VirtualGSet(g, vec)
                    assert marks(X)[0] == 0
                elif k == 2:  # p-local, one denominator prime to p
                    q = 3 if p == 2 else 2
                    X = VirtualGSet(
                        g, [Fraction(rng.randint(-1, 1), rng.choice((1, q))) for _ in range(r)], p
                    )
                else:
                    X = VirtualGSet(g, [rng.randint(-2, 2) for _ in range(r)])
                fixed = _theta_fixed_mod_X(diff, X)
                assert fixed == two_half_fixed_mod_X(diff, X), (m, c, X.coeffs)
                outcomes.add(fixed)
    assert outcomes == {True, False}


def closed_form_fixed(lam: int, X) -> bool:
    """Step 2 for lambda*[regular] from the marks phi_i of X at C_{p^i}
    (proof in `_theta_fixed_mod_X`): fixed <=> phi_0 != 0 and
    v_p(lambda) >= v_p(phi_0) + |S| - n, S = {i >= 1 : phi_i != 0}."""
    g = X.group
    p, n = prime_power(g.order)
    phi = dict(zip((c.order for c in g.subgroup_classes()), marks(X)))
    if phi[1] == 0:
        return False
    s = sum(1 for i in range(1, n + 1) if phi[p**i] != 0)
    return pvaluation(lam, p) >= pvaluation(phi[1], p) + s - n


def test_bott_fixed_matches_closed_form():
    # every C_{p^n} <= 128, one X of each kind up to order 64 and one of a
    # rotating kind above (about 0.2 s per elimination at order 128);
    # lambda straddles the threshold of the closed form
    rng = random.Random(37)
    outcomes = set()
    orders = [m for m in range(2, 129) if prime_power(m) is not None]
    kinds = ("random", "p-local", "zero")
    for idx, m in enumerate(orders):
        g = cyc(m)
        p, n = prime_power(m)
        r = len(g.subgroup_classes())
        reg = VirtualRep.regular(g)
        q = 3 if p == 2 else 2
        for kind in kinds if m <= 64 else kinds[idx % 3:idx % 3 + 1]:
            if kind == "random":
                X = VirtualGSet(g, [rng.choice((0, rng.randint(-10**6, 10**6)))
                                    for _ in range(r)])
            elif kind == "p-local":
                X = VirtualGSet(g, [Fraction(rng.randint(-999, 999), rng.choice((1, q, q * q)))
                                    for _ in range(r)], p)
            else:  # zero cardinality: sums of a([G/H] - p[G/K]), |K:H| = p
                vec = [0] * r
                for _ in range(2):
                    i = rng.randrange(r - 1)
                    a = rng.randint(-10**4, 10**4)
                    vec[i] += a
                    vec[i + 1] -= a * p
                X = VirtualGSet(g, vec)
            phi0, *rest = marks(X)
            if phi0:
                s = sum(1 for v in rest if v != 0)
                t = max(pvaluation(phi0, p) + s - n, 0)
                lams = [p**t * rng.choice((1, -1, q))]
                if t:
                    lams.append(p ** (t - 1) * rng.choice((1, q)))
            else:
                lams = [p ** rng.randint(0, 2 * n) * rng.choice((1, q))]
            for lam in lams:
                fixed = _theta_fixed_mod_X(lam * reg, X)
                assert fixed == closed_form_fixed(lam, X), (m, X.coeffs, lam)
                outcomes.add(fixed)
    assert outcomes == {True, False}


def test_bott_fixed_requirements():
    c2, c4 = cyc(2), cyc(4)
    with pytest.raises(ValueError):
        verify_bott_fixed_mod_X(standard_rep(c2, "L"), orbit(c4, 0), 3)
    q8 = dic(2)
    with pytest.raises(ValueError):
        verify_bott_fixed_mod_X(standard_rep(q8, "H"), orbit(q8, 0), 3)
    with pytest.raises(ValueError):
        verify_bott_fixed_mod_X(standard_rep(c4, "L"), orbit(c4, 0), 3)
