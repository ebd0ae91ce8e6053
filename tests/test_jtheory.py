import random
import time
from fractions import Fraction
from math import gcd, lcm

import pytest

from vone.burnside import VirtualGSet, marks, orbit
from vone.exactmath import (
    CyclotomicElement,
    factorize,
    kernel_basis,
    prime_power,
    pvaluation,
)
from vone.groups import GroupDescriptor, build_group
from vone.jtheory import (
    _adams_valuation,
    _fixed_mod_X,
    _power_counts,
    _theta_convolution,
    bott_shape,
    default_ell,
    imj_order_oracle,
    imj_valuation,
    theta,
    verify_adams_bott,
    verify_bott_fixed_mod_X,
)
from vone.limits import IMJ_ORACLE_BOUND, MAX_ADAMS_BITS, MAX_PRIME
from vone.repring import VirtualRep, _ideal_split, standard_rep

from test_exactmath import _circulant, det, exact_in_image
from test_repring import (
    _honest_dicyclic_samples,
    _integral,
    _torsion_order,
    class_eigenvalues,
    from_class_function,
)


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
    with pytest.raises(ValueError, match=f"oracle bound {IMJ_ORACLE_BOUND} exceeded"):
        imj_order_oracle(IMJ_ORACLE_BOUND + 1)
    assert imj_order_oracle(IMJ_ORACLE_BOUND) > 1


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


def test_default_ell_factors_only_p_minus_one():
    """It trial-divided p(p-1), 36 s at p = 10^9 + 7; the primes of p(p-1)
    are p and those of p - 1."""
    for p in (3, 5, 7, 11, 13, 101, 257, 401, 409, 487, 1093):
        primes = factorize(p * (p - 1))
        least = next(g for g in range(2, p * p) if g % p
                     and all(pow(g, p * (p - 1) // q, p * p) != 1 for q in primes))
        assert default_ell(p) == least, p
    start = time.perf_counter()
    assert default_ell(1000000007) == 5
    assert time.perf_counter() - start < 0.5
    with pytest.raises(ValueError, match=f"exceeds the limit {MAX_PRIME}"):
        default_ell(10**14 + 31)
    with pytest.raises(ValueError, match="p must be a prime"):
        default_ell(9)


def test_bott_shape():
    assert bott_shape(4, 2) == (3, 1)
    assert bott_shape(12, 2) == (3, 3)
    assert bott_shape(2, 3) == (0, 1)
    assert bott_shape(54, 3) == (3, 1)
    assert bott_shape(40, 5) == (1, 2)
    for p in (2, 3, 5, 7):
        for dim in range(1, 200):
            if p > 2 and dim % (p - 1):
                with pytest.raises(ValueError, match="shaped at p="):
                    bott_shape(dim, p)
                continue
            k, c = bott_shape(dim, p)
            assert k == _bott_k(dim, p) and c % p
            assert dim == (2 ** (k - 1) * c if p == 2 else p**k * c * (p - 1))
    with pytest.raises(ValueError, match="positive dimension"):
        bott_shape(0, 2)


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
                assert _power_counts(m, a, ell) == vec, (m, a, ell)


def class_eigenvalue_table(V):
    """The eigenvalue multiplicities at each class, from the class values."""
    values = V.class_values()
    return [class_eigenvalues(V, cls[0], values) for cls in V.group.element_conjugacy_classes()]


def theta_term_by_term(ell, V, eigenvalues=None):
    """theta over a dicyclic group as a class function, decomposed: at each
    class the eigenvalues are the transform of the class values (or given,
    from `class_eigenvalue_table`), and each factor 1 + z + ... + z^(ell-1)
    is summed term by term over range(ell). The library built theta this
    way, with the exponents counted by residue, until it ran on the
    restrictions to <x>, <j> and <xj>."""
    G = V.group
    values = []
    if eigenvalues is None:
        eigenvalues = class_eigenvalue_table(V)
    for cls, mults in zip(G.element_conjugacy_classes(), eigenvalues):
        k = G.element_order(cls[0])
        val = CyclotomicElement.one()
        for j, nj in enumerate(mults):
            fac = CyclotomicElement.from_exponents(k, ((j * t % k, 1) for t in range(ell)))
            val = val * fac**nj
        values.append(val)
    return from_class_function(G, values)


def test_dicyclic_theta_matches_term_by_term_sum():
    rng = random.Random(71)
    for g in (dic(2), dic(4), dic(8), dic(3)):
        r = g.descriptor.m + 3
        reps = [standard_rep(g, "H"), VirtualRep(g, [rng.randint(0, 1) for _ in range(r)])]
        for ell in range(1, 3 * g.order + 1):
            for v in reps:
                assert theta(ell, v) == theta_term_by_term(ell, v), (g.order, ell, v.coeffs)


@pytest.mark.parametrize("m", [5, 6, 7, 9, 12, 16, 27, 32, 64])
def test_dicyclic_theta_matches_the_class_function_oracle(m):
    """theta on the restrictions to <x>, <j> and <xj> against the
    decomposed class function, on the groups that
    `test_dicyclic_theta_matches_term_by_term_sum` leaves out.
    Up to Dic9, m odd and even: every ell in 1..3|G|, for H + 1 and a random
    honest V that is not fixed point free. Above: a random honest V and the
    ell next to 1, |G|, 2|G| and 3|G|, fewer over Dic64, where the oracle
    takes a second per ell."""
    rng = random.Random(7100 + m)
    g = dic(m)
    N = g.order
    samples = _honest_dicyclic_samples(g, rng, 1)
    if m <= 9:
        reps, ells = [standard_rep(g, "H") + 1, samples[1]], range(1, 3 * N + 1)
    elif m < 64:
        reps, ells = samples[1:], (1, 2, 3, N - 1, N + 1, 2 * N + 1, 3 * N)
    else:
        reps, ells = samples[2:], (3, N + 1, 3 * N)
    for v in reps:
        eigenvalues = class_eigenvalue_table(v)
        for ell in ells:
            assert _theta_convolution(ell, v) == theta_term_by_term(ell, v, eigenvalues), (
                m, ell, v.coeffs)


def test_dicyclic_theta_large_ell_is_bounded():
    """Each factor 1 + z + ... + z^(ell-1) was summed over range(ell):
    ell = 1000001 took 1.9 s over Q8, and ell = 100000001 about three
    minutes."""
    q8 = dic(2)
    ell = 100000001
    start = time.perf_counter()
    th = theta(ell, standard_rep(q8, "H"))
    assert time.perf_counter() - start < 0.5
    assert th - VirtualRep.trivial(q8) == (ell**2 - 1) // 8 * VirtualRep.regular(q8)


def test_theta_large_ell_is_bounded():
    # counting by residue makes a line's theta O(m), not O(ell)
    c4 = cyc(4)
    ell = 10000001
    start = time.perf_counter()
    th = theta(ell, standard_rep(c4, "W"))
    assert time.perf_counter() - start < 0.5
    assert th - VirtualRep.trivial(c4) == (ell**2 - 1) // 4 * VirtualRep.regular(c4)


def _fixed_point_free_rational_cases(names):
    """(G, ell, c) for every V = c W over C_m, c H over Q_{2^n}, the fixed
    point free honest V with rational characters: c = 0..3 for ell in 2, 3,
    5, 7, and for the least of them prime to |G| also the largest c with
    dim * bit_length(ell) <= 2^14. An ell that shares a prime with |G|
    takes the convolution."""
    for name in names:
        g = build_group(GroupDescriptor.parse(name))
        one = standard_rep(g, "W" if g.descriptor.kind == "cyclic" else "H")
        least = next(ell for ell in (2, 3, 5, 7) if gcd(ell, g.order) == 1)
        for ell in (2, 3, 5, 7):
            cs = {0, 1, 2, 3}
            if ell == least:
                cs.add(2**14 // (one.dim() * ell.bit_length()))
            for c in sorted(cs):
                yield g, ell, c


@pytest.mark.parametrize("names", [
    [f"C{m}" for m in range(2, 33)], [f"C{m}" for m in range(33, 65)], ["Q8", "Q16", "Q32"],
])
def test_theta_closed_form_matches_convolution(names):
    """theta, read off 1 + lambda [regular] for a fixed point free V with
    rational characters and ell prime to |G| (C_m of any order), equals the
    convolution; for other ell it is the convolution."""
    for g, ell, c in _fixed_point_free_rational_cases(names):
        V = c * standard_rep(g, "W" if g.descriptor.kind == "cyclic" else "H")
        assert theta(ell, V) == _theta_convolution(ell, V), (g.descriptor.name, ell, c)


def test_cli_theta_closed_form_prints_the_convolved_json(monkeypatch):
    """`vone theta --json` prints the same bytes when theta convolves, for
    c = 1..3 and the least ell of each group."""
    import io

    import vone.cli

    def go(argv):
        out, err = io.StringIO(), io.StringIO()
        return vone.cli.run(argv, out, err), out.getvalue(), err.getvalue()

    names = [f"C{m}" for m in range(2, 65)] + ["Q8", "Q16", "Q32"]
    requests = []
    for name in names:
        order = build_group(GroupDescriptor.parse(name)).order
        ell = next(ell for ell in (2, 3, 5, 7) if gcd(ell, order) == 1)
        for c in (1, 2, 3):
            rep = f"{c}*{'W' if name[0] == 'C' else 'H'}"
            requests.append(["theta", "--group", name, "--rep", rep, "--ell", str(ell), "--json"])
    closed = [go(argv) for argv in requests]
    monkeypatch.setattr(vone.cli, "theta", _theta_convolution)
    assert [go(argv) for argv in requests] == closed
    assert {code for code, _, _ in closed} == {0}


def test_cli_theta_of_35w_over_c512_is_fast():
    """It convolved for 29.7 s, to print 1 + lambda [regular]."""
    import io

    from vone.cli import run

    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    assert run(["theta", "--group", "C512", "--rep", "35*W", "--json"], out, err) == 0
    assert time.perf_counter() - start < 3.0
    lam = (3 ** (35 * 256) - 1) // 512
    assert f'"lam": "{lam}",' in out.getvalue()


def _bott_k(dim, p):
    # k with dim = p^k c (p-1), or 2^(k-1) c at p = 2, c prime to p
    return pvaluation(dim, 2) + 1 if p == 2 else pvaluation(dim // (p - 1), p)


def test_adams_multiplier_matches_theta_convolution():
    # the closed form lambda = (ell^dim - 1)/|G| against theta computed
    # by convolution, over Dic_m on the restriction to <x>
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
                r = verify_adams_bott(V, ell)
                assert (r.p, r.n, r.k) == (p, n, k)
                diff = _theta_convolution(ell, V) - VirtualRep.trivial(g)
                assert r.lam * VirtualRep.regular(g) == diff, (g.descriptor.name, c, ell)
    assert time.perf_counter() - start < 3.0


def test_verify_adams_bott_examples():
    c2 = cyc(2)
    r = verify_adams_bott(4 * standard_rep(c2, "L"), 3)
    assert (r.p, r.n, r.k) == (2, 1, 3)
    assert (r.lam, r.valuation, r.matches) == (40, 3, True)

    c3 = cyc(3)
    r = verify_adams_bott(standard_rep(c3, "W"), 2)
    assert (r.p, r.n, r.k) == (3, 1, 0)
    assert (r.lam, r.valuation, r.matches) == (1, 0, True)

    c4 = cyc(4)
    r = verify_adams_bott(2 * standard_rep(c4, "W"), 3)
    assert (r.p, r.n, r.k) == (2, 2, 3)
    assert (r.lam, r.valuation, r.matches) == (20, 2, True)


def test_verify_adams_bott_quaternion():
    q8 = dic(2)
    r = verify_adams_bott(4 * standard_rep(q8, "H"), 3)
    assert (r.p, r.n, r.k) == (2, 3, 4)
    assert (r.lam, r.valuation, r.matches) == (820, 2, True)
    # matches: lambda * 2^(n-k-1) = 820 / 4 is a 2-local unit
    assert r.lam * Fraction(2) ** (r.n - r.k - 1) == 205


def test_verify_adams_bott_identity_is_exact():
    c8 = cyc(8)
    r = verify_adams_bott(2 * standard_rep(c8, "W"), 3)
    reg = VirtualRep.regular(c8)
    assert _theta_convolution(r.ell, r.V) - VirtualRep.trivial(c8) == r.lam * reg
    assert r.valuation == 2 and r.matches


def test_verify_adams_bott_rejections():
    c4 = cyc(4)
    W = standard_rep(c4, "W")
    with pytest.raises(ValueError):
        verify_adams_bott(W + VirtualRep.trivial(c4), 3)
    with pytest.raises(ValueError):
        verify_adams_bott(standard_rep(c4, "L"), 3)
    with pytest.raises(ValueError):
        verify_adams_bott(W, 6)  # ell not prime to p
    with pytest.raises(ValueError):
        verify_adams_bott(standard_rep(dic(3), "H"), 5)  # |G| = 12


@pytest.mark.parametrize("ell", (-3, -1, 0, 1))
def test_verify_adams_bott_refuses_ell_below_two_first(ell):
    """ell < 2 is refused before anything else, whatever V is, in the words
    of `certify_self_map`: not as "ell must be prime to p" at ell = 0, and
    not by pvaluation at ell = 1, where lambda = 0 has no valuation."""
    W = standard_rep(cyc(4), "W")
    message = f"ell = {ell} must be an integer >= 2"
    for V in (W, W + VirtualRep.trivial(W.group), standard_rep(dic(3), "H")):
        with pytest.raises(ValueError) as info:
            verify_adams_bott(V, ell)
        assert str(info.value) == message


def test_verify_adams_bott_small_sweep():
    for p, n in ((2, 1), (2, 2), (3, 1), (3, 2)):
        g = cyc(p**n)
        W = standard_rep(g, "W")
        ell = default_ell(p)
        for extra in range(3):
            k = (n - 1) + extra + (4 - n if p == 2 and n < 4 else 0)
            mult = 2 ** (k - n) if p == 2 else p ** (k - n + 1)
            r = verify_adams_bott(mult * W, ell)
            assert (r.n, r.k) == (n, k) and r.matches, (p, n, k)
            assert r.valuation == k + 1 - n


PRIMES_TO_509 = [p for p in range(2, 510) if all(p % q for q in range(2, int(p**0.5) + 1))]


def _order_mod(ell, p):
    return next(o for o in range(1, p) if pow(ell, o, p) == 1)


def test_adams_valuation_matches_brute_force():
    """The lifting-the-exponent closed form against pvaluation(ell^d - 1)
    at every prime p <= 509: ell = 1 mod p^2, ell = +-1 mod 8, ell = 2p - 1,
    ell = -1 mod p, seeded ell and two of 4000 digits (one = 1 mod p, so
    v_p(ell - 1) is read modulo a doubled p^j), with d <= 400 including
    multiples of the order of ell mod p."""
    rng = random.Random(31)
    huge = 10**3999 + rng.randrange(10**3998)
    cases = 0
    for p in PRIMES_TO_509:
        ells = {1 + p * p * rng.randrange(1, 100), 8 * rng.randrange(1, 100) + 1,
                8 * rng.randrange(1, 100) - 1, 2 * p - 1, p - 1 if p > 3 else 5,
                rng.randrange(2, 10**6), rng.randrange(2, 10**30),
                huge - huge % p + 1, huge - huge % p + rng.randrange(1, p)}
        for ell in ells:
            if ell % p == 0:
                continue
            o = _order_mod(ell, p)
            big = ell.bit_length() > 10_000
            ds = {1, 2, rng.randrange(1, 401 if not big else 41)}
            ds |= {o * m for m in (1, 2, p, rng.randrange(1, 50)) if o * m <= (400 if not big else 40)}
            for d in ds:
                assert _adams_valuation(p, ell, d) == pvaluation(ell**d - 1, p), (p, ell, d)
                cases += 1
    assert cases > 3000


def test_verify_adams_bott_matches_brute_force_lambda():
    """lam, valuation and matches of `verify_adams_bott(c*W or c*H, ell)`
    against lambda = (ell^dim - 1) // |G| formed by brute force, on every
    C_{p^n} and Q_{2^n} of order <= 512, c <= 64, ell in {the default, 5,
    7, 17, 1 + p^2}."""
    rng = random.Random(7)
    groups = [(cyc(p**n), "W", p, n) for p in PRIMES_TO_509
              for n in range(1, 10) if p**n <= 512]
    groups += [(dic(2 ** (n - 2)), "H", 2, n) for n in range(3, 10)]
    for g, name, p, n in groups:
        std = standard_rep(g, name)
        for c in {1, p if p <= 64 else 2, rng.randrange(1, 65)}:
            V = c * std
            k = _bott_k(V.dim(), p)
            for ell in {default_ell(p), 5, 7, 17, 1 + p * p}:
                if ell % p == 0:
                    continue
                lam = (ell ** V.dim() - 1) // g.order
                r = verify_adams_bott(V, ell)
                v = pvaluation(lam, p)
                assert (r.lam, r.valuation, r.matches) == (lam, v, v == k + 1 - n), (
                    g.descriptor.name, c, ell)


def test_mismatched_valuation_is_flagged_not_hidden():
    # ell = 1 mod p^2 inflates the valuation; report it, don't mask it
    c3 = cyc(3)
    r = verify_adams_bott(standard_rep(c3, "W"), 10)
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
    M = _circulant(X)
    if not exact_in_image(M, diff.coeffs, p):
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
        ell = default_ell(p)
        for c in (1, p):
            # the convolved theta - 1 against lambda * [regular]
            diff = _theta_convolution(ell, c * W) - VirtualRep.trivial(g)
            report = verify_adams_bott(c * W, ell)
            assert diff == report.lam * VirtualRep.regular(g), (m, c)
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
                fixed = _fixed_mod_X(report.valuation, X)
                assert fixed == two_half_fixed_mod_X(diff, X), (m, c, X.coeffs)
                assert verify_bott_fixed_mod_X(c * W, X, ell) == fixed, (m, c, X.coeffs)
                outcomes.add(fixed)
    assert outcomes == {True, False}


def closed_form_fixed(lam: int, X) -> bool:
    """Step 2 for lambda*[regular] from the marks phi_i of X at C_{p^i}
    (proof in `_fixed_mod_X`): fixed <=> phi_0 != 0 and
    v_p(lambda) >= v_p(phi_0) + |S| - n, S = {i >= 1 : phi_i != 0}."""
    g = X.group
    p, n = prime_power(g.order)
    phi = dict(zip((c.order for c in g.subgroup_classes()), marks(X)))
    if phi[1] == 0:
        return False
    s = sum(1 for i in range(1, n + 1) if phi[p**i] != 0)
    return pvaluation(lam, p) >= pvaluation(phi[1], p) + s - n


def oracle_circulant_fixed(lam: int, X) -> bool:
    """Step 2 as the N x N exact elimination the k x k one modulo
    p^(delta + s) replaced: lambda * [regular] = (lambda, ..., lambda) in
    the Z_(p)-span of the columns of the circulant of w = linearize(X)."""
    m = X.group.order
    return exact_in_image(_circulant(X), [lam] * m, prime_power(m)[0])


def _step2_gset(rng, g, kind: str) -> VirtualGSet:
    """A random X over C_{p^n} of one kind: "random" (coefficients near
    10^6, some 0) and "p-local" (some coefficients 0), "zero" cardinality
    (phi_0 = 0) or "full" support (every mark nonzero, F = x^N - 1)."""
    p = prime_power(g.order)[0]
    r = len(g.subgroup_classes())
    q = 3 if p == 2 else 2
    if kind == "random":
        vec = [rng.choice((0, rng.randint(-10**6, 10**6))) for _ in range(r)]
    elif kind == "p-local":
        vec = [Fraction(rng.randint(-999, 999), rng.choice((1, q, q * q))) for _ in range(r)]
    elif kind == "zero":  # sums of a([G/H] - p[G/K]), |K:H| = p
        vec = [0] * r
        for _ in range(2):
            i = rng.randrange(r - 1)
            a = rng.randint(-10**4, 10**4)
            vec[i] += a
            vec[i + 1] -= a * p
    else:
        vec = [rng.randint(1, 10**6) for _ in range(r)]
    return VirtualGSet(g, vec, p if kind == "p-local" else None)


def test_bott_fixed_matches_closed_form():
    # every kind of X at every C_{p^n} <= 256, held against the closed form,
    # and up to order 64 against the circulant oracle; v straddles the
    # threshold of the closed form, and both oracles take lambda = p^v * u
    # for units u of both signs, which `_fixed_mod_X` never sees
    rng = random.Random(37)
    outcomes = set()
    kinds = ("random", "p-local", "zero", "full")
    orders = [m for m in range(2, 257) if prime_power(m) is not None]
    seen = set()
    for m in orders:
        g = cyc(m)
        p, n = prime_power(m)
        q = 3 if p == 2 else 2
        for kind in kinds:
            X = _step2_gset(rng, g, kind)
            phi0, *rest = marks(X)
            assert phi0 == 0 if kind == "zero" else kind != "full" or all(marks(X))
            if phi0:
                s = sum(1 for v in rest if v != 0)
                t = max(pvaluation(phi0, p) + s - n, 0)
                vs = [t, t - 1] if t else [t]
            else:
                vs = [rng.randint(0, 2 * n)]
            for v in vs:
                start = time.perf_counter()
                fixed = _fixed_mod_X(v, X)
                took = time.perf_counter() - start
                assert took < 5.0, f"step 2 over C{m} ({kind}) took {took:.2f} s"
                for u in (1, -1, q, -q * q):
                    assert fixed == closed_form_fixed(p**v * u, X), (m, X.coeffs, v, u)
                if m <= 64:
                    lam = p**v * rng.choice((-1, q))
                    assert fixed == oracle_circulant_fixed(lam, X), (m, X.coeffs, lam)
                outcomes.add(fixed)
                seen.add((kind, fixed))
    assert len(orders) == 70 and outcomes == {True, False}
    assert {k for k, f in seen if not f} == set(kinds)


def test_step_2_eliminates_over_deg_f(monkeypatch):
    """`_fixed_mod_X` answers yes off the marks when h(1) =
    den * phi_0 / p^(n - |S+|) is prime to p, which is delta = 0,
    delta = v_p(det). Then it calls neither `_ideal_split` nor
    `p_local_in_image`: the free orbit of C512 (F = x - 1) and
    [C512/C256] (F = x^256 - 1). Otherwise it hands `p_local_in_image` the
    deg F x deg F matrix of multiplication by h in Z[x]/(F), not the
    |G| x |G| circulant, modulo p^(mu + n), mu the largest valuation of a
    nonzero mark: 2 x 2 for 2[C512/C2], delta = 2, modulo 2^18, and
    16 x 16 for 4[C512/C16], with marks 128 at C1-C16, delta = 32, modulo
    2^16."""
    import vone.jtheory as jtheory

    calls, splits = [], []
    inner, split = jtheory.p_local_in_image, jtheory._ideal_split

    def spy(mat, vec, p, modulus):
        calls.append(((mat.rows, mat.cols), modulus, vec))
        return inner(mat, vec, p, modulus)

    def split_spy(X, phi):
        splits.append(X)
        return split(X, phi)

    monkeypatch.setattr(jtheory, "p_local_in_image", spy)
    monkeypatch.setattr(jtheory, "_ideal_split", split_spy)
    g = cyc(512)
    for X, shape, delta, cap in ((orbit(g, 0), None, 0, 18),
                                 (2 * orbit(g, "C2"), (2, 2), 2, 18),
                                 (orbit(g, "C256"), None, 0, 10),
                                 (4 * orbit(g, "C16"), (16, 16), 32, 16)):
        start = time.perf_counter()
        v = pvaluation(3**10 - 1, 2)
        assert _fixed_mod_X(v, X) == closed_form_fixed(3**10 - 1, X)
        assert time.perf_counter() - start < 5.0
        assert delta == pvaluation(_torsion_order(X), 2)
        assert cap == max(pvaluation(c, 2) for c in marks(X) if c) + 9
        if shape is None:
            assert not calls and not splits, X.coeffs
            continue
        [(got, modulus, vec)] = calls
        assert splits == [X] and (got, modulus) == (shape, 2**cap), X.coeffs
        # p^v * T, T = F/(x - 1) with T(0) = 1: integers, and no lambda
        assert len(vec) == shape[0] and all(type(c) is int and c % 2**v == 0 for c in vec)
        assert vec[0] == 2**v, X.coeffs
        calls.clear()
        splits.clear()


def test_marks_only_order_matches_the_split():
    """Step 2 reads whether A is invertible modulo p off the marks: p does
    not divide |det A| exactly when h(1) is prime to p, and for phi_0 != 0
    h(1) = den * phi_0 / p^(n - |S+|), S+ = {i >= 1 : phi_i != 0}, so the
    test is v_p(phi_0) = n - |S+|. Over every C_{p^n} <= 256, on integer,
    p-local, zero-cardinality and full-support X, h(1) is read off the
    split that `_ideal_split` builds (h is column 0 of A), and p | h(1) is
    held against v_p(|det A|) from `_torsion_order`, and against det A
    itself at deg F <= 32."""
    rng = random.Random(41)
    orders = [m for m in range(2, 257) if prime_power(m) is not None]
    kinds = ("random", "p-local", "zero", "full")
    seen = set()
    for m in orders:
        g = cyc(m)
        p, n = prime_power(m)
        for kind in kinds:
            X = _step2_gset(rng, g, kind)
            phi = marks(X)
            w, F, Gc, A = _ideal_split(X, phi)
            if A is None:
                continue
            h1 = sum(A.column(0))
            unit = h1 % p != 0
            assert unit == (pvaluation(_torsion_order(_integral(X)), p) == 0), (m, X.coeffs)
            if A.rows <= 32:
                assert unit == (det(A) % p != 0), (m, X.coeffs)
            if phi[0]:
                splus = sum(1 for c in phi[1:] if c)
                den = lcm(*[Fraction(c).denominator for c in X.coeffs])
                assert sum(w) == den * phi[0] == h1 * p ** (n - splus), (m, X.coeffs)
                assert unit == (pvaluation(phi[0], p) == n - splus), (m, X.coeffs)
            seen.add((kind, unit))
    # every kind of X meets both a unit h(1) and one divisible by p
    assert len(orders) == 70 and len(seen) == 2 * len(kinds), seen


def test_step_2_modulus_kills_the_cokernel(monkeypatch):
    """The modulus `_fixed_mod_X` passes is a multiple of the
    exponent of Z_(p)^k / L_(p), L the column lattice of its matrix: on
    random X over C2-C32 (integer and p-local, often with marks divisible
    by p, where mu + n undercuts delta), membership of random vectors
    modulo it matches the exact elimination of the oracle."""
    import vone.jtheory as jtheory

    calls = []
    inner = jtheory.p_local_in_image

    def spy(mat, vec, p, modulus):
        calls.append((mat, p, modulus))
        return inner(mat, vec, p, modulus)

    monkeypatch.setattr(jtheory, "p_local_in_image", spy)
    rng = random.Random(71)
    outcomes, capped = set(), 0
    for m in (2, 3, 4, 5, 8, 9, 16, 25, 27, 32):
        g = cyc(m)
        p, n = prime_power(m)
        r = len(g.subgroup_classes())
        for _ in range(12):
            vec = [rng.choice((0, p, p * p, -p**3, rng.randint(-30, 30))) for _ in range(r)]
            local = rng.random() < 0.3
            if local:
                vec = [Fraction(c, 3 if p == 2 else 2) for c in vec]
            X = VirtualGSet(g, vec, p if local else None)
            _fixed_mod_X(0, X)
            if not calls:
                continue
            mat, _, modulus = calls.pop()
            k = mat.rows
            capped += modulus < p ** pvaluation(det(mat), p)
            for _ in range(5):
                x = [rng.randint(-9, 9) for _ in range(k)]
                image = [sum(a * b for a, b in zip(row, x)) for row in mat.entries]
                b = list(image)
                b[rng.randrange(k)] += p ** rng.randint(0, 3) * rng.choice((0, 1))
                if rng.random() < 0.5:
                    b = [rng.randint(-50, 50) * p ** rng.randint(0, 4) for _ in range(k)]
                want = exact_in_image(mat, b, p)
                assert inner(mat, b, p, modulus) == want, (m, X.coeffs, b)
                outcomes.add(want)
    assert outcomes == {True, False} and capped > 20


def test_bott_fixed_requirements():
    c2, c4 = cyc(2), cyc(4)
    with pytest.raises(ValueError):
        verify_bott_fixed_mod_X(standard_rep(c2, "L"), orbit(c4, 0), 3)
    q8 = dic(2)
    with pytest.raises(ValueError):
        verify_bott_fixed_mod_X(standard_rep(q8, "H"), orbit(q8, 0), 3)
    with pytest.raises(ValueError):
        verify_bott_fixed_mod_X(standard_rep(c4, "L"), orbit(c4, 0), 3)
    # lambda is read off the Adams-Bott report, which needs ell prime to p
    with pytest.raises(ValueError, match="ell must be prime to p"):
        verify_bott_fixed_mod_X(standard_rep(c2, "L"), orbit(c2, 0), 2)


def test_adams_multiplier_work_is_bounded():
    """Step 2 reads v_2(lambda) by the lifting-the-exponent lemma and never
    forms ell^dim, so a certificate past `MAX_ADAMS_BITS` answers at once,
    where it used to compute for as long as it took and then raised. The
    bound sits where lambda is formed: reading the report's `lam`, and
    theta, raise at once past it."""
    from vone.certify import certify_self_map

    c4 = cyc(4)
    W = standard_rep(c4, "W")  # dim 2, ell = 3 has 2 bits
    c = MAX_ADAMS_BITS // 4
    start = time.perf_counter()
    cert = certify_self_map(c4, orbit(c4, 0), c * W)
    took = time.perf_counter() - start
    assert cert.step2.report.valuation == pvaluation(3 ** (2 * c) - 1, 2) - 2
    assert took < 0.05, f"a certificate at the bound took {took:.3f} s"
    for V in ((c + 1) * W, 16000000 * W):
        start = time.perf_counter()
        cert = certify_self_map(c4, orbit(c4, 0), V)
        took = time.perf_counter() - start
        # LTE at p = 2, ell = 3, even d: v_2(3^d - 1) = 1 + 2 + v_2(d) - 1
        assert cert.step2.report.valuation == 2 + pvaluation(V.dim(), 2) - 2
        assert took < 0.05, f"a certificate at {V.dim()} dimensions took {took:.3f} s"
        start = time.perf_counter()
        with pytest.raises(ValueError, match=f"exceeds the limit {MAX_ADAMS_BITS}"):
            cert.step2.report.lam
        with pytest.raises(ValueError, match=f"exceeds the limit {MAX_ADAMS_BITS}"):
            theta(3, V)
        assert time.perf_counter() - start < 0.05


def test_adams_multiplier_of_c_2_16_fits_the_bound(monkeypatch):
    import vone.groups as groups

    monkeypatch.setattr(groups, "DEFAULT_ORDER_BOUND", 2**16)
    g = groups.GroupModel(GroupDescriptor.cyclic(2, 16))
    r = verify_adams_bott(8 * standard_rep(g, "W"), 3)
    assert (r.p, r.n, r.k) == (2, 16, 19)
    assert r.matches and r.valuation == 4
