"""Burnside ring arithmetic against brute-force G-set decomposition."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from vone.burnside import (
    VirtualGSet,
    bmul,
    cardinality,
    from_marks,
    marks,
    orbit,
)
from vone.groups import GroupDescriptor, build_group, table_of_marks


def G(name: str):
    return build_group(GroupDescriptor.parse(name))


def _cosets(g, H):
    seen, out = set(), []
    for x in range(g.order):
        if x not in seen:
            cs = frozenset(g.mul(x, h) for h in H)
            out.append(cs)
            seen |= cs
    return out


def brute_orbit_product(g, hid: int, kid: int) -> list:
    """Decompose (G/H) x (G/K) under the diagonal action, as coefficients."""
    classes = g.subgroup_classes()
    A = _cosets(g, classes[hid].representative)
    B = _cosets(g, classes[kid].representative)
    points = [(a, b) for a in A for b in B]
    coeffs = [0] * len(classes)
    left = set(range(len(points)))
    index = {pt: i for i, pt in enumerate(points)}
    while left:
        i = min(left)
        a, b = points[i]
        orbit_ids = {i}
        work = [points[i]]
        while work:
            pa, pb = work.pop()
            for x in range(g.order):
                img = (
                    frozenset(g.mul(x, q) for q in pa),
                    frozenset(g.mul(x, q) for q in pb),
                )
                j = index[img]
                if j not in orbit_ids:
                    orbit_ids.add(j)
                    work.append(img)
        stab = frozenset(
            x
            for x in range(g.order)
            if frozenset(g.mul(x, q) for q in a) == a
            and frozenset(g.mul(x, q) for q in b) == b
        )
        coeffs[g.class_index_of(stab)] += 1
        left -= orbit_ids
    return coeffs


def test_marks_basic() -> None:
    c4 = G("C4")
    assert marks(orbit(c4, "C2")) == (2, 2, 0)
    assert marks(2 * orbit(c4, "e") + orbit(c4, "C4")) == (9, 1, 1)
    c2 = G("C2")
    assert marks(orbit(c2, "e")) == (2, 0)


def test_h_squared_is_two_h() -> None:
    c2 = G("C2")
    h = orbit(c2, "e")
    assert bmul(h, h) == 2 * h


def test_unit_and_power() -> None:
    c4 = G("C4")
    one = VirtualGSet.unit(c4)
    x = 2 * orbit(c4, "C2") - 3 * orbit(c4, "e")
    assert bmul(one, x) == x
    assert x**0 == one
    assert x**2 == bmul(x, x)
    c2 = G("C2")
    h = orbit(c2, "e")
    assert h**3 == 4 * h


def test_c4_orbit_product() -> None:
    c4 = G("C4")
    hc2 = orbit(c4, "C2")
    assert bmul(hc2, hc2) == 2 * hc2


@pytest.mark.parametrize("name", ["C2", "C4", "C8", "Q8", "Q16"])
def test_products_match_brute_force(name: str) -> None:
    g = G(name)
    classes = g.subgroup_classes()
    for hid in range(len(classes)):
        for kid in range(len(classes)):
            expect = brute_orbit_product(g, hid, kid)
            got = bmul(orbit(g, hid), orbit(g, kid))
            assert list(got.coeffs) == expect, (name, hid, kid)


def test_marks_ring_homomorphism_random() -> None:
    rng = random.Random(20)
    for name in ("C8", "Q8"):
        g = G(name)
        r = len(g.subgroup_classes())
        for _ in range(150):
            x = VirtualGSet(g, [rng.randint(-4, 4) for _ in range(r)])
            y = VirtualGSet(g, [rng.randint(-4, 4) for _ in range(r)])
            mx, my = marks(x), marks(y)
            assert marks(x + y) == tuple(a + b for a, b in zip(mx, my))
            assert marks(bmul(x, y)) == tuple(a * b for a, b in zip(mx, my))


def test_from_marks_roundtrip_random() -> None:
    rng = random.Random(21)
    for name in ("C4", "Q16"):
        g = G(name)
        r = len(g.subgroup_classes())
        for _ in range(100):
            x = VirtualGSet(g, [rng.randint(-9, 9) for _ in range(r)])
            assert from_marks(g, marks(x)) == x


def test_from_marks_rejects_non_integral() -> None:
    c2 = G("C2")
    assert from_marks(c2, (2, 0)) == orbit(c2, "e")
    assert from_marks(c2, (1, 1)) == orbit(c2, "C2")
    with pytest.raises(ValueError):
        from_marks(c2, (1, 0))
    # but 2-locally (1, 0) is still not realizable: 1/2 is not 2-local
    with pytest.raises(ValueError):
        from_marks(c2, (1, 0), p_local=2)
    got = from_marks(c2, (Fraction(3, 5), Fraction(1, 5)), p_local=2)
    assert got.coeffs == (Fraction(1, 5), Fraction(1, 5))


def test_cardinality_decomposition() -> None:
    c2 = G("C2")
    h = orbit(c2, "e")
    d = cardinality(h, 2)
    assert (d.p, d.t, d.c) == (2, 1, 1)
    d = cardinality(12 * h, 2)
    assert (d.t, d.c) == (3, 3)
    with pytest.raises(ValueError):
        cardinality(h - h, 2)


def test_cardinality_of_scaled_orbits() -> None:
    # p^s [C_{p^n}/C_{p^i}] has cardinality p^(s+n-i)
    for p, n in ((2, 3), (3, 2)):
        g = G(f"C{p**n}")
        for i in range(n + 1):
            for s in range(3):
                x = p**s * orbit(g, f"C{p**i}" if i else "e")
                d = cardinality(x, p)
                assert (d.t, d.c) == (s + n - i, 1)


def test_p_local_flag_discipline() -> None:
    c2 = G("C2")
    x = VirtualGSet(c2, [Fraction(1, 3), 2], p_local=2)
    assert x.p_local == 2
    y = x + orbit(c2, "e")
    assert y.p_local == 2
    z = bmul(x, orbit(c2, "C2"))
    assert z.p_local == 2
    with pytest.raises(ValueError):
        VirtualGSet(c2, [Fraction(1, 2), 0], p_local=2)
    with pytest.raises(ValueError):
        VirtualGSet(c2, [Fraction(1, 2), 0])
    with pytest.raises(ValueError):
        x + VirtualGSet(c2, [Fraction(1, 2), 0], p_local=3)


def test_genuine_flag() -> None:
    c4 = G("C4")
    assert orbit(c4, "C2").is_genuine()
    assert not (-orbit(c4, "C2")).is_genuine()
    assert (orbit(c4, "e") + orbit(c4, "C4")).is_genuine()


def test_marks_table_is_not_shared_by_a_reused_model_id():
    # A table cached by id(G) outlived its model: once a freed C4 model's id
    # was reused by a new C9 model, marks of [C9/e] came out as (4, 0, 0).
    import gc

    from vone.groups import GroupModel

    for _ in range(200):
        c4 = GroupModel(GroupDescriptor.parse("C4"))
        assert marks(orbit(c4, 0)) == (4, 0, 0)
        del c4
        gc.collect()
        c9 = GroupModel(GroupDescriptor.parse("C9"))
        assert marks(orbit(c9, 0)) == (9, 0, 0)
        del c9


# ---------------------------------------------------------------------------
# integer back substitution against the all-Fraction one


def oracle_marks(X):
    """Every entry of the table of marks, zero or not, summed per column."""
    tom = table_of_marks(X.group).entries
    r = len(tom)
    return tuple(sum(X.coeffs[h] * tom[h][k] for h in range(r)) for k in range(r))


def oracle_from_marks(group, values, p_local=None):
    """Back substitution with every value and coefficient a Fraction."""
    tom = table_of_marks(group).entries
    r = len(tom)
    vals = [Fraction(v) for v in values]
    if len(vals) != r:
        raise ValueError("mark vector length mismatch")
    coeffs = [Fraction(0)] * r
    for k in range(r - 1, -1, -1):
        acc = vals[k]
        for h in range(k + 1, r):
            acc -= coeffs[h] * tom[h][k]
        coeffs[k] = acc / tom[k][k]
    try:
        return VirtualGSet(group, coeffs, p_local)
    except ValueError as exc:
        raise ValueError(f"mark vector is not realized integrally: {exc}") from None


def _same_result(group, values, p_local=None):
    """from_marks and the oracle agree, or both raise the same message;
    True when the vector is realized."""
    try:
        want = oracle_from_marks(group, values, p_local)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            from_marks(group, values, p_local)
        assert str(got.value) == str(exc)
        return False
    assert from_marks(group, values, p_local) == want
    return True


def _check_integer_marks(g, rng):
    r = len(g.subgroup_classes())
    samples = [VirtualGSet(g, [rng.randint(-9, 9) for _ in range(r)]) for _ in range(3)]
    samples.append(orbit(g, rng.randrange(r)))
    for p in (2, 3):
        samples.append(VirtualGSet(
            g, [Fraction(rng.randint(-9, 9), rng.choice((1, 5, 7))) for _ in range(r)], p))
    for x in samples:
        mx = marks(x)
        assert mx == oracle_marks(x)
        assert from_marks(g, mx, x.p_local) == oracle_from_marks(g, mx, x.p_local) == x
        y = samples[rng.randrange(len(samples))]
        if x.p_local is None or y.p_local is None or x.p_local == y.p_local:
            want = oracle_from_marks(g, [a * b for a, b in zip(mx, oracle_marks(y))],
                                     x._merge_flag(y))
            assert bmul(x, y) == want
    # mark vectors that no integral X has, integrally, p-locally and with
    # denominators; the message names the first bad coefficient either way
    outcomes = set()
    for _ in range(3):
        values = [rng.randint(-9, 9) for _ in range(r)]
        outcomes.add(_same_result(g, values))
        outcomes.add(_same_result(g, values, rng.choice((2, 3))))
        values = [Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 5))) for _ in range(r)]
        outcomes.add(_same_result(g, values, rng.choice((2, 3, 5))))
    if r > 1:
        assert False in outcomes


def test_integer_back_substitution_matches_fractions_every_cyclic() -> None:
    """C1-C128, prime-power orders and the others that Sq1 reads."""
    rng = random.Random(77)
    for m in range(1, 129):
        _check_integer_marks(G(f"C{m}"), rng)


@pytest.mark.parametrize("m", range(2, 33))
def test_integer_back_substitution_matches_fractions_dicyclic(m: int) -> None:
    _check_integer_marks(G(f"Dic{m}"), random.Random(7700 + m))


def test_non_integral_mark_vector_message() -> None:
    c2 = G("C2")
    for values, p_local, why in (
        ((1, 0), None, "non-integer coefficient on an integral G-set"),
        ((1, 0), 2, "denominator not prime to 2"),
    ):
        with pytest.raises(ValueError) as exc:
            from_marks(c2, values, p_local)
        assert str(exc.value) == f"mark vector is not realized integrally: {why}"
    # an integral X comes back with int coefficients, a p-local one with
    # Fractions only where it has them
    q16 = G("Q16")
    x = 3 * orbit(q16, "C2") - orbit(q16, "e") + orbit(q16, "Q8b")
    assert all(type(c) is int for c in from_marks(q16, marks(x)).coeffs)
    got = from_marks(c2, (Fraction(3, 5), Fraction(1, 5)), p_local=2).coeffs
    assert got == (Fraction(1, 5), Fraction(1, 5))
