"""The per-certificate reads of V against the rules they replaced.

`is_honest`, `is_fixed_point_free`, `has_rational_characters` and the masks
of `standard_rep` read V by slices. The coefficient-by-coefficient rules
they replaced are kept here as the oracles: an isinstance test per
coefficient, a gcd per line, a dict of Galois levels and a gcd mask.
"""

import random
from fractions import Fraction
from math import gcd

import pytest

from vone.burnside import VirtualGSet, cardinality
from vone.exactmath import pvaluation
from vone.groups import GroupDescriptor, build_group
from vone.repring import (
    VirtualRep,
    _restrict,
    has_rational_characters,
    is_fixed_point_free,
    standard_rep,
)


def honest_oracle(V) -> bool:
    return all(isinstance(c, int) and c >= 0 for c in V.coeffs)


def fpf_oracle(V) -> bool:
    """Every line L^a of V, or of its restriction to <x> over Dic_m, has
    gcd(a, n) = 1."""
    if not honest_oracle(V):
        raise ValueError("fixed point freeness is a property of honest representations")
    if V.is_cyclic_side():
        lines = V.coeffs
    else:
        lines = _restrict(V.coeffs, V.group.descriptor.m)[0]
    n = len(lines)
    return all(gcd(a, n) == 1 for a, c in enumerate(lines) if c)


def rational_oracle(V) -> bool:
    """Over C_m: the coefficients are constant on each level gcd(a, m)."""
    m = V.group.order
    level = {}
    for a, c in enumerate(V.coeffs):
        d = gcd(a, m)
        if d in level and level[d] != c:
            return False
        level.setdefault(d, c)
    return True


def w_oracle(g) -> tuple:
    m = g.order
    return tuple([1 if gcd(a, m) == 1 else 0 for a in range(m)])


def h_oracle(g) -> tuple:
    m = g.descriptor.m
    return (0,) * 4 + tuple([1 if gcd(h, 2 * m) == 1 else 0 for h in range(1, m)])


def _cyclic_samples(g, rng):
    """Seeded V over C_m: random signs and zeros; sums over the units;
    unions of Galois levels, p-local among them; and the near-misses, one
    coefficient off a rational V and one non-unit line on a free V."""
    m = g.order
    units = [a for a in range(m) if gcd(a, m) == 1]
    levels = {}
    for a in range(m):
        levels.setdefault(gcd(a, m), []).append(a)
    out = [VirtualRep(g, [rng.randint(-1, 2) for _ in range(m)]),
           VirtualRep(g, [rng.choice((0, 0, 0, 1, 3)) for _ in range(m)])]
    free = [0] * m
    for a in units:
        free[a] = rng.randint(0, 2)
    free[rng.choice(units)] += 1
    out.append(VirtualRep(g, free))
    if m > 1:
        miss = list(free)
        miss[rng.choice([a for a in range(m) if a not in units])] = 1
        out.append(VirtualRep(g, miss))
    for p_local, den in ((None, 1), (2, 3), (3, 5)):
        vec = [0] * m
        for d, orbit in levels.items():
            c = Fraction(rng.randint(-2, 3), den if rng.random() < 0.5 else 1)
            for a in orbit:
                vec[a] = c
        out.append(VirtualRep(g, vec, p_local))
        for d, orbit in levels.items():
            if len(orbit) > 1:
                miss = list(vec)
                miss[rng.choice(orbit)] += Fraction(1, den)
                out.append(VirtualRep(g, miss, p_local))
                break
    return out


@pytest.mark.parametrize("m", range(1, 257))
def test_cyclic_reads_match_the_oracles(m):
    """Every C_m with m <= 256, prime powers or not (C1, C6, C12, C30 and
    C210 among them), on seeded V."""
    g = build_group(GroupDescriptor.cyclic_of_order(m))
    W = standard_rep(g, "W")
    assert W.coeffs == w_oracle(g)
    assert is_fixed_point_free(W) and has_rational_characters(W)
    for V in _cyclic_samples(g, random.Random(7100 + m)):
        assert V.is_honest() == honest_oracle(V), V.coeffs
        assert has_rational_characters(V) == rational_oracle(V), V.coeffs
        if honest_oracle(V):
            assert is_fixed_point_free(V) == fpf_oracle(V), V.coeffs
        else:
            with pytest.raises(ValueError):
                is_fixed_point_free(V)


def test_cyclic_samples_reach_every_outcome():
    """The samples above are not all of one kind: each read answers both
    ways, the near-misses included."""
    seen = set()
    for m in (6, 12, 30, 64, 81, 210):
        g = build_group(GroupDescriptor.cyclic_of_order(m))
        for V in _cyclic_samples(g, random.Random(7100 + m)):
            honest = honest_oracle(V)
            seen.add(("honest", honest))
            seen.add(("rational", rational_oracle(V)))
            if honest:
                seen.add(("free", fpf_oracle(V)))
    assert seen == {(k, b) for k in ("honest", "rational", "free") for b in (True, False)}


def test_p_local_flag_alone_does_not_make_v_dishonest():
    g = build_group(GroupDescriptor.cyclic_of_order(4))
    assert VirtualRep(g, [0, Fraction(4, 2), 0, 1], 3).is_honest()
    assert not VirtualRep(g, [0, Fraction(1, 2), 0, 1], 3).is_honest()
    assert not VirtualRep(g, [0, 1, -1, 1], 3).is_honest()


@pytest.mark.parametrize("m", range(2, 65))
def test_dicyclic_reads_match_the_oracles(m):
    """Every Dic_m with m <= 64: H against its gcd mask, and the honesty
    and fixed point rules on seeded V, free sums of the rho_h with one
    line more among them."""
    g = build_group(GroupDescriptor.dicyclic(m))
    H = standard_rep(g, "H")
    assert H.coeffs == h_oracle(g)
    assert is_fixed_point_free(H)
    rng = random.Random(7400 + m)
    r = m + 3
    samples = [VirtualRep(g, [rng.randint(-1, 2) for _ in range(r)]),
               VirtualRep(g, [rng.choice((0, 0, 1)) for _ in range(r)]),
               VirtualRep(g, [Fraction(rng.randint(0, 3), rng.choice((1, 3))) for _ in range(r)], 2)]
    for _ in range(3):
        vec = [c * rng.randint(1, 3) for c in H.coeffs]
        samples.append(VirtualRep(g, vec))
        vec[rng.randrange(r)] += 1
        samples.append(VirtualRep(g, vec))
    for V in samples:
        assert V.is_honest() == honest_oracle(V), V.coeffs
        if honest_oracle(V):
            assert is_fixed_point_free(V) == fpf_oracle(V), V.coeffs


def test_cardinality_matches_the_fraction_round_trip():
    """t and c against Fraction(card) / Fraction(p)^t, for integral and
    p-local X and for a q-local X with p in its denominators: c stays a
    Fraction when t < 0."""
    rng = random.Random(7700)
    negative = 0
    for m, p in ((8, 2), (9, 3), (25, 5), (16, 2)):
        g = build_group(GroupDescriptor.cyclic_of_order(m))
        r = len(g.subgroup_classes())
        q = 3 if p == 2 else 2
        for den, flag in ((1, None), (7, p), (p, q), (p * p, q)):
            for _ in range(20):
                X = VirtualGSet(g, [Fraction(rng.randint(-9, 9), den) for _ in range(r)], flag)
                card = sum(c * cls.index for c, cls in zip(X.coeffs, g.subgroup_classes()))
                if card == 0:
                    continue
                got = cardinality(X, p)
                t = pvaluation(Fraction(card), p)
                assert got.t == t
                assert type(got.c) is Fraction and got.c == Fraction(card) / Fraction(p) ** t
                negative += t < 0
    assert negative > 20
