import random

import pytest

from vone.burnside import VirtualGSet, bmul, cardinality, orbit
from vone.geomfix import (
    BottClassFixedPoints,
    PowerMapFixedPoints,
    TelescopeFixedPoints,
    ku_cofiber_fixed_points,
    phi_bott_valuation,
    phi_gset,
    psi_power_fixed,
    telescope_fixed_points,
)
from vone.groups import GroupDescriptor, build_group


def cyc(m):
    return build_group(GroupDescriptor.cyclic_of_order(m))


def test_phi_gset_examples():
    c4 = cyc(4)
    free = orbit(c4, 0)
    assert phi_gset(free, "C2") == 0
    assert phi_gset(free, 0) == 4
    point = orbit(c4, "C4")
    for cls in c4.subgroup_classes():
        assert phi_gset(point, cls) == 1


def test_phi_gset_orbit_pattern():
    # p^s [C_{p^n}/C_{p^i}] has mark p^(s+n-i) at C_{p^j} for j <= i, else 0
    for p, n in ((2, 3), (3, 2)):
        g = cyc(p**n)
        classes = g.subgroup_classes()
        for s in (0, 1, 2):
            for i in range(n + 1):
                X = p**s * orbit(g, classes[i])
                for j in range(n + 1):
                    expect = p ** (s + n - i) if j <= i else 0
                    assert phi_gset(X, classes[j]) == expect


def test_phi_gset_multiplicative():
    rng = random.Random(21)
    for g in (cyc(8), build_group(GroupDescriptor.quaternion(16))):
        r = len(g.subgroup_classes())
        for _ in range(25):
            X = VirtualGSet(g, [rng.randrange(-3, 4) for _ in range(r)])
            Y = VirtualGSet(g, [rng.randrange(-3, 4) for _ in range(r)])
            for cls in g.subgroup_classes():
                assert phi_gset(bmul(X, Y), cls) == phi_gset(X, cls) * phi_gset(Y, cls)


def test_psi_power_fixed_cases():
    assert psi_power_fixed(1, 5) == PowerMapFixedPoints("degree", 5)
    assert psi_power_fixed(2, 4) == PowerMapFixedPoints("zero")
    assert psi_power_fixed(3, 4) == PowerMapFixedPoints("identity")
    with pytest.raises(ValueError):
        psi_power_fixed(0, 4)


def test_psi_power_fixed_grid():
    for d in range(1, 21):
        for k in range(1, 21):
            out = psi_power_fixed(d, k)
            if d == 1:
                assert out.kind == "degree" and out.degree == k
            elif k % d == 0:
                assert out.kind == "zero"
            else:
                assert out.kind == "identity"


def test_power_map_variant_guard():
    with pytest.raises(ValueError):
        PowerMapFixedPoints("degree")
    with pytest.raises(ValueError):
        PowerMapFixedPoints("zero", 3)
    with pytest.raises(ValueError):
        PowerMapFixedPoints("odd")


def test_phi_bott_valuation_examples():
    assert phi_bott_valuation(2, 1, 1, 0) == BottClassFixedPoints(2, 1)
    assert phi_bott_valuation(3, 2, 1, 0) == BottClassFixedPoints(3, 3)
    assert phi_bott_valuation(3, 2, 1, 1) == BottClassFixedPoints(3, 9)
    assert phi_bott_valuation(5, 2, 1, 1).value() == 5**25


def test_phi_bott_valuation_composes():
    for p in (2, 3, 5):
        for n in range(1, 4):
            for j in range(1, n + 1):
                base = phi_bott_valuation(p, n, j, 0)
                for d in range(3):
                    assert (
                        phi_bott_valuation(p, n, j, d).exponent
                        == base.exponent * p**d
                    )


def test_phi_bott_valuation_range():
    with pytest.raises(ValueError):
        phi_bott_valuation(3, 2, 0)
    with pytest.raises(ValueError):
        phi_bott_valuation(3, 2, 3)
    with pytest.raises(ValueError):
        phi_bott_valuation(3, 2, 1, -1)


def test_telescope_table():
    for p, n in ((2, 3), (3, 2), (5, 1)):
        for s in (0, 1, 3):
            for i in range(n + 1):
                for j in range(n + 1):
                    out = telescope_fixed_points(p, n, s, i, j)
                    if j == 0:
                        assert out == TelescopeFixedPoints(
                            "v1-telescope", p ** (s + n - i)
                        )
                    elif j <= i:
                        assert out.is_zero()
                    else:
                        assert out.kind == "rational-pair"


def test_telescope_modulus_matches_cardinality():
    for p, n in ((2, 3), (3, 2)):
        g = cyc(p**n)
        classes = g.subgroup_classes()
        for s in (0, 2):
            for i in range(n + 1):
                X = p**s * orbit(g, classes[i])
                card = cardinality(X, p)
                out = telescope_fixed_points(p, n, s, i, 0)
                assert out.modulus == p**card.t and card.c == 1


def test_telescope_range_errors():
    with pytest.raises(ValueError):
        telescope_fixed_points(3, 2, 0, 3, 0)
    with pytest.raises(ValueError):
        telescope_fixed_points(3, 2, 0, 0, -1)
    with pytest.raises(ValueError):
        telescope_fixed_points(3, 2, -1, 0, 0)


def test_ku_cofiber_mirrors_telescope():
    for p, n in ((2, 2), (3, 3)):
        for s in (0, 1):
            for i in range(n + 1):
                for j in range(n + 1):
                    tel = telescope_fixed_points(p, n, s, i, j)
                    ku = ku_cofiber_fixed_points(p, n, s, i, j)
                    assert tel.is_zero() == ku.is_zero()
                    if j == 0:
                        assert ku.kind == "ku-mod" and ku.modulus == tel.modulus
                    elif j > i:
                        assert ku.kind == "ku-rational-pair"
                        assert ku.conductor == p**j
