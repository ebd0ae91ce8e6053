import io
import json
import random

import pytest

from vone.burnside import VirtualGSet, bmul, cardinality, marks, orbit
from vone.cli import run
from vone.geomfix import (
    BottClassFixedPoints,
    PowerMapFixedPoints,
    TelescopeFixedPoints,
    phi_bott_valuation,
    psi_power_fixed,
    telescope_fixed_points,
)
from vone.groups import GroupDescriptor, build_group


def cyc(m):
    return build_group(GroupDescriptor.cyclic_of_order(m))


def phi(X, H):
    # the geometric fixed points of a virtual G-set at H are its mark there
    return marks(X)[X.group.subgroup_class(H).id]


def test_phi_gset_examples():
    c4 = cyc(4)
    free = orbit(c4, 0)
    assert phi(free, "C2") == 0
    assert phi(free, 0) == 4
    point = orbit(c4, "C4")
    for cls in c4.subgroup_classes():
        assert phi(point, cls) == 1


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
                    assert phi(X, classes[j]) == expect


def test_phi_gset_multiplicative():
    rng = random.Random(21)
    for g in (cyc(8), build_group(GroupDescriptor.quaternion(16))):
        r = len(g.subgroup_classes())
        for _ in range(25):
            X = VirtualGSet(g, [rng.randrange(-3, 4) for _ in range(r)])
            Y = VirtualGSet(g, [rng.randrange(-3, 4) for _ in range(r)])
            for cls in g.subgroup_classes():
                assert phi(bmul(X, Y), cls) == phi(X, cls) * phi(Y, cls)


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
    with pytest.raises(ValueError, match="^p must be a prime$"):
        phi_bott_valuation(6, 2, 1)  # returned 6^6 before


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


def telescope_json(*argv):
    """Exit code and JSON document of `vone telescope ... --json`."""
    out = io.StringIO()
    code = run(["telescope", *map(str, argv), "--json"], out, io.StringIO())
    return code, json.loads(out.getvalue())


def test_ku_cofiber_mirrors_telescope():
    # the KU columns of the telescope command, row by row
    for p, n in ((2, 2), (3, 3)):
        for s in (0, 1):
            for i in range(n + 1):
                code, doc = telescope_json("--p", p, "--n", n, "--s", s, "--i", i)
                assert code == 0 and [row["j"] for row in doc["rows"]] == [str(j) for j in range(n + 1)]
                for j, row in enumerate(doc["rows"]):
                    tel = telescope_fixed_points(p, n, s, i, j)
                    assert row["telescope"] == tel.kind
                    assert tel.is_zero() == (row["ku"] == "zero")
                    if j == 0:
                        assert row["ku"] == "ku-mod" and row["ku_modulus"] == str(tel.modulus)
                    elif j > i:
                        assert row["ku"] == "ku-rational-pair"
                        assert row["ku_conductor"] == str(p**j)


def test_telescope_needs_a_prime():
    """p = 4 returned a table before."""
    with pytest.raises(ValueError, match="^p must be a prime$"):
        telescope_fixed_points(4, 2, 0, 1, 0)
    code, doc = telescope_json("--p", 4, "--n", 2, "--i", 1, "--j", 0)
    assert (code, doc["error"]) == (2, "p must be a prime")
