"""The shared core of VirtualGSet and VirtualRep: flag discipline, scaling,
immutability, equality across the two rings, and square-and-multiply powers
against repeated products."""

from __future__ import annotations

from fractions import Fraction

import pytest

import vone.burnside as burnside
from vone.burnside import VirtualGSet, bmul, orbit
from vone.cli import parse_gset
from vone.groups import GroupDescriptor, build_group
from vone.repring import VirtualRep


def G(name: str):
    return build_group(GroupDescriptor.parse(name))


def basis_vector(cls, group, i, p_local=None):
    vec = [0] * len(cls.zero(group).coeffs)
    vec[i] = 1
    return cls(group, vec, p_local)


@pytest.mark.parametrize("cls", [VirtualGSet, VirtualRep])
def test_shared_flag_discipline(cls):
    c4 = G("C4")
    x = basis_vector(cls, c4, 0)
    local3 = basis_vector(cls, c4, 1, p_local=3)
    local5 = basis_vector(cls, c4, 1, p_local=5)

    # the flag survives sums, differences, negation and scaling, from either side
    for value in (x + local3, local3 + x, x - local3, local3 - x, -local3, 2 * local3,
                  local3 * Fraction(1, 2), 1 + local3, 1 - local3):
        assert type(value) is cls and value.p_local == 3
    assert (x + x).p_local is None and (x - 1).p_local is None

    with pytest.raises(ValueError, match="mixed p-local primes"):
        local3 + local5
    with pytest.raises(ValueError, match="mixed p-local primes"):
        local3 * local5

    # rational scaling needs the flag; its denominator must be prime to p
    with pytest.raises(ValueError, match="rational scaling requires a p-local"):
        x * Fraction(1, 2)
    assert (x * Fraction(4, 2)).coeffs == (2 * x).coeffs
    half = local3 * Fraction(1, 2)
    assert half.coeffs[1] == Fraction(1, 2) and isinstance(half.coeffs[0], int)
    with pytest.raises(ValueError, match="denominator not prime to 3"):
        local3 * Fraction(1, 3)
    with pytest.raises(ValueError, match="denominator not prime to 3"):
        cls(c4, [Fraction(1, 6)] + [0] * (len(x.coeffs) - 1), 3)
    with pytest.raises(ValueError, match="non-integer coefficient on an integral"):
        cls(c4, [Fraction(1, 2)] + [0] * (len(x.coeffs) - 1))
    with pytest.raises(ValueError, match="coefficient count does not match"):
        cls(c4, [1] * (len(x.coeffs) + 1))

    # coefficients that are integers come out as ints
    y = cls(c4, [Fraction(4, 2), 3.0] + [True] * (len(x.coeffs) - 2))
    assert all(type(c) is int for c in y.coeffs)

    with pytest.raises(AttributeError, match=f"{cls.__name__} is immutable"):
        x.coeffs = ()
    with pytest.raises(AttributeError):
        x.p_local = 3

    assert x == basis_vector(cls, c4, 0) and hash(x) == hash(basis_vector(cls, c4, 0))
    assert x != basis_vector(cls, c4, 1)
    with pytest.raises(ValueError, match="negative powers"):
        x ** -1


def test_a_gset_never_equals_a_rep_with_the_same_coefficients():
    c2 = G("C2")  # two subgroup classes and two lines
    for coeffs in ([1, 0], [0, 1], [2, -3], [0, 0]):
        X, V = VirtualGSet(c2, coeffs), VirtualRep(c2, coeffs)
        assert X.coeffs == V.coeffs
        assert X != V and V != X
        assert not (X == V)
    assert len({VirtualGSet(c2, [1, 0]), VirtualRep(c2, [1, 0])}) == 2
    with pytest.raises(TypeError):
        VirtualGSet(c2, [1, 0]) + VirtualRep(c2, [1, 0])


def test_repr_is_shared():
    c4 = G("C4")
    X = VirtualGSet(c4, [2, -1, Fraction(1, 3)], 2)
    assert repr(X) == "2*[C4/e]-[C4/C2]+1/3*[C4/C4]"
    assert repr(VirtualRep(c4, [-1, 1, 0, -2])) == "-1+L-2*L^3"
    assert repr(VirtualGSet.zero(c4)) == "0" and repr(VirtualRep.zero(c4)) == "0"


def _repeated(X, e):
    out = VirtualGSet.unit(X.group)
    for _ in range(e):
        out = bmul(out, X)
    return out


@pytest.mark.parametrize("name", ["C4", "C9", "Q8"])
def test_power_matches_repeated_products(name):
    g = G(name)
    classes = g.subgroup_classes()
    n = len(classes)
    X = VirtualGSet(g, [(-1) ** i * (i + 1) for i in range(n)])
    p = 3 if name == "C9" else 2
    local = VirtualGSet(g, [Fraction(1, 5 if p == 2 else 2)] + [1] * (n - 1), p)
    for base in (X, local, orbit(g, 0), orbit(g, n - 1)):
        for e in range(7):
            power = base**e
            assert power == _repeated(base, e), (name, base, e)
            assert power.p_local == (base.p_local if e else None)


def test_h_power_takes_logarithmically_many_products(monkeypatch):
    c2 = G("C2")
    calls = []
    real = burnside.bmul

    def counting(X, Y):
        calls.append(1)
        return real(X, Y)

    monkeypatch.setattr(burnside, "bmul", counting)
    e = 4096
    value = parse_gset(f"h^{e}", c2)
    assert value.coeffs == (2 ** (e - 1), 0)  # h^2 = 2h
    assert 0 < len(calls) <= 2 * e.bit_length()
