"""Group models, subgroup classes, Weyl data, table of marks.

The subgroup-enumeration oracle here is independent of the library's join
closure: it tests every identity-containing subset of Lagrange-compatible
size for closure under multiplication.
"""

from __future__ import annotations

from itertools import combinations

import pytest

from vone.groups import (
    GroupDescriptor,
    build_group,
    subgroup_classes,
    table_of_marks,
)


def G(name: str):
    return build_group(GroupDescriptor.parse(name))


def test_descriptor_parse_and_names() -> None:
    assert GroupDescriptor.parse("C8") == GroupDescriptor.cyclic(2, 3)
    assert GroupDescriptor.parse("Q8") == GroupDescriptor.dicyclic(2)
    assert GroupDescriptor.parse("Q16").order == 16
    assert GroupDescriptor.parse("Dic3").order == 12
    assert GroupDescriptor.cyclic(3, 2).name == "C9"
    assert GroupDescriptor.dicyclic(4).name == "Q16"
    assert GroupDescriptor.dicyclic(3).name == "Dic3"
    with pytest.raises(ValueError):
        GroupDescriptor.parse("S3")
    with pytest.raises(ValueError):
        GroupDescriptor.quaternion(12)


def test_group_axioms_exhaustive() -> None:
    for name in ("C1", "C2", "C8", "C12", "C16", "Q8", "Q16", "Dic3", "Q32", "C64"):
        g = G(name)
        n = g.order
        assert g.descriptor.order == n
        mult = g.mult
        for a in range(n):
            assert mult[0][a] == a == mult[a][0]
            assert mult[a][g.inv[a]] == 0 == mult[g.inv[a]][a]
        if n <= 64:
            for a in range(n):
                for b in range(n):
                    row = mult[mult[a][b]]
                    for c in range(n):
                        assert row[c] == mult[a][mult[b][c]]


def test_dicyclic_presentation_relations() -> None:
    q8 = G("Q8")
    x, j = 1, 4
    assert q8.element_order(x) == 4
    assert q8.element_order(j) == 4
    assert q8.mul(j, j) == q8.mul(x, x)  # j^2 = x^2
    assert q8.power(j, 4) == 0
    assert q8.conj(x, j) == q8.inv_of(x)  # j x j^-1 = x^-1
    center = [g for g in q8.elements() if all(q8.mul(g, h) == q8.mul(h, g) for h in q8.elements())]
    assert center == [0, 2]


def test_element_orders_cyclic() -> None:
    c12 = G("C12")
    from math import gcd

    for a in range(12):
        assert c12.element_order(a) == 12 // gcd(a, 12)


def _brute_subgroups(g) -> set:
    """All subgroups by subset closure check (independent oracle)."""
    n = g.order
    rest = [x for x in range(1, n)]
    sizes = [d for d in range(1, n + 1) if n % d == 0]
    found = set()
    for size in sizes:
        for extra in combinations(rest, size - 1):
            sub = (0,) + extra
            members = set(sub)
            if all(g.mult[a][b] in members for a in sub for b in sub):
                found.add(frozenset(members))
    return found


@pytest.mark.parametrize("name", ["C2", "C8", "C12", "Q8", "Q16"])
def test_subgroup_classes_partition_all_subgroups(name: str) -> None:
    g = G(name)
    brute = _brute_subgroups(g)
    assert set(g.all_subgroups()) == brute
    classes = subgroup_classes(g)
    covered: list = []
    for cls in classes:
        covered.extend(cls.conjugates)
        assert cls.representative in cls.conjugates
        assert len(cls.representative) * cls.index == g.order
    assert len(covered) == len(set(covered)) == len(brute)
    assert set(covered) == brute


def test_cyclic_subgroup_classes_are_divisors() -> None:
    c16 = G("C16")
    classes = subgroup_classes(c16)
    assert [c.order for c in classes] == [1, 2, 4, 8, 16]
    assert [c.label for c in classes] == ["e", "C2", "C4", "C8", "C16"]
    # abelian: every Weyl group is the full quotient
    for c in classes:
        assert c.weyl_order == 16 // c.order
        want = (16 // c.order,) if c.order < 16 else ()
        assert c.weyl_invariants == want


def test_q8_subgroup_classes() -> None:
    q8 = G("Q8")
    classes = subgroup_classes(q8)
    assert [c.label for c in classes] == ["e", "C2", "C4a", "C4b", "C4c", "Q8"]
    assert [c.order for c in classes] == [1, 2, 4, 4, 4, 8]
    # all subgroups of Q8 are normal
    for c in classes:
        assert len(c.conjugates) == 1
        assert c.normalizer == frozenset(range(8))
    assert classes[0].weyl_invariants == (2, 2)  # Q8 abelianized
    assert classes[1].weyl_invariants == (2, 2)  # Q8/center
    for c in classes[2:5]:
        assert c.weyl_invariants == (2,)
    assert classes[5].weyl_invariants == ()


def test_q16_subgroup_classes() -> None:
    q16 = G("Q16")
    classes = subgroup_classes(q16)
    labels = [c.label for c in classes]
    assert labels == ["e", "C2", "C4a", "C4b", "C4c", "C8", "Q8a", "Q8b", "Q16"]
    sizes = {c.label: len(c.conjugates) for c in classes}
    assert sizes == {
        "e": 1, "C2": 1, "C4a": 1, "C4b": 2, "C4c": 2,
        "C8": 1, "Q8a": 1, "Q8b": 1, "Q16": 1,
    }
    assert sum(sizes.values()) == 11
    # the central C4 is <x^2>; the other two classes are <j>-type
    assert classes[2].representative == frozenset({0, 2, 4, 6})
    # Weyl group of e is Q16 abelianized
    assert classes[0].weyl_invariants == (2, 2)


def test_weyl_coordinates_are_homomorphisms() -> None:
    for name in ("C8", "Q8", "Q16", "Dic3"):
        g = G(name)
        for cls in subgroup_classes(g):
            data = g.weyl_data(cls.id)
            order = 1
            for d in data.invariants:
                order *= d
            norm = sorted(cls.normalizer)
            for a in norm:
                for b in norm:
                    lhs = data.coords(g.mul(a, b))
                    rhs = data.add(data.coords(a), data.coords(b))
                    assert lhs == rhs
            # subgroup itself maps to zero
            for h in cls.representative:
                assert data.coords(h) == data.zero()
            # coords surject: image size equals the abelianization order
            image = {data.coords(a) for a in norm}
            assert len(image) == order


def test_weyl_data_is_built_once_per_class(monkeypatch) -> None:
    import vone.groups as groups

    built = []

    class Counting(groups.WeylData):
        def __init__(self, group, H, N):
            built.append(H)
            super().__init__(group, H, N)

    monkeypatch.setattr(groups, "WeylData", Counting)
    for desc in (GroupDescriptor.parse("C8"), GroupDescriptor.parse("Q16")):
        g = groups.GroupModel(desc)  # a model of its own, not the shared one
        classes = g.subgroup_classes()
        for cls in classes:
            data = g.weyl_data(cls.id)
            assert data is g.weyl_data(cls.id)
            assert data.invariants == cls.weyl_invariants
            assert data.subgroup == cls.representative
        assert len(built) == len(classes)
        built.clear()


def test_find_conjugator() -> None:
    q16 = G("Q16")
    a = q16.closure([8])   # <j>
    b = q16.closure([10])  # <x^2 j>
    x = q16.find_conjugator(a, b)
    assert x is not None
    assert q16.conjugate_subgroup(a, x) == b
    assert q16.find_conjugator(a, q16.closure([2])) is None


def test_element_conjugacy_classes() -> None:
    q8 = G("Q8")
    cls = q8.element_conjugacy_classes()
    assert cls == ((0,), (1, 3), (2,), (4, 6), (5, 7))
    dic3 = G("Dic3")
    assert len(dic3.element_conjugacy_classes()) == 6  # m + 3


def test_table_of_marks_c2_c4() -> None:
    assert table_of_marks(G("C2")).entries == ((2, 0), (1, 1))
    assert table_of_marks(G("C4")).entries == ((4, 0, 0), (2, 2, 0), (1, 1, 1))


def test_table_of_marks_q8() -> None:
    tom = table_of_marks(G("Q8"))
    assert tom.labels == ("e", "C2", "C4a", "C4b", "C4c", "Q8")
    assert tom.entries == (
        (8, 0, 0, 0, 0, 0),
        (4, 4, 0, 0, 0, 0),
        (2, 2, 2, 0, 0, 0),
        (2, 2, 0, 2, 0, 0),
        (2, 2, 0, 0, 2, 0),
        (1, 1, 1, 1, 1, 1),
    )


@pytest.mark.parametrize("name", ["C8", "C12", "Q8", "Q16", "Q32", "Dic3"])
def test_table_of_marks_shape(name: str) -> None:
    g = G(name)
    classes = subgroup_classes(g)
    tom = table_of_marks(g)
    for i, hcls in enumerate(classes):
        assert tom.entries[i][0] == hcls.index  # free column: [G:H]
        assert tom.entries[i][i] == hcls.weyl_order  # diagonal: |N(H)/H|
        for j in range(i + 1, len(classes)):
            assert tom.entries[i][j] == 0  # triangular


def test_subgroup_model_cyclic() -> None:
    c8 = G("C8")
    model, embed = c8.subgroup_model(frozenset({0, 2, 4, 6}))
    assert model.descriptor == GroupDescriptor.cyclic_of_order(4)
    assert embed == (0, 2, 4, 6)


def test_subgroup_model_quaternion_inside_q16() -> None:
    q16 = G("Q16")
    sub = q16.closure([2, 8])  # <x^2, j> = Q8
    model, embed = q16.subgroup_model(sub)
    assert model.descriptor == GroupDescriptor.dicyclic(2)
    assert set(embed) == sub
    # embedding is a homomorphism
    for i in range(8):
        for j in range(8):
            assert embed[model.mul(i, j)] == q16.mul(embed[i], embed[j])


def test_cyclic_class_of() -> None:
    c8 = G("C8")
    labels = [subgroup_classes(c8)[c8.cyclic_class_of(g)].label for g in range(8)]
    assert labels == ["e", "C8", "C4", "C8", "C2", "C8", "C4", "C8"]
