"""Group models, subgroup classes, Weyl data, table of marks.

The library reads subgroup classes off the presentations. The search it
replaced lives here as the oracle: subgroups as joins of cyclic subgroups
(closure by right multiplication with the generators), classes as
conjugation orbits over all of G, normalizers by testing every element,
and the Weyl commutator subgroup H [N, N] closed from all commutators.
That search is itself checked against independent brute force: every
identity-containing subset of Lagrange-compatible size tested for closure,
and the two-sided all-pairs closure. Marks (Weyl order times the conjugates
containing K) are checked against direct coset counting.
"""

from __future__ import annotations

import random
import time
from itertools import combinations

import pytest

from vone.burnside import VirtualGSet, bmul, orbit, restrict
from vone.geomfix import phi_gset
from vone.groups import (
    DEFAULT_ORDER_BOUND,
    GroupDescriptor,
    GroupModel,
    WeylData,
    build_group,
    subgroup_classes,
    table_of_marks,
)
from vone.powerop import sq1_gset

SWEEP = [f"C{m}" for m in range(1, 65)] + [f"Dic{m}" for m in range(2, 17)]


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


def test_one_descriptor_one_model() -> None:
    # build_group used to take an order bound as part of its cache key, so
    # build_group(d) and build_group(d, 512) were two models of one group
    # whose orbits could not be multiplied
    c4 = G("C4")
    assert build_group(GroupDescriptor.cyclic(2, 2)) is c4
    with pytest.raises(TypeError):
        build_group(GroupDescriptor.parse("C4"), DEFAULT_ORDER_BOUND)
    other = build_group(GroupDescriptor.cyclic_of_order(4))
    assert bmul(orbit(c4, "e"), orbit(other, "C2")) == 2 * orbit(c4, "e")
    with pytest.raises(ValueError, match="exceeds bound"):
        GroupModel(GroupDescriptor.cyclic_of_order(DEFAULT_ORDER_BOUND + 1))


def test_element_orders_cyclic() -> None:
    c12 = G("C12")
    from math import gcd

    for a in range(12):
        assert c12.element_order(a) == 12 // gcd(a, 12)


def closure(g, gens) -> frozenset:
    """Subgroup generated by gens: g^(-1) = g^(ord g - 1) in a finite
    group, so the positive words in gens, grown from the identity by right
    multiplication, are the whole subgroup."""
    gens = set(gens)
    out = {0}
    work = [0]
    while work:
        row = g.mult[work.pop()]
        for x in gens:
            c = row[x]
            if c not in out:
                out.add(c)
                work.append(c)
    return frozenset(out)


def generating_set(g, H: frozenset) -> tuple:
    """Small (greedy) generating set of a subgroup."""
    gens: list[int] = []
    got = frozenset([0])
    for x in sorted(H):
        if x not in got:
            gens.append(x)
            got = closure(g, gens)
            if got == H:
                break
    return tuple(gens)


def conjugate_subgroup(g, H: frozenset, x: int) -> frozenset:
    return frozenset(g.conj(h, x) for h in H)


def normalizer_of(g, H: frozenset) -> frozenset:
    gens = generating_set(g, H)
    return frozenset(
        x for x in range(g.order) if all(g.conj(h, x) in H for h in gens)
    )


def all_subgroups(g) -> list:
    """Every subgroup as a join of cyclic subgroups; each subgroup found
    keeps one generator tuple, so joining H with C = <x> closes
    gens(H) + (x,)."""
    gens: dict[frozenset, tuple] = {}
    for x in range(g.order):
        gens.setdefault(g.cyclic_closure(x), (x,))
    cyclic_gens = [t[0] for t in gens.values()]
    work = list(gens)
    while work:
        H = work.pop()
        for x in cyclic_gens:
            if x not in H:
                J_gens = gens[H] + (x,)
                J = closure(g, J_gens)
                if J not in gens:
                    gens[J] = J_gens
                    work.append(J)
    return sorted(gens, key=lambda S: (len(S), sorted(S)))


def commutator_subgroup(g, H: frozenset, N: frozenset) -> frozenset:
    """H [N, N], closed from every commutator of N."""
    mult, inv = g.mult, g.inv
    comms = set(H)
    for a in N:
        ai = inv[a]
        for b in N:
            comms.add(mult[mult[mult[a][b]][ai]][inv[b]])
    return closure(g, comms)


def brute_force_classes(g) -> list:
    """(label, conjugates, normalizer, H [N, N]) per subgroup class, in
    class order; conjugates sorted, the least one the representative."""
    seen = set()
    raw = []
    for H in all_subgroups(g):
        if H in seen:
            continue
        conjs = {conjugate_subgroup(g, H, x) for x in range(g.order)}
        seen |= conjs
        conjs = tuple(sorted(conjs, key=sorted))
        N = normalizer_of(g, conjs[0])
        raw.append((conjs, N, commutator_subgroup(g, conjs[0], N)))
    raw.sort(key=lambda t: (len(t[0][0]), sorted(t[0][0])))
    bases = []
    for conjs, _, _ in raw:
        k = len(conjs[0])
        if k == 1:
            bases.append("e")
        elif any(len(g.cyclic_closure(x)) == k for x in conjs[0]):
            bases.append(f"C{k}")
        else:
            bases.append(f"Q{k}" if k & (k - 1) == 0 else f"Dic{k // 4}")
    out = []
    for i, (conjs, N, M) in enumerate(raw):
        label = bases[i]
        if bases.count(label) > 1:
            label += "abcdefgh"[bases[:i].count(label)]
        out.append((label, conjs, N, M))
    return out


ORACLE_SWEEP = [f"C{m}" for m in range(1, 129)] + [f"Dic{m}" for m in range(2, 33)]


def test_classes_match_brute_force() -> None:
    for name in ORACLE_SWEEP:
        g = G(name)
        classes = subgroup_classes(g)
        brute = brute_force_classes(g)
        assert len(classes) == len(brute), name
        for cls, (label, conjs, N, M) in zip(classes, brute):
            H = conjs[0]
            assert cls.label == label, (name, label)
            assert cls.representative == H and cls.conjugates == conjs, (name, label)
            assert cls.order == len(H) and cls.index == g.order // len(H)
            assert cls.normalizer == N, (name, label)
            assert cls.weyl_order == len(N) // len(H), (name, label)
            data, oracle = g.weyl_data(cls.id), WeylData(g, H, N, M)
            assert data.order == oracle.order, (name, label)
            assert cls.weyl_invariants == data.invariants == oracle.invariants
            for x in N:
                assert data.coords(x) == oracle.coords(x), (name, label, x)
        for x in range(g.order):
            cid = g.cyclic_class_of(x)
            assert g.cyclic_closure(x) in classes[cid].conjugates, (name, x)


def test_q512_subgroup_classes_are_fast() -> None:
    # the closure search took about 5 s here; the families take milliseconds
    g = GroupModel(GroupDescriptor.parse("Q512"))  # a model of its own
    start = time.perf_counter()
    classes = g.subgroup_classes()
    elapsed = time.perf_counter() - start
    assert len(classes) == 24
    assert elapsed < 0.5, f"subgroup_classes of Q512 took {elapsed:.2f} s"


def test_resolver_rejects_a_class_of_another_group() -> None:
    c4, c8 = G("C4"), G("C8")
    with pytest.raises(ValueError, match="different group"):
        orbit(c4, c8.class_of_label("C4"))


def test_fixed_points_and_sq1_reject_a_class_of_another_group() -> None:
    c4, c8 = G("C4"), G("C8")
    free = orbit(c4, "e")
    with pytest.raises(ValueError, match="different group"):
        phi_gset(free, c8.class_of_label("C2"))
    with pytest.raises(ValueError, match="different group"):
        sq1_gset(free).component(c8.class_of_label("C2"))


def test_resolver_rejects_negative_ids() -> None:
    c4 = G("C4")
    with pytest.raises(ValueError, match="no subgroup class with id -1"):
        orbit(c4, -1)
    with pytest.raises(ValueError, match="no subgroup class with id -1"):
        restrict(VirtualGSet.unit(c4), -1)


def test_resolver_rejects_ids_past_the_last_class() -> None:
    with pytest.raises(ValueError, match="no subgroup class with id 7"):
        orbit(G("C4"), 7)


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
    assert set(all_subgroups(g)) == brute
    classes = subgroup_classes(g)
    covered: list = []
    for cls in classes:
        covered.extend(cls.conjugates)
        assert cls.representative in cls.conjugates
        assert len(cls.representative) * cls.index == g.order
    assert len(covered) == len(set(covered)) == len(brute)
    assert set(covered) == brute


def two_sided_closure(g, gens) -> frozenset:
    """Subgroup generated by gens, closed under the products of every pair
    on both sides (brute-force oracle)."""
    out = {0}
    work = [0]
    for x in gens:
        if x not in out:
            out.add(x)
            work.append(x)
    while work:
        a = work.pop()
        for b in list(out):
            for c in (g.mult[a][b], g.mult[b][a]):
                if c not in out:
                    out.add(c)
                    work.append(c)
    return frozenset(out)


def test_closure_matches_two_sided_closure() -> None:
    rng = random.Random(7)
    for name in SWEEP:
        g = G(name)
        for _ in range(5):
            gens = rng.sample(range(g.order), min(g.order, rng.randint(0, 3)))
            assert closure(g, gens) == two_sided_closure(g, gens), (name, gens)


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
        def __init__(self, group, H, N, M):
            built.append(H)
            super().__init__(group, H, N, M)

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


def coset_counting_marks(g) -> tuple:
    """Entry (H, K) counts the cosets rH with r^-1 K r <= H (brute-force
    oracle)."""
    classes = g.subgroup_classes()
    coset_reps = {}
    for cls in classes:
        reps, seen = [], set()
        for x in range(g.order):
            if x not in seen:
                reps.append(x)
                seen.update(g.mult[x][h] for h in cls.representative)
        coset_reps[cls.id] = reps
    rows = []
    for hcls in classes:
        H = hcls.representative
        row = []
        for kcls in classes:
            row.append(sum(
                1 for r in coset_reps[hcls.id]
                if all(g.mult[g.mult[g.inv[r]][k]][r] in H for k in kcls.representative)
            ))
        rows.append(tuple(row))
    return tuple(rows)


def test_table_of_marks_matches_coset_counting() -> None:
    for name in SWEEP:
        g = G(name)
        assert table_of_marks(g).entries == coset_counting_marks(g), name


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
    sub = closure(q16, [2, 8])  # <x^2, j> = Q8
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
