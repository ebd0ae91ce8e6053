"""Group models, subgroup classes, Weyl data, table of marks.

The library reads subgroup classes off the presentations. The search it
replaced lives here as the oracle: subgroups as joins of cyclic subgroups
(closure by right multiplication with the generators), classes as
conjugation orbits over all of G, normalizers by testing every element,
and the Weyl commutator subgroup H [N, N] closed from all commutators.
The Weyl abelianizations, also read off the families, are checked
against the search they replaced: a greedy generator chain over the cosets
of H [N, N] with a Smith form of its relations.
That search is itself checked against independent brute force: every
identity-containing subset of Lagrange-compatible size tested for closure,
and the two-sided all-pairs closure. Marks (Weyl order times the conjugates
containing K) are checked against direct coset counting.

The library reads products, inverses, powers, orders, conjugates and
element classes off the presentations. The oracle for those is the full
multiplication table of a faithful monomial representation: g -> zeta_m
over C_m, and x -> diag(zeta, zeta^-1), j -> [[0, -1], [1, 0]] with zeta a
primitive 2m-th root of unity over Dic_m.
"""

from __future__ import annotations

import random
import time
import tracemalloc
from functools import cache
from itertools import combinations
from math import gcd, prod

import pytest

from vone.burnside import bmul, orbit
from vone.exactmath import IntMatrix, smith_normal_form
from vone.groups import GroupDescriptor, GroupModel, build_group, table_of_marks
from vone.limits import DEFAULT_ORDER_BOUND
from vone.powerop import sq1_gset

SWEEP = [f"C{m}" for m in range(1, 65)] + [f"Dic{m}" for m in range(2, 17)]


def G(name: str):
    return build_group(GroupDescriptor.parse(name))


def monomial(desc: GroupDescriptor, a: int) -> tuple:
    """Element a in the faithful monomial representation: row i holds
    zeta^e in column c, stored as (c, e) with e modulo the order of zeta."""
    if desc.kind == "cyclic":
        return ((0, a),)
    m, n = desc.m, 2 * desc.m
    if a < n:  # x^a
        return ((0, a), (1, -a % n))
    a -= n  # x^a j = diag(zeta^a, zeta^-a) [[0, zeta^m], [1, 0]]
    return ((1, (a + m) % n), (0, -a % n))


def monomial_product(desc: GroupDescriptor, u: tuple, v: tuple) -> tuple:
    n = desc.m if desc.kind == "cyclic" else 2 * desc.m
    return tuple((v[c][0], (e + v[c][1]) % n) for c, e in u)


@cache
def _table(desc: GroupDescriptor) -> tuple:
    mats = [monomial(desc, a) for a in range(desc.order)]
    index = {u: a for a, u in enumerate(mats)}
    assert len(index) == desc.order  # the representation is faithful
    mult = tuple(tuple(index[monomial_product(desc, u, v)] for v in mats) for u in mats)
    return mult, tuple(row.index(0) for row in mult)


def table(g) -> tuple:
    """(mult, inv): the |G| x |G| multiplication table and the inverses."""
    return _table(g.descriptor)


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
        mult, inv = table(g)
        for a in range(n):
            assert mult[0][a] == a == mult[a][0]
            assert mult[a][inv[a]] == 0 == mult[inv[a]][a]
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
    elems = range(q8.order)
    center = [g for g in elems if all(q8.mul(g, h) == q8.mul(h, g) for h in elems)]
    assert center == [0, 2]


@pytest.mark.parametrize("m", [2, 3, 4, 5, 8, 16, 31, 64, 128])
def test_presentation_relations_hold_in_model_and_oracle(m: int) -> None:
    """x^2m = e, j^2 = x^m and j x j^-1 = x^-1, with x of order exactly 2m;
    in the oracle, which the closed forms are checked against, too."""
    desc = GroupDescriptor.dicyclic(m)
    g = GroupModel(desc)
    x, j = 1, 2 * m
    assert g.element_order(x) == 2 * m and g.power(x, 2 * m) == 0
    assert g.mul(j, j) == g.power(x, m) == m
    assert g.conj(x, j) == g.inv_of(x) == 2 * m - 1
    X, J = monomial(desc, x), monomial(desc, j)
    power = monomial(desc, 0)
    for k in range(1, 2 * m + 1):
        power = monomial_product(desc, power, X)
        assert (power == monomial(desc, 0)) == (k == 2 * m)
        if k == m:
            assert monomial_product(desc, J, J) == power
    Jinv = monomial(desc, g.inv_of(j))
    assert monomial_product(desc, J, Jinv) == monomial(desc, 0)
    assert monomial_product(desc, monomial_product(desc, J, X), Jinv) == monomial(desc, 2 * m - 1)
    c = GroupModel(GroupDescriptor.cyclic_of_order(2 * m))
    assert c.element_order(1) == 2 * m and c.power(1, 2 * m) == 0


def assert_closed_forms_match_table(g) -> None:
    """mul, inv_of, power, element_order, conj, cyclic_closure,
    cyclic_class_of and element_conjugacy_classes against the table."""
    mult, inv = table(g)
    n = g.order
    classes = g.subgroup_classes()
    elem_classes = set()
    for a in range(n):
        row = mult[a]
        assert [g.mul(a, b) for b in range(n)] == list(row), (g, a)
        assert g.inv_of(a) == inv[a], (g, a)
        powers, x = [0], a
        while x:
            powers.append(x)
            x = mult[x][a]
        k = len(powers)
        assert g.element_order(a) == k, (g, a)
        assert all(g.power(a, e) == powers[e % k] for e in range(-k - 1, k + 2)), (g, a)
        assert g.cyclic_closure(a) == frozenset(powers), (g, a)
        assert g.cyclic_closure(a) in classes[g.cyclic_class_of(a)].conjugates, (g, a)
        conjugates = [mult[mult[x][a]][inv[x]] for x in range(n)]
        assert [g.conj(a, x) for x in range(n)] == conjugates, (g, a)
        elem_classes.add(tuple(sorted(set(conjugates))))
    assert g.element_conjugacy_classes() == tuple(sorted(elem_classes)), g


def test_closed_forms_match_the_table_up_to_order_128() -> None:
    for m in range(1, 129):
        assert_closed_forms_match_table(G(f"C{m}"))
    for m in range(2, 33):
        assert_closed_forms_match_table(G(f"Dic{m}"))


@pytest.mark.parametrize("name", ["C512", "Q512"])
def test_closed_forms_spot_checks_at_order_512(name: str) -> None:
    """The same checks without the table: random products and conjugates,
    every element's inverse, order, powers and cyclic subgroup, and element
    classes as orbits under conjugation by the generators."""
    g = G(name)
    desc, n = g.descriptor, g.order
    mats = [monomial(desc, a) for a in range(n)]
    index = {u: a for a, u in enumerate(mats)}

    def prod(a: int, b: int) -> int:
        return index[monomial_product(desc, mats[a], mats[b])]

    rng = random.Random(512)
    for _ in range(3000):
        a, b = rng.randrange(n), rng.randrange(n)
        assert g.mul(a, b) == prod(a, b), (a, b)
        assert g.conj(a, b) == prod(prod(b, a), g.inv_of(b)), (a, b)
    classes = g.subgroup_classes()
    for a in range(n):
        assert prod(a, g.inv_of(a)) == 0, a
        powers, x = [0], a
        while x:
            powers.append(x)
            x = prod(x, a)
        k = len(powers)
        assert g.element_order(a) == k, a
        assert [g.power(a, e) for e in (-1, 2, k - 1, k + 3)] == [
            powers[e % k] for e in (-1, 2, k - 1, k + 3)
        ], a
        assert g.cyclic_closure(a) == frozenset(powers), a
        assert g.cyclic_closure(a) in classes[g.cyclic_class_of(a)].conjugates, a
    gens = (1,) if desc.kind == "cyclic" else (1, 2 * desc.m)
    seen, elem_classes = set(), []
    for a in range(n):
        if a not in seen:
            orbit_, work = {a}, [a]
            while work:
                y = work.pop()
                for s in gens:
                    z = prod(prod(s, y), g.inv_of(s))
                    if z not in orbit_:
                        orbit_.add(z)
                        work.append(z)
            seen |= orbit_
            elem_classes.append(tuple(sorted(orbit_)))
    assert g.element_conjugacy_classes() == tuple(elem_classes)


def test_q512_model_builds_no_table() -> None:
    """A fresh Q512 model with its subgroup classes, element classes and
    one cyclic class stays under 50 ms and 1 MiB; a |G| x |G| table alone
    took 6.5 MiB."""

    def build() -> GroupModel:
        g = GroupModel(GroupDescriptor.parse("Q512"))
        g.subgroup_classes()
        g.element_conjugacy_classes()
        g.cyclic_class_of(1)
        return g

    build()  # imports and caches outside the model are warm
    times = []
    for _ in range(3):
        start = time.perf_counter()
        build()
        times.append(time.perf_counter() - start)
    assert min(times) < 0.05, f"Q512 model took {min(times) * 1000:.1f} ms"
    tracemalloc.start()
    try:
        build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, f"Q512 model peaked at {peak / 2**20:.2f} MiB"
    assert not hasattr(build(), "mult")


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
    for a in range(12):
        assert c12.element_order(a) == 12 // gcd(a, 12)


def closure(g, gens) -> frozenset:
    """Subgroup generated by gens: g^(-1) = g^(ord g - 1) in a finite
    group, so the positive words in gens, grown from the identity by right
    multiplication, are the whole subgroup."""
    gens = set(gens)
    out = {0}
    work = [0]
    mult = table(g)[0]
    while work:
        row = mult[work.pop()]
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
    mult, inv = table(g)
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


class ChainWeylData:
    """Abelianization of N/H by search: the cosets of M = H [N, N] in N, a
    greedy generator chain of N/M with its relations, and their Smith form
    U R V = D. The exponent vector of a coset in the chain, times U, gives
    its coordinates in the invariant factors."""

    def __init__(self, group, H: frozenset, N: frozenset, M: frozenset):
        mult = table(group)[0]
        coset_of = {}
        reps = []
        for g in sorted(N):
            if g not in coset_of:
                cid = len(reps)
                reps.append(g)
                for m in M:
                    coset_of[mult[g][m]] = cid
        self._coset_of = coset_of
        size = self.order = len(reps)

        def cmul(c1: int, c2: int) -> int:
            return coset_of[mult[reps[c1]][reps[c2]]]

        vectors = {0: ()}
        rels: list[list[int]] = []
        while len(vectors) < size:
            g = min(c for c in range(size) if c not in vectors)
            x, k = g, 1
            while x not in vectors:
                x = cmul(x, g)
                k += 1
            r = len(rels)  # g^k lands in the previous stage
            rels.append([-c for c in vectors[x]] + [k])
            for old, vec in list(vectors.items()):
                acc = old
                for e in range(1, k):
                    acc = cmul(acc, g)
                    vectors[acc] = vec + (0,) * (r - len(vec)) + (e,)
            for old, vec in list(vectors.items()):
                vectors[old] = vec + (0,) * (r + 1 - len(vec))
        self._vectors = vectors
        if not rels:
            self.invariants, self._keep = (), ()
            return
        rank = len(rels)
        d, self._u, _, _ = smith_normal_form(IntMatrix(
            [[rels[j][i] if i < len(rels[j]) else 0 for j in range(rank)] for i in range(rank)]
        ))
        diag = d.diag()
        assert prod(diag) == size
        self._keep = tuple(i for i, x in enumerate(diag) if x > 1)
        self.invariants = tuple(diag[i] for i in self._keep)

    def coords(self, g: int) -> tuple:
        vec = self._vectors[self._coset_of[g]]
        return tuple(
            sum(u * v for u, v in zip(self._u.entries[pos], vec)) % f
            for pos, f in zip(self._keep, self.invariants)
        )


ORACLE_SWEEP = [f"C{m}" for m in range(1, 129)] + [f"Dic{m}" for m in range(2, 33)]


def test_classes_match_brute_force() -> None:
    """Classes, labels and Weyl data of every subgroup, conjugates
    included, against the searches they replaced."""
    for name in ORACLE_SWEEP:
        g = G(name)
        classes = g.subgroup_classes()
        brute = brute_force_classes(g)
        assert len(classes) == len(brute), name
        for cls, (label, conjs, N, M) in zip(classes, brute):
            H = conjs[0]
            assert cls.label == label, (name, label)
            assert cls.representative == H and cls.conjugates == conjs, (name, label)
            assert cls.order == len(H) and cls.index == g.order // len(H)
            assert cls.normalizer == N, (name, label)
            assert cls.weyl_order == len(N) // len(H), (name, label)
            data, oracle = g.weyl_data(cls.id), ChainWeylData(g, H, N, M)
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
    with pytest.raises(ValueError, match="different group"):
        sq1_gset(orbit(c4, "e")).component(c8.class_of_label("C2"))


def test_resolver_rejects_negative_ids() -> None:
    c4 = G("C4")
    with pytest.raises(ValueError, match="no subgroup class with id -1"):
        orbit(c4, -1)
    with pytest.raises(ValueError, match="no subgroup class with id -1"):
        sq1_gset(orbit(c4, "e")).component(-1)


def test_resolver_rejects_ids_past_the_last_class() -> None:
    with pytest.raises(ValueError, match="no subgroup class with id 7"):
        orbit(G("C4"), 7)


def _brute_subgroups(g) -> set:
    """All subgroups by subset closure check (independent oracle)."""
    n = g.order
    rest = [x for x in range(1, n)]
    sizes = [d for d in range(1, n + 1) if n % d == 0]
    mult = table(g)[0]
    found = set()
    for size in sizes:
        for extra in combinations(rest, size - 1):
            sub = (0,) + extra
            members = set(sub)
            if all(mult[a][b] in members for a in sub for b in sub):
                found.add(frozenset(members))
    return found


@pytest.mark.parametrize("name", ["C2", "C8", "C12", "Q8", "Q16"])
def test_subgroup_classes_partition_all_subgroups(name: str) -> None:
    g = G(name)
    brute = _brute_subgroups(g)
    assert set(all_subgroups(g)) == brute
    classes = g.subgroup_classes()
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
    mult = table(g)[0]
    out = {0}
    work = [0]
    for x in gens:
        if x not in out:
            out.add(x)
            work.append(x)
    while work:
        a = work.pop()
        for b in list(out):
            for c in (mult[a][b], mult[b][a]):
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
    classes = c16.subgroup_classes()
    assert [c.order for c in classes] == [1, 2, 4, 8, 16]
    assert [c.label for c in classes] == ["e", "C2", "C4", "C8", "C16"]
    # abelian: every Weyl group is the full quotient
    for c in classes:
        assert c.weyl_order == 16 // c.order
        want = (16 // c.order,) if c.order < 16 else ()
        assert c.weyl_invariants == want


def test_q8_subgroup_classes() -> None:
    q8 = G("Q8")
    classes = q8.subgroup_classes()
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
    classes = q16.subgroup_classes()
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
        for cls in g.subgroup_classes():
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


@pytest.mark.parametrize("name", ["C512", "Q512"])
def test_classes_and_weyl_data_multiply_no_elements(name: str, monkeypatch) -> None:
    """Every class and its Weyl data are read off the families; the search
    they replaced ran a product for each coset and each chain step."""
    calls = []
    mul = GroupModel.mul

    def counting(self, a, b):
        calls.append((a, b))
        return mul(self, a, b)

    monkeypatch.setattr(GroupModel, "mul", counting)
    g = GroupModel(GroupDescriptor.parse(name))  # a model of its own
    for cls in g.subgroup_classes():
        g.weyl_data(cls.id).coords(max(cls.normalizer))
    assert calls == []


def test_classes_of_c_2_16_with_the_order_bound_lifted(monkeypatch) -> None:
    import vone.groups as groups

    monkeypatch.setattr(groups, "DEFAULT_ORDER_BOUND", 2**16)
    GroupModel(GroupDescriptor.cyclic(2, 4)).subgroup_classes()  # warm
    times = []
    for _ in range(3):
        start = time.perf_counter()
        g = GroupModel(GroupDescriptor.cyclic(2, 16))
        classes = g.subgroup_classes()
        weyl = [g.weyl_data(cls.id) for cls in classes]
        times.append(time.perf_counter() - start)
    assert [d.invariants for d in weyl] == [(2**(16 - i),) for i in range(16)] + [()]
    assert weyl[0].coords(2**16 - 1) == (2**16 - 1,)
    assert min(times) < 0.1, f"classes of C_2^16 took {min(times) * 1000:.1f} ms"


@pytest.mark.parametrize("name, outside", [("C512", (-1, 512, 600, 1000)), ("Q16", (-1, 16, 99))])
def test_elements_outside_the_group_are_rejected(name: str, outside: tuple) -> None:
    """Over C512, cyclic_class_of(-1) answered for the generator and
    inv_of(600) returned 856; over Q16, the fixed space of H at 99 had
    dimension 0."""
    from vone.repring import VirtualRep, eigenvalue_multiplicities, standard_rep

    g = G(name)
    V = standard_rep(g, "W" if name[0] == "C" else "H")
    checks = [
        g.inv_of, lambda x: g.power(x, 3), g.element_order, lambda x: g.conj(x, 1),
        lambda x: g.conj(1, x), g.cyclic_closure, g.cyclic_class_of, V.character,
        lambda x: eigenvalue_multiplicities(V, x),
        VirtualRep.regular(g).character,
    ]
    for x in outside:
        for check in checks:
            with pytest.raises(ValueError, match="not an element"):
                check(x)
    for check in checks:
        check(g.order - 1)  # the last element is one


def test_element_conjugacy_classes() -> None:
    q8 = G("Q8")
    cls = q8.element_conjugacy_classes()
    assert cls == ((0,), (1, 3), (2,), (4, 6), (5, 7))
    dic3 = G("Dic3")
    assert len(dic3.element_conjugacy_classes()) == 6  # m + 3


def test_element_class_index_matches_the_class_scan() -> None:
    """The closed form against the position of each element in the element
    classes, found by scanning them."""
    groups = [G(f"C{m}") for m in range(1, 65)] + [G(f"Dic{m}") for m in range(2, 65)]
    for g in groups:
        scan = {x: k for k, cls in enumerate(g.element_conjugacy_classes()) for x in cls}
        assert [g.element_class_index(x) for x in range(g.order)] == [
            scan[x] for x in range(g.order)
        ], g
        for x in (-1, g.order):
            with pytest.raises(ValueError, match="not an element"):
                g.element_class_index(x)


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
    mult, inv = table(g)
    classes = g.subgroup_classes()
    coset_reps = {}
    for cls in classes:
        reps, seen = [], set()
        for x in range(g.order):
            if x not in seen:
                reps.append(x)
                seen.update(mult[x][h] for h in cls.representative)
        coset_reps[cls.id] = reps
    rows = []
    for hcls in classes:
        H = hcls.representative
        row = []
        for kcls in classes:
            row.append(sum(
                1 for r in coset_reps[hcls.id]
                if all(mult[mult[inv[r]][k]][r] in H for k in kcls.representative)
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
    classes = g.subgroup_classes()
    tom = table_of_marks(g)
    for i, hcls in enumerate(classes):
        assert tom.entries[i][0] == hcls.index  # free column: [G:H]
        assert tom.entries[i][i] == hcls.weyl_order  # diagonal: |N(H)/H|
        for j in range(i + 1, len(classes)):
            assert tom.entries[i][j] == 0  # triangular


def test_cyclic_class_of() -> None:
    c8 = G("C8")
    labels = [c8.subgroup_classes()[c8.cyclic_class_of(g)].label for g in range(8)]
    assert labels == ["e", "C8", "C4", "C8", "C2", "C8", "C4", "C8"]
