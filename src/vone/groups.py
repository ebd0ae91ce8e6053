"""Concrete finite group models: cyclic groups of any order and dicyclic
groups Dic_m (order 4m), which cover generalized quaternion 2-groups as
Q_{2^n} = Dic_{2^(n-2)}.

Everything downstream is driven from the multiplication table: subgroup
enumeration is brute force (cyclic subgroups closed under joins), conjugacy
classes of subgroups get canonical representatives, and each class carries
its normalizer, Weyl group order, and the invariant factors of the Weyl
group's abelianization. The table of marks |(G/H)^K| is computed by direct
coset counting and is lower triangular in the (order, lex) class ordering.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cache
from math import gcd

from .exactmath import IntMatrix, smith_normal_form

# Brute-force enumeration is quadratic-ish in |G|; keep a guard rail.
DEFAULT_ORDER_BOUND = 512

__all__ = [
    "DEFAULT_ORDER_BOUND",
    "GroupDescriptor",
    "GroupModel",
    "SubgroupClass",
    "TableOfMarks",
    "WeylData",
    "build_group",
    "subgroup_classes",
    "table_of_marks",
]


@dataclass(frozen=True)
class GroupDescriptor:
    """Which group: kind is "cyclic" (order m) or "dicyclic" (order 4m)."""

    kind: str
    m: int

    @classmethod
    def cyclic(cls, p: int, n: int) -> "GroupDescriptor":
        if n < 0:
            raise ValueError("cyclic exponent must be >= 0")
        return cls("cyclic", p**n)

    @classmethod
    def cyclic_of_order(cls, m: int) -> "GroupDescriptor":
        if m < 1:
            raise ValueError("cyclic order must be >= 1")
        return cls("cyclic", m)

    @classmethod
    def dicyclic(cls, m: int) -> "GroupDescriptor":
        if m < 2:
            raise ValueError("dicyclic parameter must be >= 2")
        return cls("dicyclic", m)

    @classmethod
    def quaternion(cls, order: int) -> "GroupDescriptor":
        if order < 8 or order & (order - 1):
            raise ValueError("quaternion group order must be a power of 2, >= 8")
        return cls("dicyclic", order // 4)

    @classmethod
    def parse(cls, text: str) -> "GroupDescriptor":
        """Parse names like C8, Q16, Dic3."""
        m = re.fullmatch(r"C(\d+)", text)
        if m:
            return cls.cyclic_of_order(int(m.group(1)))
        m = re.fullmatch(r"Q(\d+)", text)
        if m:
            return cls.quaternion(int(m.group(1)))
        m = re.fullmatch(r"Dic(\d+)", text)
        if m:
            return cls.dicyclic(int(m.group(1)))
        raise ValueError(f"unrecognized group name {text!r}")

    @property
    def order(self) -> int:
        return self.m if self.kind == "cyclic" else 4 * self.m

    @property
    def name(self) -> str:
        if self.kind == "cyclic":
            return f"C{self.m}"
        n = 4 * self.m
        if n & (n - 1) == 0:
            return f"Q{n}"
        return f"Dic{self.m}"


@dataclass(frozen=True, eq=False)
class SubgroupClass:
    """One conjugacy class of subgroups, with a canonical representative."""

    group: "GroupModel"
    id: int
    label: str
    representative: frozenset
    sorted_elements: tuple
    order: int
    index: int
    conjugates: tuple
    normalizer: frozenset
    weyl_order: int
    weyl_invariants: tuple

    def __repr__(self):
        return f"<SubgroupClass {self.label} order {self.order}>"


@dataclass(frozen=True)
class TableOfMarks:
    """Fixed-point counts |(G/H)^K|: rows H, columns K, both in class order."""

    labels: tuple
    entries: tuple


class GroupModel:
    """A finite group as explicit tables. Element 0 is the identity.

    Cyclic order m: element a is g^a, addition mod m. Dicyclic order 4m:
    elements 0..2m-1 are x^a, elements 2m..4m-1 are x^a j, with relations
    x^(2m) = e, j^2 = x^m, j x j^(-1) = x^(-1).
    """

    def __init__(self, descriptor: GroupDescriptor, bound: int = DEFAULT_ORDER_BOUND):
        n = descriptor.order
        if n > bound:
            raise ValueError(f"group order {n} exceeds bound {bound}")
        self.descriptor = descriptor
        self.order = n
        if descriptor.kind == "cyclic":
            m = descriptor.m
            self.mult = tuple(tuple((a + b) % m for b in range(m)) for a in range(m))
            self.inv = tuple((-a) % m for a in range(m))
        else:
            m = descriptor.m
            self.mult = tuple(
                tuple(_dic_mul(a, b, m) for b in range(4 * m)) for a in range(4 * m)
            )
            self.inv = tuple(
                (-a) % (2 * m) if a < 2 * m else 2 * m + (a - 2 * m + m) % (2 * m)
                for a in range(4 * m)
            )
        self._classes = None
        self._class_by_subgroup = None
        self._cyclic_class = None
        self._elem_classes = None
        self._weyl = None
        self._submodels = {}
        # tables of other layers, kept here so that they live and die with
        # the model (burnside: marks entries; repring: character table)
        self._tom_entries = None
        self._character_table = None

    # -- basic operations

    def mul(self, a: int, b: int) -> int:
        return self.mult[a][b]

    def inv_of(self, a: int) -> int:
        return self.inv[a]

    def power(self, g: int, k: int) -> int:
        if k < 0:
            g, k = self.inv[g], -k
        out = 0
        while k:
            if k & 1:
                out = self.mult[out][g]
            g = self.mult[g][g]
            k >>= 1
        return out

    def element_order(self, g: int) -> int:
        k, x = 1, g
        while x != 0:
            x = self.mult[x][g]
            k += 1
        return k

    def conj(self, g: int, x: int) -> int:
        """x g x^(-1)."""
        return self.mult[self.mult[x][g]][self.inv[x]]

    def elements(self) -> range:
        return range(self.order)

    # -- subgroup machinery

    def closure(self, gens) -> frozenset:
        out = {0}
        work = [0]
        for g in gens:
            if g not in out:
                out.add(g)
                work.append(g)
        while work:
            a = work.pop()
            for b in list(out):
                for c in (self.mult[a][b], self.mult[b][a]):
                    if c not in out:
                        out.add(c)
                        work.append(c)
        return frozenset(out)

    def cyclic_closure(self, g: int) -> frozenset:
        out = [0]
        x = g
        while x != 0:
            out.append(x)
            x = self.mult[x][g]
        return frozenset(out)

    def generating_set(self, H: frozenset) -> tuple:
        """Small (greedy) generating set of a subgroup."""
        gens: list[int] = []
        got = frozenset([0])
        for g in sorted(H):
            if g not in got:
                gens.append(g)
                got = self.closure(gens)
                if got == H:
                    break
        return tuple(gens)

    def conjugate_subgroup(self, H: frozenset, x: int) -> frozenset:
        return frozenset(self.conj(h, x) for h in H)

    def normalizer_of(self, H: frozenset) -> frozenset:
        gens = self.generating_set(H)
        return frozenset(
            x for x in range(self.order) if all(self.conj(h, x) in H for h in gens)
        )

    def all_subgroups(self) -> list:
        cyclics = {self.cyclic_closure(g) for g in range(self.order)}
        found = set(cyclics)
        work = list(found)
        while work:
            H = work.pop()
            for C in cyclics:
                if not C <= H:
                    J = self.closure(tuple(H) + tuple(C))
                    if J not in found:
                        found.add(J)
                        work.append(J)
        return sorted(found, key=lambda S: (len(S), tuple(sorted(S))))

    def subgroup_classes(self) -> tuple:
        if self._classes is None:
            self._build_classes()
        return self._classes

    def _build_classes(self):
        subgroups = self.all_subgroups()
        seen = set()
        raw = []
        for H in subgroups:
            if H in seen:
                continue
            conjs = {self.conjugate_subgroup(H, x) for x in range(self.order)}
            seen |= conjs
            rep = min(conjs, key=lambda S: tuple(sorted(S)))
            raw.append((rep, tuple(sorted(conjs, key=lambda S: tuple(sorted(S))))))
        raw.sort(key=lambda t: (len(t[0]), tuple(sorted(t[0]))))

        base_labels = []
        for rep, _ in raw:
            base_labels.append(_base_label(self, rep))
        counts = {b: base_labels.count(b) for b in base_labels}
        suffix_state: dict[str, int] = {}
        classes = []
        weyl = []
        lookup = {}
        for cid, (rep, conjs) in enumerate(raw):
            base = base_labels[cid]
            if counts[base] > 1:
                k = suffix_state.get(base, 0)
                suffix_state[base] = k + 1
                label = base + "abcdefgh"[k]
            else:
                label = base
            norm = self.normalizer_of(rep)
            weyl_order = len(norm) // len(rep)
            weyl.append(WeylData(self, rep, norm))
            cls = SubgroupClass(
                group=self,
                id=cid,
                label=label,
                representative=rep,
                sorted_elements=tuple(sorted(rep)),
                order=len(rep),
                index=self.order // len(rep),
                conjugates=conjs,
                normalizer=norm,
                weyl_order=weyl_order,
                weyl_invariants=weyl[-1].invariants,
            )
            classes.append(cls)
            for S in conjs:
                lookup[S] = cid
        self._classes = tuple(classes)
        self._weyl = tuple(weyl)
        self._class_by_subgroup = lookup

    def class_index_of(self, elems) -> int:
        """Class id of a subgroup given by its element set."""
        if self._class_by_subgroup is None:
            self._build_classes()
        key = elems if isinstance(elems, frozenset) else frozenset(elems)
        try:
            return self._class_by_subgroup[key]
        except KeyError:
            raise ValueError("not a subgroup of this group") from None

    def class_of_label(self, label: str) -> SubgroupClass:
        for cls in self.subgroup_classes():
            if cls.label == label:
                return cls
        raise ValueError(f"no subgroup class labeled {label!r}")

    def cyclic_class_of(self, g: int) -> int:
        """Class id of the cyclic subgroup generated by g; cached per element."""
        if self._cyclic_class is None:
            self._cyclic_class = tuple(
                self.class_index_of(self.cyclic_closure(x)) for x in range(self.order)
            )
        return self._cyclic_class[g]

    def find_conjugator(self, A: frozenset, B: frozenset) -> int | None:
        """Some x with x A x^(-1) = B, or None."""
        if len(A) != len(B):
            return None
        gens = self.generating_set(A)
        for x in range(self.order):
            if all(self.conj(a, x) in B for a in gens):
                if self.conjugate_subgroup(A, x) == B:
                    return x
        return None

    # -- element conjugacy classes (for character theory)

    def element_conjugacy_classes(self) -> tuple:
        """Tuples of elements, each sorted; classes ordered by least member."""
        if self._elem_classes is None:
            seen = set()
            out = []
            for g in range(self.order):
                if g in seen:
                    continue
                cls = {self.conj(g, x) for x in range(self.order)}
                seen |= cls
                out.append(tuple(sorted(cls)))
            out.sort(key=lambda c: c[0])
            self._elem_classes = tuple(out)
        return self._elem_classes

    # -- Weyl abelianization with coordinates

    def weyl_data(self, class_id: int) -> "WeylData":
        """Built with the subgroup classes, which read its invariants."""
        if self._weyl is None:
            self._build_classes()
        return self._weyl[class_id]

    # -- subgroup as a standalone group

    def subgroup_model(self, elems: frozenset):
        """Standard model of a subgroup plus the embedding list into G.

        Returns (model, embed) where embed[i] is the G-element realizing
        element i of the standard model. The subgroup must be cyclic or
        dicyclic, which covers every subgroup of the supported families.
        """
        key = elems if isinstance(elems, frozenset) else frozenset(elems)
        if key in self._submodels:
            return self._submodels[key]
        order = len(key)
        gen = None
        for g in sorted(key):
            if self.element_order(g) == order:
                gen = g
                break
        if gen is not None:
            desc = GroupDescriptor.cyclic_of_order(order)
            embed = []
            x = 0
            for _ in range(order):
                embed.append(x)
                x = self.mult[x][gen]
        else:
            if order % 4:
                raise ValueError("subgroup is neither cyclic nor dicyclic")
            m = order // 4
            a = None
            for g in sorted(key):
                if self.element_order(g) == 2 * m:
                    a = g
                    break
            if a is None:
                raise ValueError("subgroup is neither cyclic nor dicyclic")
            cyc = self.cyclic_closure(a)
            b = min(g for g in key if g not in cyc)
            ak = self.power(a, m)
            if self.mult[b][b] != ak or self.conj(a, b) != self.inv[a]:
                raise ValueError("subgroup is neither cyclic nor dicyclic")
            desc = GroupDescriptor.dicyclic(m)
            embed = []
            x = 0
            for _ in range(2 * m):
                embed.append(x)
                x = self.mult[x][a]
            for i in range(2 * m):
                embed.append(self.mult[embed[i]][b])
        model = build_group(desc)
        # sanity: embedding must be a homomorphism
        assert all(
            embed[model.mult[i][j]] == self.mult[embed[i]][embed[j]]
            for i in range(order)
            for j in range(order)
        )
        self._submodels[key] = (model, tuple(embed))
        return self._submodels[key]

    def __repr__(self):
        return f"<GroupModel {self.descriptor.name} order {self.order}>"


class WeylData:
    """Abelianization of N_G(H)/H with computable coordinates.

    invariants: cyclic factor orders (each > 1, divisibility chain).
    coords(g): coordinates of gH in the factors, for g in the normalizer.
    """

    def __init__(self, group: GroupModel, H: frozenset, N: frozenset):
        self.group = group
        self.subgroup = H
        self.normalizer = N
        comms = set(H)
        for a in N:
            ai = group.inv[a]
            for b in N:
                comms.add(group.mult[group.mult[group.mult[a][b]][ai]][group.inv[b]])
        M = group.closure(comms)
        # cosets of M in N form the abelian quotient
        coset_of = {}
        reps = []
        for g in sorted(N):
            if g not in coset_of:
                cid = len(reps)
                reps.append(g)
                for m in M:
                    coset_of[group.mult[g][m]] = cid
        self._coset_of = coset_of
        size = len(reps)
        self.order = size

        def cmul(c1: int, c2: int) -> int:
            return coset_of[group.mult[reps[c1]][reps[c2]]]

        # greedy generator chain; every element gets an exponent vector
        vectors = {0: ()}
        gens: list[int] = []
        mods: list[int] = []
        rels: list[list[int]] = []
        while len(vectors) < size:
            g = min(c for c in range(size) if c not in vectors)
            x, k = g, 1
            while x not in vectors:
                x = cmul(x, g)
                k += 1
            tail = vectors[x]  # g^k lands in the previous stage
            r = len(gens)
            rel = [0] * (r + 1)
            rel[r] = k
            for i, c in enumerate(tail):
                rel[i] -= c
            for old, vec in list(vectors.items()):
                acc = old
                for e in range(1, k):
                    acc = cmul(acc, g)
                    vectors[acc] = vec + (0,) * (r - len(vec)) + (e,)
            for old, vec in list(vectors.items()):
                if len(vec) < r + 1:
                    vectors[old] = vec + (0,) * (r + 1 - len(vec))
            gens.append(g)
            mods.append(k)
            rels.append(rel)
        rank = len(gens)
        if rank == 0:
            self.invariants = ()
            self._U = None
            self._vectors = {0: ()}
            return
        rel_mat = IntMatrix(
            [
                [rels[j][i] if i < len(rels[j]) else 0 for j in range(rank)]
                for i in range(rank)
            ]
        )
        d, u, _ = smith_normal_form(rel_mat)
        diag = d.diag()
        total = 1
        for x in diag:
            total *= x
        assert total == size
        self._U = u
        self._keep = tuple(i for i, x in enumerate(diag) if x > 1)
        self.invariants = tuple(diag[i] for i in self._keep)
        self._vectors = {c: tuple(v) for c, v in vectors.items()}

    def coords(self, g: int) -> tuple:
        """Image of g N-coset in the invariant-factor coordinates."""
        if g not in self._coset_of:
            raise ValueError("element does not normalize the subgroup")
        vec = self._vectors[self._coset_of[g]]
        if not self.invariants:
            return ()
        u = self._U
        out = []
        for pos, inv_f in zip(self._keep, self.invariants):
            val = sum(u.entries[pos][j] * vec[j] for j in range(len(vec)))
            out.append(val % inv_f)
        return tuple(out)

    def zero(self) -> tuple:
        return (0,) * len(self.invariants)

    def add(self, a: tuple, b: tuple) -> tuple:
        return tuple((x + y) % m for x, y, m in zip(a, b, self.invariants))


def _dic_mul(a: int, b: int, m: int) -> int:
    two_m = 2 * m
    af, ar = divmod(a, two_m)
    bf, br = divmod(b, two_m)
    if not af:
        return (ar + br) % two_m + (two_m if bf else 0)
    if not bf:
        return (ar - br) % two_m + two_m
    return (ar - br + m) % two_m


def _base_label(group: GroupModel, rep: frozenset) -> str:
    order = len(rep)
    if order == 1:
        return "e"
    if any(group.element_order(g) == order for g in rep):
        return f"C{order}"
    if order & (order - 1) == 0:
        return f"Q{order}"
    return f"Dic{order // 4}"


@cache
def build_group(descriptor: GroupDescriptor, bound: int = DEFAULT_ORDER_BOUND) -> GroupModel:
    """Shared immutable model for a descriptor."""
    return GroupModel(descriptor, bound)


def subgroup_classes(G: GroupModel) -> tuple:
    return G.subgroup_classes()


def table_of_marks(G: GroupModel) -> TableOfMarks:
    """Entry (H, K) counts the K-fixed cosets of G/H."""
    classes = G.subgroup_classes()
    coset_reps = {}
    for cls in classes:
        H = cls.representative
        reps = []
        seen = set()
        for g in range(G.order):
            if g not in seen:
                reps.append(g)
                seen.update(G.mult[g][h] for h in H)
        coset_reps[cls.id] = reps
    rows = []
    for hcls in classes:
        H = hcls.representative
        row = []
        for kcls in classes:
            gens = G.generating_set(kcls.representative)
            cnt = 0
            for r in coset_reps[hcls.id]:
                ri = G.inv[r]
                if all(G.mult[G.mult[ri][k]][r] in H for k in gens):
                    cnt += 1
            row.append(cnt)
        rows.append(tuple(row))
    return TableOfMarks(tuple(c.label for c in classes), tuple(rows))
