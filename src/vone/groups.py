"""Concrete finite group models: cyclic groups of any order and dicyclic
groups Dic_m (order 4m), which cover generalized quaternion 2-groups as
Q_{2^n} = Dic_{2^(n-2)}.

Subgroup classes are read off the two presentations (tom Dieck,
*Transformation Groups and Representation Theory*, LNM 766, ch. 1): the
subgroups <g^d> of C_m, d | m; the normal cyclic <x^d> of Dic_m, d | 2m;
and the classes of <x^d, x^a j> in Dic_m, d | m, one for odd d and two for
even d. Each class gets its canonical representative (least sorted element
tuple), normalizer and Weyl group order in closed form, and the invariant
factors of its Weyl group's abelianization N/H[N, N]. The multiplication
table serves element arithmetic, conjugacy classes of elements and Weyl
coordinates.

The mark |(G/H)^K| is |N(H):H| times the number of conjugates of H that
contain K (gH is K-fixed exactly when K <= gHg^-1), which makes the table of
marks lower triangular in the (order, lex) class ordering.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cache
from math import gcd

from .exactmath import IntMatrix, divisors, smith_normal_form

# Every model builds its |G| x |G| multiplication table; keep a guard rail.
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

    def __init__(self, descriptor: GroupDescriptor):
        n = descriptor.order
        if n > DEFAULT_ORDER_BOUND:
            raise ValueError(f"group order {n} exceeds bound {DEFAULT_ORDER_BOUND}")
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

    # -- subgroup classes

    def cyclic_closure(self, g: int) -> frozenset:
        out = [0]
        x = g
        while x != 0:
            out.append(x)
            x = self.mult[x][g]
        return frozenset(out)

    def subgroup_classes(self) -> tuple:
        if self._classes is None:
            self._build_classes()
        return self._classes

    def _class_families(self) -> list:
        """(conjugates, normalizer, M) per class: conjugates in sorted order,
        the representative H first, and M = H [N, N] the kernel of
        N -> (N/H)^ab. With c the cyclic part of order n (c = g, n = m over
        C_m; c = x, n = 2m over Dic_m), every <c^d>, d | n, is normal with
        M = <c^d> [G, G], and [Dic_m, Dic_m] = <x^2>. Any other subgroup H of
        Dic_m holds some x^a j, so H = <x^d, x^a j> with <x^d> the
        intersection of H and <x>, and d | m since (x^a j)^2 = x^m is in H.
        Since j x^b j^-1 = x^-b, conjugation moves a to +-a + 2b: one class
        for odd d and two for even d (a even, a odd); N(H) is H for odd d
        and <x^(d/2), x^a j> for even d, and M = H."""
        G = frozenset(range(self.order))
        cyclic = self.descriptor.kind == "cyclic"
        n = self.order if cyclic else 2 * self.descriptor.m
        out = []
        for d in divisors(n):
            H = frozenset(range(0, n, d))
            out.append(((H,), G, H if cyclic else frozenset(range(0, n, gcd(d, 2)))))
        if cyclic:
            return out

        def dic(e: int, a: int) -> frozenset:  # <x^e, x^a j>
            xs = range(0, n, e)
            return frozenset([*xs, *[n + (a + k) % n for k in xs]])

        for d in divisors(self.descriptor.m):
            # the least a of each class gives the least sorted element tuple
            for a0 in ((0,) if d % 2 else (0, 1)):
                conjs = tuple([dic(d, a) for a in range(a0, d, 1 if d % 2 else 2)])
                H = conjs[0]
                out.append((conjs, H if d % 2 else dic(d // 2, a0), H))
        return out

    def _build_classes(self):
        raw = sorted(self._class_families(), key=lambda t: (len(t[0][0]), sorted(t[0][0])))
        base_labels = [_base_label(self, conjs[0]) for conjs, _, _ in raw]
        counts = {b: base_labels.count(b) for b in base_labels}
        suffix_state: dict[str, int] = {}
        classes = []
        weyl = []
        lookup = {}
        for cid, (conjs, norm, M) in enumerate(raw):
            rep = conjs[0]
            base = base_labels[cid]
            if counts[base] > 1:
                k = suffix_state.get(base, 0)
                suffix_state[base] = k + 1
                label = base + "abcdefgh"[k]
            else:
                label = base
            weyl.append(WeylData(self, rep, norm, M))
            cls = SubgroupClass(
                group=self,
                id=cid,
                label=label,
                representative=rep,
                order=len(rep),
                index=self.order // len(rep),
                conjugates=conjs,
                normalizer=norm,
                weyl_order=len(norm) // len(rep),
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

    def subgroup_class(self, which) -> SubgroupClass:
        """The class given by a SubgroupClass of this group, an id, or a label."""
        classes = self.subgroup_classes()
        if isinstance(which, SubgroupClass):
            if which.group is not self:
                raise ValueError("subgroup class belongs to a different group")
            return which
        if isinstance(which, int):
            if not 0 <= which < len(classes):
                raise ValueError(f"no subgroup class with id {which}")
            return classes[which]
        return self.class_of_label(str(which))

    def cyclic_class_of(self, g: int) -> int:
        """Class id of the cyclic subgroup generated by g; cached per element."""
        if self._cyclic_class is None:
            self._cyclic_class = tuple(
                self.class_index_of(self.cyclic_closure(x)) for x in range(self.order)
            )
        return self._cyclic_class[g]

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
    """Abelianization of N_G(H)/H with computable coordinates; M is
    H [N, N], the kernel of N -> (N/H)^ab.

    invariants: cyclic factor orders (each > 1, divisibility chain).
    coords(g): coordinates of gH in the factors, for g in the normalizer.
    """

    def __init__(self, group: GroupModel, H: frozenset, N: frozenset, M: frozenset):
        self.group = group
        self.subgroup = H
        self.normalizer = N
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
        d, u, _, _ = smith_normal_form(rel_mat)
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
def build_group(descriptor: GroupDescriptor) -> GroupModel:
    """Shared immutable model for a descriptor."""
    return GroupModel(descriptor)


def subgroup_classes(G: GroupModel) -> tuple:
    return G.subgroup_classes()


def table_of_marks(G: GroupModel) -> TableOfMarks:
    """Entry (H, K) counts the K-fixed cosets of G/H: gH is K-fixed exactly
    when K <= gHg^-1, and each conjugate of H arises from |N(H):H| cosets."""
    classes = G.subgroup_classes()
    rows = tuple(
        tuple(
            hcls.weyl_order * sum(1 for S in hcls.conjugates if kcls.representative <= S)
            for kcls in classes
        )
        for hcls in classes
    )
    return TableOfMarks(tuple(c.label for c in classes), rows)
