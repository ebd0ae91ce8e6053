"""Concrete finite group models: cyclic groups of any order and dicyclic
groups Dic_m (order 4m), which cover generalized quaternion 2-groups as
Q_{2^n} = Dic_{2^(n-2)}.

Subgroup classes are read off the two presentations (tom Dieck,
*Transformation Groups and Representation Theory*, LNM 766, ch. 1): the
subgroups <g^d> of C_m, d | m; the normal cyclic <x^d> of Dic_m, d | 2m;
and the classes of <x^d, x^a j> in Dic_m, d | m, one for odd d and two for
even d. Each family gives its classes' canonical representatives (least
sorted element tuple), normalizers, labels, and Weyl groups N/H with their
abelianizations N/H[N, N], all in closed form (see WeylData).
Element products, inverses, powers, orders, conjugates and conjugacy
classes are read off the presentations too; no model stores a table of its
group law or searches its elements.

The mark |(G/H)^K| is |N(H):H| times the number of conjugates of H that
contain K (gH is K-fixed exactly when K <= gHg^-1), which makes the table of
marks lower triangular in the (order, lex) class ordering.
"""

from __future__ import annotations

import re
from functools import cache
from math import gcd

from .exactmath import divisors
from .limits import DEFAULT_ORDER_BOUND
from .record import record

__all__ = [
    "GroupDescriptor",
    "GroupModel",
    "SubgroupClass",
    "TableOfMarks",
    "WeylData",
    "build_group",
    "table_of_marks",
]


@record
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


@record(eq=False)
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


@record
class TableOfMarks:
    """Fixed-point counts |(G/H)^K|: rows H, columns K, both in class order."""

    labels: tuple
    entries: tuple


class GroupModel:
    """A finite group given by its presentation; element 0 is the identity.

    Cyclic order m: element a is g^a, and g^a g^b = g^((a + b) mod m).
    Dicyclic order 4m: elements 0..2m-1 are x^a, elements 2m..4m-1 are
    x^a j, with relations x^(2m) = e, j^2 = x^m, j x j^(-1) = x^(-1).
    Products, inverses, powers, orders and conjugates are read off the
    presentation; no table is stored. Every operation but mul raises
    ValueError for an element outside range(|G|).
    """

    def __init__(self, descriptor: GroupDescriptor):
        n = descriptor.order
        if n > DEFAULT_ORDER_BOUND:
            raise ValueError(f"group order {n} exceeds bound {DEFAULT_ORDER_BOUND}")
        self.descriptor = descriptor
        self.order = n
        self._cyclic = descriptor.kind == "cyclic"
        self._n = n if self._cyclic else 2 * descriptor.m  # order of <g> or <x>
        self._classes = None
        self._class_by_subgroup = None
        self._cyclic_class = {}
        self._elem_classes = None
        self._weyl = None
        # the nonzero marks of burnside, kept here so that they live and die
        # with the model
        self._tom_nonzero = None

    # -- basic operations

    def check_element(self, g: int) -> None:
        """ValueError unless g is an element, i.e. in range(|G|)."""
        if not 0 <= g < self.order:
            raise ValueError(f"{g} is not an element of {self.descriptor.name}")

    def mul(self, a: int, b: int) -> int:
        """Unchecked, unlike the other operations: it is the inner loop of
        the Sq1 points action, and an a or b outside range(|G|) gives a
        meaningless product."""
        if self._cyclic:
            return (a + b) % self._n
        return _dic_mul(a, b, self.descriptor.m)

    def inv_of(self, a: int) -> int:
        """(x^a j)^-1 = x^(a+m) j, since (x^a j)^2 = x^m is central."""
        self.check_element(a)
        n = self._n
        if a < n:
            return -a % n
        return n + (a + n // 2) % n

    def power(self, g: int, k: int) -> int:
        """g^k for any integer k; x^a j has order 4 with square x^m."""
        self.check_element(g)
        n = self._n
        if g < n:
            return g * k % n
        return (0, g, n // 2, self.inv_of(g))[k % 4]

    def element_order(self, g: int) -> int:
        self.check_element(g)
        n = self._n
        return n // gcd(g, n) if g < n else 4

    def conj(self, g: int, x: int) -> int:
        """x g x^(-1): x^b fixes x^a and sends x^c j to x^(c+2b) j; x^b j
        sends x^a to x^-a and x^c j to x^(2b-c) j."""
        self.check_element(g)
        self.check_element(x)
        n = self._n
        if self._cyclic or (x < n and g < n):
            return g
        if x < n:
            return n + (g + 2 * x) % n
        if g < n:
            return -g % n
        return n + (2 * x - g) % n

    # -- subgroup classes

    def cyclic_closure(self, g: int) -> frozenset:
        self.check_element(g)
        n = self._n
        if g < n:
            return frozenset(range(0, n, gcd(g, n)))
        return frozenset((0, g, n // 2, self.inv_of(g)))

    def subgroup_classes(self) -> tuple:
        if self._classes is None:
            self._build_classes()
        return self._classes

    def _class_families(self) -> list:
        """(conjugates, normalizer, base label) per class: conjugates in
        sorted order, the representative H first. With c the cyclic part of
        order n (c = g, n = m over C_m; c = x, n = 2m over Dic_m), every
        <c^d>, d | n, is normal and cyclic. Any other subgroup H of Dic_m
        holds some x^a j, so H = <x^d, x^a j> with <x^d> the intersection of
        H and <x>, and d | m since (x^a j)^2 = x^m is in H. Since
        j x^b j^-1 = x^-b, conjugation moves a to +-a + 2b: one class for odd
        d and two for even d (a even, a odd); N(H) is H for odd d and
        <x^(d/2), x^a j> for even d. H has order 4m/d: for d = m it is the
        cyclic <x^a j>, otherwise it is Dic_(m/d), as x^d has order 2m/d,
        (x^a j)^2 = x^m = (x^d)^(m/d) and x^a j inverts x^d."""
        G = frozenset(range(self.order))
        n = self._n
        out = []
        for d in divisors(n):
            out.append(((frozenset(range(0, n, d)),), G, f"C{n // d}" if d < n else "e"))
        if self._cyclic:
            return out

        def dic(e: int, a: int) -> frozenset:  # <x^e, x^a j>
            xs = range(0, n, e)
            return frozenset([*xs, *[n + (a + k) % n for k in xs]])

        m = self.descriptor.m
        for d in divisors(m):
            k = 4 * m // d
            base = "C4" if k == 4 else f"Q{k}" if k & (k - 1) == 0 else f"Dic{k // 4}"
            # the least a of each class gives the least sorted element tuple
            for a0 in ((0,) if d % 2 else (0, 1)):
                conjs = tuple([dic(d, a) for a in range(a0, d, 1 if d % 2 else 2)])
                out.append((conjs, conjs[0] if d % 2 else dic(d // 2, a0), base))
        return out

    def _build_classes(self):
        raw = sorted(self._class_families(), key=lambda t: (len(t[0][0]), sorted(t[0][0])))
        base_labels = [base for _, _, base in raw]
        counts = {b: base_labels.count(b) for b in base_labels}
        suffix_state: dict[str, int] = {}
        classes = []
        weyl = []
        lookup = {}
        for cid, (conjs, norm, base) in enumerate(raw):
            rep = conjs[0]
            if counts[base] > 1:
                k = suffix_state.get(base, 0)
                suffix_state[base] = k + 1
                label = base + "abcdefgh"[k]
            else:
                label = base
            weyl.append(WeylData(self, rep, norm))
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
        """Class id of the cyclic subgroup generated by g. <x^a> = <x^d>
        with d = gcd(a, n), and <x^a j> is conjugate to <x^(a mod 2) j>;
        cached per generator."""
        self.check_element(g)
        n = self._n
        key = gcd(g, n) % n if g < n else n + (g - n) % 2
        cid = self._cyclic_class.get(key)
        if cid is None:
            cid = self._cyclic_class[key] = self.class_index_of(self.cyclic_closure(key))
        return cid

    # -- element conjugacy classes (for character theory)

    def element_conjugacy_classes(self) -> tuple:
        """Tuples of elements, each sorted; classes ordered by least member.
        C_m is abelian. In Dic_m the classes are {x^a, x^-a}, 0 <= a <= m,
        then the x^a j with a even and with a odd (see conj)."""
        if self._elem_classes is None:
            n = self._n
            if self._cyclic:
                out = [(a,) for a in range(n)]
            else:
                m = n // 2
                out = [(0,), *[(a, n - a) for a in range(1, m)], (m,)]
                out += [tuple(range(n, 2 * n, 2)), tuple(range(n + 1, 2 * n, 2))]
            self._elem_classes = tuple(out)
        return self._elem_classes

    def element_class_index(self, g: int) -> int:
        """Position of g's class in `element_conjugacy_classes`: g over
        C_m; over Dic_m min(a, 2m - a) for x^a and m + 1 + (a mod 2) for
        x^a j (see conj)."""
        self.check_element(g)
        n = self._n
        if g < n:
            return g if self._cyclic else min(g, n - g)
        return n // 2 + 1 + (g - n) % 2

    # -- Weyl abelianization with coordinates

    def weyl_data(self, class_id: int) -> "WeylData":
        """Built with the subgroup classes, which read its invariants."""
        if self._weyl is None:
            self._build_classes()
        return self._weyl[class_id]

    def __repr__(self):
        return f"<GroupModel {self.descriptor.name} order {self.order}>"


class WeylData:
    """The abelianization N/H[N, N] of the Weyl group N/H, N = N_G(H), read
    off H's family (see GroupModel._class_families). Write x^a j^b for an
    element of Dic_m, a in range(2m), b in {0, 1}.

    order: |N/H[N, N]|, the product of the invariants.
    invariants: cyclic factor orders (each > 1, divisibility chain).
    coords(g): coordinates of gH in the factors, for g in the normalizer;
    ValueError for any other g.

    - C_m, H = <g^d>: N = G is abelian, so N/H = C_m/<g^d> = C_d, generated
      by gH: invariants (d,), or () for d = 1, and g^a -> (a mod d).
    - Dic_m, H = <x^d>, d | 2m: H is characteristic in the normal <x>, so
      N = G. j x j^-1 x^-1 = x^-2 and G/<x^2> has order 4, hence abelian, so
      [G, G] = <x^2> and H[G, G] = <x^gcd(d, 2)>.
      - d odd: G/<x> = C2, generated by j: invariants (2,), x^a j^b -> (b).
      - d even, m even: j^2 = x^m and x^2 lie in <x^2>, so the images of x
        and j generate G/<x^2> = C2 x C2: (2, 2), x^a j^b -> (a mod 2, b).
      - d even, m odd: j^2 = x^m = x mod <x^2>, so j generates
        G/<x^2> = C4 and x^a j^b = j^(2a + b): (4,), x^a j^b -> (2a + b mod 4).
    - Dic_m, H = <x^d, x^a j>, d | m: N = H for odd d, so N/H = 1 and the
      invariants are (); N = <x^(d/2), x^a j> for even d, so N/H = C2:
      invariants (2,), and g -> (0) for g in H, (1) otherwise.
    """

    def __init__(self, group: GroupModel, H: frozenset, N: frozenset):
        self.subgroup = H
        self.normalizer = N
        n = group._n
        if group._cyclic:
            d = n // len(H)
            self.invariants = (d,) if d > 1 else ()
            self._coords = lambda g: (g % d,)
        elif max(H) < n:  # <x^d>
            if (n // len(H)) % 2:
                self.invariants = (2,)
                self._coords = lambda g: (g // n,)
            elif group.descriptor.m % 2 == 0:
                self.invariants = (2, 2)
                self._coords = lambda g: (g % n % 2, g // n)
            else:
                self.invariants = (4,)
                self._coords = lambda g: ((2 * (g % n) + g // n) % 4,)
        else:  # <x^d, x^a j>
            self.invariants = (2,) if len(N) > len(H) else ()
            self._coords = lambda g: (int(g not in H),)
        self.order = 1
        for f in self.invariants:
            self.order *= f

    def coords(self, g: int) -> tuple:
        """Image of the coset gH in the invariant-factor coordinates."""
        if g not in self.normalizer:
            raise ValueError("element does not normalize the subgroup")
        return self._coords(g) if self.invariants else ()

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


@cache
def build_group(descriptor: GroupDescriptor) -> GroupModel:
    """Shared immutable model for a descriptor."""
    return GroupModel(descriptor)


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
