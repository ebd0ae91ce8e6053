"""The Burnside ring A(G): integer combinations of orbit types [G/H].

A virtual G-set is a coefficient vector over the subgroup conjugacy classes.
Marks (fixed-point counts) embed A(G) into a product of integers; products
are computed through marks and recovered by back substitution against the
triangular table of marks, with an integrality assertion that would expose
any bookkeeping bug. Coefficients may optionally be p-local rationals
(denominators prime to p), matching how the surrounding arguments localize.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exactmath import pvaluation
from .groups import GroupModel, SubgroupClass, table_of_marks
from .virtual import VirtualElement

__all__ = [
    "VirtualGSet",
    "CardinalityDecomposition",
    "marks",
    "bmul",
    "cardinality",
    "restrict",
    "induce",
    "from_marks",
    "orbit",
]

def _tom(G: GroupModel) -> tuple:
    if G._tom_entries is None:
        G._tom_entries = table_of_marks(G).entries
    return G._tom_entries


class VirtualGSet(VirtualElement):
    """Element of A(G) in the orbit basis, optionally p-local."""

    __slots__ = ()

    _noun = "G-set"
    _basis = "subgroup classes"
    _ring = "in A(G)"

    @staticmethod
    def _size(group: GroupModel) -> int:
        return len(group.subgroup_classes())

    def _names(self) -> list:
        gname = self.group.descriptor.name
        return [f"[{gname}/{cls.label}]" for cls in self.group.subgroup_classes()]

    @classmethod
    def unit(cls, group: GroupModel) -> "VirtualGSet":
        vec = [0] * len(group.subgroup_classes())
        vec[-1] = 1  # [G/G], the largest class
        return cls(group, vec)

    _one = unit

    def _product(self, other: "VirtualGSet") -> "VirtualGSet":
        return bmul(self, other)

    def is_genuine(self) -> bool:
        return self.p_local is None and all(c >= 0 for c in self.coeffs)


@dataclass(frozen=True)
class CardinalityDecomposition:
    """Virtual cardinality split as p^t * c with c a p-local unit."""

    p: int
    t: int
    c: Fraction


def orbit(group: GroupModel, which) -> VirtualGSet:
    """The orbit [G/H] for a subgroup class, id, or label."""
    vec = [0] * len(group.subgroup_classes())
    vec[group.subgroup_class(which).id] = 1
    return VirtualGSet(group, vec)


def marks(X: VirtualGSet) -> tuple:
    """Fixed-point count of X at each subgroup class, in class order."""
    tom = _tom(X.group)
    r = len(tom)
    return tuple([sum(X.coeffs[h] * tom[h][k] for h in range(r)) for k in range(r)])


def from_marks(group: GroupModel, values, p_local: int | None = None) -> VirtualGSet:
    """Invert the triangular table of marks; errors on non-integral input."""
    tom = _tom(group)
    r = len(tom)
    vals = [Fraction(v) for v in values]
    if len(vals) != r:
        raise ValueError("mark vector length mismatch")
    coeffs = [Fraction(0)] * r
    for k in range(r - 1, -1, -1):
        acc = vals[k]
        for h in range(k + 1, r):
            acc -= coeffs[h] * tom[h][k]
        coeffs[k] = acc / tom[k][k]
    try:
        return VirtualGSet(group, coeffs, p_local)
    except ValueError as exc:
        raise ValueError(f"mark vector is not realized integrally: {exc}") from None


def bmul(X: VirtualGSet, Y: VirtualGSet) -> VirtualGSet:
    """Product in A(G) via pointwise marks."""
    if X.group is not Y.group:
        raise ValueError("different groups")
    flag = X._merge_flag(Y)
    mx, my = marks(X), marks(Y)
    prod = [a * b for a, b in zip(mx, my)]
    try:
        return from_marks(X.group, prod, flag)
    except ValueError as exc:
        # closure of A(G) under products makes this unreachable
        raise ArithmeticError(f"non-integral product in A(G): {exc}") from None


def cardinality(X: VirtualGSet, p: int) -> CardinalityDecomposition:
    """Virtual cardinality of X as p^t * c."""
    card = marks(X)[0]
    if card == 0:
        raise ValueError("virtual cardinality is zero; no p^t * c decomposition")
    t = pvaluation(Fraction(card), p)
    c = Fraction(card) / Fraction(p) ** t
    return CardinalityDecomposition(p=p, t=t, c=c)


def _classes_in(H: SubgroupClass) -> tuple:
    """The standard model of H's representative, and the class in G of each
    of its subgroup classes."""
    G = H.group
    sub, embed = G.subgroup_model(H.representative)
    to_G = tuple([
        G.class_index_of(frozenset([embed[u] for u in U.representative]))
        for U in sub.subgroup_classes()
    ])
    return sub, to_G


def restrict(X: VirtualGSet, H) -> VirtualGSet:
    """Restriction to a subgroup: the same points viewed as an H-set.

    H is a SubgroupClass, id or label of X's group; the result lives over the
    standard model of the representative subgroup. A subgroup U <= H fixes
    the same points whether X is seen as a G-set or as an H-set, so the marks
    of the restriction are marks of X read at the G-classes of H's subgroups.
    """
    sub, to_G = _classes_in(X.group.subgroup_class(H))
    mx = marks(X)
    return from_marks(sub, [mx[c] for c in to_G], X.p_local)


def induce(H: SubgroupClass, Y: VirtualGSet) -> VirtualGSet:
    """Induction G x_H Y from a subgroup class H of G up to G.

    Y must live over the standard model of H (as produced by restrict).
    Induction sends [H/U] to [G/U], so this is just class bookkeeping.
    """
    G = H.group
    sub, to_G = _classes_in(H)
    if Y.group is not sub:
        raise ValueError("G-set does not live over the chosen subgroup model")
    out = [Fraction(0)] * len(G.subgroup_classes())
    for cid, coeff in enumerate(Y.coeffs):
        out[to_G[cid]] += coeff
    return VirtualGSet(G, out, Y.p_local)
