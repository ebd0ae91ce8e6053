"""The Burnside ring A(G): integer combinations of orbit types [G/H].

A virtual G-set is a coefficient vector over the subgroup conjugacy classes.
Marks (fixed-point counts) embed A(G) into a product of integers; products
are computed through marks and recovered by back substitution against the
triangular table of marks, in integers: each step is an exact division by
a diagonal mark, and a quotient that does not divide (p-local input, or a
mark vector that no integral X has) is the only place a Fraction enters.
An integrality assertion would expose any bookkeeping bug. Coefficients
may optionally be p-local rationals (denominators prime to p), matching
how the surrounding arguments localize.
"""

from __future__ import annotations

from fractions import Fraction

from .exactmath import pvaluation
from .groups import GroupModel, table_of_marks
from .record import record
from .virtual import VirtualElement

__all__ = [
    "VirtualGSet",
    "CardinalityDecomposition",
    "marks",
    "bmul",
    "cardinality",
    "from_marks",
    "orbit",
]

def _tom(G: GroupModel) -> tuple:
    """The nonzero entries of the table of marks, kept on the model: per
    row H the (K, mark) pairs, per column K the (H, mark) pairs below the
    diagonal, and the diagonal |N(H):H|. The table is lower triangular in
    class order (a K-fixed coset of H needs |K| <= |H|)."""
    if G._tom_nonzero is None:
        tom = table_of_marks(G).entries
        r = len(tom)
        rows = tuple([tuple([(k, t) for k, t in enumerate(row) if t]) for row in tom])
        below = tuple([tuple([(h, tom[h][k]) for h in range(k + 1, r) if tom[h][k]])
                       for k in range(r)])
        G._tom_nonzero = (rows, below, tuple([tom[k][k] for k in range(r)]))
    return G._tom_nonzero


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
        """Whether X is a G-set: every coefficient a nonnegative integer,
        with or without a p-local flag."""
        return all(isinstance(c, int) and c >= 0 for c in self.coeffs)


@record
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
    rows = _tom(X.group)[0]
    out = [0] * len(rows)
    for c, row in zip(X.coeffs, rows):
        if c:
            for k, t in row:
                out[k] += c * t
    return tuple(out)


def from_marks(group: GroupModel, values, p_local: int | None = None) -> VirtualGSet:
    """Invert the triangular table of marks; errors on non-integral input.

    Back substitution from [G/G] down: the coefficient at K is the mark at
    K, less the orbits above it, divided by |N(K):K|. The division is exact
    in integers while it divides; one that leaves a remainder gives a
    Fraction, and VirtualGSet then decides whether that is p-local."""
    _, below, diag = _tom(group)
    vals = [v if type(v) is int else Fraction(v) for v in values]
    if len(vals) != len(diag):
        raise ValueError("mark vector length mismatch")
    coeffs = [0] * len(diag)
    for k in range(len(diag) - 1, -1, -1):
        acc = vals[k]
        for h, t in below[k]:
            acc -= coeffs[h] * t
        q, rem = divmod(acc, diag[k])
        coeffs[k] = Fraction(acc, diag[k]) if rem else q
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
    """Virtual cardinality of X as p^t * c: its mark at e, to which
    [G/H] contributes its index. The card of an integral X is an int, and
    then t >= 0; t < 0 only for a denominator divisible by p."""
    card = sum(c * cls.index for c, cls in zip(X.coeffs, X.group.subgroup_classes()))
    if card == 0:
        raise ValueError("virtual cardinality is zero; no p^t * c decomposition")
    t = pvaluation(card, p)
    if t < 0:
        c = card * p**-t
    else:
        c = Fraction(card // p**t) if type(card) is int else card / p**t
    return CardinalityDecomposition(p=p, t=t, c=c)

