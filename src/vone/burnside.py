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


def _normalize(value, p_local):
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return int(value)
        if p_local is None:
            raise ValueError("non-integer coefficient on an integral G-set")
        if value.denominator % p_local == 0:
            raise ValueError(f"denominator not prime to {p_local}")
        return value
    return int(value)


class VirtualGSet:
    """Element of A(G) in the orbit basis, optionally p-local."""

    __slots__ = ("group", "coeffs", "p_local")

    def __init__(self, group: GroupModel, coeffs, p_local: int | None = None):
        classes = group.subgroup_classes()
        vec = [Fraction(c) for c in coeffs]
        if len(vec) != len(classes):
            raise ValueError("coefficient count does not match subgroup classes")
        object.__setattr__(self, "group", group)
        object.__setattr__(
            self, "coeffs", tuple([_normalize(c, p_local) for c in vec])
        )
        object.__setattr__(self, "p_local", p_local)

    def __setattr__(self, *a):
        raise AttributeError("VirtualGSet is immutable")

    # -- constructors

    @classmethod
    def zero(cls, group: GroupModel) -> "VirtualGSet":
        return cls(group, [0] * len(group.subgroup_classes()))

    @classmethod
    def unit(cls, group: GroupModel) -> "VirtualGSet":
        vec = [0] * len(group.subgroup_classes())
        vec[-1] = 1  # [G/G], the largest class
        return cls(group, vec)

    # -- structure

    def is_genuine(self) -> bool:
        return self.p_local is None and all(c >= 0 for c in self.coeffs)

    def _merge_flag(self, other: "VirtualGSet") -> int | None:
        if self.p_local is not None and other.p_local is not None:
            if self.p_local != other.p_local:
                raise ValueError("mixed p-local primes")
        return self.p_local if self.p_local is not None else other.p_local

    def __add__(self, other):
        if isinstance(other, int):
            other = other * VirtualGSet.unit(self.group)
        if not isinstance(other, VirtualGSet):
            return NotImplemented
        if other.group is not self.group:
            raise ValueError("different groups")
        flag = self._merge_flag(other)
        return VirtualGSet(
            self.group, [a + b for a, b in zip(self.coeffs, other.coeffs)], flag
        )

    __radd__ = __add__

    def __neg__(self):
        return VirtualGSet(self.group, [-c for c in self.coeffs], self.p_local)

    def __sub__(self, other):
        if isinstance(other, int):
            other = other * VirtualGSet.unit(self.group)
        if not isinstance(other, VirtualGSet):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            flag = self.p_local
            if isinstance(other, Fraction) and other.denominator != 1 and flag is None:
                raise ValueError("rational scaling requires a p-local G-set")
            return VirtualGSet(self.group, [c * other for c in self.coeffs], flag)
        if isinstance(other, VirtualGSet):
            return bmul(self, other)
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError("negative powers are not defined in A(G)")
        out = VirtualGSet.unit(self.group)
        for _ in range(e):
            out = bmul(out, self)
        return out

    def __eq__(self, other):
        if not isinstance(other, VirtualGSet):
            return NotImplemented
        return (
            self.group.descriptor == other.group.descriptor
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.group.descriptor, self.coeffs))

    def __repr__(self):
        classes = self.group.subgroup_classes()
        gname = self.group.descriptor.name
        terms = []
        for cls, c in zip(classes, self.coeffs):
            if c == 0:
                continue
            orb = f"[{gname}/{cls.label}]"
            if c == 1:
                terms.append(orb)
            elif c == -1:
                terms.append(f"-{orb}")
            else:
                terms.append(f"{c}*{orb}")
        if not terms:
            return "0"
        out = terms[0]
        for t in terms[1:]:
            out += t if t.startswith("-") else "+" + t
        return out


@dataclass(frozen=True)
class CardinalityDecomposition:
    """Virtual cardinality split as p^t * c with c a p-local unit."""

    p: int
    t: int
    c: Fraction


def orbit(group: GroupModel, which) -> VirtualGSet:
    """The orbit [G/H] for a subgroup class, id, or label."""
    if isinstance(which, SubgroupClass):
        cid = which.id
    elif isinstance(which, int):
        cid = which
    else:
        cid = group.class_of_label(str(which)).id
    vec = [0] * len(group.subgroup_classes())
    vec[cid] = 1
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


def _coset_points(G: GroupModel, H: frozenset) -> dict:
    """Map each element to the least member of its coset gH."""
    canon = {}
    for g in range(G.order):
        if g not in canon:
            members = {G.mult[g][h] for h in H}
            least = min(members)
            for m in members:
                canon[m] = least
    return canon


def restrict(X: VirtualGSet, H) -> VirtualGSet:
    """Restriction to a subgroup: the same points viewed as an H-set.

    H is a SubgroupClass (or label) of X's group; the result lives over the
    standard model of the representative subgroup. Orbits are decomposed by
    brute force and stabilizers located in the subgroup's own class list.
    """
    G = X.group
    if not isinstance(H, SubgroupClass):
        H = G.class_of_label(str(H)) if not isinstance(H, int) else G.subgroup_classes()[H]
    if H.group is not G:
        raise ValueError("subgroup class belongs to a different group")
    S = H.representative
    sub, embed = G.subgroup_model(S)
    back = {g: i for i, g in enumerate(embed)}
    out = [Fraction(0)] * len(sub.subgroup_classes())
    for cid, coeff in enumerate(X.coeffs):
        if coeff == 0:
            continue
        K = G.subgroup_classes()[cid].representative
        canon = _coset_points(G, K)
        points = sorted(set(canon.values()))
        seen = set()
        for pt in points:
            if pt in seen:
                continue
            orbit_pts = {pt}
            work = [pt]
            while work:
                q = work.pop()
                for s in S:
                    nxt = canon[G.mult[s][q]]
                    if nxt not in orbit_pts:
                        orbit_pts.add(nxt)
                        work.append(nxt)
            seen |= orbit_pts
            stab = frozenset(
                back[s] for s in S if canon[G.mult[s][pt]] == pt
            )
            out[sub.class_index_of(stab)] += coeff
    return VirtualGSet(sub, out, X.p_local)


def induce(H: SubgroupClass, Y: VirtualGSet) -> VirtualGSet:
    """Induction G x_H Y from a subgroup class H of G up to G.

    Y must live over the standard model of H (as produced by restrict).
    Induction sends [H/U] to [G/U], so this is just class bookkeeping.
    """
    G = H.group
    sub, embed = G.subgroup_model(H.representative)
    if Y.group is not sub:
        raise ValueError("G-set does not live over the chosen subgroup model")
    out = [Fraction(0)] * len(G.subgroup_classes())
    for cid, coeff in enumerate(Y.coeffs):
        if coeff == 0:
            continue
        U = sub.subgroup_classes()[cid].representative
        U_in_G = frozenset(embed[u] for u in U)
        out[G.class_index_of(U_in_G)] += coeff
    return VirtualGSet(G, out, Y.p_local)
