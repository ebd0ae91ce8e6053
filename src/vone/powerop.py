"""The quadratic power operation Sq1 on integers and genuine G-sets.

Values live in the additive model of pi_1 of the G-sphere: one summand per
conjugacy class of subgroups (H), each summand {0, eta} x W_GH^{ab}. The swap
involution tau(a, b) = (b, a) on T x T is an element of the product of
wreath products Sigma_{n_K} wr W_GK, and Sq1 collapses each factor through
(sigma, (x_1, ..., x_n)) -> (sgn sigma, x_1 ... x_n).

tau is an involution that commutes with G, so the collapse needs only, per
type K, the number N_K of orbits of T x T, the number s_K of them that tau
fixes and the Weyl coordinates of the fixed ones: eta_K = (N_K - s_K)/2
mod 2 (the lemma in `_fixed_orbits`, proved in its docstring). N_K is the
coefficient of [G/K] in T * T, read off the marks (`burnside.bmul`). For
T = sum n_H [G/H], tau maps the block (copy i) x (copy j) of T x T onto
the block (j, i), so every fixed orbit lies in one of the n_H diagonal
blocks [G/H] x [G/H]: s_K and the Weyl part are read once per orbit type
H of T and scaled by n_H (`_diagonal_block`). Over a cyclic group a block
is a closed form in |G/H|; over a dicyclic group its orbits are found on
its |G/H|^2 points, which costs |G/H|^2 |G| steps per type and is bounded
by `vone.limits.MAX_SQ1_WORK`.

Virtual inputs are rejected: the extension of Sq1 to differences of G-sets
needs coordinates for the cross terms that we do not model.
"""

from __future__ import annotations

from .burnside import VirtualGSet
from .groups import GroupModel
from .limits import MAX_SQ1_WORK
from .record import record

__all__ = [
    "EtaClass",
    "Pi1Element",
    "sq1_int",
    "sq1_gset",
]


@record
class EtaClass:
    """Multiple of the stable Hopf class; 2*eta = 0."""

    coefficient: int

    def __post_init__(self):
        object.__setattr__(self, "coefficient", self.coefficient % 2)

    def __add__(self, other: "EtaClass") -> "EtaClass":
        return EtaClass(self.coefficient + other.coefficient)

    def __bool__(self) -> bool:
        return self.coefficient != 0

    def __repr__(self):
        return "eta" if self.coefficient else "0"


_ZERO, _ETA = EtaClass(0), EtaClass(1)


def sq1_int(n: int) -> EtaClass:
    """Sq1 of an integer: 0 for n = 0, 1 (mod 4) and eta for n = 2, 3.
    Records are frozen, so the two classes are shared."""
    return _ETA if n % 4 in (2, 3) else _ZERO


@record
class Pi1Element:
    """One (eta coefficient, Weyl abelianization exponents) pair per
    subgroup class, exponents against the class's invariant factors."""

    group: GroupModel
    components: tuple

    @classmethod
    def zero(cls, group: GroupModel) -> "Pi1Element":
        parts = tuple(
            (0, (0,) * len(c.weyl_invariants)) for c in group.subgroup_classes()
        )
        return cls(group, parts)

    def __add__(self, other: "Pi1Element") -> "Pi1Element":
        if other.group is not self.group:
            raise ValueError("different groups")
        classes = self.group.subgroup_classes()
        out = []
        for cls, (s1, w1), (s2, w2) in zip(classes, self.components, other.components):
            w = tuple((a + b) % d for a, b, d in zip(w1, w2, cls.weyl_invariants))
            out.append(((s1 + s2) % 2, w))
        return Pi1Element(self.group, tuple(out))

    def is_zero(self) -> bool:
        return all(s == 0 and not any(w) for s, w in self.components)

    def component(self, which) -> tuple:
        """(EtaClass, Weyl exponents) at a subgroup class, id, or label."""
        s, w = self.components[self.group.subgroup_class(which).id]
        return EtaClass(s), w

    def __repr__(self):
        classes = self.group.subgroup_classes()
        terms = []
        for cls, (s, w) in zip(classes, self.components):
            if s:
                terms.append(f"eta*[{self.group.descriptor.name}/{cls.label}]")
            if any(w):
                terms.append(f"W({cls.label}):{list(w)}")
        return " + ".join(terms) if terms else "0"


def _coset_action(G: GroupModel, H: frozenset) -> list:
    """act[g][p], the image under g of coset p of [G/H]; the cosets are
    numbered in the order of their least elements, so H is coset 0."""
    coset_of: dict[int, int] = {}
    reps = []
    for g in range(G.order):
        if g not in coset_of:
            for h in H:
                coset_of[G.mul(g, h)] = len(reps)
            reps.append(g)
    return [tuple(coset_of[G.mul(g, r)] for r in reps) for g in range(G.order)]


def _fixed_orbits(G: GroupModel, act) -> dict:
    """class id K -> (s_K, Weyl_K): the number of orbits of type K of X x X
    that tau fixes and their summed Weyl coordinates, for the G-set X with
    act[g][p] the image of point p under g.

    Lemma. tau commutes with G and tau^2 = 1, so it permutes the N_K orbits
    of type K by an involution sigma_K, whose sign is (-1)^((N_K - s_K)/2).
    In each orbit o pick a base point b_o with stabilizer L, the class
    representative, and g_o with tau(b_o) = g_o b_o', o' = tau(o); g_o
    normalizes L, since tau(b_o) has the stabilizer of b_o. For a swapped
    pair o, o', b_o = tau^2(b_o) = g_o g_o' b_o, so g_o g_o' lies in L and
    the pair adds 0 to W_GL^ab. In a fixed orbit another base point is
    n b_o with n in N(L), and it gives n g_o n^-1 in place of g_o, the same
    element of W_GL^ab. Hence eta_K = (N_K - s_K)/2 mod 2, and the Weyl
    part sums the coordinates of g_o over the fixed orbits alone, for any
    choice of base points. So a base point and its g are searched for only
    in the orbits tau fixes; the tests hold this against the permutation
    walk and under randomized enumerations of X."""
    npts = len(act[0])
    n2 = npts * npts

    def act2(g: int, p: int) -> int:
        i, j = divmod(p, npts)
        return act[g][i] * npts + act[g][j]

    def stab_of(p: int) -> frozenset:
        return frozenset(g for g in range(G.order) if act2(g, p) == p)

    def swap(p: int) -> int:  # tau swaps the two coordinates
        i, j = divmod(p, npts)
        return j * npts + i

    classes = G.subgroup_classes()
    out = {}
    orbit_of = [-1] * n2  # an orbit is named by its first point
    for p0 in range(n2):
        if orbit_of[p0] >= 0:
            continue
        orbit_of[p0] = p0
        orb, frontier = [p0], [p0]
        while frontier:
            q = frontier.pop()
            for g in range(1, G.order):
                r = act2(g, q)
                if orbit_of[r] < 0:
                    orbit_of[r] = p0
                    orb.append(r)
                    frontier.append(r)
        if orbit_of[swap(p0)] != p0:
            continue
        cid = G.class_index_of(stab_of(p0))
        rep = classes[cid].representative
        base = next(q for q in orb if stab_of(q) == rep)
        g = next(g for g in range(G.order) if act2(g, base) == swap(base))
        wd = G.weyl_data(cid)
        s, w = out.get(cid, (0, wd.zero()))
        out[cid] = (s + 1, wd.add(w, wd.coords(g)))
    return out


def _diagonal_block(G: GroupModel, cid: int) -> dict:
    """`_fixed_orbits` of [G/H] x [G/H], H the representative of class cid.

    Over G = C_m it is a closed form in d = |G/H|. G is abelian, so every
    point of the block has stabilizer H, and the block has one orbit per x
    in G/H, that of (y, y + x). tau sends it to the orbit of
    (y + x, y) = x + (y, y - x), the orbit of -x. It is fixed exactly when
    2x lies in H, i.e. for x = 0, and also for x = d / 2 when d is even.
    The fixed orbit of x has base point (0, x) and tau(0, x) = x + (0, x),
    so it adds g = x mod H: s_H = 2 and Weyl_H = d / 2 for even d, s_H = 1
    and Weyl_H = 0 for odd d."""
    cls = G.subgroup_classes()[cid]
    if G.descriptor.kind != "cyclic":
        return _fixed_orbits(G, _coset_action(G, cls.representative))
    d, wd = cls.index, G.weyl_data(cid)
    return {cid: (2, wd.coords(d // 2)) if d % 2 == 0 else (1, wd.zero())}


def sq1_gset(T: VirtualGSet) -> Pi1Element:
    """Sq1 of a genuine G-set: N_K from T * T, s_K and the Weyl part from
    one diagonal block per orbit type of T, scaled by its multiplicity.
    Over a dicyclic group, the sum of |G/H|^2 |G| over the orbit types H
    of T past `MAX_SQ1_WORK` raises ValueError."""
    if not T.is_genuine():
        raise ValueError("virtual G-sets are not accepted; Sq1 needs a genuine G-set")
    G = T.group
    classes = G.subgroup_classes()
    types = [(cid, n) for cid, n in enumerate(T.coeffs) if n]
    work = G.order * sum(classes[cid].index ** 2 for cid, _ in types)
    if G.descriptor.kind != "cyclic" and work > MAX_SQ1_WORK:
        raise ValueError(f"Sq1 over {G.descriptor.name} exceeds the limit {MAX_SQ1_WORK} on "
                         "the sum of |G/H|^2 * |G| over the orbit types H of T")
    fixed = [0] * len(classes)
    weyl = [[0] * len(cls.weyl_invariants) for cls in classes]
    for cid, n in types:
        for k, (s, w) in _diagonal_block(G, cid).items():
            fixed[k] += n * s
            weyl[k] = [a + n * b for a, b in zip(weyl[k], w)]
    return Pi1Element(G, tuple(
        ((N - s) // 2 % 2, tuple(a % f for a, f in zip(w, cls.weyl_invariants)))
        for cls, N, s, w in zip(classes, (T * T).coeffs, fixed, weyl)))
