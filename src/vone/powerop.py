"""The quadratic power operation Sq1 on integers and genuine G-sets.

Values live in the additive model of pi_1 of the G-sphere: one summand per
conjugacy class of subgroups (H), each summand {0, eta} x W_GH^{ab}. The swap
involution tau(a, b) = (b, a) on T x T is an element of the product of
wreath products Sigma_{n_K} wr W_GK, and Sq1 collapses each factor through
(sigma, (x_1, ..., x_n)) -> (sgn sigma, x_1 ... x_n).

tau is an involution that commutes with G, so the collapse needs only, per
type K, the number N_K of orbits of T x T, the number s_K of them that tau
fixes and the Weyl coordinates of the fixed ones: eta_K = (N_K - s_K)/2
mod 2 (the lemma in `_sq1_from_action`, proved in its docstring). Over a
cyclic group these are closed forms in the orbit counts of T and the
subgroup indices (`_sq1_cyclic`). Over a dicyclic group T x T is
decomposed into orbits on points, which costs about |T|^2 |G| steps and is
bounded by `vone.limits.MAX_SQ1_WORK`; only the orbits tau fixes are
searched further.

Virtual inputs are rejected: the extension of Sq1 to differences of G-sets
needs coordinates for the cross terms that we do not model.
"""

from __future__ import annotations

from math import gcd

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


def sq1_int(n: int) -> EtaClass:
    """Sq1 of an integer: 0 for n = 0, 1 (mod 4) and eta for n = 2, 3."""
    return EtaClass(1 if n % 4 in (2, 3) else 0)


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


def _points_action(G: GroupModel, counts):
    """Concrete model of the G-set sum(counts[c] * [G/H_c]): returns act with
    act[g][p] the image of point p. Deterministic: canonical subgroup
    representatives, least coset representatives, class order."""
    classes = G.subgroup_classes()
    blocks = []
    for cid, c in enumerate(counts):
        if not c:
            continue
        H = classes[cid].representative
        rep_of: dict[int, int] = {}
        reps = []
        for g in range(G.order):
            if g not in rep_of:
                for h in H:
                    rep_of[G.mul(g, h)] = g
                reps.append(g)
        blocks.extend([(reps, rep_of)] * c)
    points = [(b, r) for b, (reps, _) in enumerate(blocks) for r in reps]
    index = {pt: i for i, pt in enumerate(points)}
    act = [
        tuple(index[(b, blocks[b][1][G.mul(g, r)])] for (b, r) in points)
        for g in range(G.order)
    ]
    return act


def _sq1_from_action(G: GroupModel, act) -> Pi1Element:
    """Sq1 of the G-set with act[g][p] the image of point p under g, read
    off the orbits of T x T.

    Lemma. tau commutes with G and tau^2 = 1, so it permutes the N_K orbits
    of type K by an involution sigma_K, whose sign is (-1)^((N_K - s_K)/2)
    with s_K the number of orbits tau fixes. In each orbit o pick a base
    point b_o with stabilizer L, the class representative, and g_o with
    tau(b_o) = g_o b_o', o' = tau(o); g_o normalizes L, since tau(b_o) has
    the stabilizer of b_o. For a swapped pair o, o', b_o = tau^2(b_o) =
    g_o g_o' b_o, so g_o g_o' lies in L and the pair adds 0 to W_GL^ab.
    In a fixed orbit another base point is n b_o with n in N(L), and it
    gives n g_o n^-1 in place of g_o, the same element of W_GL^ab. Hence
    eta_K = (N_K - s_K)/2 mod 2, and the Weyl part sums the coordinates of
    g_o over the fixed orbits alone, for any choice of base points.

    So the search marks each orbit and counts N_K and s_K; a base point
    and its g are looked for only in the orbits tau fixes."""
    npts = len(act[0]) if act else 0
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
    orbits = [0] * len(classes)
    fixed = [0] * len(classes)
    weyl = [G.weyl_data(cid).zero() for cid in range(len(classes))]
    orbit_of = [-1] * n2  # an orbit is named by its first point
    for p0 in range(n2):
        if orbit_of[p0] >= 0:
            continue
        orbit_of[p0] = p0
        orb = [p0]
        frontier = [p0]
        while frontier:
            q = frontier.pop()
            for g in range(1, G.order):
                r = act2(g, q)
                if orbit_of[r] < 0:
                    orbit_of[r] = p0
                    orb.append(r)
                    frontier.append(r)
        cid = G.class_index_of(stab_of(p0))
        orbits[cid] += 1
        if orbit_of[swap(p0)] != p0:
            continue
        fixed[cid] += 1
        rep = classes[cid].representative
        base = next(q for q in orb if stab_of(q) == rep)
        g = next(g for g in range(G.order) if act2(g, base) == swap(base))
        wd = G.weyl_data(cid)
        weyl[cid] = wd.add(weyl[cid], wd.coords(g))
    return _assemble(G, orbits, fixed, weyl)


def _assemble(G: GroupModel, orbits, fixed, weyl) -> Pi1Element:
    """Sq1 from, per subgroup class K, the number N_K of orbits of type K
    in T x T, the number s_K of them that tau fixes and the summed Weyl
    coordinates of the fixed ones: eta_K = (N_K - s_K)/2 mod 2 by the lemma
    of `_sq1_from_action`."""
    return Pi1Element(G, tuple(((N - s) // 2 % 2, w) for N, s, w in zip(orbits, fixed, weyl)))


def _sq1_cyclic(G: GroupModel, counts) -> Pi1Element:
    """Sq1 of T = sum n_H [G/H] over G = C_m from the subgroup indices
    alone, through the lemma of `_sq1_from_action`.

    Write d_H = |G/H|. G is abelian, so every point of [G/H] x [G/K] has
    the intersection L of H and K as its stabilizer, and d_L = lcm(d_H, d_K);
    the d_H d_K points fall into d_H d_K / d_L = gcd(d_H, d_K) orbits, each
    a copy of [G/L]. So the number of orbits of type L in T x T is
    N_L = sum over (H, K) with lcm(d_H, d_K) = d_L of n_H n_K gcd(d_H, d_K).

    tau maps the orbits of the block (copy i of [G/H]) x (copy j of [G/K])
    to those of the block (j, i). No orbit of a block with i != j is fixed.
    A diagonal block [G/L] x [G/L] has one orbit per x in G/L, that of
    (y, y + x), and tau sends it to the orbit of (y + x, y) = x + (y, y - x),
    the orbit of -x. It is fixed exactly when 2x lies in L, i.e. for x = 0,
    and also for x = d_L / 2 when d_L is even. So tau fixes
    s_L = n_L (2 if d_L is even, else 1) orbits of type L. The fixed orbit
    of x has base point (0, x) and tau(0, x) = x + (0, x), so it adds
    g = x mod L: 0 for x = 0, d_L / 2 for the other one. Hence
    Weyl_L = n_L d_L / 2 mod d_L when d_L is even, 0 when d_L is odd, and
    () when d_L = 1. The tests hold this against the permutation walk.
    """
    classes = G.subgroup_classes()
    class_of_index = {cls.index: cls.id for cls in classes}
    present = [(cls.index, n) for cls, n in zip(classes, counts) if n]
    orbits = [0] * len(classes)
    for dH, nH in present:
        for dK, nK in present:
            g = gcd(dH, dK)
            orbits[class_of_index[dH * dK // g]] += nH * nK * g
    fixed = []
    weyl = []
    for cls, n in zip(classes, counts):
        d = cls.index
        even = d % 2 == 0
        fixed.append(n * (2 if even else 1))
        weyl.append(() if d == 1 else (n * (d // 2) % d if even else 0,))
    return _assemble(G, orbits, fixed, weyl)


def sq1_gset(T: VirtualGSet) -> Pi1Element:
    """Sq1 of a genuine G-set, from the swap involution on T x T: in closed
    form over a cyclic group, on points over a dicyclic one, where
    |T|^2 |G| over `MAX_SQ1_WORK` raises ValueError."""
    if not T.is_genuine():
        raise ValueError("virtual G-sets are not accepted; Sq1 needs a genuine G-set")
    counts = T.coeffs
    G = T.group
    if G.descriptor.kind == "cyclic":
        return _sq1_cyclic(G, counts)
    classes = G.subgroup_classes()
    points = sum(n * cls.index for cls, n in zip(classes, counts))
    if points * points * G.order > MAX_SQ1_WORK:
        raise ValueError(
            f"Sq1 over {G.descriptor.name} exceeds the limit {MAX_SQ1_WORK} on |T|^2 * |G|"
        )
    return _sq1_from_action(G, _points_action(G, counts))
