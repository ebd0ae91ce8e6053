"""The quadratic power operation Sq1 on integers and genuine G-sets.

Values live in the additive model of pi_1 of the G-sphere: one summand per
conjugacy class of subgroups (H), each summand {0, eta} x W_GH^{ab}. For a
genuine G-set T the operation is computed literally: decompose T x T into
orbits, read off the swap involution tau(a, b) = (b, a) as an element of the
product of wreath products Sigma_{n_K} wr W_GK, and collapse each factor
through (sigma, (x_1, ..., x_n)) -> (sgn sigma, x_1 ... x_n).

Virtual inputs are rejected: the extension of Sq1 to differences of G-sets
needs coordinates for the cross terms that we do not model.
"""

from __future__ import annotations

from .burnside import VirtualGSet
from .groups import GroupModel
from .record import record

__all__ = [
    "EtaClass",
    "Pi1Element",
    "ETA",
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


ETA = EtaClass(1)


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
    npts = len(act[0]) if act else 0
    if npts == 0:
        return Pi1Element.zero(G)
    n2 = npts * npts

    def act2(g: int, p: int) -> int:
        i, j = divmod(p, npts)
        return act[g][i] * npts + act[g][j]

    def stab_of(p: int) -> frozenset:
        return frozenset(g for g in range(G.order) if act2(g, p) == p)

    classes = G.subgroup_classes()
    orbit_of = [-1] * n2
    orbit_class = []
    orbit_base = []
    for p0 in range(n2):
        if orbit_of[p0] >= 0:
            continue
        oid = len(orbit_class)
        orbit_of[p0] = oid
        orb = [p0]
        frontier = [p0]
        while frontier:
            q = frontier.pop()
            for g in range(1, G.order):
                r = act2(g, q)
                if orbit_of[r] < 0:
                    orbit_of[r] = oid
                    orb.append(r)
                    frontier.append(r)
        cid = G.class_index_of(stab_of(p0))
        rep = classes[cid].representative
        base = min(q for q in orb if stab_of(q) == rep)
        orbit_class.append(cid)
        orbit_base.append(base)

    components = []
    for cid, cls in enumerate(classes):
        oids = sorted(
            (o for o in range(len(orbit_class)) if orbit_class[o] == cid),
            key=lambda o: orbit_base[o],
        )
        if not oids:
            components.append((0, (0,) * len(cls.weyl_invariants)))
            continue
        position = {o: k for k, o in enumerate(oids)}
        weyl = G.weyl_data(cid)
        sigma = []
        acc = weyl.zero()
        for o in oids:
            p = orbit_base[o]
            i, j = divmod(p, npts)
            q = j * npts + i  # tau swaps the two coordinates
            target = orbit_of[q]
            sigma.append(position[target])
            base_t = orbit_base[target]
            for g in range(G.order):
                if act2(g, base_t) == q:
                    acc = weyl.add(acc, weyl.coords(g))
                    break
            else:
                raise AssertionError("tau must send orbits to orbits of the same class")
        seen = [False] * len(sigma)
        parity = 0
        for k in range(len(sigma)):
            if seen[k]:
                continue
            length = 0
            t = k
            while not seen[t]:
                seen[t] = True
                t = sigma[t]
                length += 1
            parity += length - 1
        components.append((parity % 2, acc))
    return Pi1Element(G, tuple(components))


def _genuine_counts(T: VirtualGSet):
    if any(not isinstance(c, int) or c < 0 for c in T.coeffs):
        raise ValueError("virtual G-sets are not accepted; Sq1 needs a genuine G-set")
    return T.coeffs


def sq1_gset(T: VirtualGSet) -> Pi1Element:
    """Sq1 of a genuine G-set, from the swap involution on T x T."""
    counts = _genuine_counts(T)
    return _sq1_from_action(T.group, _points_action(T.group, counts))
