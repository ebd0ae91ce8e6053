"""The representation ring RU(G): virtual characters with exact cyclotomic
values, Adams operations, linearization from the Burnside ring, and the
annihilator/quotient presentations of principal ideals.

Cyclic groups use the concrete form Z[L]/(L^m - 1): a virtual representation
is a coefficient vector indexed by the exponent of L, and multiplication is
cyclic convolution. Dicyclic groups work over the irreducible basis with
cached structure constants from the exact character table. Coefficients may
be p-local rationals under the same flag discipline as virtual G-sets.

Characters are class functions, so everything that needs a character on many
elements (fixed space dimensions, eigenvalue multiplicities) reads the
cached class values of the representation. Sums of character values times
roots of unity, the inner products of `CharacterTable.decompose` and the
eigenvalue transform, are accumulated as integer vectors in exponent space,
Z[x]/(x^N - 1) with N a common conductor, and reduced modulo Phi_N once.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .burnside import VirtualGSet, bmul, marks, orbit
from .exactmath import (
    CyclotomicElement,
    IntMatrix,
    cokernel_data,
    cyclotomic_poly,
    is_prime,
    kernel_basis,
    poly_mul,
    prime_power,
)
from .groups import GroupModel
from .virtual import VirtualElement

__all__ = [
    "CharacterTable",
    "VirtualRep",
    "GammaOrbitBasis",
    "AbelianPresentation",
    "IdealStructure",
    "character_table",
    "from_class_function",
    "standard_rep",
    "adams",
    "linearize",
    "is_fixed_point_free",
    "has_rational_characters",
    "fixed_space_dim",
    "eigenvalue_multiplicities",
    "gamma_orbit_basis",
    "gamma_fixed_check",
    "annihilator_and_quotient",
]


class CharacterTable:
    """Irreducible characters as exact cyclotomic class functions."""

    def __init__(self, group: GroupModel):
        self.group = group
        self.classes = group.element_conjugacy_classes()
        self.sizes = tuple(len(c) for c in self.classes)
        self.reps = tuple(c[0] for c in self.classes)
        class_of = {}
        for k, cls in enumerate(self.classes):
            for g in cls:
                class_of[g] = k
        self.class_of_element = tuple(class_of[g] for g in range(group.order))
        if group.descriptor.kind == "cyclic":
            m = group.order
            self.rows = tuple(
                tuple(CyclotomicElement.zeta(m, a * b % m) for b in range(m))
                for a in range(m)
            )
            self.dims = (1,) * m
            self.names = tuple(_line_name(a) for a in range(m))
        else:
            self.rows, self.dims, self.names = _dicyclic_table(group, self)
        self.conductor = lcm(*(v.conductor for row in self.rows for v in row))
        self._mul_cache: dict[tuple[int, int], tuple] = {}
        self._power_maps: dict[int, tuple] = {}
        self._conj_rows: dict[int, tuple] = {}

    def value(self, row: int, g: int) -> CyclotomicElement:
        return self.rows[row][self.class_of_element[g]]

    def _conjugate_rows(self, m: int) -> tuple:
        """Per irreducible and class: exponent terms over Q(zeta_m) of the
        class size times the conjugate character value (built once per m)."""
        if m not in self._conj_rows:
            rows = []
            for row in self.rows:
                crow = []
                for size, chi in zip(self.sizes, row):
                    # character values are algebraic integers: chi.den == 1
                    crow.append(tuple((-e % m, c * size) for e, c in chi.exponent_terms(m)))
                rows.append(tuple(crow))
            self._conj_rows[m] = tuple(rows)
        return self._conj_rows[m]

    def decompose(self, values) -> tuple:
        """Inner products against each irreducible; errors if the class
        function is not rational over the irreducibles."""
        values = [
            v if isinstance(v, CyclotomicElement) else CyclotomicElement.from_rational(v)
            for v in values
        ]
        m = lcm(self.conductor, *(v.conductor for v in values))
        terms = [v.exponent_terms(m) for v in values]
        den = lcm(*[v.den for v in values])
        scales = [den // v.den for v in values]
        n = self.group.order
        out = []
        for crow in self._conjugate_rows(m):
            acc = [0] * m
            for vt, s, ct in zip(terms, scales, crow):
                for e, c in vt:
                    c *= s
                    for f, d in ct:
                        acc[(e + f) % m] += c * d
            total = CyclotomicElement.from_exponents(m, enumerate(acc))
            if not total.is_rational():
                raise ArithmeticError("class function is not rational over the irreducibles")
            out.append(total.rational_value() / (n * den))
        return tuple(out)

    def product_coeffs(self, i: int, j: int) -> tuple:
        """chi_i * chi_j in the irreducible basis (cached)."""
        key = (i, j) if i <= j else (j, i)
        if key not in self._mul_cache:
            vals = [a * b for a, b in zip(self.rows[key[0]], self.rows[key[1]])]
            coeffs = self.decompose(vals)
            assert all(c.denominator == 1 for c in coeffs)
            self._mul_cache[key] = tuple(int(c) for c in coeffs)
        return self._mul_cache[key]

    def power_class_map(self, ell: int) -> tuple:
        """Class index of r^ell for each class representative r."""
        if ell not in self._power_maps:
            g = self.group
            self._power_maps[ell] = tuple(
                self.class_of_element[g.power(r, ell)] for r in self.reps
            )
        return self._power_maps[ell]


def _line_name(a: int) -> str:
    if a == 0:
        return "1"
    if a == 1:
        return "L"
    return f"L^{a}"


def _dicyclic_table(group: GroupModel, table: CharacterTable):
    m = group.descriptor.m
    two_m = 2 * m
    reps = table.reps
    rows = []
    names = []
    dims = []

    def one_dim(s: int, t: CyclotomicElement):
        vals = []
        for r in reps:
            if r < two_m:
                vals.append(CyclotomicElement.from_rational(s**r))
            else:
                vals.append(t * s ** (r - two_m))
        return tuple(vals)

    one = CyclotomicElement.one()
    if m % 2 == 0:
        combos = [(1, one), (1, -one), (-1, one), (-1, -one)]
    else:
        i4 = CyclotomicElement.zeta(4)
        combos = [(1, one), (1, -one), (-1, i4), (-1, -i4)]
    for idx, (s, t) in enumerate(combos):
        rows.append(one_dim(s, t))
        names.append("1" if idx == 0 else f"u{idx}")
        dims.append(1)
    for h in range(1, m):
        vals = []
        for r in reps:
            if r < two_m:
                vals.append(
                    CyclotomicElement.zeta(two_m, h * r % two_m)
                    + CyclotomicElement.zeta(two_m, -h * r % two_m)
                )
            else:
                vals.append(CyclotomicElement.zero(1))
        rows.append(tuple(vals))
        names.append(f"rho{h}")
        dims.append(2)
    return tuple(rows), tuple(dims), tuple(names)


def character_table(G: GroupModel) -> CharacterTable:
    """The character table of G, built once and kept on the model."""
    if G._character_table is None:
        G._character_table = CharacterTable(G)
    return G._character_table


class VirtualRep(VirtualElement):
    """Element of RU(G).

    Cyclic: coefficient k is the multiplicity of L^k. Dicyclic: coefficient
    k is the multiplicity of the k-th irreducible character.
    """

    __slots__ = ("_values",)  # class values, set on first use

    _noun = "representation"
    _basis = "the character basis"
    _ring = "here"

    @staticmethod
    def _size(group: GroupModel) -> int:
        return group.order if group.descriptor.kind == "cyclic" else group.descriptor.m + 3

    def _names(self):
        if self.is_cyclic_side():
            return [_line_name(a) for a in range(self.group.order)]
        return character_table(self.group).names

    # -- constructors

    @classmethod
    def trivial(cls, group: GroupModel) -> "VirtualRep":
        return cls.irreducible(group, 0)

    _one = trivial

    @classmethod
    def line(cls, group: GroupModel, a: int) -> "VirtualRep":
        if group.descriptor.kind != "cyclic":
            raise ValueError("line characters L^a require a cyclic group")
        m = group.order
        vec = [0] * m
        vec[a % m] = 1
        return cls(group, vec)

    @classmethod
    def irreducible(cls, group: GroupModel, index: int) -> "VirtualRep":
        vec = [0] * cls._size(group)
        vec[index] = 1
        return cls(group, vec)

    @classmethod
    def regular(cls, group: GroupModel) -> "VirtualRep":
        if group.descriptor.kind == "cyclic":
            return cls(group, [1] * group.order)
        table = character_table(group)
        return cls(group, table.dims)

    # -- structure

    def is_cyclic_side(self) -> bool:
        return self.group.descriptor.kind == "cyclic"

    def is_honest(self) -> bool:
        return all(isinstance(c, int) and c >= 0 for c in self.coeffs)

    def dim(self):
        if self.is_cyclic_side():
            return sum(self.coeffs)
        dims = character_table(self.group).dims
        return sum(c * d for c, d in zip(self.coeffs, dims))

    def character(self, g: int) -> CyclotomicElement:
        if self.is_cyclic_side():
            m = self.group.order
            acc: dict[int, Fraction] = {}
            for a, c in enumerate(self.coeffs):
                if c:
                    e = a * g % m
                    acc[e] = acc.get(e, 0) + c
            return CyclotomicElement.from_exponents(m, acc.items())
        table = character_table(self.group)
        out = CyclotomicElement.zero(1)
        for c, row in zip(self.coeffs, table.rows):
            if c:
                out = out + c * row[table.class_of_element[g]]
        return out

    def class_values(self) -> tuple:
        """Character value at each element conjugacy class, in class order."""
        try:
            return self._values
        except AttributeError:
            pass
        table = character_table(self.group)
        values = tuple([self.character(r) for r in table.reps])
        object.__setattr__(self, "_values", values)
        return values

    # -- ring product: cyclic convolution, or structure constants

    def _product(self, other: "VirtualRep") -> "VirtualRep":
        if other.group is not self.group:
            raise ValueError("different groups")
        flag = self._merge_flag(other)
        if self.is_cyclic_side():
            m = self.group.order
            a, b = self.coeffs, other.coeffs
            out = [0] * m
            for i, x in enumerate(a):
                if x:
                    for j, y in enumerate(b):
                        if y:
                            out[(i + j) % m] += x * y
            return VirtualRep(self.group, out, flag)
        table = character_table(self.group)
        n = len(self.coeffs)
        out2 = [Fraction(0)] * n
        for i, x in enumerate(self.coeffs):
            if x:
                for j, y in enumerate(other.coeffs):
                    if y:
                        prod = table.product_coeffs(i, j)
                        for k in range(n):
                            if prod[k]:
                                out2[k] += x * y * prod[k]
        return VirtualRep(self.group, out2, flag)

    # perfbench/tracing.py times rep products and powers by wrapping these
    # names in this class's own __dict__, so the inherited operators are
    # bound here as well
    __mul__ = __rmul__ = VirtualElement.__mul__
    __pow__ = VirtualElement.__pow__


def from_class_function(G: GroupModel, values, p_local: int | None = None) -> VirtualRep:
    """Expand an exact class function over the irreducible basis."""
    table = character_table(G)
    coeffs = table.decompose(values)
    return VirtualRep(G, coeffs, p_local)


def standard_rep(G: GroupModel, name: str, power: int = 1, param: int | None = None) -> VirtualRep:
    """Named representations: L (cyclic line), W (cyclic fixed point free
    rational), H (dicyclic fixed point free rational), taut (dicyclic
    2-dimensional), regular, reduced_regular."""
    kind = G.descriptor.kind
    if name == "L":
        return VirtualRep.line(G, power)
    if name == "regular":
        return VirtualRep.regular(G)
    if name == "reduced_regular":
        return VirtualRep.regular(G) - VirtualRep.trivial(G)
    if name == "W":
        if kind != "cyclic":
            raise ValueError("W is defined over cyclic groups")
        m = G.order
        if param is not None and param != m:
            raise ValueError(f"W_{param} does not live over C{m}")
        vec = [1 if gcd(a, m) == 1 else 0 for a in range(m)]
        return VirtualRep(G, vec)
    if name in ("H", "taut"):
        if kind != "dicyclic":
            raise ValueError(f"{name} is defined over dicyclic groups")
        m = G.descriptor.m
        if param is not None and param != m:
            raise ValueError(f"H_{param} does not live over {G.descriptor.name}")
        table = character_table(G)
        vec = [0] * (m + 3)
        if name == "taut":
            vec[4] = 1  # rho_1
            return VirtualRep(G, vec)
        for h in range(1, m):
            if gcd(h, 2 * m) == 1:
                vec[3 + h] = 1
        return VirtualRep(G, vec)
    raise ValueError(f"unknown representation name {name!r}")


def adams(ell: int, V: VirtualRep) -> VirtualRep:
    """Adams operation: the class function g -> character(g^ell)."""
    if ell < 0:
        raise ValueError("Adams index must be >= 0")
    G = V.group
    if V.is_cyclic_side():
        m = G.order
        out = [0] * m
        for a, c in enumerate(V.coeffs):
            if c:
                out[a * ell % m] += c
        return VirtualRep(G, out, V.p_local)
    table = character_table(G)
    pcm = table.power_class_map(ell)
    vals = V.class_values()
    return from_class_function(G, [vals[pcm[k]] for k in range(len(pcm))], V.p_local)


def linearize(X: VirtualGSet) -> VirtualRep:
    """Permutation representation C[X]: character at g is the mark of X
    at the cyclic subgroup generated by g."""
    G = X.group
    if G.descriptor.kind == "cyclic":
        m = G.order
        classes = G.subgroup_classes()
        out = [Fraction(0)] * m
        for cls, c in zip(classes, X.coeffs):
            if c:
                for a in range(0, m, cls.order):
                    out[a] += c
        return VirtualRep(G, out, X.p_local)
    mk = marks(X)
    table = character_table(G)
    vals = [
        CyclotomicElement.from_rational(mk[G.cyclic_class_of(r)]) for r in table.reps
    ]
    return from_class_function(G, vals, X.p_local)


def _eigenvalue_sums(V: VirtualRep, g: int, js) -> list:
    """(1/k) sum_b chi(g^b) zeta_k^(-jb) for each j in js, k the order of g:
    the multiplicity of zeta_k^j as an eigenvalue of g on V.

    The k character values are read from the class values and lifted once to
    exponent vectors over Q(zeta_N), N = lcm(k, their conductors), with one
    common denominator. Multiplying by zeta_k^(-jb) shifts a vector, so each
    sum is one integer accumulation, reduced modulo Phi_N once and required
    to be rational.
    """
    G = V.group
    vals = V.class_values()
    cls = character_table(G).class_of_element
    powers = []
    x = 0
    while True:
        powers.append(vals[cls[x]])
        x = G.mul(x, g)
        if x == 0:
            break
    k = len(powers)
    n = lcm(k, *(v.conductor for v in powers))
    den = lcm(*[v.den for v in powers])
    lifted = [
        [(e, c * (den // v.den)) for e, c in v.exponent_terms(n)] for v in powers
    ]
    step = n // k
    out = []
    for j in js:
        acc = [0] * n
        for b, terms in enumerate(lifted):
            shift = -j * b * step
            for e, c in terms:
                acc[(e + shift) % n] += c
        total = CyclotomicElement.from_exponents(n, enumerate(acc))
        if not total.is_rational():
            raise ArithmeticError("eigenvalue sum is not rational")
        out.append(total.rational_value() / (k * den))
    return out


def fixed_space_dim(V: VirtualRep, g: int):
    """Dimension of the subspace of V fixed by g (averaging over <g>)."""
    return _eigenvalue_sums(V, g, (0,))[0]


def eigenvalue_multiplicities(V: VirtualRep, g: int) -> tuple:
    """Multiplicity of zeta_k^j (j = 0..k-1) as an eigenvalue of g on V,
    where k is the order of g. Requires an honest representation."""
    if not V.is_honest():
        raise ValueError("eigenvalues need an honest representation")
    k = V.group.element_order(g)
    out = []
    for q in _eigenvalue_sums(V, g, range(k)):
        if q.denominator != 1 or q < 0:
            raise ArithmeticError("non-integral eigenvalue multiplicity")
        out.append(int(q))
    return tuple(out)


def is_fixed_point_free(V: VirtualRep) -> bool:
    """No nontrivial element fixes a vector; the unit sphere is free.

    A vector fixed by g is fixed by every power of g, and g != e has a
    power of prime order, so only classes of prime order are checked; for
    Q_{2^n} that is the central involution alone.
    """
    if not V.is_honest():
        raise ValueError("fixed point freeness is a property of honest representations")
    G = V.group
    if V.is_cyclic_side():
        m = G.order
        return all(gcd(a, m) == 1 for a, c in enumerate(V.coeffs) if c)
    return all(
        fixed_space_dim(V, cls[0]) == 0
        for cls in G.element_conjugacy_classes()
        if is_prime(G.element_order(cls[0]))
    )


def has_rational_characters(V: VirtualRep) -> bool:
    if V.is_cyclic_side():
        m = V.group.order
        level: dict[int, object] = {}
        for a, c in enumerate(V.coeffs):
            d = gcd(a, m)
            if d in level and level[d] != c:
                return False
            level.setdefault(d, c)
        return True
    return all(v.is_rational() for v in V.class_values())


@dataclass(frozen=True)
class GammaOrbitBasis:
    """Galois orbit sums in RU(C_{p^n}): gamma_i sums the characters L^k
    with gcd(k, p^n) = p^i; these span the Galois-fixed subring."""

    group: GroupModel
    p: int
    n: int
    orbits: tuple
    gammas: tuple


def gamma_orbit_basis(G: GroupModel) -> GammaOrbitBasis:
    pp = prime_power(G.order)
    if G.descriptor.kind != "cyclic" or pp is None:
        raise ValueError("orbit basis requires a nontrivial cyclic p-group")
    p, n = pp
    m = G.order
    orbits = []
    gammas = []
    for i in range(n + 1):
        orb = tuple([k for k in range(m) if gcd(k, m) == p**i])
        vec = [0] * m
        for k in orb:
            vec[k] = 1
        orbits.append(orb)
        gammas.append(VirtualRep(G, vec))
    return GammaOrbitBasis(G, p, n, tuple(orbits), tuple(gammas))


def gamma_fixed_check(V: VirtualRep):
    """Whether V is fixed by the full Galois action; if so, also return its
    coordinates in the orbit-sum basis (index i = 0..n)."""
    basis = gamma_orbit_basis(V.group)
    coords = []
    for orb in basis.orbits:
        vals = {V.coeffs[k] for k in orb}
        if len(vals) != 1:
            return False, None
        coords.append(vals.pop())
    return True, tuple(coords)


# ---------------------------------------------------------------------------
# principal ideal presentations


@dataclass(frozen=True)
class AbelianPresentation:
    """An abelian group: free rank, invariant factors > 1, and generator
    vectors in the ambient basis (one per factor, then one per free rank)."""

    free_rank: int
    factors: tuple
    generators: tuple

    def invariant_factors(self) -> tuple:
        return self.factors


@dataclass(frozen=True)
class IdealStructure:
    side: str
    annihilator: AbelianPresentation
    quotient: AbelianPresentation
    annihilator_fixed: AbelianPresentation | None = None
    quotient_fixed: AbelianPresentation | None = None


def annihilator_and_quotient(X: VirtualGSet, side: str = "A") -> IdealStructure:
    """Presentations of Ann(X) = ker(X * -) and R/XR for R = A(G) or RU(G).

    X must have integer coefficients. For side RU, with |G| = N = p^n, the
    annihilator has a closed form. Evaluation at the roots of unity
    zeta_{p^i}, i = 0..n, embeds RU(G) = Z[x]/(x^N - 1) in a product of
    domains, since x^N - 1 is the product of the distinct Phi_{p^i}. The
    permutation character w of X takes there the value phi_i, the mark of X
    at the subgroup of order p^i. So w*y = 0 exactly when y(zeta_{p^i}) = 0
    for each i with phi_i != 0, that is, when the product F of those monic
    Phi_{p^i} divides y. F divides x^N - 1, so dividing a representative of
    degree < N by F shows that Ann(w) is F * Z[x] in degrees < N, with basis
    x^j F for j < N - deg F; it is saturated, as a kernel must be.

    The Galois-fixed sub-presentations are computed inside the fixed
    subring: the orbit sums gamma_i are a basis of RU^Galois, the
    permutation character of X lives there, and multiplication by it
    restricts; Ann and quotient of that restricted map match the side-A
    answers. (The Galois fixed points of the module RU/XR itself can be
    strictly smaller: passing to fixed points is not exact, so the subring
    is where the comparison with A(G) lives.)
    """
    G = X.group
    if G.descriptor.kind != "cyclic" or prime_power(G.order) is None:
        raise ValueError("ideal presentations are computed over cyclic p-groups")
    if X.p_local is not None or any(not isinstance(c, int) for c in X.coeffs):
        raise ValueError("X must have integer coefficients")
    if side == "A":
        r = len(G.subgroup_classes())
        cols = [bmul(X, orbit(G, j)).coeffs for j in range(r)]
        M = IntMatrix.from_columns(cols)
        ann = kernel_basis(M)
        return IdealStructure(
            "A",
            AbelianPresentation(len(ann), (), tuple(ann)),
            AbelianPresentation(*cokernel_data(M)),
        )
    if side != "RU":
        raise ValueError("side must be 'A' or 'RU'")
    m = G.order
    lin = linearize(X)
    w = lin.coeffs
    F = [1]
    for cls, phi in zip(G.subgroup_classes(), marks(X)):
        if phi:
            F = poly_mul(F, cyclotomic_poly(cls.order))
    pad = m - len(F)
    ann = tuple([(0,) * j + tuple(F) + (0,) * (pad - j) for j in range(pad + 1)])
    M = IntMatrix([[w[(a - b) % m] for b in range(m)] for a in range(m)])
    basis = gamma_orbit_basis(G)
    cols = []
    for gam in basis.gammas:
        ok, coords = gamma_fixed_check(lin * gam)
        assert ok, "the fixed subring is closed under multiplication"
        cols.append(coords)
    MG = IntMatrix.from_columns(cols)

    def ambient(vec):
        out = [0] * m
        for c, gam in zip(vec, basis.gammas):
            for a in range(m):
                out[a] += c * gam.coeffs[a]
        return tuple(out)

    ann_fixed = tuple([ambient(v) for v in kernel_basis(MG)])
    free, factors, gens = cokernel_data(MG)
    return IdealStructure(
        "RU",
        AbelianPresentation(len(ann), (), ann),
        AbelianPresentation(*cokernel_data(M)),
        AbelianPresentation(len(ann_fixed), (), ann_fixed),
        AbelianPresentation(free, factors, tuple([ambient(v) for v in gens])),
    )
