"""The representation ring RU(G): virtual characters with exact cyclotomic
values, Adams operations, linearization from the Burnside ring, and the
annihilator/quotient presentations of principal ideals.

Cyclic groups use the concrete form Z[L]/(L^m - 1): a virtual representation
is a coefficient vector indexed by the exponent of L, and multiplication is
cyclic convolution. Dicyclic groups work over the irreducible basis, and
their products and Adams operations run on the restriction to <x> = C_2m and
two numbers more (`_restrict`), through the same convolution and exponent
map. Coefficients may be p-local rationals under the same flag discipline as
virtual G-sets.

No table of character values is kept for either kind. A value is one sum
over the lines of a cyclic group (`_line_sum`): of the coefficients over C_m,
and over Dic_m of the restriction to <x> at x^s, or a +- t0 b at the classes
of j and xj. Fixed point freeness and the eigenvalues of an element are read
off the same integers: off the lines of C_m or of the restriction to <x>,
and at x^s j off dim V, V(x^m), a and b. Only `CharacterTable.decompose`
transforms class values (`_fourier`). Linearization needs no transform: it
is read off the marks of X in integers, over Dic_m through the restriction
to <x>.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import gcd, lcm

from .burnside import VirtualGSet, from_marks, marks
from .exactmath import (
    CyclotomicElement,
    IntMatrix,
    cokernel_mod,
    cyclotomic_poly,
    divisors,
    factorize,
    kernel_and_cokernel,
    poly_div_exact,
    poly_mul,
    prime_power,
)
from .groups import GroupDescriptor, GroupModel, build_group
from .record import record
from .virtual import VirtualElement

__all__ = [
    "CharacterTable",
    "VirtualRep",
    "AbelianPresentation",
    "IdealStructure",
    "character_table",
    "standard_rep",
    "adams",
    "linearize",
    "is_fixed_point_free",
    "has_rational_characters",
    "eigenvalue_multiplicities",
    "annihilator_and_quotient",
]


class CharacterTable:
    """The irreducibles of Dic_m, 1, u1, u2, u3, rho_1, ..., rho_(m-1): their
    names, the class representatives, and the expansion of a class function
    over them. No character value is stored: `VirtualRep.character` reads
    them off the restriction to <x> (`_restrict`). RU(C_m) has no table."""

    def __init__(self, group: GroupModel):
        if group.descriptor.kind != "dicyclic":
            raise ValueError("character tables are built over dicyclic groups")
        self.group = group

    # read on demand, so that a table costs nothing to make
    reps = property(lambda self: tuple([c[0] for c in self.group.element_conjugacy_classes()]))
    names = property(lambda self: _irreducible_names(self.group))

    def decompose(self, values) -> tuple:
        """Inner products of a class function f, one value per class,
        against each irreducible; ArithmeticError unless all are rational.

        The restriction argument for dihedral groups (Serre, *Linear
        Representations of Finite Groups*, GTM 42, section 5.3): let
        F(h) = (1/2m) sum_r f(x^r) zeta_2m^(-hr), the coefficient of L^h in
        the restriction of f to <x> = C_2m; F(h) = F(-h) as x^r and x^-r
        are conjugate. Split <f, chi> = (1/4m) sum_g f(g) conj(chi(g)) into
        <x> and the coset <x>j, whose m elements x^a j with a even lie in
        the class of j and the m with a odd in that of xj.
        - rho_h restricts to L^h + L^-h and vanishes on the coset, so
          c(rho_h) = (2m/4m)(F(h) + F(-h)) = F(h).
        - A linear character with s = chi(x) and t = chi(j) restricts to L^0
          (u0, u1: s = 1, t = +-1) or to L^m (u2, u3: s = -1, t = +-t0), and
          its coefficient is F(0)/2 + conj(t)(f(j) + f(xj))/4 or
          F(m)/2 + conj(t)(f(j) - f(xj))/4.
        So c(u0) + c(u1) = F(0), c(u0) - c(u1) = (f(j) + f(xj))/2,
        c(u2) + c(u3) = F(m) and c(u2) - c(u3) = (f(j) - f(xj))/(2 t0): the
        restriction F and the numbers a, b of `_restrict`, whose inverse
        `_lift` gives the coefficients. All m + 3 are rational exactly when
        a, b and F(0), ..., F(m), one `_fourier` transform, are.
        """
        m = self.group.descriptor.m
        values = [v if isinstance(v, CyclotomicElement) else CyclotomicElement.from_rational(v)
                  for v in values]
        if len(values) != m + 3:
            raise ValueError(f"a class function on {self.group.descriptor.name} has {m + 3} "
                             f"values, one per conjugacy class, not {len(values)}")
        idx = self.group.element_class_index
        F = _fourier([values[idx(r)] for r in range(2 * m)], range(m + 1))
        fj, fxj = values[idx(2 * m)], values[idx(2 * m + 1)]
        # twice a and b, with 1/t0 = t0 / t0^2 = (-1)^m t0
        s0 = fj + fxj
        s1 = (fj - fxj) * _T0[m % 2] * (-1) ** m
        if not (s0.is_rational() and s1.is_rational()):
            raise ArithmeticError("class function is not rational over the irreducibles")
        return tuple(_lift(F, Fraction(s0.rational_value(), 2),
                           Fraction(s1.rational_value(), 2), m))

    def product_coeffs(self, i: int, j: int) -> tuple:
        """chi_i * chi_j in the irreducible basis."""
        G = self.group
        return (VirtualRep.irreducible(G, i) * VirtualRep.irreducible(G, j)).coeffs


def _irreducible_names(G: GroupModel) -> tuple:
    """The names of the irreducibles in basis order: 1, L, L^2, ... over
    C_m and 1, u1, u2, u3, rho1, ..., rho(m-1) over Dic_m."""
    if G.descriptor.kind == "cyclic":
        return ("1", "L", *[f"L^{a}" for a in range(2, G.order)])[:G.order]
    return ("1", "u1", "u2", "u3", *[f"rho{h}" for h in range(1, G.descriptor.m)])


# t0 = u2(j) over Dic_m, indexed by m % 2: t0^2 = u2(x^m) = (-1)^m, so t0 is
# 1 for m even and i for m odd
_T0 = (CyclotomicElement.one(), CyclotomicElement.zeta(4))


def _line_sum(coeffs, s: int) -> CyclotomicElement:
    """sum_a coeffs[a] zeta_k^(a s), k = len(coeffs): the character with
    these multiplicities of the lines L^a of C_k at the element s."""
    k = len(coeffs)
    return CyclotomicElement.from_exponents(k, [(a * s, c) for a, c in enumerate(coeffs)])


def character_table(G: GroupModel) -> CharacterTable:
    """The irreducibles of Dic_m (see `CharacterTable`), which hold no
    values, so nothing is kept on the model; ValueError over C_m."""
    return CharacterTable(G)


class VirtualRep(VirtualElement):
    """Element of RU(G).

    Cyclic: coefficient k is the multiplicity of L^k. Dicyclic: coefficient
    k is the multiplicity of the k-th irreducible character.
    """

    __slots__ = ()

    _noun = "representation"
    _basis = "the character basis"
    _ring = "here"

    @staticmethod
    def _size(group: GroupModel) -> int:
        return group.order if group.descriptor.kind == "cyclic" else group.descriptor.m + 3

    def _names(self):
        return _irreducible_names(self.group)

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
        if not 0 <= index < len(vec):
            raise ValueError(f"no irreducible with index {index}: "
                             f"the basis has {len(vec)} elements")
        vec[index] = 1
        return cls(group, vec)

    @classmethod
    def regular(cls, group: GroupModel) -> "VirtualRep":
        if group.descriptor.kind == "cyclic":
            return cls(group, [1] * group.order)
        return cls(group, (1,) * 4 + (2,) * (group.descriptor.m - 1))

    # -- structure

    def is_cyclic_side(self) -> bool:
        return self.group.descriptor.kind == "cyclic"

    def is_honest(self) -> bool:
        """Every coefficient is an integer >= 0. An element with no p-local
        flag holds ints only (`VirtualElement` turns a Fraction of
        denominator 1 into its numerator and refuses any other), so only a
        p-local V has its types read, and one `min` reads the signs."""
        c = self.coeffs
        return (self.p_local is None or all(type(x) is int for x in c)) and min(c) >= 0

    def dim(self):
        """The value at e, over Dic_m that of the restriction to <x>."""
        if self.is_cyclic_side():
            return sum(self.coeffs)
        return sum(_restrict(self.coeffs, self.group.descriptor.m)[0])

    def character(self, g: int) -> CyclotomicElement:
        """The value at g: over C_m a sum of powers of zeta_m; over Dic_m
        that of the restriction r to <x> at x^s, and a +- t0 b at x^s j
        (see `_restrict`)."""
        self.group.check_element(g)
        return self._values((g,))[0]

    def class_values(self) -> tuple:
        """Character value at each element conjugacy class, in class order."""
        return tuple(self._values([c[0] for c in self.group.element_conjugacy_classes()]))

    def _values(self, elements) -> list:
        """The values at these elements of the group, over Dic_m off one
        restriction."""
        if self.is_cyclic_side():
            return [_line_sum(self.coeffs, g) for g in elements]
        m = self.group.descriptor.m
        r, a, b = _restrict(self.coeffs, m)
        tb = _T0[m % 2] * b
        # past <x>, j's class (even g) or xj's
        return [_line_sum(r, g) if g < 2 * m else tb + a if g % 2 == 0 else -tb + a
                for g in elements]

    # -- ring product: cyclic convolution, over Dic_m on the restriction

    def _product(self, other: "VirtualRep") -> "VirtualRep":
        if other.group is not self.group:
            raise ValueError("different groups")
        flag = self._merge_flag(other)
        if self.is_cyclic_side():
            return VirtualRep(self.group, _convolve(self.coeffs, other.coeffs), flag)
        m = self.group.descriptor.m
        r1, a1, b1 = _restrict(self.coeffs, m)
        r2, a2, b2 = _restrict(other.coeffs, m)
        a = a1 * a2 + (-1) ** m * b1 * b2
        return VirtualRep(self.group, _lift(_convolve(r1, r2), a, a1 * b2 + a2 * b1, m), flag)

    # perfbench/tracing.py times rep products and powers by wrapping these
    # names in this class's own __dict__, so the inherited operators are
    # bound here as well
    __mul__ = __rmul__ = VirtualElement.__mul__
    __pow__ = VirtualElement.__pow__


def standard_rep(G: GroupModel, name: str) -> VirtualRep:
    """Named representations: L (cyclic line), W (cyclic fixed point free
    rational), H (dicyclic fixed point free rational), taut (dicyclic
    2-dimensional), regular."""
    kind = G.descriptor.kind
    if name == "L":
        return VirtualRep.line(G, 1)
    if name == "regular":
        return VirtualRep.regular(G)
    if name == "W":
        if kind != "cyclic":
            raise ValueError("W is defined over cyclic groups")
        return VirtualRep(G, _unit_mask(G.order))
    if name in ("H", "taut"):
        if kind != "dicyclic":
            raise ValueError(f"{name} is defined over dicyclic groups")
        m = G.descriptor.m
        vec = [0] * (m + 3)
        if name == "taut":
            vec[4] = 1  # rho_1
            return VirtualRep(G, vec)
        vec[4:] = _unit_mask(2 * m)[1:m]  # rho_h with gcd(h, 2m) = 1
        return VirtualRep(G, vec)
    raise ValueError(f"unknown representation name {name!r}")


@cache
def _primes(n: int) -> tuple:
    """The primes dividing n, factored once per n."""
    return tuple(factorize(n))


def _unit_mask(n: int) -> list:
    """1 at each a < n with gcd(a, n) = 1 and 0 elsewhere, by slices: a is a
    unit exactly when no prime q of n divides it."""
    out = [1] * n
    for q in _primes(n):
        out[::q] = [0] * ((n - 1) // q + 1)
    return out


def adams(ell: int, V: VirtualRep) -> VirtualRep:
    """Adams operation: the class function g -> character(g^ell). Over C_m
    it sends L^s to L^(s ell); over Dic_m see `_restrict`."""
    if ell < 0:
        raise ValueError("Adams index must be >= 0")
    G = V.group
    if V.is_cyclic_side():
        return VirtualRep(G, _exponent_map(V.coeffs, ell), V.p_local)
    m = G.descriptor.m
    r, a, b = _restrict(V.coeffs, m)
    if ell % 2 == 0:
        a, b = sum(-c if s * ell // 2 % 2 else c for s, c in enumerate(r)), 0
    elif m % 2 and ell % 4 == 3:  # (-1)^(m(ell-1)/2) = -1
        b = -b
    return VirtualRep(G, _lift(_exponent_map(r, ell), a, b, m), V.p_local)


def linearize(X: VirtualGSet) -> VirtualRep:
    """Permutation representation C[X]: its character at g is the mark of X
    at <g>, the number of points g fixes.

    Over C_m, [C_m/C_k] is induced from the trivial character of
    C_k = <g^(m/k)>, so it is the sum of the L^a trivial there, those with
    k | a (`_permutation_lines`).

    Over Dic_m, write C[X] as (r, a, b) (`_restrict`). Restriction to
    <x> = C_2m commutes with linearization, as the points fixed by a
    subgroup of <x> do not depend on the group it is seen in: r is the
    cyclic rule applied to the restricted G-set, whose marks at <x^d>,
    d | 2m, are those of X at the classes of <x^d>, and `from_marks` over
    C_2m recovers it. The values at j and xj are the marks Vj and Vxj of X
    at <j> and <xj>, and equal a + t0 b and a - t0 b. For m even, t0 = 1
    and a, b = (Vj +- Vxj)/2. For m odd, x^m j lies in <j> and in the class
    of xj, so <j> and <xj> are conjugate, Vj = Vxj, and with t0 = i the
    rational solution is a = Vj, b = 0. `_lift` then gives the
    coefficients. The tests hold this against the decomposition of the
    class function of marks.
    """
    G = X.group
    if G.descriptor.kind == "cyclic":
        return VirtualRep(G, _permutation_lines(X), X.p_local)
    m = G.descriptor.m
    n = 2 * m
    mk = marks(X)
    C = build_group(GroupDescriptor.cyclic_of_order(n))
    res = from_marks(C, [mk[G.cyclic_class_of(n // cls.order % n)]
                         for cls in C.subgroup_classes()], X.p_local)
    vj, vxj = mk[G.cyclic_class_of(n)], mk[G.cyclic_class_of(n + 1)]
    a, b = (vj, 0) if m % 2 else (_half(vj + vxj), _half(vj - vxj))
    return VirtualRep(G, _lift(_permutation_lines(res), a, b, m), X.p_local)


def _permutation_lines(X: VirtualGSet) -> list:
    """The coefficients of C[X] over the lines of C_m for a C_m-set X:
    [C_m/C_k] gives each L^a with k | a."""
    m = X.group.order
    out = [0] * m
    for cls, c in zip(X.group.subgroup_classes(), X.coeffs):
        if c:
            for a in range(0, m, cls.order):
                out[a] += c
    return out


def _convolve(u, v) -> list:
    """The product of u and v in Z[x]/(x^n - 1), n = len(u) = len(v)."""
    n = len(u)
    out = [0] * n
    for i, x in enumerate(u):
        if x:
            for j, y in enumerate(v):
                if y:
                    out[(i + j) % n] += x * y
    return out


def _exponent_map(u, ell: int) -> list:
    """The ring endomorphism x -> x^ell of Z[x]/(x^n - 1), n = len(u)."""
    n = len(u)
    out = [0] * n
    for s, c in enumerate(u):
        if c:
            out[s * ell % n] += c
    return out


def _restrict(coeffs, m: int) -> tuple:
    """A Dic_m coefficient vector c as (r, a, b): r in Q^2m the coefficients
    of its restriction to <x> = C_2m over the lines L^s (L(x) = zeta_2m),
    a = c(u0) - c(u1) and b = c(u2) - c(u3). `_lift` is the inverse.

    Restriction: u0 and u1 restrict to L^0, u2 and u3 (which send x to -1)
    to L^m, and rho_h to L^h + L^(2m-h), so r[0] = c(u0) + c(u1),
    r[m] = c(u2) + c(u3) and r[h] = r[2m-h] = c(rho_h) for 0 < h < m. At j
    the u's take 1, -1, t0, -t0 with t0^2 = u2(x^m) = (-1)^m, and every
    rho_h vanishes, so V(j) = a + t0 b; at xj, V(xj) = a - t0 b, as u2 and
    u3 change sign. Inverse: c(u0), c(u1) = (r[0] +- a)/2, c(u2), c(u3) =
    (r[m] +- b)/2 and c(rho_h) = r[h]. So V -> (r, a, b) is injective, and
    as every element of Dic_m is conjugate into <x> or to j or xj, the
    ring operations may be computed on (r, a, b):
    - product: restriction is a ring map, so r is the cyclic convolution of
      r1 and r2, and V1 V2 (j) = (a1 + t0 b1)(a2 + t0 b2) gives
      a = a1 a2 + (-1)^m b1 b2, b = a1 b2 + a2 b1;
    - psi^ell: on <x> it sends L^s to L^(s ell). At j, j^2 = x^m, so for
      odd ell, j^ell is j or j^3 = x^m j, which is conjugate to j for m even
      and to xj for m odd, and likewise (xj)^ell is xj or x^(m+1) j: b
      becomes (-1)^(m(ell-1)/2) b. For even ell,
      j^ell = (xj)^ell = x^(m ell/2), where V takes
      sum_s r[s] (-1)^(s ell/2), which is a, with b = 0.
    """
    n = 2 * m
    r = [0] * n
    r[0], r[m] = coeffs[0] + coeffs[1], coeffs[2] + coeffs[3]
    for h in range(1, m):
        r[h] = r[n - h] = coeffs[3 + h]
    return r, coeffs[0] - coeffs[1], coeffs[2] - coeffs[3]


def _lift(r, a, b, m: int) -> list:
    """The Dic_m coefficients with restriction r (read at 0..m) and the
    numbers a, b; the inverse of `_restrict`, halving exactly (`_half`).
    For integral input r[0] +- a = 2c(u0), 2c(u1) and r[m] +- b are even,
    so the coefficients stay ints; Fractions come only from p-local or
    non-integral input."""
    r0, rm = r[0], r[m]
    return [_half(r0 + a), _half(r0 - a), _half(rm + b), _half(rm - b), *r[1:m]]


def _half(x):
    """x / 2, an int when x is an even int and a Fraction otherwise."""
    return x >> 1 if type(x) is int and not x & 1 else Fraction(x, 2)


def _fourier(values: list, js) -> list:
    """(1/k) sum_b f(g^b) zeta_k^(-jb) for each j in js, given the k values
    f(g^b), b = 0..k-1, of a class function along an element g of order k:
    the coefficient of the character zeta_k^j of <g> in its restriction.

    The values are lifted once to exponent vectors over Q(zeta_N),
    N = lcm(k, their conductors), with one common denominator. Multiplying
    by zeta_k^(-jb) shifts a vector, so each sum is one integer
    accumulation, reduced modulo Phi_N once and required to be rational
    (ArithmeticError otherwise).
    """
    k = len(values)
    n = lcm(k, *(v.conductor for v in values))
    den = lcm(*[v.den for v in values])
    lifted = [
        [(e, c * (den // v.den)) for e, c in v.exponent_terms(n)] for v in values
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
            raise ArithmeticError("class function transform is not rational")
        out.append(total.rational_value() / (k * den))
    return out


def _cyclic_eigenvalues(coeffs, g: int) -> list:
    """The multiplicity of zeta_k^j as an eigenvalue of the element g of
    C_n, n = len(coeffs), on the sum of the lines L^a with these
    multiplicities, k the order of g: L^a takes zeta_n^(ag) at g, which is
    zeta_k^j for ag = j(n/k) mod n, so it is the sum of the c_a over those
    a."""
    n = len(coeffs)
    step = gcd(g, n)  # n / k
    out = [0] * (n // step)
    for a, c in enumerate(coeffs):
        if c:
            out[a * g % n // step] += c
    return out


def eigenvalue_multiplicities(V: VirtualRep, g: int) -> tuple:
    """Multiplicity of zeta_k^j (j = 0..k-1) as an eigenvalue of g on V,
    where k is the order of g. Requires an honest representation.

    The cyclic rule reads them off the coefficients over C_m, and over
    Dic_m off the restriction r to <x> for g = x^s (`_restrict`). g = x^s j
    has order 4, g^2 = x^m and V(g^3) = conj V(g). With d = dim V,
    c = V(x^m) = sum_s (-1)^s r[s] and V(g) = alpha + i beta, i^t has
    multiplicity (1/4) sum_b V(g^b) i^(-tb) = (d + (-1)^t c + 2x)/4, x being
    alpha, beta, -alpha, -beta for t = 0..3. V(g) = a +- t0 b by the parity
    of s, so alpha = a +- b, beta = 0 for m even (t0 = 1), and alpha = a,
    beta = +-b for m odd (t0 = i).
    """
    if not V.is_honest():
        raise ValueError("eigenvalues need an honest representation")
    G = V.group
    G.check_element(g)
    if V.is_cyclic_side():
        return tuple(_cyclic_eigenvalues(V.coeffs, g))
    m = G.descriptor.m
    r, a, b = _restrict(V.coeffs, m)
    if g < 2 * m:
        return tuple(_cyclic_eigenvalues(r, g))
    d, c = sum(r), sum(r[::2]) - sum(r[1::2])
    if g % 2:
        b = -b
    alpha, beta = (a, b) if m % 2 else (a + b, 0)
    return tuple([(d + (-1) ** t * c + 2 * x) // 4
                  for t, x in enumerate((alpha, beta, -alpha, -beta))])


def is_fixed_point_free(V: VirtualRep) -> bool:
    """No nontrivial element fixes a vector; the unit sphere is free.

    Over C_n that holds exactly when every line L^a in V is faithful,
    gcd(a, n) = 1. gcd(a, n) > 1 exactly when some prime q of n divides a,
    and an honest V has coefficients >= 0, so the rule is that no slice
    lines[::q] holds a nonzero coefficient. Over Dic_m the rule runs on the
    restriction to <x> (`_restrict`): a vector fixed by g is fixed by g^2,
    and every x^s j squares to x^m != e in <x>."""
    if not V.is_honest():
        raise ValueError("fixed point freeness is a property of honest representations")
    lines = V.coeffs if V.is_cyclic_side() else _restrict(V.coeffs, V.group.descriptor.m)[0]
    return not any(any(lines[::q]) for q in _primes(len(lines)))


def has_rational_characters(V: VirtualRep) -> bool:
    """Whether the character of V takes rational values. Over C_m the
    Galois group (Z/m)^x sends L^a to L^(ua), so the orbit of L^a is the
    set of L^b with gcd(b, m) = gcd(a, m): V is rational exactly when its
    coefficients are constant on each such set. For d | m that set is
    {d j : gcd(j, m/d) = 1}, the units of the slice coeffs[::d]; each slice
    has its non-units, the multiples of a prime of m/d, overwritten by its
    value at the unit j = 1 and is then counted against that value."""
    if V.is_cyclic_side():
        c = V.coeffs
        m = len(c)
        for d in divisors(m)[:-1]:
            orbit = list(c[::d])
            k, ref = m // d, orbit[1]
            for q in _primes(k):
                orbit[::q] = [ref] * ((k - 1) // q + 1)
            if orbit.count(ref) != k:
                return False
        return True
    return all(v.is_rational() for v in V.class_values())


# ---------------------------------------------------------------------------
# principal ideal presentations


@record
class AbelianPresentation:
    """An abelian group: free rank, invariant factors > 1, and generator
    vectors in the ambient basis (one per factor, then one per free rank)."""

    free_rank: int
    factors: tuple
    generators: tuple


@record
class IdealStructure:
    side: str
    annihilator: AbelianPresentation
    quotient: AbelianPresentation
    annihilator_fixed: AbelianPresentation | None = None
    quotient_fixed: AbelianPresentation | None = None


def _ideal_split(X: VirtualGSet, phi) -> tuple:
    """(F, A): the split of the ideal (w) of RU(C_N), N = p^n, that the RU
    quotient and, when it eliminates, certify step 2 read, built from
    phi = marks(X), the mark at the subgroup of order p^i at place i, and
    from the top deg F coefficients of w alone.

    w = linearize(X) is scaled by den, the lcm of the denominators of X:
    [G/H] adds den * c_H to the coefficient of each L^a with |H| dividing
    a (`_permutation_lines`). den is 1 for integer X and a unit at p when
    X lies in A(G)_(p), as certify requires, so the ideal is the same over
    Z_(p). Evaluation at the roots of unity zeta_{p^i}, i = 0..n, embeds
    R = Z[x]/(x^N - 1) in a product of domains, since x^N - 1 is the
    product of the distinct Phi_{p^i}, and w takes there den * phi_i. Let
    S = {i : phi_i != 0}, F the product of the monic Phi_{p^i} over i in
    S, of degree k, and G' = (x^N - 1)/F the product of the others. w
    vanishes at the roots of G', so G' divides w in Z[x]; h = w / G' has
    degree < k. Division by the monic G' gives R = P + G'*Q, a direct sum,
    with P the polynomials of degree < N - k and Q those of degree < k. As
    x^N - 1 = G' F, w*y mod (x^N - 1) = G' * (h*Q mod F), so
    wR = G' * (h*Q mod F), inside G'*Q, and multiplication by G' is
    injective on Q. A is the k x k IntMatrix with columns x^j h mod F,
    j < k, the matrix of multiplication by h on Q = Z[x]/(F), in integers
    for p-local X too, and None when k = 0. Each reader reads a modulus
    that kills its cokernel Z[x]/(F, h) off phi: N * lcm |phi_i| for the RU
    quotient and, at p only, p^(mu + n) for step 2 (proofs in
    `annihilator_and_quotient` and `jtheory._fixed_mod_X`).

    h is read off the top k coefficients of w, with no division by G':
    w*F = h*G'*F = h*(x^N - 1) in Z[x]. As deg h < k <= N, the product
    h*(x^N - 1) = h*x^N - h has coefficient h_j at x^(N + j) for j >= 0,
    the term -h reaching only degrees below k <= N. On the left, the
    coefficient of x^(N + j) in w*F is the sum of F_t w_(N + j - t) over
    the t <= k with 0 <= N + j - t < N, as deg w < N; that is t > j. So
    h_j = sum_{j < t <= k} F_t w_(N + j - t), which reads w only at
    N - k, ..., N - 1. There w_(N - k + i) is the sum of den * c_H over
    the orbits [G/H] with |H| dividing N - k + i, that is, as |H| divides
    N, with |H| dividing k - i. So h takes O(k * nnz F) steps and A
    O(k^2) more, and nothing of length N is built.
    """
    classes = X.group.subgroup_classes()
    F = [1]
    for cls, c in zip(classes, phi):
        if c:
            F = poly_mul(F, cyclotomic_poly(cls.order))
    k = len(F) - 1
    if not k:
        return F, None
    den = lcm(*[c.denominator for c in X.coeffs])
    top = [0] * k  # top[i] = w_(N - k + i)
    for cls, c in zip(classes, X.coeffs):
        if c:
            c = int(c * den)
            q = cls.order
            for i in range(k % q, k, q):
                top[i] += c
    h = [0] * k
    for t, f in enumerate(F):
        if f:
            for j in range(t):
                h[j] += f * top[k + j - t]
    cols = []
    for _ in range(k):
        cols.append(h)
        lead = h[-1]
        h = [0, *h[:-1]]
        if lead:
            h = [c - lead * f for c, f in zip(h, F)]
    return F, IntMatrix._of(list(zip(*cols)))


def annihilator_and_quotient(X: VirtualGSet, side: str = "A") -> IdealStructure:
    """Presentations of Ann(X) = ker(X * -) and R/XR for R = A(G) or RU(G).

    X must have integer coefficients. Every Smith form here comes from the
    one elimination of `exactmath`, over Z or modulo E. Side A reads the
    kernel and the cokernel of multiplication by X on A(G) off one Smith
    form over Z. Its matrix needs no product of marks: over the chain
    C_{p^0} < ... < C_{p^n}, the G-set G/H x G/K has |G/H| |G/K| points,
    each with stabilizer H n K, the smaller of the two, so
    [G/H][G/K] = (|G| / |H u K|) [G/(H n K)], H u K the larger.

    Side RU, with |G| = N = p^n, has R = Z[x]/(x^N - 1), w = linearize(X)
    and the split R = P + G'*Q, wR = G' * (h*Q mod F) of `_ideal_split`,
    which hands back F and A; w and G' = (x^N - 1)/F, of length N, are
    formed here, the only reader that needs them.
    - Annihilator: w*y = 0 exactly when y(zeta_{p^i}) = 0 for each i in S,
      that is, when F divides y. F divides x^N - 1, so dividing a
      representative of degree < N by F shows that Ann(w) is F * Z[x] in
      degrees < N, with basis x^j F for j < N - k; it is saturated, as a
      kernel must be.
    - Quotient: R/wR is Z^(N - k), generated by the x^j with j < N - k,
      plus Z[x]/(F, h), the cokernel of the k x k matrix A, with generators
      G'*g for its generators g.
    - E = N * lcm_{i in S} |phi_i| kills that cokernel, so E*Z^k lies in
      the column lattice of A, and `cokernel_mod` reads it off that
      elimination run modulo E, whose entries stay within E/2 of 0. At p,
      p^(mu + n), mu = max_{i in S} v_p(phi_i), kills it
      (`jtheory._fixed_mod_X`). At
      a prime q != p, N is a unit, so Z[x]/(F) tensor Z_(q) is the product
      of the Z_(q)[zeta_{p^i}], i in S, and h is phi_i times a unit there,
      as G'(zeta_{p^i}) has p-power norm: the lcm kills the q-part.

    The Galois-fixed sub-presentations are computed inside the fixed
    subring: the orbit sums gamma_j, the sum of the L^a with
    gcd(a, N) = p^j, are a basis of RU^Galois, the permutation character
    of X lives there, and multiplication by it restricts. The coordinate
    of w*gamma_j at gamma_i is its coefficient of L^(p^i), the sum of
    w[p^i - a] over that orbit, so the (n + 1) x (n + 1) matrix takes
    O((n + 1) N) additions and no product. Ann and quotient of that
    restricted map match the side-A answers. (The Galois fixed points of
    the module RU/XR itself can be strictly smaller: passing to fixed
    points is not exact, so the subring is where the comparison with A(G)
    lives.)
    """
    G = X.group
    if G.descriptor.kind != "cyclic" or prime_power(G.order) is None:
        raise ValueError("ideal presentations are computed over cyclic p-groups")
    if X.p_local is not None or any(not isinstance(c, int) for c in X.coeffs):
        raise ValueError("X must have integer coefficients")
    m = G.order
    if side == "A":
        orders = [cls.order for cls in G.subgroup_classes()]  # increasing
        cols = []
        for j, oj in enumerate(orders):
            col = [0] * len(orders)
            for i, (oi, c) in enumerate(zip(orders, X.coeffs)):
                col[min(i, j)] += c * (m // max(oi, oj))
            cols.append(col)
        ann, quot = kernel_and_cokernel(IntMatrix.from_columns(cols))
        return IdealStructure(
            "A",
            AbelianPresentation(len(ann), (), tuple(ann)),
            AbelianPresentation(*quot),
        )
    if side != "RU":
        raise ValueError("side must be 'A' or 'RU'")
    p, n = prime_power(m)
    phi = marks(X)
    F, A = _ideal_split(X, phi)
    w = linearize(X).coeffs
    Gc = poly_div_exact([-1, *[0] * (m - 1), 1], F)
    k = len(F) - 1
    free = m - k
    ann = tuple([(0,) * j + tuple(F) + (0,) * (free - 1 - j) for j in range(free)])
    torsion, gens = (), []
    if k:
        _, torsion, tgens = cokernel_mod(A, m * lcm(*[abs(c) for c in phi if c]))
        gens = [tuple(poly_mul(Gc, g)) for g in tgens]
    gens += [(0,) * j + (1,) + (0,) * (m - 1 - j) for j in range(free)]

    # level[a] = j where gcd(a, m) = p^j: gamma_j is the indicator of level j
    level = [0] * m
    for i in range(1, n + 1):
        level[::p**i] = [i] * (m // p**i)
    powers = [p**i for i in range(n + 1)]
    cols = [[0] * (n + 1) for _ in range(n + 1)]
    for a, j in enumerate(level):
        col = cols[j]
        for i, q in enumerate(powers):
            col[i] += w[(q - a) % m]

    def ambient(vec):
        return tuple([vec[i] for i in level])

    kernel, (free_fixed, factors_fixed, gens_fixed) = kernel_and_cokernel(
        IntMatrix.from_columns(cols))
    return IdealStructure(
        "RU",
        AbelianPresentation(free, (), ann),
        AbelianPresentation(free, torsion, tuple(gens)),
        AbelianPresentation(len(kernel), (), tuple([ambient(v) for v in kernel])),
        AbelianPresentation(free_fixed, factors_fixed, tuple([ambient(v) for v in gens_fixed])),
    )
