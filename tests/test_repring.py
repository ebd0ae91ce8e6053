import random
import time
from fractions import Fraction
from math import gcd, lcm, prod

import pytest

from vone import repring
from vone.burnside import VirtualGSet, bmul, from_marks, marks, orbit
from vone.exactmath import (
    CyclotomicElement,
    IntMatrix,
    cokernel_data,
    cyclotomic_poly,
    euler_phi,
    factorize,
    is_prime,
    kernel_basis,
    poly_div_exact,
    poly_mul,
    prime_power,
    pvaluation,
    smith_normal_form,
)
from vone.groups import GroupDescriptor, build_group
from vone.record import record
from vone.repring import (
    VirtualRep,
    adams,
    annihilator_and_quotient,
    character_table,
    eigenvalue_multiplicities,
    has_rational_characters,
    is_fixed_point_free,
    linearize,
    standard_rep,
)

from test_exactmath import _circulant, det, matmul, solve_int_columns


def G(name):
    return build_group(GroupDescriptor.parse(name))


def inner(table, u, v):
    acc = CyclotomicElement.zero(1)
    for cls, a, b in zip(table.classes, u, v):
        acc = acc + a * b.conjugate() * len(cls)
    return acc * Fraction(1, table.group.order)


class CyclicTable:
    """The m x m character table of C_m, an oracle kept on the test side:
    L^a takes zeta_m^(ab) at g^b, and every element is its own class."""

    def __init__(self, group):
        m = group.order
        self.group = group
        self.classes = group.element_conjugacy_classes()
        self.reps = tuple(range(m))
        self.rows = tuple(
            tuple(CyclotomicElement.zeta(m, a * b) for b in range(m)) for a in range(m)
        )
        self.dims = (1,) * m


class DicyclicTable:
    """The (m+3) x (m+3) table of cyclotomic character values of Dic_m,
    rows 1, u1, u2, u3, rho_1, ..., rho_(m-1), built entry by entry: the
    oracle for the values the library reads off the restriction to <x>.
    The linear characters take s^r at x^r and t s^a at x^a j, where
    t0 = u2(j) has t0^2 = u2(x^m) = (-1)^m; rho_h takes
    zeta_2m^(hr) + zeta_2m^(-hr) at x^r and vanishes off <x>."""

    def __init__(self, group):
        m = group.descriptor.m
        n = 2 * m
        self.group = group
        self.classes = group.element_conjugacy_classes()
        self.reps = reps = tuple(c[0] for c in self.classes)
        one, zero = CyclotomicElement.one(), CyclotomicElement.zero()
        t0 = one if m % 2 == 0 else CyclotomicElement.zeta(4)
        rows = [
            tuple([CyclotomicElement.from_rational(s**r) if r < n else t * s ** (r - n)
                   for r in reps])
            for s, t in ((1, one), (1, -one), (-1, t0), (-1, -t0))
        ]
        for h in range(1, m):
            rows.append(tuple([
                CyclotomicElement.zeta(n, h * r) + CyclotomicElement.zeta(n, -h * r)
                if r < n else zero
                for r in reps
            ]))
        self.rows = tuple(rows)
        self.dims = (1,) * 4 + (2,) * (m - 1)

    def character(self, v, g):
        """The value of v at g, summed over the rows."""
        k = self.group.element_class_index(g)
        return sum((c * row[k] for c, row in zip(v.coeffs, self.rows) if c),
                   CyclotomicElement.zero(1))


def table_of(g):
    return CyclicTable(g) if g.descriptor.kind == "cyclic" else DicyclicTable(g)


def from_class_function(g, values, p_local=None):
    """Expand an exact class function over the irreducible basis. Over C_m,
    where L^a takes zeta_m^(ab) at g^b for the generator g = 1, the
    coefficient of L^a is (1/m) sum_b f(g^b) zeta_m^(-ab), the library's
    transform; over Dic_m it is `CharacterTable.decompose`. The library
    built class functions this way until fixed points, eigenvalues and
    theta were read off the restriction to <x>."""
    if g.descriptor.kind == "cyclic":
        m = g.order
        if len(values) != m:
            raise ValueError(f"a class function on {g.descriptor.name} has {m} values, "
                             "one per conjugacy class")
        values = [v if isinstance(v, CyclotomicElement) else CyclotomicElement.from_rational(v)
                  for v in values]
        coeffs = repring._fourier(values, range(m))
    else:
        coeffs = character_table(g).decompose(values)
    return VirtualRep(g, coeffs, p_local)


def decompose(g, values, p_local=None):
    """The expansion of a class function: the transform over C_m,
    `CharacterTable.decompose` over Dic_m."""
    if g.descriptor.kind == "cyclic":
        return from_class_function(g, values, p_local).coeffs
    return character_table(g).decompose(values)


def along(v, x, values=None):
    """The character of v at x^0, x^1, ..., x^(k-1), k the order of x, read
    off the class values (computed here unless given)."""
    g = v.group
    values = v.class_values() if values is None else values
    return [values[g.element_class_index(g.power(x, b))] for b in range(g.element_order(x))]


def class_fixed_space_dim(v, x, values=None):
    """The dimension of the subspace of v fixed by x, the average of its
    character over <x>: the library's rule until fixed points were read off
    the restriction to <x>."""
    return repring._fourier(along(v, x, values), (0,))[0]


def class_eigenvalues(v, x, values=None):
    """The multiplicity of zeta_k^j, j = 0..k-1, as an eigenvalue of x on
    v, k the order of x: the transform of the class values along x."""
    out = repring._fourier(along(v, x, values), range(v.group.element_order(x)))
    assert all(q.denominator == 1 and q >= 0 for q in out), out
    return tuple([int(q) for q in out])


# ---------------------------------------------------------------------------
# character tables


def test_dicyclic_orthogonality():
    for name in ("Q8", "Q16", "Q32", "Q64", "Dic3", "Dic5", "Dic6"):
        table = DicyclicTable(G(name))
        n = len(table.rows)
        assert n == table.group.descriptor.m + 3
        for i in range(n):
            for j in range(n):
                assert inner(table, table.rows[i], table.rows[j]) == (1 if i == j else 0)


def test_q8_character_table_values():
    # classes of Q8: (e), (x, x^3), (x^2), (j, x^2 j), (xj, x^3 j)
    q8 = G("Q8")
    table = DicyclicTable(q8)
    assert tuple(len(c) for c in table.classes) == (1, 2, 1, 2, 2)
    assert table.dims == (1, 1, 1, 1, 2)
    want = [
        [1, 1, 1, 1, 1],
        [1, 1, 1, -1, -1],
        [1, -1, 1, 1, -1],
        [1, -1, 1, -1, 1],
        [2, 0, -2, 0, 0],
    ]
    assert [[v.rational_value() for v in row] for row in table.rows] == want
    irreps = [VirtualRep.irreducible(q8, i) for i in range(5)]
    assert [[v.character(r) for r in table.reps] for v in irreps] == want
    assert [v.dim() for v in irreps] == list(table.dims)


def test_trivial_row_first_and_dims():
    for name in ("C8", "Q16", "Dic3"):
        table = table_of(G(name))
        assert all(v == 1 for v in table.rows[0])
        total = sum(d * d for d in table.dims)
        assert total == table.group.order


def test_dic3_one_dims_use_i():
    # m odd: the two characters killing x take +-i on the j coset
    g = G("Dic3")
    i4 = CyclotomicElement.zeta(4)
    for x in (6, 7):  # j and xj
        vals = {repr(VirtualRep.irreducible(g, k).character(x)) for k in (2, 3)}
        assert vals == {repr(i4), repr(-i4)}


# ---------------------------------------------------------------------------
# virtual representations


def test_dim_and_character():
    g = G("C4")
    v = standard_rep(g, "W")
    assert v.coeffs == (0, 1, 0, 1)
    assert v.dim() == 2
    assert v.character(0) == 2
    assert v.character(1) == 0  # zeta_4 + zeta_4^3 = 0
    assert v.character(2) == -2


def test_regular_and_reduced_regular():
    for name in ("C8", "Q8"):
        g = G(name)
        reg = standard_rep(g, "regular")
        assert reg.dim() == g.order
        assert reg.character(0) == g.order
        for x in range(1, g.order):
            assert reg.character(x) == 0
        red = reg - VirtualRep.trivial(g)
        assert red.dim() == g.order - 1
        assert red.character(1) == -1


def test_h_rep_dimension_and_fpf():
    from vone.exactmath import euler_phi

    for name in ("Q8", "Q16", "Dic3", "Dic6"):
        g = G(name)
        h = standard_rep(g, "H")
        m = g.descriptor.m
        assert h.dim() == euler_phi(2 * m)
        assert is_fixed_point_free(h)
    q8 = G("Q8")
    assert standard_rep(q8, "H") == standard_rep(q8, "taut")


def test_standard_rep_builds_no_character_table(monkeypatch):
    """standard_rep(G, "H") built the character table into an unused local,
    0.32 s at Q512."""
    import vone.repring as repring
    from vone.groups import GroupModel

    def refuse(self, group):
        raise AssertionError("a character table was built")

    monkeypatch.setattr(repring.CharacterTable, "__init__", refuse)
    for name in ("Q8", "Q512", "Dic3"):
        g = GroupModel(GroupDescriptor.parse(name))
        for rep in ("H", "taut"):
            standard_rep(g, rep)


@pytest.mark.parametrize("m", range(2, 33))
def test_characters_dimensions_and_regular_match_the_table(m):
    """Characters at every element, class values and dimensions of honest,
    virtual and p-local representations, read off the restriction to <x>,
    against the cyclotomic table; m runs over both parities."""
    rng = random.Random(4000 + m)
    g = G(f"Dic{m}")
    table = DicyclicTable(g)
    reps = [*_dicyclic_samples(g, rng), standard_rep(g, "H"), standard_rep(g, "taut")]
    for v in reps:
        for x in range(g.order):
            assert v.character(x) == table.character(v, x), (m, v, x)
        assert v.class_values() == tuple(table.character(v, r) for r in table.reps), (m, v)
        assert v.dim() == sum(c * d for c, d in zip(v.coeffs, table.dims)), (m, v)
    assert VirtualRep.regular(g).coeffs == table.dims


def test_cyclic_product_is_convolution():
    g = G("C4")
    l = standard_rep(g, "L")
    assert (l * l).coeffs == (0, 0, 1, 0)
    assert (l**4).coeffs == (1, 0, 0, 0)
    w = standard_rep(g, "W")
    assert (w * w).coeffs == (2, 0, 2, 0)  # (L + L^3)^2 = 2 + 2L^2


def test_dicyclic_product_against_characters():
    g = G("Q16")
    table = character_table(g)
    size = g.descriptor.m + 3
    rng = random.Random(5)
    for _ in range(30):
        a = VirtualRep(g, [rng.randint(-2, 2) for _ in range(size)])
        b = VirtualRep(g, [rng.randint(-2, 2) for _ in range(size)])
        ab = a * b
        for r in table.reps:
            assert ab.character(r) == a.character(r) * b.character(r)


def test_irreducible_checks_its_index():
    """Over Q8 irreducible(G, -1) returned rho1 and irreducible(G, 9)
    raised IndexError."""
    q8, c4 = G("Q8"), G("C4")
    for g, size in ((q8, 5), (c4, 4)):
        for index in (-1, size, 9):
            with pytest.raises(ValueError, match=f"the basis has {size} elements"):
                VirtualRep.irreducible(g, index)
        assert [VirtualRep.irreducible(g, i).coeffs[i] for i in range(size)] == [1] * size
    for i, j in ((-1, 0), (0, 5)):
        with pytest.raises(ValueError, match="the basis has 5 elements"):
            character_table(q8).product_coeffs(i, j)


def test_rep_addition_scaling_and_p_local():
    g = G("C2")
    l = standard_rep(g, "L")
    v = 3 * l + 2
    assert v.coeffs == (2, 3)
    with pytest.raises(ValueError):
        VirtualRep(g, [Fraction(1, 3), 0])
    w = VirtualRep(g, [Fraction(1, 3), 0], p_local=2)
    assert (w + l).p_local == 2
    with pytest.raises(ValueError):
        VirtualRep(g, [Fraction(1, 2), 0], p_local=2)


# ---------------------------------------------------------------------------
# adams operations


def test_adams_on_lines_and_w4():
    g = G("C4")
    l = standard_rep(g, "L")
    assert adams(2, l) == l * l
    assert adams(3, l) == VirtualRep.line(g, 3)
    w = standard_rep(g, "W")
    assert adams(3, w) == w
    assert adams(2, w) == 2 * VirtualRep.line(g, 2)


def test_adams_is_ring_homomorphism_random():
    rng = random.Random(17)
    for name in ("C8", "C9", "Q8"):
        g = G(name)
        size = g.order if g.descriptor.kind == "cyclic" else g.descriptor.m + 3
        for _ in range(40):
            a = VirtualRep(g, [rng.randint(-3, 3) for _ in range(size)])
            b = VirtualRep(g, [rng.randint(-3, 3) for _ in range(size)])
            ell = rng.randint(1, 12)
            assert adams(ell, a + b) == adams(ell, a) + adams(ell, b)
            assert adams(ell, a * b) == adams(ell, a) * adams(ell, b)


def test_adams_composition_random():
    rng = random.Random(23)
    for name in ("C8", "Q16"):
        g = G(name)
        size = g.order if g.descriptor.kind == "cyclic" else g.descriptor.m + 3
        for _ in range(40):
            a = VirtualRep(g, [rng.randint(-3, 3) for _ in range(size)])
            k, ell = rng.randint(1, 9), rng.randint(1, 9)
            assert adams(k, adams(ell, a)) == adams(k * ell, a)


def test_adams_matches_power_characters():
    g = G("Q16")
    h = standard_rep(g, "H")
    for ell in (2, 3, 5, 7):
        psi = adams(ell, h)
        for x in range(g.order):
            assert psi.character(x) == h.character(g.power(x, ell))


# ---------------------------------------------------------------------------
# Dic_m products and Adams operations on the restriction to <x>
#
# The oracles are the brute-force paths the library used before: products
# through structure constants, each the decomposed pointwise product of two
# character-table rows, and psi^ell through the class values, the power map
# on classes and `from_class_function`.

def oracle_product_coeffs(g, i, j):
    """chi_i * chi_j in the irreducible basis, from the product of rows."""
    rows = DicyclicTable(g).rows
    coeffs = character_table(g).decompose([a * b for a, b in zip(rows[i], rows[j])])
    assert all(c.denominator == 1 for c in coeffs)
    return tuple(int(c) for c in coeffs)


def oracle_product(v, w):
    g = v.group
    out = [Fraction(0)] * len(v.coeffs)
    for i, x in enumerate(v.coeffs):
        if x:
            for j, y in enumerate(w.coeffs):
                if y:
                    for k, c in enumerate(oracle_product_coeffs(g, i, j)):
                        if c:
                            out[k] += x * y * c
    return VirtualRep(g, out, v._merge_flag(w))


def oracle_adams(ell, v):
    g = v.group
    vals = v.class_values()
    pcm = [g.element_class_index(g.power(r, ell)) for r in character_table(g).reps]
    return from_class_function(g, [vals[k] for k in pcm], v.p_local)


def _dicyclic_samples(g, rng, terms=None):
    """An honest, a virtual, a 2-local and a 3-local representation, with at
    most `terms` nonzero coefficients if given."""
    r = g.descriptor.m + 3
    draws = [lambda: rng.choice((0, 0, 1, 2)), lambda: rng.randint(-3, 3),
             lambda: Fraction(rng.randint(-5, 5), rng.choice((1, 3, 5))),
             lambda: Fraction(rng.randint(-5, 5), rng.choice((1, 2, 5)))]
    for draw, p in zip(draws, (None, None, 2, 3)):
        support = range(r) if terms is None else rng.sample(range(r), min(r, terms))
        coeffs = [0] * r
        for k in support:
            coeffs[k] = draw()
        yield VirtualRep(g, coeffs, p)


# every ell mod 4, at both parities of m over Dic2-Dic32
ELLS = (*range(10), 11, 15)


@pytest.mark.parametrize("m", range(2, 33))
def test_dicyclic_product_and_adams_match_the_class_value_oracles(m):
    # few terms in the factors keep the oracle to a few structure constants
    rng = random.Random(2000 + m)
    g = G(f"Dic{m}")
    left, right = list(_dicyclic_samples(g, rng, 3)), list(_dicyclic_samples(g, rng, 3))
    pairs = list(zip(left, right)) + [(left[0], right[2]), (right[3], left[0])]
    for v, w in pairs:
        got = v * w
        assert got == oracle_product(v, w) and got.p_local == v._merge_flag(w), (m, v, w)
    reps = [*_dicyclic_samples(g, rng), standard_rep(g, "H"), standard_rep(g, "taut")]
    for v in reps:
        for ell in ELLS:
            got = adams(ell, v)
            assert got == oracle_adams(ell, v) and got.p_local == v.p_local, (m, ell, v)


def test_product_coeffs_are_the_row_product_constants():
    for name in ("Q8", "Dic3", "Q16", "Dic5"):
        g = G(name)
        table = character_table(g)
        r = len(table.names)
        for i in range(r):
            for j in range(r):
                got = table.product_coeffs(i, j)
                assert got == oracle_product_coeffs(g, i, j), (name, i, j)
                assert all(type(c) is int for c in got)


@pytest.mark.parametrize("m", [2, 3, 4, 5, 8, 9, 16])
def test_restriction_to_x_and_its_inverse(m):
    """`_restrict` gives the restriction to <x> and the values a +- t0 b at
    j and xj, and `_lift` inverts it on every symmetric r."""
    from vone.repring import _lift, _restrict

    rng = random.Random(3000 + m)
    g = G(f"Dic{m}")
    n = 2 * m
    t0 = DicyclicTable(g).rows[2][g.element_class_index(n)]
    for v in _dicyclic_samples(g, rng):
        r, a, b = _restrict(v.coeffs, m)
        assert tuple(_lift(r, a, b, m)) == v.coeffs
        for s in range(n):
            want = CyclotomicElement.from_exponents(n, [(t * s, c) for t, c in enumerate(r)])
            assert v.character(s) == want
        assert v.character(n) == t0 * b + a
        assert v.character(n + 1) == a - t0 * b
    for _ in range(5):
        r = [Fraction(rng.randint(-6, 6), rng.choice((1, 3))) for _ in range(m + 1)]
        r += r[m - 1:0:-1]
        a, b = (Fraction(rng.randint(-6, 6), rng.choice((1, 7))) for _ in range(2))
        assert _restrict(_lift(r, a, b, m), m) == (r, a, b)


def test_lift_halves_in_ints_as_fraction_halving_does():
    """`_lift` halves r[0] +- a and r[m] +- b as ints when they are even
    ints, which integral coefficients give, and agrees with halving by
    Fraction on integral, p-local and arbitrary input over Dic2-Dic64."""
    from vone.repring import _lift, _restrict

    def by_fraction(r, a, b, m):
        return [Fraction(r[0] + a, 2), Fraction(r[0] - a, 2),
                Fraction(r[m] + b, 2), Fraction(r[m] - b, 2), *r[1:m]]

    rng = random.Random(67)
    kinds = set()
    for m in range(2, 65):
        for _ in range(4):
            integral = [rng.randint(-9, 9) for _ in range(m + 3)]
            local = [Fraction(rng.randint(-9, 9), rng.choice((1, 3, 5, 7, 9)))
                     for _ in range(m + 3)]
            free = ([rng.randint(-9, 9) for _ in range(2 * m)], rng.randint(-9, 9),
                    rng.randint(-9, 9))
            for args in (_restrict(integral, m), _restrict(local, m), free):
                got, want = _lift(*args, m), by_fraction(*args, m)
                assert got == want, (m, args)
                for c, x in zip(got, want):
                    assert (type(c) is int) == (x.denominator == 1 and type(args[1]) is int)
                kinds.add(tuple(type(c) is int for c in got[:4]))
            assert _lift(*_restrict(integral, m), m) == integral
    assert kinds >= {(True,) * 4, (False,) * 4}


def test_dicyclic_product_over_q256_is_fast():
    """H * H over Q256 decomposed a product of two table rows for each of
    its 528 pairs of irreducibles: 4.3 s."""
    g = G("Q256")
    h = standard_rep(g, "H")
    start = time.perf_counter()
    hh = h * h
    assert time.perf_counter() - start < 0.5
    # the restriction of H is the sum of the 64 odd lines of C128
    assert hh.coeffs == (32,) * 4 + tuple(64 * (h % 2 == 0) for h in range(1, 64))
    assert hh.dim() == h.dim() ** 2


# ---------------------------------------------------------------------------
# linearization


def test_linearize_examples():
    c2 = G("C2")
    lin = linearize(orbit(c2, 0))  # [C2/e]
    assert lin.coeffs == (1, 1)
    assert lin.character(0) == 2 and lin.character(1) == 0

    c4 = G("C4")
    half = linearize(orbit(c4, "C2"))
    assert half.coeffs == (1, 0, 1, 0)  # 1 + L^2
    assert linearize(orbit(c4, "C4")).coeffs == (1, 0, 0, 0)


def test_linearize_is_ring_homomorphism_random():
    rng = random.Random(31)
    for name in ("C8", "C9", "Q8", "Q16"):
        g = G(name)
        r = len(g.subgroup_classes())
        for _ in range(25):
            x = VirtualGSet(g, [rng.randint(-2, 2) for _ in range(r)])
            y = VirtualGSet(g, [rng.randint(-2, 2) for _ in range(r)])
            assert linearize(bmul(x, y)) == linearize(x) * linearize(y)
            assert linearize(x + y) == linearize(x) + linearize(y)


def test_linearize_character_equals_mark():
    for name in ("C8", "Q16", "Dic3"):
        g = G(name)
        rng = random.Random(37)
        r = len(g.subgroup_classes())
        x = VirtualGSet(g, [rng.randint(-2, 2) for _ in range(r)])
        lin = linearize(x)
        mk = marks(x)
        for elem in range(g.order):
            assert lin.character(elem) == mk[g.cyclic_class_of(elem)]


def test_linearize_adams_fixed_for_unit_ell():
    g = G("C8")
    x = orbit(g, "C2") + 2 * orbit(g, 0)
    lin = linearize(x)
    for ell in (3, 5, 7, 9):
        assert adams(ell, lin) == lin


def oracle_linearize(X):
    """The class function g -> mark of X at <g>, decomposed over the
    irreducibles: the linearization before it was read off the marks."""
    g = X.group
    mk = marks(X)
    vals = [CyclotomicElement.from_rational(mk[g.cyclic_class_of(c[0])])
            for c in g.element_conjugacy_classes()]
    return from_class_function(g, vals, X.p_local)


@pytest.mark.parametrize("m", range(2, 65))
def test_dicyclic_linearize_matches_the_class_function_oracle(m):
    """Dic2-Dic64, m odd and even: every orbit up to Dic8 and one at random
    after, random virtual X, and 2- and 3-local X with denominators."""
    rng = random.Random(3100 + m)
    g = G(f"Dic{m}")
    r = len(g.subgroup_classes())
    samples = [orbit(g, h) for h in range(r)] if m <= 8 else [orbit(g, rng.randrange(r))]
    samples.append(VirtualGSet(g, [rng.randint(-4, 4) for _ in range(r)]))
    for p in (2, 3):
        samples.append(VirtualGSet(
            g, [Fraction(rng.randint(-4, 4), rng.choice((1, 5, 7))) for _ in range(r)], p))
    for x in samples:
        got = linearize(x)
        assert got == oracle_linearize(x), (m, x.coeffs)
        assert got.p_local == x.p_local


def test_linearize_over_q512_is_fast():
    """Each orbit of Q512 took about 15 ms through the class function."""
    g = G("Q512")
    xs = [orbit(g, h) for h in range(len(g.subgroup_classes()))]
    linearize(xs[0])
    start = time.perf_counter()
    lins = [linearize(x) for x in xs]
    assert time.perf_counter() - start < 0.05
    assert lins[0] == VirtualRep.regular(g)
    assert lins[-1] == VirtualRep.trivial(g)


# ---------------------------------------------------------------------------
# fixed point freeness and rationality


def test_fpf_examples():
    c4 = G("C4")
    assert is_fixed_point_free(standard_rep(c4, "L"))
    assert is_fixed_point_free(standard_rep(c4, "W"))
    assert not is_fixed_point_free(VirtualRep.line(c4, 2))  # kernel C2
    assert not is_fixed_point_free(VirtualRep.trivial(c4))
    assert not is_fixed_point_free(standard_rep(c4, "regular"))
    with pytest.raises(ValueError):
        is_fixed_point_free(standard_rep(c4, "L") - 1)


def test_fpf_dicyclic():
    q8 = G("Q8")
    assert is_fixed_point_free(standard_rep(q8, "taut"))
    one_dim = VirtualRep.irreducible(q8, 1)
    assert not is_fixed_point_free(one_dim)
    assert is_fixed_point_free(2 * standard_rep(q8, "taut"))


def test_fpf_cyclic_fast_path_matches_eigenvalue_definition():
    rng = random.Random(41)
    for name in ("C8", "C9", "C12"):
        g = G(name)
        m = g.order
        for _ in range(30):
            v = VirtualRep(g, [rng.randint(0, 2) for _ in range(m)])
            by_eigen = all(
                eigenvalue_multiplicities(v, x)[0] == 0 for x in range(1, m)
            )
            assert is_fixed_point_free(v) == by_eigen


def fpf_all_classes(V) -> bool:
    """Fixed point freeness checked at every nontrivial element class, off
    the class values: the rule before only classes of prime order were
    read, kept as the oracle."""
    G, values = V.group, V.class_values()
    return all(
        class_fixed_space_dim(V, cls[0], values) == 0
        for cls in G.element_conjugacy_classes()
        if cls[0] != 0
    )


def test_fpf_prime_order_classes_match_all_classes():
    # sums of individually fixed point free irreducibles are fixed point
    # free; random honest sums mostly are not
    rng = random.Random(43)
    outcomes = set()
    for name in ("Q8", "Q16", "Q32", "Q64", "Dic3", "Dic4", "Dic5", "Dic6", "Dic7",
                 "Dic8", "Dic9"):
        g = G(name)
        r = len(character_table(g).names)
        irreps = [VirtualRep.irreducible(g, i) for i in range(r)]
        free = [i for i, v in enumerate(irreps) if fpf_all_classes(v)]
        assert free
        candidates = [2 * standard_rep(g, "taut")]
        for _ in range(4):
            vec = [0] * r
            for i in rng.sample(free, rng.randint(1, len(free))):
                vec[i] = rng.randint(1, 3)
            candidates.append(VirtualRep(g, vec))
            candidates.append(VirtualRep(g, [rng.randint(0, 2) for _ in range(r)]))
        candidates.append(VirtualRep(g, vec) + irreps[rng.randrange(r)])
        for v in candidates:
            got = is_fixed_point_free(v)
            assert got == fpf_all_classes(v), (name, v.coeffs)
            outcomes.add(got)
    assert outcomes == {True, False}


def _honest_dicyclic_samples(g, rng, count):
    """Honest V over Dic_m, `count` of each kind: sums of the fixed point
    free irreducibles, the rho_h with gcd(h, 2m) = 1; such a sum plus one
    irreducible that is not; and three random terms."""
    r = g.descriptor.m + 3
    free = [3 + h for h in range(1, r - 3) if gcd(h, 2 * (r - 3)) == 1]
    out = []
    for _ in range(count):
        vec = [0] * r
        for i in rng.sample(free, rng.randint(1, min(3, len(free)))):
            vec[i] = rng.randint(1, 3)
        out.append(VirtualRep(g, vec))
        vec[rng.choice([i for i in range(r) if i not in free])] += 1
        out.append(VirtualRep(g, vec))
        vec = [0] * r
        for i in rng.sample(range(r), 3):
            vec[i] = rng.randint(1, 2)
        out.append(VirtualRep(g, vec))
    return out


@pytest.mark.parametrize("m", range(2, 65))
def test_dicyclic_fixed_point_freeness_matches_class_values(m):
    """Dic2-Dic64: the gcd rule on the lines of the restriction to <x>
    against the check it replaced, the fixed spaces of the classes of
    prime order averaged from the class values."""
    rng = random.Random(4200 + m)
    g = G(f"Dic{m}")
    outcomes = set()
    for v in _honest_dicyclic_samples(g, rng, 3):
        values = v.class_values()
        want = all(class_fixed_space_dim(v, c[0], values) == 0
                   for c in g.element_conjugacy_classes() if is_prime(g.element_order(c[0])))
        assert is_fixed_point_free(v) == want, v.coeffs
        outcomes.add(want)
    assert outcomes == {True, False}


@pytest.mark.parametrize("m", [*range(2, 17), 27, 32, 64])
def test_dicyclic_eigenvalues_match_class_values_at_every_element(m):
    """Dic2-Dic16, Dic27, Dic32 and Dic64: the eigenvalues at x^s read off
    the restriction to <x>, and at x^s j off dim V, V(x^m), a and b,
    against the transform of the class values along the element, at every
    element. Dense random V as well up to Dic16."""
    rng = random.Random(4300 + m)
    g = G(f"Dic{m}")
    samples = _honest_dicyclic_samples(g, rng, 2 if m <= 16 else 1)
    if m <= 16:
        samples.append(VirtualRep(g, [rng.choice((0, 0, 1, 2)) for _ in range(m + 3)]))
    for v in samples:
        values = v.class_values()
        for x in range(g.order):
            assert eigenvalue_multiplicities(v, x) == class_eigenvalues(v, x, values), (v.coeffs, x)


def test_fixed_space_dim():
    """The fixed space of g is the multiplicity of its eigenvalue 1; the
    class-value average agrees."""
    c4 = G("C4")
    w = standard_rep(c4, "W")
    reg = standard_rep(c4, "regular")
    cases = [(w, 1, 0), (w, 2, 0), (VirtualRep.trivial(c4) + w, 2, 1),
             (reg, 2, 2)]  # C[C4] as C2-set: two free orbits
    q16 = G("Q16")
    h = standard_rep(q16, "H")
    cases += [(h, 4, 0), (h, 8, 0), (h, 9, 0), (h + VirtualRep.irreducible(q16, 2), 4, 1),
              (VirtualRep.irreducible(q16, 5), 4, 2)]  # rho2 has kernel <x^4>
    for v, x, dim in cases:
        assert eigenvalue_multiplicities(v, x)[0] == dim
        assert class_fixed_space_dim(v, x) == dim


def test_eigenvalue_multiplicities():
    c4 = G("C4")
    w = standard_rep(c4, "W")
    assert eigenvalue_multiplicities(w, 1) == (0, 1, 0, 1)
    assert eigenvalue_multiplicities(w, 2) == (0, 2)
    q8 = G("Q8")
    h = standard_rep(q8, "taut")
    assert eigenvalue_multiplicities(h, 1) == (0, 1, 0, 1)  # x acts with i, -i
    assert eigenvalue_multiplicities(h, 4) == (0, 1, 0, 1)  # j likewise


def test_rational_characters():
    c4 = G("C4")
    assert has_rational_characters(standard_rep(c4, "W"))
    assert has_rational_characters(standard_rep(c4, "regular"))
    assert not has_rational_characters(standard_rep(c4, "L"))
    q8 = G("Q8")
    assert has_rational_characters(standard_rep(q8, "taut"))
    dic3 = G("Dic3")
    assert not has_rational_characters(VirtualRep.irreducible(dic3, 2))


def test_rational_fast_path_matches_generic():
    rng = random.Random(43)
    for name in ("C8", "C12"):
        g = G(name)
        m = g.order
        for _ in range(40):
            v = VirtualRep(g, [rng.randint(-2, 2) for _ in range(m)])
            generic = all(v.character(x).is_rational() for x in range(m))
            assert has_rational_characters(v) == generic


# ---------------------------------------------------------------------------
# gamma basis: the convolution oracle for the Galois-fixed block


@record
class GammaOrbitBasis:
    """Galois orbit sums in RU(C_{p^n}): gamma_i sums the characters L^k
    with gcd(k, p^n) = p^i; these span the Galois-fixed subring."""

    group: object
    p: int
    n: int
    gammas: tuple


def _cyclic_p_group(g) -> tuple[int, int]:
    pp = prime_power(g.order)
    if g.descriptor.kind != "cyclic" or pp is None:
        raise ValueError("orbit basis requires a nontrivial cyclic p-group")
    return pp


def gamma_orbit_basis(g) -> GammaOrbitBasis:
    p, n = _cyclic_p_group(g)
    m = g.order
    gammas = [VirtualRep(g, [int(gcd(k, m) == p**i) for k in range(m)]) for i in range(n + 1)]
    return GammaOrbitBasis(g, p, n, tuple(gammas))


def gamma_fixed_check(V):
    """Whether V is fixed by the full Galois action, that is, has rational
    characters; if so, also return its coordinates in the orbit-sum basis
    (index i = 0..n), the coefficient of L^(p^i), one member of the orbit
    of gamma_i."""
    p, n = _cyclic_p_group(V.group)
    if not has_rational_characters(V):
        return False, None
    m = V.group.order
    return True, tuple([V.coeffs[p**i % m] for i in range(n + 1)])


def oracle_galois_fixed_block(X):
    """The Galois-fixed block of the RU side by convolution: column j holds
    the orbit-sum coordinates of linearize(X) * gamma_j."""
    lin = linearize(X)
    cols = []
    for gam in gamma_orbit_basis(X.group).gammas:
        ok, coords = gamma_fixed_check(lin * gam)
        assert ok, "the fixed subring is closed under multiplication"
        cols.append(coords)
    return IntMatrix.from_columns(cols)


def test_galois_fixed_block_matches_convolution_oracle(monkeypatch):
    """The RU side reads the Galois-fixed block as orbit sums of w; it is
    the matrix of the convolutions w * gamma_j on random X over every
    cyclic p-group C2-C81 and C49, zero-cardinality X and 0 included."""
    seen = []
    inner = repring.kernel_and_cokernel

    def spy(mat):
        seen.append(mat)
        return inner(mat)

    monkeypatch.setattr(repring, "kernel_and_cokernel", spy)
    rng = random.Random(61)
    orders = [m for m in range(2, 82) if prime_power(m) is not None] + [49]
    for m in orders:
        g = G(f"C{m}")
        p = prime_power(m)[0]
        r = len(g.subgroup_classes())
        cases = [VirtualGSet(g, [rng.choice((0, rng.randint(-9, 9))) for _ in range(r)])
                 for _ in range(8)]
        if r > 1:
            vec = [0] * r
            i = rng.randrange(r - 1)
            vec[i], vec[i + 1] = 1, -p  # [G/H] - p[G/K], |K:H| = p
            cases.append(VirtualGSet(g, vec))
        cases.append(VirtualGSet.zero(g))
        for X in cases:
            annihilator_and_quotient(X, side="RU")
            assert seen.pop() == oracle_galois_fixed_block(X), (m, X.coeffs)
    assert not seen


def test_gamma_orbit_basis_c4():
    basis = gamma_orbit_basis(G("C4"))
    assert basis.p == 2 and basis.n == 2
    assert [g.coeffs for g in basis.gammas] == [
        (0, 1, 0, 1),
        (0, 0, 1, 0),
        (1, 0, 0, 0),
    ]


def test_gamma_fixed_check_examples():
    c4 = G("C4")
    ok, coords = gamma_fixed_check(standard_rep(c4, "W"))
    assert ok and coords == (1, 0, 0)
    ok, coords = gamma_fixed_check(standard_rep(c4, "regular"))
    assert ok and coords == (1, 1, 1)
    ok, coords = gamma_fixed_check(standard_rep(c4, "L"))
    assert not ok and coords is None
    with pytest.raises(ValueError):
        gamma_fixed_check(standard_rep(G("Q8"), "taut"))


def test_gamma_fixed_equals_galois_fixed_brute_force():
    # the Gamma-fixed sublattice computed elementwise equals the gamma span
    # and the image of linearize
    for name in ("C4", "C8", "C9"):
        g = G(name)
        m = g.order
        units = [u for u in range(1, m) if gcd(u, m) == 1]
        rng = random.Random(47)
        basis = gamma_orbit_basis(g)
        for _ in range(60):
            v = VirtualRep(g, [rng.randint(-3, 3) for _ in range(m)])
            fixed = all(
                tuple(v.coeffs[(u * a) % m] for a in range(m)) == v.coeffs
                for u in units
            )
            ok, coords = gamma_fixed_check(v)
            assert ok == fixed
            if ok:
                rebuilt = VirtualRep.zero(g)
                for c, gam in zip(coords, basis.gammas):
                    rebuilt = rebuilt + c * gam
                assert rebuilt == v
                # gamma-fixed integral vectors are permutation characters
                x = from_marks(
                    g,
                    [
                        v.character((m // cls.order) % m).rational_value()
                        for cls in g.subgroup_classes()
                    ],
                )
                assert linearize(x) == v


def test_linearize_image_is_gamma_span():
    g = G("C8")
    rng = random.Random(53)
    for _ in range(50):
        x = VirtualGSet(g, [rng.randint(-3, 3) for _ in range(4)])
        ok, _ = gamma_fixed_check(linearize(x))
        assert ok


# ---------------------------------------------------------------------------
# annihilator and quotient presentations


def test_ann_quotient_h_over_c2_side_a():
    g = G("C2")
    h = orbit(g, 0)
    out = annihilator_and_quotient(h, side="A")
    assert out.side == "A"
    assert out.annihilator.free_rank == 1
    (gen,) = out.annihilator.generators
    # the kernel of multiplication by h is spanned by 2[C2/C2] - [C2/e]
    assert gen in ((-1, 2), (1, -2))
    assert out.quotient.free_rank == 1
    assert out.quotient.factors == ()


def test_ann_quotient_h_over_c2_side_ru():
    g = G("C2")
    out = annihilator_and_quotient(orbit(g, 0), side="RU")
    assert out.annihilator_fixed.free_rank == 1
    (gen,) = out.annihilator_fixed.generators
    assert gen in ((1, -1), (-1, 1))
    assert out.quotient_fixed.free_rank == 1
    assert out.quotient_fixed.factors == ()


def test_ann_quotient_hand_checked_values():
    c4 = G("C4")
    out = annihilator_and_quotient(orbit(c4, 0), side="A")  # X = [G]
    assert out.quotient.factors == () and out.quotient.free_rank == 2
    out = annihilator_and_quotient(2 * orbit(c4, "C2"), side="A")
    assert out.quotient.factors == (2, 4) and out.quotient.free_rank == 1
    out = annihilator_and_quotient(2 * orbit(c4, 0), side="A")
    assert out.quotient.factors == (2,) and out.quotient.free_rank == 2
    c3 = G("C3")
    out = annihilator_and_quotient(orbit(c3, 0) + orbit(c3, "C3"), side="A")
    assert out.quotient.factors == (4,) and out.quotient.free_rank == 0
    c2 = G("C2")
    out = annihilator_and_quotient(orbit(c2, 0) + orbit(c2, "C2"), side="A")
    assert out.quotient.factors == (3,) and out.quotient.free_rank == 0


def test_ideal_battery_invariant_factors_match():
    for name in ("C2", "C4", "C3", "C8", "C9"):
        g = G(name)
        full = orbit(g, 0)
        half = orbit(g, 1)
        candidates = [
            full,
            half,
            2 * full,
            full + orbit(g, "C" + str(g.order)),
            2 * half,
        ]
        for x in candidates:
            a_side = annihilator_and_quotient(x, side="A")
            ru_side = annihilator_and_quotient(x, side="RU")
            assert a_side.quotient.factors == ru_side.quotient_fixed.factors
            assert a_side.quotient.free_rank == ru_side.quotient_fixed.free_rank
            assert a_side.annihilator.free_rank == ru_side.annihilator_fixed.free_rank


def test_quotient_generator_orders():
    # each listed generator really has the stated order in R/XR
    c4 = G("C4")
    x = 2 * orbit(c4, "C2")
    out = annihilator_and_quotient(x, side="A")
    cols = [bmul(x, orbit(c4, j)).coeffs for j in range(3)]
    M = IntMatrix.from_columns(cols)
    d, u, v, _ = smith_normal_form(M)
    for factor, gen in zip(out.quotient.factors, out.quotient.generators):
        scaled = IntMatrix.from_columns([[factor * t for t in gen]])
        assert solve_int_columns(M, scaled) is not None
        assert solve_int_columns(M, IntMatrix.from_columns([list(gen)])) is None


def _split_oracle(X, phi):
    """The split built in full, as `_ideal_split` once built it: w = den *
    linearize(X) over all N lines, F and G' = (x^N - 1)/F the products of
    the Phi_{p^i} at the nonzero and at the zero marks, h = w / G' by
    exact division, and A with the columns x^j h mod F, j < deg F, or None
    at deg F = 0. Returns (w, F, G', A)."""
    den = lcm(*[Fraction(c).denominator for c in X.coeffs])
    w = [int(c * den) for c in linearize(X).coeffs]
    F, Gc = [1], [1]
    for cls, c in zip(X.group.subgroup_classes(), phi):
        if c:
            F = poly_mul(F, cyclotomic_poly(cls.order))
        else:
            Gc = poly_mul(Gc, cyclotomic_poly(cls.order))
    h = poly_div_exact(w, Gc)
    cols = []
    for _ in range(len(F) - 1):
        cols.append(h)
        top = h[-1]
        h = [0, *h[:-1]]
        if top:
            h = [c - top * f for c, f in zip(h, F)]
    return w, F, Gc, (IntMatrix.from_columns(cols) if cols else None)


def _check_split(X, phi, split):
    """`_ideal_split(X, phi)`, given the marks phi of X, against the split
    built in full (`_split_oracle`), whose w and G' are read here, and
    against the test-side circulant of w: F G' = x^N - 1 with F the
    product of the Phi_{p^i} at the nonzero marks, w the circulant's
    column 0 (so the scale of w is the circulant's), and G' times column j
    of A the circulant's column j, x^j w mod (x^N - 1), for each
    j < deg F; and for deg F <= 32, |det A| the resultant order of
    `_torsion_order`."""
    F, A = split
    w, oracle_F, Gc, oracle_A = _split_oracle(X, phi)
    assert F == oracle_F, X.coeffs
    assert _entries(A) == _entries(oracle_A), X.coeffs
    g = X.group
    m = g.order
    assert phi == marks(X)
    assert poly_mul(F, Gc) == [-1, *[0] * (m - 1), 1]
    expected_F = [1]
    for cls, c in zip(g.subgroup_classes(), phi):
        if c:
            expected_F = poly_mul(expected_F, cyclotomic_poly(cls.order))
    assert F == expected_F
    M = _circulant(X)
    assert tuple(w) == M.column(0)
    k = len(F) - 1
    if not k:
        assert A is None
        return
    assert (A.rows, A.cols) == (k, k)
    for j in range(k):
        lifted = poly_mul(Gc, list(A.column(j)))
        assert tuple(lifted + [0] * (m - len(lifted))) == M.column(j), (m, X.coeffs, j)
    if k <= 32:
        assert abs(det(A)) == _torsion_order(_integral(X)), (m, X.coeffs)


def test_split_from_the_top_of_w_matches_the_full_construction():
    """`_ideal_split` reads h off the top deg F coefficients of w, with no
    division by G'. Its (F, A) equals the split built in full
    (`_split_oracle`) over every C_{p^n} <= 256: on seeded integer and
    p-local X, on full-support X (F = x^N - 1, where all of w is read) and
    on a single orbit c [G/H] for every H, whose marks are nonzero exactly
    at the subgroups of H (F = x^|H| - 1)."""
    rng = random.Random(67)
    orders = [m for m in range(2, 257) if prime_power(m) is not None]
    full = set()
    for m in orders:
        g = G(f"C{m}")
        p = prime_power(m)[0]
        r = len(g.subgroup_classes())
        q = 3 if p == 2 else 2
        gsets = [
            VirtualGSet(g, [rng.choice((0, rng.randint(-50, 50))) for _ in range(r)]),
            VirtualGSet(g, [Fraction(rng.randint(-50, 50), rng.choice((1, q, q * q)))
                            for _ in range(r)], p),
            VirtualGSet(g, [rng.randint(1, 50) for _ in range(r)]),
        ]
        for i in range(r):
            vec = [0] * r
            vec[i] = rng.choice((-3, 1, 2, p))
            gsets.append(VirtualGSet(g, vec))
        for X in gsets:
            phi = marks(X)
            F, A = repring._ideal_split(X, phi)
            _, oracle_F, _, oracle_A = _split_oracle(X, phi)
            assert F == oracle_F, (m, X.coeffs)
            assert _entries(A) == _entries(oracle_A), (m, X.coeffs)
            full.add(len(F) - 1 == m)
    assert len(orders) == 70 and full == {True, False}


def _entries(A):
    return None if A is None else A.entries


def _integral(X):
    """den * X for the lcm den of the denominators of X's coefficients: an
    integer G-set with the marks of X times den, a unit for p-local X."""
    den = lcm(*[Fraction(c).denominator for c in X.coeffs])
    return VirtualGSet(X.group, [int(c * den) for c in X.coeffs])


def test_one_split_serves_step_2_and_the_ru_quotient(monkeypatch):
    """Step 2 (`_fixed_mod_X`, on p-local X too) and the RU quotient both
    take F, G' and the columns x^j h mod F from `repring._ideal_split`,
    handed the marks of X, which agrees with the test-side circulant over
    every cyclic p-group C2-C81 (`_check_split`). Step 2 builds the split
    only when phi_0 != 0 and v_p(D) > 0, D the order of the cokernel
    (`_torsion_order`), the RU quotient always. Each hands on the matrix
    of those columns as it is: step 2 with an integer vector, for p-local
    X too, modulo p^(mu + n), mu the largest v_p of a nonzero mark, and
    the RU quotient modulo N * lcm |phi_i|."""
    import vone.jtheory as jtheory

    split = repring._ideal_split
    calls, handed, compared = [], [], []
    step_2 = {"phi_0 = 0": 0, "h(1) prime to p": 0, "eliminates": 0}

    def spy(X, phi):
        out = split(X, phi)
        calls.append((X, phi, out))
        return out

    def handed_spy(inner):
        def wrapped(mat, *args):
            handed.append((mat, args))
            return inner(mat, *args)
        return wrapped

    def check_last_call(Z, in_step_2):
        m = Z.group.order
        p, n = prime_power(m)
        phi = marks(Z)
        if in_step_2:
            case = ("phi_0 = 0" if not phi[0] else
                    "eliminates" if pvaluation(_torsion_order(_integral(Z)), p)
                    else "h(1) prime to p")
            step_2[case] += 1
            assert bool(calls) == (case == "eliminates"), Z.coeffs
        else:
            assert calls, Z.coeffs
        if calls:
            Y, given, out = calls.pop()
            assert Y is Z, Z.coeffs
            _check_split(Z, given, out)
        if handed:  # step 2 stops at phi_0 = 0 and at a unit h(1), the RU quotient at deg F = 0
            mat, args = handed.pop()
            assert mat is out[1], Z.coeffs
            if in_step_2:
                vec, _, modulus = args
                assert all(type(c) is int for c in vec), Z.coeffs
                assert modulus == p ** (max(pvaluation(c, p) for c in phi if c) + n), Z.coeffs
            else:
                assert args == (m * lcm(*[abs(c) for c in phi if c]),), Z.coeffs
            compared.append(len(args))

    for module in (repring, jtheory):
        monkeypatch.setattr(module, "_ideal_split", spy)
    monkeypatch.setattr(jtheory, "p_local_in_image", handed_spy(jtheory.p_local_in_image))
    monkeypatch.setattr(repring, "cokernel_mod", handed_spy(repring.cokernel_mod))
    rng = random.Random(53)
    orders = [m for m in range(2, 82) if prime_power(m) is not None]
    for m in orders:
        g = G(f"C{m}")
        p = prime_power(m)[0]
        r = len(g.subgroup_classes())
        for _ in range(3):
            X = VirtualGSet(g, [rng.randint(-4, 4) for _ in range(r)])
            den = rng.choice([d for d in (1, 2, 3, 5, 7, 9) if d % p])
            Y = VirtualGSet(g, [Fraction(rng.randint(-4, 4), den) for _ in range(r)], p)
            for Z in (X, Y, p * X):  # p * X: every mark divisible by p
                jtheory._fixed_mod_X(rng.randint(0, 6), Z, *prime_power(m))
                check_last_call(Z, True)
            annihilator_and_quotient(X, side="RU")
            check_last_call(X, False)
    assert len(orders) == 32 and not calls and not handed
    assert compared.count(1) > 50 and compared.count(3) == step_2["eliminates"] > 50
    assert step_2["phi_0 = 0"] and step_2["h(1) prime to p"] > 50, step_2


def test_ru_quotient_is_read_modulo_an_exponent_bound(monkeypatch):
    """E = N * lcm_{i in S} |phi_i| kills Z[x]/(F, h), and the RU quotient
    hands `cokernel_mod` E, not the order |det A|: over every C_{p^n} <= 256
    but the primes past 128 (C_p, whose k x k elimination at k near p
    takes about 0.3 s each, adds nothing at n = 1 that C2-C127 do not
    show), on small X, their p-multiples and X of cardinality zero, and up
    to order 128 on full-support X (every mark nonzero, F = x^N - 1), the
    largest invariant factor divides E and the factors multiply to the
    resultant order (`_torsion_order`). For X = 2 (sum of all orbits) over
    C256, E has 40 bits and the order 605."""
    handed = []

    def spy(mat, modulus, _inner=repring.cokernel_mod):
        handed.append(modulus)
        return _inner(mat, modulus)

    monkeypatch.setattr(repring, "cokernel_mod", spy)
    rng = random.Random(61)
    orders = [m for m in range(2, 257)
              if prime_power(m) is not None and (m <= 128 or prime_power(m)[1] > 1)]
    below = 0
    for m in orders:
        g = G(f"C{m}")
        r = len(g.subgroup_classes())
        shapes = _ideal_shapes(g, rng, 1)
        if m <= 128:
            shapes.append(VirtualGSet(g, [rng.randint(1, 3) for _ in range(r)]))
        for X in shapes:
            phi = marks(X)
            q = annihilator_and_quotient(X, side="RU").quotient
            if not any(phi):
                assert not handed and not q.factors, (m, X.coeffs)
                continue
            [E] = handed
            handed.clear()
            assert E == m * lcm(*[abs(c) for c in phi if c]), (m, X.coeffs)
            order = _torsion_order(X)
            assert prod(q.factors) == order, (m, X.coeffs)
            assert not q.factors or E % q.factors[-1] == 0, (m, X.coeffs)
            below += E < order
    assert len(orders) == 47 and below > 40
    X = VirtualGSet(G("C256"), [2] * 9)
    assert all(marks(X))
    bound = 256 * lcm(*marks(X))
    assert (bound.bit_length(), _torsion_order(X).bit_length()) == (40, 605)


def test_ru_quotient_builds_no_circulant(monkeypatch):
    """The RU side builds no N x N matrix: `cokernel_mod` gets the k x k
    matrix of multiplication by h in Z[x]/(F), k = deg F, and the
    Galois-fixed block is (n + 1) x (n + 1)."""
    shapes = []
    for name in ("cokernel_mod", "kernel_and_cokernel"):
        def spy(mat, *args, _inner=getattr(repring, name)):
            shapes.append((mat.rows, mat.cols))
            return _inner(mat, *args)

        monkeypatch.setattr(repring, name, spy)
    rng = random.Random(59)
    for m in (2, 4, 8, 16, 32, 64, 3, 9, 27, 81, 5, 25, 7, 49):
        g = G(f"C{m}")
        n = prime_power(m)[1]
        r = len(g.subgroup_classes())
        for _ in range(3):
            X = VirtualGSet(g, [rng.choice((0, rng.randint(-4, 4))) for _ in range(r)])
            annihilator_and_quotient(X, side="RU")
            k = sum(euler_phi(cls.order)
                    for cls, c in zip(g.subgroup_classes(), marks(X)) if c)
            assert shapes == [(k, k)] * bool(k) + [(n + 1, n + 1)], (m, X.coeffs)
            shapes.clear()


def oracle_ru_quotient(X):
    """R/wR from one dense integer Smith form of the m x m circulant of
    w = linearize(X): (free rank, factors, generators)."""
    return cokernel_data(_circulant(X))


def _torsion_order(X) -> int:
    """D = prod_{i in S} |phi_i|^phi(p^i) / p^e with
    e = sum_{i in S, j not in S} phi(p^min(i, j)), S the i with phi_i != 0."""
    g = X.group
    p = prime_power(g.order)[0]
    orders = [c.order for c in g.subgroup_classes()]
    S = {q: phi for q, phi in zip(orders, marks(X)) if phi}
    num = prod(abs(phi) ** euler_phi(q) for q, phi in S.items())
    e = sum(euler_phi(min(q, t)) for q in S for t in orders if t not in S)
    assert num % p**e == 0
    return num // p**e


def _ideal_shapes(g, rng, count):
    """Random X with small coefficients, their p-multiples, and X of
    cardinality zero: [G/C_{p^i}] - p[G/C_{p^(i+1)}] has marks 0 except
    -p^(n-i) at C_{p^(i+1)}."""
    p = prime_power(g.order)[0]
    r = len(g.subgroup_classes())
    null = [orbit(g, i) - p * orbit(g, i + 1) for i in range(r - 1)]
    shapes = [VirtualGSet.zero(g)]
    for _ in range(count):
        Y = VirtualGSet(g, [rng.choice((0, 0, rng.randint(-3, 3))) for _ in range(r)])
        shapes += [Y, p * Y, rng.choice((-2, -1, 1, 3)) * rng.choice(null)]
    return shapes


def test_ru_quotient_matches_dense_oracle():
    # every C_{p^n} of order <= 81; the dense oracle keeps coefficients small
    rng = random.Random(47)
    orders = [m for m in range(2, 82) if prime_power(m) is not None]
    zero_card = 0
    for m in orders:
        g = G(f"C{m}")
        for X in _ideal_shapes(g, rng, 2 if m > 32 else 3):
            q = annihilator_and_quotient(X, side="RU").quotient
            free, factors, _ = oracle_ru_quotient(X)
            assert (q.free_rank, q.factors) == (free, factors), (m, X.coeffs)
            assert prod(q.factors) == _torsion_order(X), (m, X.coeffs)
            assert len(q.generators) == len(q.factors) + q.free_rank
            zero_card += marks(X)[0] == 0
    assert len(orders) == 32 and zero_card > 32


def _quotient_coords(snf, vec) -> list:
    """The image of vec in coker(mat) = sum of the Z/d_i, U mat V = D:
    (U vec)_i modulo d_i (exact where d_i = 0), one entry per d_i != 1."""
    d, u, _, _ = snf
    out = []
    for row, x in zip(u.entries, d.diag()):
        if x != 1:
            y = sum(a * b for a, b in zip(row, vec))
            out.append(y % x if x else y)
    return out


def _rank_mod(rows, q) -> int:
    rows = [[x % q for x in row] for row in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][col], -1, q)
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                f = rows[i][col] * inv
                rows[i] = [(x - f * y) % q for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def test_ru_quotient_generators_have_their_orders_and_span():
    """For m <= 27: d_i g_i lies in wR and (d_i/q) g_i does not for each
    prime q | d_i, and the generators span Z^m together with wR. The
    quotient A = Z^m/wR is read off the circulant's Smith form as the
    torsion T plus Z^f. The images B of the generators are all of A when
    the free generators map onto a basis of Z^f (a determinant +-1) and the
    torsion generators onto T, which holds when they span T/qT for every
    prime q dividing |T|. (A dense Smith form of [circulant | generators]
    ran past 10 s on some of these.)"""
    rng = random.Random(43)
    for m in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27):
        g = G(f"C{m}")
        for X in _ideal_shapes(g, rng, 2):
            q = annihilator_and_quotient(X, side="RU").quotient
            snf = smith_normal_form(_circulant(X))
            diag = [x for x in snf[0].diag() if x != 1]
            tors = [i for i, x in enumerate(diag) if x]
            images = [_quotient_coords(snf, gen) for gen in q.generators]
            assert len(tors) == len(q.factors) and len(diag) == len(images)
            for d, img in zip(q.factors, images):
                assert all(y * d % x == 0 if x else not y for y, x in zip(img, diag))
                for prime in factorize(d):
                    assert any(y * (d // prime) % x if x else y
                               for y, x in zip(img, diag)), (m, X.coeffs, d)
            free = [[img[i] for i, x in enumerate(diag) if not x] for img in images[len(tors):]]
            assert not free or abs(det(IntMatrix(free))) == 1, (m, X.coeffs)
            for prime in factorize(prod(q.factors)) if q.factors else ():
                rows = [i for i in tors if diag[i] % prime == 0]
                block = [[img[i] for i in rows] for img in images[:len(tors)]]
                assert _rank_mod(block, prime) == len(rows), (m, X.coeffs, prime)


@pytest.mark.parametrize("name, coeffs", [
    ("C32", [2, 1, -1, -1, -2, -64]),  # the dense Smith form took 160 s
    ("C64", [2, -2, -3, -4, 3, 2, 0]),  # the dense Smith form ran past 30 s
])
def test_ru_quotient_entry_growth_circulants_are_fast(name, coeffs):
    g = G(name)
    X = VirtualGSet(g, coeffs)
    start = time.perf_counter()
    out = annihilator_and_quotient(X, side="RU")
    assert time.perf_counter() - start < 2.0
    q = out.quotient
    assert prod(q.factors) == _torsion_order(X)
    # deg G' = m - deg F, the product of the Phi_{p^i} where the mark vanishes
    zeros = [c.order for c, phi in zip(g.subgroup_classes(), marks(X)) if not phi]
    assert q.free_rank == sum(euler_phi(k) for k in zeros) == out.annihilator.free_rank
    assert len(q.generators) == len(q.factors) + q.free_rank
    a_side = annihilator_and_quotient(X, side="A")
    assert a_side.quotient.free_rank == out.quotient_fixed.free_rank
    assert a_side.quotient.factors == out.quotient_fixed.factors
    assert a_side.annihilator.free_rank == out.annihilator_fixed.free_rank


def test_ru_quotient_matches_sympy_invariant_factors():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import invariant_factors

    rng = random.Random(37)
    for m in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16):
        g = G(f"C{m}")
        for X in _ideal_shapes(g, rng, 2):
            q = annihilator_and_quotient(X, side="RU").quotient
            got = invariant_factors(sympy.Matrix(_circulant(X).entries), domain=sympy.ZZ)
            got = [abs(int(x)) for x in got]
            assert (q.free_rank, q.factors) == (got.count(0), tuple(x for x in got if x > 1))


def test_ru_annihilator_closed_form_matches_circulant_kernel():
    # each x^j F lies in the kernel of the circulant and the ranks agree;
    # the x^j F are in echelon form with unit pivots, so they span a
    # saturated lattice, as the kernel is, and the two lattices are equal.
    # Coefficients stay small and zero-cardinality X has one term: the
    # kernel oracle and the quotient are dense integer Smith forms, whose
    # entry growth can take minutes on some circulants over C32 and C64.
    rng = random.Random(41)
    ranks = set()
    for m in (2, 4, 8, 16, 32, 64, 3, 9, 27, 5, 25):
        g = G(f"C{m}")
        p = prime_power(m)[0]
        r = len(g.subgroup_classes())
        # [G/C_{p^i}] - p[G/C_{p^(i+1)}] has marks 0 except -p^(n-i) at C_{p^(i+1)}
        null = [orbit(g, i) - p * orbit(g, i + 1) for i in range(r - 1)]
        shapes = [VirtualGSet.zero(g)]
        for _ in range(4):
            Y = VirtualGSet(g, [rng.choice((0, 0, rng.randint(-3, 3))) for _ in range(r)])
            shapes += [Y, p * Y, rng.choice((-2, -1, 1, 3)) * rng.choice(null)]
        for X in shapes:
            M = _circulant(X)
            ann = annihilator_and_quotient(X, side="RU").annihilator
            assert ann.free_rank == len(ann.generators) == len(kernel_basis(M)), (m, X.coeffs)
            if ann.generators:
                image = matmul(M, IntMatrix.from_columns(ann.generators))
                assert not any(map(any, image.entries)), (m, X.coeffs)
            deg = m - len(ann.generators)
            for j, gen in enumerate(ann.generators):
                assert gen[j + deg] == 1 and not any(gen[j + deg + 1:]), (m, X.coeffs, j)
            ranks.add(ann.free_rank)
    assert len(ranks) > 10


def test_ru_presentation_c27_entry_growth_case_is_fast():
    # U of this circulant has entries of about 10^4 bits and its quotient
    # generators reach about 21000 bits; inverting U by a second Smith form
    # took about 7 s
    X = VirtualGSet(G("C27"), [-2, -1, -4, 1])
    start = time.perf_counter()
    out = annihilator_and_quotient(X, side="RU")
    assert time.perf_counter() - start < 1.0
    assert out.annihilator.free_rank == out.quotient.free_rank == 0
    assert out.quotient.factors == (11, 11, 11, 22, 220, 8140)
    assert (out.quotient_fixed.free_rank, out.quotient_fixed.factors) == (0, (2, 8140))
    pairs = zip(out.quotient.factors, out.quotient.generators)
    scaled = IntMatrix.from_columns([[f * x for x in gen] for f, gen in pairs])
    assert solve_int_columns(_circulant(X), scaled) is not None


def test_ru_presentation_c256_free_orbit_is_fast():
    # the regular character: Ann has rank 255 and the quotient is Z^255
    X = orbit(G("C256"), 0)
    start = time.perf_counter()
    out = annihilator_and_quotient(X, side="RU")
    assert time.perf_counter() - start < 1.0
    assert out.annihilator.free_rank == out.quotient.free_rank == 255
    assert out.quotient.factors == ()
    assert out.annihilator_fixed.free_rank == out.quotient_fixed.free_rank == 8


def test_ann_requires_integral_cyclic():
    g = G("C4")
    with pytest.raises(ValueError):
        annihilator_and_quotient(
            VirtualGSet(g, [Fraction(1, 3), 0, 0], p_local=2), side="A"
        )
    with pytest.raises(ValueError):
        annihilator_and_quotient(orbit(G("Q8"), -1), side="A")
    with pytest.raises(ValueError):
        annihilator_and_quotient(orbit(G("C12"), -1), side="A")


# ---------------------------------------------------------------------------
# class function roundtrip


def test_from_class_function_roundtrip():
    rng = random.Random(59)
    for name in ("C8", "Q8", "Dic3"):
        g = G(name)
        size = g.order if g.descriptor.kind == "cyclic" else g.descriptor.m + 3
        for _ in range(20):
            v = VirtualRep(g, [rng.randint(-3, 3) for _ in range(size)])
            assert from_class_function(g, v.class_values()) == v


# ---------------------------------------------------------------------------
# class-value fast paths against the per-element definitions
#
# The oracles below evaluate V.character on every element of <g> and form
# the k^2 products chi(g^b) * zeta_k^(-jb) one by one; the library reads the
# class values and does one exponent-space transform per j.


def _cyclic_powers(g, x):
    out, y = [], 0
    while True:
        out.append(y)
        y = g.mul(y, x)
        if y == 0:
            return out


def oracle_fixed_space_dim(v, x):
    elems = _cyclic_powers(v.group, x)
    acc = CyclotomicElement.zero(1)
    for y in elems:
        acc = acc + v.character(y)
    return acc.rational_value() / len(elems)


def oracle_eigenvalue_multiplicities(v, x):
    vals = [v.character(y) for y in _cyclic_powers(v.group, x)]
    k = len(vals)
    out = []
    for j in range(k):
        acc = CyclotomicElement.zero(1)
        for b in range(k):
            acc = acc + vals[b] * CyclotomicElement.zeta(k, (-j * b) % k)
        out.append(acc.rational_value() / k)
    return tuple(out)


def oracle_decompose(table, values):
    """Inner products against the rows of the table, class by class."""
    out = []
    for row in table.rows:
        acc = CyclotomicElement.zero(1)
        for cls, val, chi in zip(table.classes, values, row):
            acc = acc + val * chi.conjugate() * len(cls)
        if not acc.is_rational():
            raise ArithmeticError("not rational")
        out.append(acc.rational_value() / table.group.order)
    return tuple(out)


def _basis_size(g):
    return g.order if g.descriptor.kind == "cyclic" else g.descriptor.m + 3


def _check_against_oracles(v):
    table = table_of(v.group)
    values = v.class_values()
    for r in table.reps:
        assert class_fixed_space_dim(v, r, values) == oracle_fixed_space_dim(v, r)
        if v.is_honest():
            want = oracle_eigenvalue_multiplicities(v, r)
            assert eigenvalue_multiplicities(v, r) == class_eigenvalues(v, r, values) == want
    assert decompose(v.group, values, v.p_local) == oracle_decompose(table, values) == v.coeffs


def _same_or_both_raise(g, table, values):
    # 101 divides none of the denominators of these class functions
    try:
        want = oracle_decompose(table, values)
    except ArithmeticError:
        with pytest.raises(ArithmeticError):
            decompose(g, values, 101)
        return False
    assert decompose(g, values, 101) == want
    return True


def _random_reps(g, rng, count):
    size = _basis_size(g)
    for _ in range(count):
        yield VirtualRep(g, [rng.choice((0, 0, 1, 2)) for _ in range(size)])
    yield VirtualRep(g, [rng.randint(-2, 2) for _ in range(size)])


def test_fast_paths_match_oracles_cyclic():
    rng = random.Random(61)
    for m in range(1, 33):
        g = G(f"C{m}")
        for v in _random_reps(g, rng, 1):
            _check_against_oracles(v)
        # a rational class function has rational coefficients only when it
        # is constant on each Galois orbit, so most of these raise
        values = [Fraction(rng.randint(-4, 4), rng.choice((1, 3))) for _ in range(m)]
        _same_or_both_raise(g, CyclicTable(g), values)


@pytest.mark.parametrize("m", range(2, 33))
def test_decompose_matches_oracle_every_dicyclic(m):
    """The restriction to <x> and the values at j and xj against the
    conjugate-row inner products; for odd m, u2 and u3 take +-i at j."""
    rng = random.Random(1000 + m)
    g = G(f"Dic{m}")
    table, lib = DicyclicTable(g), character_table(g)
    r = m + 3
    for prime in (2, 3):
        coeffs = [Fraction(rng.randint(-5, 5), rng.choice((1, 5, 7))) for _ in range(r)]
        v = VirtualRep(g, coeffs, p_local=prime)
        values = v.class_values()
        assert lib.decompose(values) == oracle_decompose(table, values) == v.coeffs
    # rational combinations of irreducibles, with any denominators
    coeffs = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(r)]
    values = [
        sum((c * row[k] for c, row in zip(coeffs, table.rows)), CyclotomicElement.zero(1))
        for k in range(r)
    ]
    assert lib.decompose(values) == oracle_decompose(table, values) == tuple(coeffs)
    # rational and cyclotomic class functions that are mostly not characters
    outcomes = set()
    for _ in range(2):
        values = [Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3))) for _ in range(r)]
        values[m + 2] = values[m + 1]  # rational at j and xj: only F decides
        outcomes.add(_same_or_both_raise(g, table, values))
        values = [Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3))) for _ in range(r)]
        outcomes.add(_same_or_both_raise(g, table, values))
        conductor = rng.choice((3, 8, 2 * m))
        values = [CyclotomicElement.zeta(conductor, rng.randrange(24)) for _ in range(r)]
        outcomes.add(_same_or_both_raise(g, table, values))
    assert False in outcomes


@pytest.mark.parametrize("name", ["Q8", "Q16", "Q32", "Q64", "Dic3", "Dic5"])
def test_fast_paths_match_oracles_dicyclic(name):
    # Dic3 and Dic5 have values of conductor 4 (on the j-classes) next to
    # conductor 2m, so the transform cannot work over Q(zeta_k) alone
    rng = random.Random(67)
    g = G(name)
    reps = list(_random_reps(g, rng, 3))
    reps.append(standard_rep(g, "H"))
    reps.append(3 * standard_rep(g, "taut"))
    if name != "Q8":  # every character of Q8 is rational
        assert not all(has_rational_characters(v) for v in reps)
    for v in reps:
        _check_against_oracles(v)


def test_fast_paths_mixed_denominators():
    # p-local coefficients give character values with several denominators
    g = G("C12")
    v = VirtualRep(g, [Fraction(1, 5), 0, Fraction(2, 7), 1] + [0] * 8, p_local=2)
    for x in range(12):
        assert class_fixed_space_dim(v, x) == oracle_fixed_space_dim(v, x)
    values = v.class_values()
    table = CyclicTable(g)
    assert decompose(g, values, 2) == oracle_decompose(table, values) == v.coeffs


def test_cyclic_eigenvalues_read_off_the_coefficients_match_class_values():
    """C1-C64: the multiplicities summed over a g = j(m/k) mod m against the
    transform of the class values along g. Every element up to C16, then
    one element of each order, its inverse and one at random."""
    rng = random.Random(73)
    for m in range(1, 65):
        g = G(f"C{m}")
        honest = VirtualRep(g, [rng.choice((0, 0, 1, 2)) for _ in range(m)])
        values = honest.class_values()
        divs = [d for d in range(1, m + 1) if m % d == 0]
        xs = range(m) if m <= 16 else {*(d % m for d in divs), *(-d % m for d in divs),
                                       rng.randrange(m)}
        for x in xs:
            assert eigenvalue_multiplicities(honest, x) == class_eigenvalues(honest, x, values)


def test_decompose_rejects_non_characters_like_oracle():
    for name in ("C8", "Q16", "Dic3"):
        g = G(name)
        table = table_of(g)
        values = [CyclotomicElement.zero(1)] * len(table.reps)
        values[1] = CyclotomicElement.zeta(8)
        with pytest.raises(ArithmeticError):
            oracle_decompose(table, values)
        with pytest.raises(ArithmeticError):
            decompose(g, values)


def test_class_function_of_wrong_length_is_rejected():
    """The values were zipped against the classes: over Q8 decompose([1, 2])
    returned (5/8, 5/8, -3/8, -3/8, 1/4) and decompose([1] * 9) the trivial
    character, and over C4 from_class_function([4]) returned 1 + L + L^2 +
    L^3."""
    q8, c4 = G("Q8"), G("C4")
    for values in ([1, 2], [1] * 9, []):
        with pytest.raises(ValueError, match="Q8 has 5 values, one per conjugacy class"):
            character_table(q8).decompose(values)
        with pytest.raises(ValueError, match="Q8 has 5 values"):
            from_class_function(q8, values)
    for values in ([4], [1] * 5):
        with pytest.raises(ValueError, match="C4 has 4 values, one per conjugacy class"):
            from_class_function(c4, values)


def test_eigenvalue_multiplicities_rejects_virtual():
    g = G("Q8")
    with pytest.raises(ValueError):
        eigenvalue_multiplicities(VirtualRep.irreducible(g, 4) - 1, 1)


def test_character_table_lives_with_its_model():
    """The table holds its model and no values; the model keeps nothing of
    RU(G), so it dies once no table or representation holds it."""
    import gc
    import weakref

    from vone.groups import GroupModel

    g = GroupModel(GroupDescriptor.parse("Q16"))
    table = character_table(g)
    assert table.group is g and not hasattr(table, "rows")
    assert not hasattr(g, "_character_table")
    standard_rep(g, "H").class_values()
    ref = weakref.ref(g)
    del g, table
    gc.collect()
    assert ref() is None


def test_cyclic_groups_build_no_character_table():
    """C_m has no table: the m x m table of C512 held 262,144 entries, and
    the eigenvalues, class values and class functions over C_m read nothing
    from it."""
    from vone.groups import GroupModel

    g = GroupModel(GroupDescriptor.parse("C512"))
    with pytest.raises(ValueError, match="dicyclic"):
        character_table(g)
    start = time.perf_counter()
    w, line = standard_rep(g, "W"), standard_rep(g, "L")
    assert eigenvalue_multiplicities(w, 511)[0] == 0
    assert eigenvalue_multiplicities(w + 1, 256) == (1, 256)
    mults = eigenvalue_multiplicities(line, 1)
    assert mults == (0, 1) + (0,) * 510
    assert from_class_function(g, line.class_values()) == line
    assert time.perf_counter() - start < 3.0


def test_character_rejects_elements_outside_the_group():
    """A character is read at the closed-form class index, which refuses
    -1 (once read as element 15) and 16 over Q16."""
    g = G("Q16")
    u1 = VirtualRep.irreducible(g, 1)
    for x in (-1, 16):
        with pytest.raises(ValueError, match="not an element"):
            u1.character(x)
    assert u1.character(15) == DicyclicTable(g).rows[1][g.element_class_index(15)]
