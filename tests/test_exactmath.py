"""Exact arithmetic layer: cyclotomics, Smith form, Bernoulli numbers.

Oracles here are deliberately independent of the implementation: cyclotomic
polynomials are cross-checked by the product formula, Smith invariants by
gcds of minors, Bernoulli denominators by the von Staudt-Clausen theorem.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction
from math import comb, gcd, lcm, prod

import pytest

from vone.burnside import VirtualGSet
from vone.exactmath import (
    CyclotomicElement,
    IntMatrix,
    bernoulli,
    check_prime,
    cokernel_data,
    cokernel_mod,
    cyclotomic_poly,
    divisors,
    euler_phi,
    factorize,
    is_prime,
    kernel_basis,
    p_local_in_image,
    prime_power,
    pvaluation,
    smith_normal_form,
)
from vone.groups import GroupDescriptor, build_group
from vone.limits import MAX_PRIME
from vone.repring import linearize


# ---------------------------------------------------------------------------
# number theory helpers


def test_factorize_small() -> None:
    assert factorize(1) == {}
    assert factorize(12) == {2: 2, 3: 1}
    assert factorize(125) == {5: 3}
    assert factorize(97) == {97: 1}


def test_prime_predicates() -> None:
    primes = [p for p in range(2, 60) if is_prime(p)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]
    assert prime_power(16) == (2, 4)
    assert prime_power(27) == (3, 3)
    assert prime_power(12) is None
    assert prime_power(1) is None


def test_euler_phi_by_counting() -> None:
    for n in range(1, 80):
        assert euler_phi(n) == sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)


def test_divisors() -> None:
    assert divisors(1) == [1]
    assert divisors(28) == [1, 2, 4, 7, 14, 28]
    assert divisors(64) == [1, 2, 4, 8, 16, 32, 64]


def test_pvaluation() -> None:
    assert pvaluation(24, 2) == 3
    assert pvaluation(24, 3) == 1
    assert pvaluation(Fraction(9, 8), 2) == -3
    assert pvaluation(Fraction(9, 8), 3) == 2
    with pytest.raises(ValueError):
        pvaluation(0, 2)


# ---------------------------------------------------------------------------
# cyclotomic polynomials


def test_cyclotomic_known_values() -> None:
    assert cyclotomic_poly(1) == (-1, 1)
    assert cyclotomic_poly(2) == (1, 1)
    assert cyclotomic_poly(3) == (1, 1, 1)
    assert cyclotomic_poly(4) == (1, 0, 1)
    assert cyclotomic_poly(8) == (1, 0, 0, 0, 1)
    assert cyclotomic_poly(9) == (1, 0, 0, 1, 0, 0, 1)
    assert cyclotomic_poly(12) == (1, 0, -1, 0, 1)


def test_cyclotomic_product_formula() -> None:
    # prod over d | n of Phi_d(x) must equal x^n - 1
    for n in (1, 2, 6, 8, 12, 20, 24, 36, 48, 60, 64):
        acc = [1]
        for d in divisors(n):
            phi_d = cyclotomic_poly(d)
            nxt = [0] * (len(acc) + len(phi_d) - 1)
            for i, a in enumerate(acc):
                for j, b in enumerate(phi_d):
                    nxt[i + j] += a * b
            acc = nxt
        expect = [-1] + [0] * (n - 1) + [1]
        assert acc == expect


def test_cyclotomic_degree() -> None:
    for n in range(1, 40):
        assert len(cyclotomic_poly(n)) == euler_phi(n) + 1


# ---------------------------------------------------------------------------
# cyclotomic field elements


def test_zeta_order() -> None:
    for n in (3, 4, 5, 8, 12):
        z = CyclotomicElement.zeta(n)
        assert z ** n == 1
        for k in range(1, n):
            assert z ** k != 1


def test_roots_of_unity_sum_to_zero() -> None:
    for n in (2, 3, 4, 6, 8, 9, 12):
        total = CyclotomicElement.zero(n)
        for k in range(n):
            total = total + CyclotomicElement.zeta(n, k)
        assert total == 0


def test_cube_root_norm() -> None:
    z = CyclotomicElement.zeta(3)
    # (1 + z)(1 + z^2) = 1 + z + z^2 + 1 = 1
    assert (1 + z) * (1 + CyclotomicElement.zeta(3, 2)) == 1


def test_mixed_conductor_arithmetic() -> None:
    i = CyclotomicElement.zeta(4)
    z3 = CyclotomicElement.zeta(3)
    w = i * z3
    assert w ** 12 == 1
    assert w ** 6 != 1
    assert w == CyclotomicElement.zeta(12, 7)  # zeta12^3 * zeta12^4


def test_zeta8_squares_to_i() -> None:
    z8 = CyclotomicElement.zeta(8)
    assert z8 * z8 == CyclotomicElement.zeta(4)
    assert z8 ** 4 == -1


def test_galois_action() -> None:
    z5 = CyclotomicElement.zeta(5)
    a = 1 + 2 * z5 + 3 * z5 ** 2
    g2 = a.galois(2)
    assert g2 == 1 + 2 * z5 ** 2 + 3 * z5 ** 4
    # composition: sigma_2 . sigma_3 = sigma_6 = sigma_1
    assert a.galois(2).galois(3) == a
    with pytest.raises(ValueError):
        z5.galois(5)


def test_galois_fixes_rationals_and_norm() -> None:
    rng = random.Random(11)
    for _ in range(20):
        n = rng.choice([3, 4, 5, 7, 8, 9, 12])
        coeffs = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(euler_phi(n))]
        a = CyclotomicElement(n, coeffs)
        norm = CyclotomicElement.one(n)
        for e in range(1, n):
            if gcd(e, n) == 1:
                norm = norm * a.galois(e)
        assert norm.is_rational()


def test_conjugate_real_combination() -> None:
    z = CyclotomicElement.zeta(8)
    real_part = z + z.conjugate()
    assert real_part.galois(3) == -(real_part)  # zeta8 + zeta8^-1 maps to zeta8^3 + zeta8^5
    assert (real_part * real_part).is_rational()
    assert (real_part * real_part).rational_value() == 2


def test_rational_detection() -> None:
    z = CyclotomicElement.zeta(6)
    assert (z + z.galois(5)) == 1  # zeta6 + zeta6^-1 = 1
    assert not z.is_rational()
    assert CyclotomicElement.from_rational(Fraction(7, 3), 12).rational_value() == Fraction(7, 3)


# ---------------------------------------------------------------------------
# Bernoulli numbers


def test_bernoulli_table() -> None:
    table = {
        0: Fraction(1),
        1: Fraction(-1, 2),
        2: Fraction(1, 6),
        4: Fraction(-1, 30),
        6: Fraction(1, 42),
        8: Fraction(-1, 30),
        10: Fraction(5, 66),
        12: Fraction(-691, 2730),
    }
    for n, val in table.items():
        assert bernoulli(n) == val
    for n in (3, 5, 7, 9, 11):
        assert bernoulli(n) == 0


def test_bernoulli_von_staudt_clausen() -> None:
    # denominator of B_2s is the product of primes q with (q - 1) | 2s
    for s in range(1, 31):
        m = 2 * s
        den = prod(q for q in range(2, m + 2) if is_prime(q) and m % (q - 1) == 0)
        assert bernoulli(m).denominator == den


# ---------------------------------------------------------------------------
# Smith normal form


def matmul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    if a.cols != b.rows:
        raise ValueError("shape mismatch")
    cols = list(zip(*b.entries))
    return IntMatrix([[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a.entries])


def identity(n: int) -> IntMatrix:
    return IntMatrix([[int(i == j) for j in range(n)] for i in range(n)])


def det(mat: IntMatrix) -> int:
    """Determinant by fraction-free (Bareiss) elimination."""
    if mat.rows != mat.cols:
        raise ValueError("determinant of a non-square matrix")
    n = mat.rows
    m = [list(r) for r in mat.entries]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def solve_int_columns(b: IntMatrix, target: IntMatrix) -> IntMatrix | None:
    """Solve b * Y = target over the integers; None if unsolvable. Read off
    the Smith form U*b*V = D: Y = V*Z with D*Z = U*target."""
    if b.rows != target.rows:
        raise ValueError("shape mismatch")
    d, u, v, _ = smith_normal_form(b)
    rank = sum(1 for x in d.diag() if x)
    ut = matmul(u, target)
    z = [[0] * target.cols for _ in range(b.cols)]
    for i in range(b.rows):
        for j in range(target.cols):
            val = ut.entries[i][j]
            if i < rank:
                q, rem = divmod(val, d.entries[i][i])
                if rem:
                    return None
                z[i][j] = q
            elif val:
                return None
    return matmul(v, IntMatrix(z))


def _check_snf(m: IntMatrix) -> IntMatrix:
    d, u, v, uinv = smith_normal_form(m)
    assert matmul(matmul(u, m), v) == d
    assert matmul(u, uinv) == identity(m.rows) == matmul(uinv, u)
    assert abs(det(u)) == 1
    assert abs(det(v)) == 1
    diag = d.diag()
    for i in range(d.rows):
        for j in range(d.cols):
            if i != j:
                assert d.entries[i][j] == 0
    assert all(x >= 0 for x in diag)
    for a, b in zip(diag, diag[1:]):
        if a == 0:
            assert b == 0
        elif b:
            assert b % a == 0
    return d


def test_from_columns_validates_like_the_constructor() -> None:
    """No columns, or columns of unequal length, are a ValueError, as no
    rows or ragged rows are for the constructor: no column is cut to the
    length of the first."""
    assert IntMatrix.from_columns([[1, 2], [3, 4], [5, 6]]) == IntMatrix([[1, 3, 5], [2, 4, 6]])
    assert IntMatrix.from_columns([(7,)]).entries == ((7,),)
    for columns in ([[1], [2, 3]], [[1, 2], [3]]):
        with pytest.raises(ValueError, match="all of one length"):
            IntMatrix.from_columns(columns)
    with pytest.raises(ValueError, match="all of one length"):
        IntMatrix.from_columns([])
    with pytest.raises(ValueError, match="at least one row"):
        IntMatrix.from_columns([[], []])


def test_snf_known() -> None:
    d = _check_snf(IntMatrix([[2, 0], [0, 3]]))
    assert d.diag() == [1, 6]
    d = _check_snf(IntMatrix([[2, 4, 4], [-6, 6, 12], [10, 4, 16]]))
    assert d.diag() == [2, 2, 156]
    d = _check_snf(IntMatrix([[0, 0], [0, 0]]))
    assert d.diag() == [0, 0]


def _minors_gcd(m: IntMatrix, k: int) -> int:
    from itertools import combinations

    g = 0
    for rows in combinations(range(m.rows), k):
        for cols in combinations(range(m.cols), k):
            sub = IntMatrix([[m.entries[i][j] for j in cols] for i in rows])
            g = gcd(g, det(sub))
    return g


def test_snf_matches_minor_gcds() -> None:
    rng = random.Random(7)
    for _ in range(12):
        r = rng.randint(1, 4)
        c = rng.randint(1, 4)
        m = IntMatrix([[rng.randint(-9, 9) for _ in range(c)] for _ in range(r)])
        d = _check_snf(m)
        diag = d.diag()
        running = 1
        for k in range(1, min(r, c) + 1):
            gk = _minors_gcd(m, k)
            expect = running * diag[k - 1]
            assert gk == expect  # d_k = gcd(k-minors) / gcd((k-1)-minors)
            running = gk
            if gk == 0:
                break


def test_kernel_basis() -> None:
    m = IntMatrix([[1, 2, 3], [2, 4, 6]])
    basis = kernel_basis(m)
    assert len(basis) == 2
    for vec in basis:
        assert all(
            sum(m.entries[i][j] * vec[j] for j in range(3)) == 0 for i in range(2)
        )
    # saturation: the kernel of [2 4] is generated by (2, -1), not (4, -2)
    basis2 = kernel_basis(IntMatrix([[2, 4]]))
    assert len(basis2) == 1
    assert abs(basis2[0][0] * 1 - basis2[0][1] * -2) in (0, 4)
    assert gcd(*basis2[0]) == 1


def test_solve_int_columns() -> None:
    b = IntMatrix([[2, 0], [0, 3]])
    sol = solve_int_columns(b, IntMatrix([[4], [9]]))
    assert sol is not None
    assert matmul(b, sol) == IntMatrix([[4], [9]])
    assert solve_int_columns(b, IntMatrix([[1], [0]])) is None
    # inconsistent system
    assert solve_int_columns(IntMatrix([[1], [1]]), IntMatrix([[0], [1]])) is None


def exact_in_image(mat: IntMatrix, vec, p: int) -> bool:
    """Whether vec lies in the Z_(p)-span of the columns of mat, any shape
    and rank: the elimination over Z_(p) that `p_local_in_image` ran before
    it worked modulo p^delta, kept as the oracle. Unlike `p_local_in_image`
    it takes rational vectors.

    With D the lcm of the denominators of vec and s = v_p(D), it asks
    whether A*x = b/p^s, b = D*vec, has a solution over Z_(p). The pivot
    a = p^v*u has least valuation among the remaining rows, and
    row_i <- u*row_i - (a_i/p^v)*row_piv clears its column; the pivot
    equation passes exactly when v_p(b_piv) >= v + s, and a row whose
    matrix part is zero passes only when its b is 0. Each updated row is
    divided by the prime-to-p part of its content; nothing else bounds the
    entries."""
    if len(vec) != mat.rows:
        raise ValueError(f"vector of length {len(vec)} against {mat.rows} rows")
    vec = [Fraction(x) for x in vec]
    den = lcm(*[x.denominator for x in vec])
    shift = pvaluation(den, p)
    rows = [[*row, x.numerator * (den // x.denominator)]
            for row, x in zip(mat.entries, vec)]
    while rows:
        best = None  # (valuation, row index)
        for i, row in enumerate(rows):
            g = gcd(*row[:-1])
            if not g:
                if row[-1]:
                    return False
                continue
            v = 0
            while g % p == 0 and (best is None or v < best[0]):
                g //= p
                v += 1
            if best is None or v < best[0]:
                best = (v, i)
                if v == 0:
                    break
        if best is None:
            return True
        v, pi = best
        prow = rows.pop(pi)
        if prow[-1] % p ** (v + shift):
            return False
        pv = p**v
        pj = next(j for j, a in enumerate(prow) if a % (pv * p))
        unit = prow.pop(pj) // pv
        for i, row in enumerate(rows):
            q = row.pop(pj)
            if not q:
                continue
            q //= pv
            row = [unit * x - q * y for x, y in zip(row, prow)]
            g = gcd(*row)
            while g and g % p == 0:
                g //= p
            if g > 1:
                row = [x // g for x in row]
            rows[i] = row
    return True


def test_p_local_membership() -> None:
    m = IntMatrix([[2, 0], [0, 3]])  # det 6
    # (1, 0) is in the 3-local but not the 2-local span
    assert p_local_in_image(m, [1, 0], 3, 6)
    assert not p_local_in_image(m, [1, 0], 2, 6)
    # only v_p(modulus) is read: the 2-part of det will do
    assert not p_local_in_image(m, [1, 0], 2, 2)
    # delta = 0: mat is invertible over Z_(5), and nothing is eliminated
    assert p_local_in_image(m, [1, 0], 5, 6)
    # off the column span entirely, on the oracle, which takes any shape
    tall = IntMatrix([[1], [0]])
    assert not exact_in_image(tall, [0, 1], 2)
    assert exact_in_image(tall, [7, 0], 2)


def fraction_in_image(mat: IntMatrix, vec, p: int) -> bool:
    """p-local membership with y = U*vec formed in Fractions: the rule
    before denominators were cleared, kept as the oracle."""
    d, u, _, _ = smith_normal_form(mat)
    rank = sum(1 for x in d.diag() if x)
    y = [sum(Fraction(u.entries[i][j]) * Fraction(vec[j]) for j in range(mat.rows))
         for i in range(mat.rows)]
    for i in range(mat.rows):
        if i < rank:
            if y[i] != 0 and pvaluation(y[i], p) < pvaluation(d.entries[i][i], p):
                return False
        elif y[i] != 0:
            return False
    return True


def test_p_local_membership_matches_fraction_oracle() -> None:
    # denominators include multiples of p, where D*vec shifts the valuation;
    # square nonsingular matrices go through `p_local_in_image` as well
    rng = random.Random(17)
    outcomes = set()
    for _ in range(3000):
        p = rng.choice((2, 3, 5))
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        mat = IntMatrix([[rng.choice((0, rng.randint(-9, 9))) for _ in range(cols)]
                         for _ in range(rows)])
        vec = [Fraction(rng.randint(-12, 12), rng.choice((1, 1, 2, 3, 4, 5, 6, 9, 25)))
               for _ in range(rows)]
        if rng.random() < 0.3:
            vec = [int(x * x.denominator) for x in vec]
        got = exact_in_image(mat, vec, p)
        assert got == fraction_in_image(mat, vec, p), (mat.entries, vec, p)
        if rows == cols and det(mat) and all(isinstance(x, int) for x in vec):
            assert got == p_local_in_image(mat, vec, p, abs(det(mat))), (mat.entries, vec, p)
        outcomes.add(got)
    assert outcomes == {True, False}


def test_p_local_membership_rejects_wrong_length() -> None:
    two = IntMatrix([[2, 0], [0, 2]])
    with pytest.raises(ValueError):
        p_local_in_image(two, [2, 2, 1], 2, 4)
    with pytest.raises(ValueError):
        p_local_in_image(two, [2], 2, 4)
    with pytest.raises(ValueError):
        p_local_in_image(IntMatrix([[1, 0]]), [1], 2, 1)
    with pytest.raises(ValueError):
        p_local_in_image(two, [2, 2], 2, 0)
    with pytest.raises(ValueError, match="integer entries"):
        p_local_in_image(two, [Fraction(1, 3), 2], 2, 4)
    with pytest.raises(ValueError):
        exact_in_image(two, [2], 2)


def snf_in_image(mat: IntMatrix, vec, p: int) -> bool:
    """p-local membership read off the Smith form U*mat*V = diag(d_i): with
    D the lcm of the denominators of vec and y = U*(D*vec), vec is in the
    span exactly when y_i = 0 past the rank and v_p(y_i) >= v_p(d_i) + v_p(D)
    below it. The rule before the elimination over Z_(p), kept as the
    oracle."""
    d, u, _, _ = smith_normal_form(mat)
    rank = sum(1 for x in d.diag() if x)
    vec = [Fraction(x) for x in vec]
    den = lcm(*(x.denominator for x in vec))
    scaled = [int(x * den) for x in vec]
    shift = pvaluation(den, p)
    for i, row in enumerate(u.entries):
        y = sum(a * b for a, b in zip(row, scaled))
        if y and (i >= rank or pvaluation(y, p) < pvaluation(d.entries[i][i], p) + shift):
            return False
    return True


def _image_of(mat: IntMatrix, x) -> list:
    return [sum(a * b for a, b in zip(row, x)) for row in mat.entries]


def _random_vec(rng: random.Random, mat: IntMatrix, p: int) -> list:
    """In the image (x with denominators prime to p), maybe off it after
    dividing by p, or an arbitrary vector with denominators divisible by p."""
    q = 3 if p == 2 else 2
    x = [Fraction(rng.randint(-9, 9), rng.choice((1, q))) for _ in range(mat.cols)]
    kind = rng.randrange(3)
    if kind == 0:
        return _image_of(mat, x)
    if kind == 1:
        return [y / p for y in _image_of(mat, x)]
    return [Fraction(rng.randint(-20, 20), rng.choice((1, p, p * p, q)))
            for _ in range(mat.rows)]


def _agrees_with_oracles(mat: IntMatrix, vec, p: int) -> bool:
    got = exact_in_image(mat, vec, p)
    assert got == snf_in_image(mat, vec, p), (mat.entries, vec, p)
    assert got == fraction_in_image(mat, vec, p), (mat.entries, vec, p)
    if mat.rows == mat.cols and det(mat) and all(isinstance(x, int) for x in vec):
        assert got == p_local_in_image(mat, vec, p, abs(det(mat))), (mat.entries, vec, p)
    return got


def test_p_local_membership_matches_snf_oracle_on_small_matrices() -> None:
    # rectangular, rank-deficient (a product through k < min(rows, cols))
    # and p-divisible matrices up to 8x8
    rng = random.Random(23)
    outcomes = set()
    for _ in range(1200):
        p = rng.choice((2, 3, 5))
        rows, cols = rng.randint(1, 8), rng.randint(1, 8)
        scale = rng.choice((1, p, p * p))
        if rng.random() < 0.4:
            k = rng.randint(1, min(rows, cols))
            a = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(rows)]
            b = [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(k)]
            entries = [[scale * sum(x * y for x, y in zip(ra, cb)) for cb in zip(*b)]
                       for ra in a]
        else:
            entries = [[scale * rng.choice((0, rng.randint(-6, 6))) for _ in range(cols)]
                       for _ in range(rows)]
        mat = IntMatrix(entries)
        outcomes.add(_agrees_with_oracles(mat, _random_vec(rng, mat, p), p))
    assert outcomes == {True, False}


def _random_int_vec(rng: random.Random, mat: IntMatrix, p: int) -> list:
    """An integer vector: in the image, the image with one entry moved by
    a power of p, or arbitrary entries times powers of p."""
    vec = _image_of(mat, [rng.randint(-9, 9) for _ in range(mat.cols)])
    kind = rng.randrange(3)
    if kind == 1:
        vec[rng.randrange(mat.rows)] += p ** rng.randint(0, 3)
    elif kind == 2:
        vec = [rng.randint(-20, 20) * p ** rng.randint(0, 2) for _ in range(mat.rows)]
    return vec


def test_p_local_in_image_modulo_p_power_matches_exact_elimination() -> None:
    # square nonsingular matrices up to 8 x 8, some scaled by a power of p
    # so that delta = v_p(det) is large; modulus = |det| and a multiple of
    # it, and a det prime to p, where delta = 0 answers without elimination
    rng = random.Random(67)
    outcomes, seen = set(), set()
    tried = 0
    while tried < 1500:
        p = rng.choice((2, 3, 5))
        k = rng.randint(1, 8)
        scale = rng.choice((1, 1, p, p**3))
        mat = IntMatrix([[scale * rng.choice((0, rng.randint(-9, 9))) for _ in range(k)]
                         for _ in range(k)])
        d = abs(det(mat))
        if not d:
            continue
        tried += 1
        vec = _random_int_vec(rng, mat, p)
        want = exact_in_image(mat, vec, p)
        for modulus in (d, d * p * rng.choice((1, 7))):
            got = p_local_in_image(mat, vec, p, modulus)
            assert got == want, (mat.entries, vec, p, modulus)
            delta = pvaluation(modulus, p)
            seen.add(("delta = 0" if not delta else "delta > 4" if delta > 4 else "small", got))
        outcomes.add(want)
    assert outcomes == {True, False}
    assert {("delta = 0", True), ("small", True), ("small", False),
            ("delta > 4", True), ("delta > 4", False)} <= seen


def _circulant(X: VirtualGSet) -> IntMatrix:
    """Multiplication by the permutation character w of X in RU(C_m),
    entry (a, b) = w[(a - b) % m], with w cleared of denominators."""
    w = [Fraction(c) for c in linearize(X).coeffs]
    den = lcm(*(c.denominator for c in w))
    w = [int(c * den) for c in w]
    m = len(w)
    return IntMatrix([[w[(a - b) % m] for b in range(m)] for a in range(m)])


def test_p_local_membership_matches_snf_oracle_on_circulants() -> None:
    # coefficients stay small: the integer Smith form of the oracle can take
    # minutes on some circulants over C32 with large ones
    rng = random.Random(29)
    outcomes = set()
    for m in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 25, 27, 31, 32):
        g = build_group(GroupDescriptor.cyclic_of_order(m))
        p = prime_power(m)[0]
        r = len(g.subgroup_classes())
        for _ in range(4):
            X = VirtualGSet(g, [rng.choice((0, rng.randint(-3, 3))) for _ in range(r)])
            mat = _circulant(X)
            lam = p ** rng.randint(0, 3) * rng.choice((1, -1, 7))
            outcomes.add(_agrees_with_oracles(mat, [lam] * m, p))
            outcomes.add(_agrees_with_oracles(mat, _random_vec(rng, mat, p), p))
    assert outcomes == {True, False}


def test_p_local_membership_c32_entry_growth_case_is_fast() -> None:
    # the integer Smith form of this circulant took 147 s
    g = build_group(GroupDescriptor.cyclic_of_order(32))
    X = VirtualGSet(g, [2, 1, -1, -1, -2, -64])
    mat = _circulant(X)
    rng = random.Random(3)
    inside = _image_of(mat, [rng.randint(-50, 50) for _ in range(32)])
    # lambda*[regular] with |X| = 0 is never in the ideal (see jtheory)
    for vec, want in ((inside, True), ([3**20] * 32, False), ([1] * 32, False)):
        start = time.perf_counter()
        got = exact_in_image(mat, vec, 2)
        assert time.perf_counter() - start < 0.5
        assert got == want


def test_cokernel_data() -> None:
    free, factors, gens = cokernel_data(IntMatrix([[2, 0], [0, 3]]))
    assert (free, factors) == (0, (6,))
    assert gens is not None and len(gens) == 1

    free, factors, gens = cokernel_data(IntMatrix([[2, 0], [0, 0]]))
    assert (free, factors) == (1, (2,))
    assert gens is not None and len(gens) == 2

    free, factors, _ = cokernel_data(IntMatrix([[1, 0], [0, 1]]))
    assert (free, factors) == (0, ())


def test_cokernel_generators_generate() -> None:
    # Z^2 / <(2,0),(0,4)> = Z/2 + Z/4; generator orders must divide out
    m = IntMatrix([[2, 0], [0, 4]])
    free, factors, gens = cokernel_data(m)
    assert free == 0
    assert factors == (2, 4)
    assert gens is not None
    for order, g in zip(factors, gens):
        scaled = IntMatrix([[order * x] for x in g])
        assert solve_int_columns(m, scaled) is not None


def test_cokernel_generators_match_solved_inverse() -> None:
    # U^-1 carried through the elimination equals the inverse solved from U,
    # and the generators are its columns at the factors > 1, then the zeros
    rng = random.Random(43)
    mats = [_circulant(VirtualGSet(g, [rng.randint(-3, 3) for _ in g.subgroup_classes()]))
            for g in (build_group(GroupDescriptor.cyclic_of_order(m)) for m in (4, 8, 9, 16))]
    for _ in range(200):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        k = rng.randint(1, min(rows, cols))
        a = [[rng.randint(-4, 4) for _ in range(k)] for _ in range(rows)]
        b = [[rng.choice((0, rng.randint(-4, 4))) for _ in range(cols)] for _ in range(k)]
        mats.append(IntMatrix([[sum(x * y for x, y in zip(ra, cb)) for cb in zip(*b)]
                               for ra in a]))
    shapes = set()
    for mat in mats:
        d, u, _, uinv = smith_normal_form(mat)
        inv = solve_int_columns(u, identity(mat.rows))
        assert inv == uinv, mat.entries
        diag = d.diag() + [0] * (mat.rows - d.cols)
        order = [i for i, x in enumerate(diag) if x > 1] + [i for i, x in enumerate(diag) if not x]
        free, factors, gens = cokernel_data(mat)
        assert gens == tuple(inv.column(i) for i in order), mat.entries
        assert (free, factors) == (diag.count(0), tuple(x for x in diag if x > 1))
        shapes.add((free > 0, factors != ()))
    assert shapes == {(False, False), (False, True), (True, False), (True, True)}


def test_cokernel_mod_matches_cokernel_data() -> None:
    # 400 random nonsingular k x k matrices, k <= 7, modulo |det| and 3|det|:
    # the factors of the integer Smith form, and generators of those orders,
    # reduced below the largest factor, that span Z^k with the columns
    rng = random.Random(61)
    seen = 0
    while seen < 400:
        k = rng.randint(1, 7)
        mat = IntMatrix([[rng.choice((0, rng.randint(-6, 6))) for _ in range(k)]
                         for _ in range(k)])
        d = abs(det(mat))
        if not d:
            continue
        seen += 1
        free, factors, _ = cokernel_data(mat)
        for modulus in (d, 3 * d):
            got_free, got_factors, gens = cokernel_mod(mat, modulus)
            assert (got_free, got_factors) == (free, factors), (mat.entries, modulus)
            assert len(gens) == len(factors)
            top = factors[-1] if factors else 1
            assert all(0 <= x < top for gen in gens for x in gen)
            if gens:
                scaled = IntMatrix.from_columns([[f * x for x in gen] for f, gen in zip(factors, gens)])
                assert solve_int_columns(mat, scaled) is not None, (mat.entries, modulus)
            cols = [mat.column(j) for j in range(k)] + list(gens)
            assert cokernel_data(IntMatrix.from_columns(cols)) == (0, (), ()), mat.entries


def test_cokernel_mod_rejects_bad_input() -> None:
    with pytest.raises(ValueError):
        cokernel_mod(IntMatrix([[1, 2]]), 3)
    with pytest.raises(ValueError):
        cokernel_mod(IntMatrix([[2]]), 0)


def test_kernel_and_cokernel_is_one_smith_form(monkeypatch) -> None:
    import vone.exactmath as exactmath

    calls = []
    snf = exactmath.smith_normal_form
    monkeypatch.setattr(exactmath, "smith_normal_form", lambda mat: calls.append(mat) or snf(mat))
    rng = random.Random(19)
    for _ in range(50):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        mat = IntMatrix([[rng.choice((0, rng.randint(-5, 5))) for _ in range(cols)]
                         for _ in range(rows)])
        want = (kernel_basis(mat), cokernel_data(mat))
        calls.clear()
        assert exactmath.kernel_and_cokernel(mat) == want
        assert calls == [mat]


def test_bareiss_det_matches_cofactor() -> None:
    rng = random.Random(3)

    def cofactor_det(rows: list[list[int]]) -> int:
        n = len(rows)
        if n == 1:
            return rows[0][0]
        total = 0
        for j in range(n):
            sub = [r[:j] + r[j + 1 :] for r in rows[1:]]
            total += (-1) ** j * rows[0][j] * cofactor_det(sub)
        return total

    for _ in range(15):
        n = rng.randint(1, 4)
        rows = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
        assert det(IntMatrix(rows)) == cofactor_det(rows)


def test_binomial_sum_identity_for_bernoulli() -> None:
    # sum_{k=0}^{m} C(m+1, k) B_k = 0 for m >= 1 (defining recurrence)
    for m in range(1, 20):
        total = sum(comb(m + 1, k) * bernoulli(k) for k in range(m + 1))
        assert total == 0


# ---------------------------------------------------------------------------
# integer-vector storage of cyclotomic elements


def test_cyclotomic_fraction_round_trip() -> None:
    vec = [Fraction(1, 2), Fraction(-2, 3), 0, Fraction(5, 6)]
    a = CyclotomicElement(12, vec)
    assert a.coeffs == tuple(vec)
    assert all(isinstance(c, Fraction) for c in a.coeffs)
    assert (a.num, a.den) == ((3, -4, 0, 5), 6)
    # lowest terms: a common factor of numerators and denominator cancels
    b = CyclotomicElement(8, [Fraction(2, 4), Fraction(6, 4), 1])
    assert (b.num, b.den) == ((1, 3, 2, 0), 2)
    assert CyclotomicElement(5, [Fraction(4, 6)] * 4).den == 3
    z = CyclotomicElement(9, [Fraction(0, 7)] * 6)
    assert (z.num, z.den) == ((0,) * 6, 1) and z.is_zero()
    assert CyclotomicElement(7, ["1/3", 2]).coeffs[:2] == (Fraction(1, 3), 2)
    assert CyclotomicElement.from_rational(Fraction(-7, 4), 16).rational_value() == Fraction(-7, 4)
    with pytest.raises(ValueError):
        CyclotomicElement(5, [1] * 5)
    with pytest.raises(AttributeError):
        a.den = 1


def test_cyclotomic_equality_across_conductors() -> None:
    i = CyclotomicElement.zeta(4)
    assert i == CyclotomicElement.zeta(8) ** 2 == CyclotomicElement.zeta(12) ** 3
    assert i.in_conductor(24) == i and i.in_conductor(24).conductor == 24
    third = CyclotomicElement.from_rational(Fraction(1, 3))
    assert third == CyclotomicElement.from_rational(Fraction(1, 3), 15) == Fraction(1, 3)
    assert third != CyclotomicElement.from_rational(Fraction(2, 3), 15)
    assert CyclotomicElement.zeta(3) != CyclotomicElement.zeta(6)
    assert CyclotomicElement.zeta(6) == -(CyclotomicElement.zeta(3) ** 2)
    assert CyclotomicElement.zeta(3) * Fraction(1, 2) != CyclotomicElement.zeta(3)


def test_cyclotomic_mixed_denominators() -> None:
    z3, z4 = CyclotomicElement.zeta(3), CyclotomicElement.zeta(4)
    a = z3 * Fraction(1, 2) + Fraction(1, 3)
    b = z4 * Fraction(1, 6)
    want_sum = CyclotomicElement.from_exponents(
        12, [(4, Fraction(1, 2)), (0, Fraction(1, 3)), (3, Fraction(1, 6))]
    )
    assert a + b == b + a == want_sum
    assert (a + b) - a == b
    want_prod = CyclotomicElement.from_exponents(
        12, [(7, Fraction(1, 12)), (3, Fraction(1, 18))]
    )
    assert a * b == b * a == want_prod
    assert (a * 6).den == 1 and (a * 6).num[:2] == (2, 3)
    # a rational that arises from non-rational parts
    assert (a - z3 * Fraction(1, 2)).rational_value() == Fraction(1, 3)
    assert (b * b.conjugate()).rational_value() == Fraction(1, 36)


def _zeta_sum(conductor: int, pairs) -> CyclotomicElement:
    out = CyclotomicElement.zero(conductor)
    for e, c in pairs:
        out = out + CyclotomicElement.zeta(conductor, e) * c
    return out


@pytest.mark.parametrize("kind", ["int", "mixed"])
def test_from_exponents_matches_the_sum_of_powers(kind: str) -> None:
    """Integer coefficients, and ints mixed with Fractions of several
    denominators (1 among them), give the element sum c * zeta^e, stored
    as numerators over the least common denominator."""
    rng = random.Random(61)
    dens = (1, 2, 3, 4, 6, 9)
    for conductor in (1, 2, 3, 4, 5, 8, 9, 12, 15, 16, 27, 64):
        for _ in range(20):
            pairs = []
            for _ in range(rng.randrange(0, 2 * conductor + 2)):
                c = rng.randint(-5, 5)
                if kind == "mixed" and rng.random() < 0.5:
                    c = Fraction(c, rng.choice(dens))
                pairs.append((rng.randrange(-conductor, 3 * conductor), c))
            got = CyclotomicElement.from_exponents(conductor, pairs)
            want = _zeta_sum(conductor, pairs)
            assert got == want, (conductor, pairs)
            assert (got.conductor, got.num, got.den) == (want.conductor, want.num, want.den)
    z = CyclotomicElement.from_exponents(4, [(0, Fraction(1, 2)), (1, 3), (2, Fraction(1, 3))])
    assert (z.num, z.den) == ((1, 18), 6)  # 1/6 + 3i
    assert CyclotomicElement.from_exponents(4, [(0, Fraction(2, 1)), (5, 1)]).num == (2, 1)


def test_from_exponents_integral_fractions_give_int_numerators() -> None:
    """Fraction coefficients of denominator 1 were kept as Fraction
    numerators, and every product of the element ran Fraction arithmetic."""
    z = CyclotomicElement.from_exponents(4, [(0, Fraction(2, 1)), (1, 3)])
    assert z == CyclotomicElement(4, [2, 3])
    assert [type(c) for c in z.num] == [int, int] and z.den == 1
    assert [type(c) for c in (z * z).num] == [int, int]


def test_exponent_terms_lift_without_reduction() -> None:
    a = CyclotomicElement(8, [1, 0, Fraction(-1, 2), 3])
    assert a.den == 2
    assert a.exponent_terms(24) == [(0, 2), (6, -1), (9, 6)]
    back = CyclotomicElement.from_exponents(
        24, [(e, Fraction(c, a.den)) for e, c in a.exponent_terms(24)]
    )
    assert back == a
    with pytest.raises(ValueError):
        a.exponent_terms(12)


def test_prime_power_stops_at_the_prime_bound():
    """Trial division of n, 1.1 s at n = 10^14 + 31, stops at
    sqrt(MAX_PRIME); past it a power of a prime under the bound is an
    integer root, and anything else is an input error."""
    for n in range(1, 20000):
        f = factorize(n) if n > 1 else {}
        assert prime_power(n) == (next(iter(f.items())) if len(f) == 1 else None), n
    # past sqrt(MAX_PRIME) a power of a prime under the bound is an integer root
    start = time.perf_counter()
    for p in (46349, 1000000007, 2147483647):
        for k in (1, 2, 3, 7):
            assert prime_power(p**k) == (p, k)
    assert prime_power(2**40) == (2, 40)
    assert prime_power(46351**900) == (46351, 900)
    assert prime_power(3 * 1000000007**2) is None
    for n in (10**14 + 31, (10**14 + 31) ** 2, 46351 * 46381, (2**61 - 1) ** 3):
        with pytest.raises(ValueError, match=f"not a power of a prime p <= {MAX_PRIME}"):
            prime_power(n)
    assert time.perf_counter() - start < 2.0


def test_check_prime():
    for p in (2, 3, 1000000007, 2147483647):
        check_prime(p)
    for p in (-3, 0, 1, 4, 2147483645):
        with pytest.raises(ValueError, match="^p must be a prime$"):
            check_prime(p)
    start = time.perf_counter()
    with pytest.raises(ValueError, match=f"exceeds the limit {MAX_PRIME}"):
        check_prime(10**14 + 31)
    assert time.perf_counter() - start < 0.1
