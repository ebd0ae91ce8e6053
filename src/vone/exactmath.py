"""Exact arithmetic substrate: rationals, cyclotomic numbers, integer
matrices with Smith normal form, p-local membership, and Bernoulli numbers.

Rationals are `fractions.Fraction` throughout and integers are Python ints,
so every computation in this package is exact. An element of Q(zeta_N) is an
integer coefficient vector over the power basis 1, zeta, ..., zeta^(phi(N)-1)
with one common denominator, reduced modulo the N-th cyclotomic polynomial.
The Smith form serves kernels and cokernels over Z; it carries U^-1 through
its elimination for the cokernel generators. Membership in a Z_(p)-span
(`p_local_in_image`, step 2 of a cyclic certificate) is an elimination over
the valuation ring Z_(p) and builds no Smith form.
Nothing here touches floating point.
"""

from __future__ import annotations

import threading
from fractions import Fraction
from functools import cache
from math import comb, gcd, lcm
from typing import Iterable, Sequence

__all__ = [
    "factorize",
    "is_prime",
    "prime_power",
    "euler_phi",
    "divisors",
    "pvaluation",
    "poly_mul",
    "cyclotomic_poly",
    "CyclotomicElement",
    "bernoulli",
    "IntMatrix",
    "smith_normal_form",
    "kernel_basis",
    "p_local_in_image",
    "cokernel_data",
]


# ---------------------------------------------------------------------------
# number theory scraps


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1 by trial division."""
    if n < 1:
        raise ValueError("factorize expects a positive integer")
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def is_prime(n: int) -> bool:
    return n >= 2 and factorize(n) == {n: 1}


def prime_power(n: int) -> tuple[int, int] | None:
    """Return (p, k) with n = p**k and k >= 1, or None."""
    if n < 2:
        return None
    f = factorize(n)
    if len(f) != 1:
        return None
    [(p, k)] = f.items()
    return p, k


@cache
def euler_phi(n: int) -> int:
    phi = n
    for p in factorize(n):
        phi -= phi // p
    return phi


def divisors(n: int) -> list[int]:
    """Positive divisors of n, sorted increasingly."""
    if n < 1:
        raise ValueError("divisors expects a positive integer")
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def pvaluation(x: int | Fraction, p: int) -> int:
    """p-adic valuation of a nonzero integer or rational."""
    if p < 2:
        raise ValueError("valuation needs p >= 2")
    if isinstance(x, Fraction):
        if x == 0:
            raise ValueError("valuation of zero is undefined")
        return pvaluation(x.numerator, p) - pvaluation(x.denominator, p)
    x = int(x)
    if x == 0:
        raise ValueError("valuation of zero is undefined")
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


# ---------------------------------------------------------------------------
# integer polynomials (coefficient tuples, constant term first)


def poly_mul(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Product of two integer polynomials, constant term first."""
    bt = [(j, y) for j, y in enumerate(b) if y]
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in bt:
                out[i + j] += x * y
    return out


def _poly_div_exact(num: Sequence[int], den: Sequence[int]) -> list[int]:
    # den must be monic and divide num exactly
    num = list(num)
    dd = len(den) - 1
    q = [0] * (len(num) - dd)
    for i in range(len(q) - 1, -1, -1):
        c = num[i + dd]
        q[i] = c
        if c:
            for j in range(dd + 1):
                num[i + j] -= c * den[j]
    if any(num[:dd]):
        raise ArithmeticError("inexact polynomial division")
    return q


@cache
def cyclotomic_poly(n: int) -> tuple[int, ...]:
    """Coefficients of the n-th cyclotomic polynomial, constant term first.

    Computed by dividing x^n - 1 by the product of Phi_d over proper
    divisors d of n; monic of degree phi(n).
    """
    if n < 1:
        raise ValueError("cyclotomic_poly expects n >= 1")
    if n == 1:
        return (-1, 1)
    num = [-1] + [0] * (n - 1) + [1]
    for d in divisors(n)[:-1]:
        num = _poly_div_exact(num, cyclotomic_poly(d))
    return tuple(num)


@cache
def _zeta_powers(n: int) -> tuple[tuple[int, ...], ...]:
    """x^k mod Phi_n for 0 <= k < n, as integer vectors of length phi(n)."""
    phi = euler_phi(n)
    mod = cyclotomic_poly(n)
    rows = []
    cur = [0] * phi
    cur[0] = 1
    for _ in range(n):
        rows.append(tuple(cur))
        top = cur[phi - 1]
        cur = [(cur[i - 1] if i else 0) - top * mod[i] for i in range(phi)]
    return tuple(rows)


@cache
def _phi_terms(n: int) -> tuple[tuple[int, int], ...]:
    """Nonzero coefficients of Phi_n below the leading one, as (degree, c)."""
    return tuple((i, c) for i, c in enumerate(cyclotomic_poly(n)[:-1]) if c)


def _reduce_mod_phi(vals: list, n: int) -> list:
    """Reduce an integer polynomial (constant term first) modulo the monic
    Phi_n, in place; returns the phi(n) power-basis coordinates."""
    phi = euler_phi(n)
    terms = _phi_terms(n)
    for d in range(len(vals) - 1, phi - 1, -1):
        c = vals[d]
        if c:
            off = d - phi
            for i, t in terms:
                vals[off + i] -= c * t
    del vals[phi:]
    vals.extend([0] * (phi - len(vals)))
    return vals


class CyclotomicElement:
    """An element of Q(zeta_N) in the power basis modulo Phi_N.

    The value is stored as integers: a numerator vector `num` over the basis
    1, zeta, ..., zeta^(phi(N)-1) and one positive common denominator `den`,
    in lowest terms (no prime divides `den` and every numerator). Products
    are integer polynomial products reduced modulo the monic Phi_N, so
    arithmetic never builds a Fraction; `coeffs` and `rational_value` give
    `Fraction`s at the boundary.

    The conductor N is part of the value; mixed-conductor arithmetic
    promotes both operands to the least common multiple. Rationals embed
    at any conductor as constant vectors, and the representation over the
    power basis is unique, so equality and rationality tests are exact.
    """

    __slots__ = ("conductor", "num", "den")

    def __init__(self, conductor: int, coeffs: Iterable):
        if conductor < 1:
            raise ValueError("conductor must be >= 1")
        vec = [c if isinstance(c, int) else Fraction(c) for c in coeffs]
        phi = euler_phi(conductor)
        if len(vec) > phi:
            raise ValueError("coefficient vector longer than phi(N)")
        den = lcm(*[c.denominator for c in vec if isinstance(c, Fraction)])
        num = [c * den if isinstance(c, int) else c.numerator * (den // c.denominator)
               for c in vec]
        num.extend([0] * (phi - len(num)))
        self._init(conductor, num, den)

    def _init(self, conductor: int, num: list, den: int) -> None:
        if den != 1:
            g = gcd(den, *num)
            if g != 1:
                num = [c // g for c in num]
                den //= g
        object.__setattr__(self, "conductor", conductor)
        object.__setattr__(self, "num", tuple(num))
        object.__setattr__(self, "den", den)

    @classmethod
    def _make(cls, conductor: int, num: list, den: int = 1) -> "CyclotomicElement":
        # num already has length phi(conductor)
        out = object.__new__(cls)
        out._init(conductor, num, den)
        return out

    def __setattr__(self, *a):
        raise AttributeError("CyclotomicElement is immutable")

    @property
    def coeffs(self) -> tuple:
        """Power-basis coordinates as Fractions."""
        den = self.den
        return tuple([Fraction(c, den) for c in self.num])

    # -- constructors

    @classmethod
    def from_rational(cls, q, conductor: int = 1) -> "CyclotomicElement":
        return cls(conductor, [q])

    @classmethod
    def zeta(cls, conductor: int, power: int = 1) -> "CyclotomicElement":
        return cls._make(conductor, list(_zeta_powers(conductor)[power % conductor]))

    @classmethod
    def from_exponents(cls, conductor: int, pairs) -> "CyclotomicElement":
        """Sum of coeff * zeta^exponent over (exponent, coeff) pairs."""
        acc = [0] * conductor
        for e, c in pairs:
            if c:
                acc[e % conductor] += c
        den = lcm(*[c.denominator for c in acc if isinstance(c, Fraction)])
        if den != 1:
            acc = [int(c * den) for c in acc]
        return cls._make(conductor, _reduce_mod_phi(acc, conductor), den)

    @classmethod
    def zero(cls, conductor: int = 1) -> "CyclotomicElement":
        return cls(conductor, ())

    @classmethod
    def one(cls, conductor: int = 1) -> "CyclotomicElement":
        return cls.from_rational(1, conductor)

    # -- conductor bookkeeping

    def exponent_terms(self, m: int) -> list:
        """Nonzero (exponent, numerator) pairs with self equal to
        sum numerator * zeta_m^exponent / den; requires conductor | m.
        No reduction is needed: zeta_N^k = zeta_m^(k*m/N)."""
        n = self.conductor
        if m % n:
            raise ValueError("can only promote to a multiple of the conductor")
        step = m // n
        return [(k * step, c) for k, c in enumerate(self.num) if c]

    def _map_exponents(self, m: int, mult: int) -> "CyclotomicElement":
        # zeta_N^k -> zeta_m^(k*mult), reduced once modulo Phi_m
        acc = [0] * m
        for k, c in enumerate(self.num):
            if c:
                acc[k * mult % m] += c
        return CyclotomicElement._make(m, _reduce_mod_phi(acc, m), self.den)

    def in_conductor(self, m: int) -> "CyclotomicElement":
        """Rewrite over Q(zeta_m); requires conductor | m."""
        n = self.conductor
        if m == n:
            return self
        if m % n:
            raise ValueError("can only promote to a multiple of the conductor")
        return self._map_exponents(m, m // n)

    @staticmethod
    def _pair(a, b):
        if not isinstance(b, CyclotomicElement):
            b = CyclotomicElement.from_rational(b, a.conductor)
        if a.conductor == b.conductor:
            return a, b
        m = lcm(a.conductor, b.conductor)
        return a.in_conductor(m), b.in_conductor(m)

    # -- ring operations

    def __add__(self, other):
        if not isinstance(other, (CyclotomicElement, int, Fraction)):
            return NotImplemented
        a, b = self._pair(self, other)
        if a.den == b.den:
            num = [x + y for x, y in zip(a.num, b.num)]
            den = a.den
        else:
            den = lcm(a.den, b.den)
            sa, sb = den // a.den, den // b.den
            num = [x * sa + y * sb for x, y in zip(a.num, b.num)]
        return CyclotomicElement._make(a.conductor, num, den)

    __radd__ = __add__

    def __neg__(self):
        return CyclotomicElement._make(self.conductor, [-c for c in self.num], self.den)

    def __sub__(self, other):
        if not isinstance(other, (CyclotomicElement, int, Fraction)):
            return NotImplemented
        return self + (-other if isinstance(other, CyclotomicElement) else -Fraction(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            return CyclotomicElement._make(
                self.conductor, [c * q.numerator for c in self.num], self.den * q.denominator
            )
        if not isinstance(other, CyclotomicElement):
            return NotImplemented
        a, b = self._pair(self, other)
        n = a.conductor
        # the reduction stays integral since Phi_n is monic
        red = _reduce_mod_phi(poly_mul(a.num, b.num), n)
        return CyclotomicElement._make(n, red, a.den * b.den)

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError("negative powers are not supported")
        out = CyclotomicElement.one(self.conductor)
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base if e > 1 else base
            e >>= 1
        return out

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and self.num[0] == other * self.den
        if not isinstance(other, CyclotomicElement):
            return NotImplemented
        a, b = self._pair(self, other)
        return a.den == b.den and a.num == b.num

    __hash__ = None  # promotion-based equality; not usable as dict keys

    # -- structure

    def is_zero(self) -> bool:
        return not any(self.num)

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("not a rational value")
        return Fraction(self.num[0], self.den)

    def galois(self, e: int) -> "CyclotomicElement":
        """Apply the automorphism zeta -> zeta^e; needs gcd(e, N) = 1."""
        n = self.conductor
        e %= n
        if gcd(e, n) != 1:
            raise ValueError(f"{e} is not a unit modulo {n}")
        return self._map_exponents(n, e)

    def conjugate(self) -> "CyclotomicElement":
        if self.conductor <= 2:
            return self
        return self.galois(self.conductor - 1)

    def __repr__(self):
        terms = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if k == 0:
                terms.append(str(c))
            else:
                z = f"z{self.conductor}" + (f"^{k}" if k > 1 else "")
                terms.append(z if c == 1 else f"{c}*{z}")
        return " + ".join(terms) if terms else "0"


# ---------------------------------------------------------------------------
# Bernoulli numbers

# Convention B_1 = -1/2, so B_2 = 1/6, B_4 = -1/30, ...  The cache is grown
# under a lock so concurrent readers are safe.
_bern_lock = threading.Lock()
_bern: list[Fraction] = [Fraction(1), Fraction(-1, 2)]


def bernoulli(n: int) -> Fraction:
    """Exact Bernoulli number B_n via the defining recurrence."""
    if n < 0:
        raise ValueError("bernoulli expects n >= 0")
    with _bern_lock:
        while len(_bern) <= n:
            m = len(_bern)
            acc = Fraction(0)
            for k in range(m):
                if _bern[k]:
                    acc += comb(m + 1, k) * _bern[k]
            _bern.append(-acc / (m + 1))
        return _bern[n]


# ---------------------------------------------------------------------------
# integer matrices and Smith normal form


class IntMatrix:
    """Immutable integer matrix."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries: Iterable[Iterable[int]]):
        rows = tuple([tuple([int(x) for x in row]) for row in entries])
        if not rows:
            raise ValueError("IntMatrix needs at least one row")
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise ValueError("ragged rows")
        if width == 0:
            raise ValueError("IntMatrix needs at least one column")
        object.__setattr__(self, "rows", len(rows))
        object.__setattr__(self, "cols", width)
        object.__setattr__(self, "entries", rows)

    def __setattr__(self, *a):
        raise AttributeError("IntMatrix is immutable")

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls([[int(i == j) for j in range(n)] for i in range(n)])

    @classmethod
    def from_columns(cls, columns: Sequence[Sequence[int]]) -> "IntMatrix":
        cols = [list(c) for c in columns]
        return cls([[cols[j][i] for j in range(len(cols))] for i in range(len(cols[0]))])

    def column(self, j: int) -> tuple[int, ...]:
        return tuple([row[j] for row in self.entries])

    def __mul__(self, other):
        if not isinstance(other, IntMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        bt = list(zip(*other.entries))
        return IntMatrix(
            [[sum(a * b for a, b in zip(row, col)) for col in bt] for row in self.entries]
        )

    def __eq__(self, other):
        return isinstance(other, IntMatrix) and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        return f"IntMatrix({[list(r) for r in self.entries]})"

    def diag(self) -> list[int]:
        return [self.entries[i][i] for i in range(min(self.rows, self.cols))]

    def det(self) -> int:
        """Determinant by fraction-free (Bareiss) elimination."""
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        n = self.rows
        m = [list(r) for r in self.entries]
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


def smith_normal_form(
    mat: IntMatrix,
) -> tuple[IntMatrix, IntMatrix, IntMatrix, IntMatrix]:
    """Return (D, U, V, U^-1) with U*mat*V = D, U and V unimodular, and D
    diagonal with nonnegative entries d1 | d2 | ...

    Elementary row and column operations only, with pivots of minimal
    absolute value. U^-1 is carried through the same elimination (Cohen,
    GTM 138, 2.4): a row operation E applied to U is applied to U^-1 as
    the column operation E^-1 on the right, so no second elimination
    inverts U. Entries are not kept small: U and U^-1 of some circulants
    reach thousands of bits, which costs time but never exactness.
    """
    r, c = mat.rows, mat.cols
    a = [list(row) for row in mat.entries]
    u = [[int(i == j) for j in range(r)] for i in range(r)]
    v = [[int(i == j) for j in range(c)] for i in range(c)]
    w = [[int(i == j) for j in range(r)] for i in range(r)]  # rows: columns of U^-1

    def row_addmul(i, j, q):
        ai, aj = a[i], a[j]
        for x in range(c):
            ai[x] += q * aj[x]
        ui, uj = u[i], u[j]
        for x in range(r):
            ui[x] += q * uj[x]
        # U^-1 <- U^-1 * (I - q e_ij): column j loses q times column i
        wi, wj = w[i], w[j]
        for x in range(r):
            wj[x] -= q * wi[x]

    def col_addmul(i, j, q):
        for row in a:
            row[i] += q * row[j]
        for row in v:
            row[i] += q * row[j]

    def row_swap(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]
        w[i], w[j] = w[j], w[i]

    def col_swap(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def row_negate(i):
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]
        w[i] = [-x for x in w[i]]

    m = min(r, c)
    for t in range(m):
        best = None
        for i in range(t, r):
            for j in range(t, c):
                mag = abs(a[i][j])
                if mag and (best is None or mag < best[0]):
                    best = (mag, i, j)
        if best is None:
            break
        _, pi, pj = best
        if pi != t:
            row_swap(t, pi)
        if pj != t:
            col_swap(t, pj)
        while True:
            if a[t][t] < 0:
                row_negate(t)
            dirty = False
            for i in range(r):
                if i == t or a[i][t] == 0:
                    continue
                q, rem = divmod(a[i][t], a[t][t])
                row_addmul(i, t, -q)
                if rem:
                    row_swap(i, t)
                    dirty = True
                    break
            if dirty:
                continue
            for j in range(c):
                if j == t or a[t][j] == 0:
                    continue
                q, rem = divmod(a[t][j], a[t][t])
                col_addmul(j, t, -q)
                if rem:
                    col_swap(j, t)
                    dirty = True
                    break
            if dirty:
                continue
            # pivot row and column are clear; enforce divisibility
            bad = None
            for i in range(t + 1, r):
                ai = a[i]
                for j in range(t + 1, c):
                    if ai[j] % a[t][t]:
                        bad = i
                        break
                if bad is not None:
                    break
            if bad is None:
                break
            row_addmul(t, bad, 1)
    return IntMatrix(a), IntMatrix(u), IntMatrix(v), IntMatrix.from_columns(w)


def kernel_basis(mat: IntMatrix) -> list[tuple[int, ...]]:
    """Basis of the integer kernel lattice {x : mat*x = 0}.

    Columns of V beyond the rank of the Smith form give a saturated basis.
    """
    d, _, v, _ = smith_normal_form(mat)
    rank = sum(1 for x in d.diag() if x)
    return [v.column(j) for j in range(rank, mat.cols)]


def p_local_in_image(mat: IntMatrix, vec: Sequence, p: int) -> bool:
    """Whether vec lies in the Z_(p)-span of the columns of mat.

    vec may have rational entries; it needs one entry per row of mat. With
    D the lcm of its denominators and s = v_p(D), the question is whether
    A*x = b/p^s has a solution x over Z_(p), where A = mat and b = D*vec is
    an integer vector (the prime-to-p part of D is a unit).

    Elimination over the discrete valuation ring Z_(p) (Cohen, GTM 138,
    2.4), with b carried as one extra column. The pivot a = p^v*u is an
    entry of least valuation among the remaining rows (a row's least
    valuation is that of its content), so p^v divides every entry of its
    column, and row_i <- u*row_i - (a_i/p^v)*row_piv clears that column;
    u is a p-adic unit, so each step is invertible over Z_(p). The pivot
    equation then fixes its variable in Z_(p) exactly when
    v_p(b_piv) >= v + s, whatever the other variables are, because every
    other entry of the pivot row has valuation >= v; its row and column
    leave the system. A row whose matrix part is zero passes only when its
    b is 0. Each updated row is divided by the prime-to-p part of its
    content, a unit, to keep the entries small; their growth can cost only
    time, never exactness.
    """
    if len(vec) != mat.rows:
        raise ValueError(f"vector of length {len(vec)} against {mat.rows} rows")
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


def cokernel_data(
    mat: IntMatrix,
) -> tuple[int, tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """Invariant factors of Z^rows / column-span(mat).

    Returns (free_rank, factors > 1 in divisibility order, generators).
    Generators are ambient coordinate vectors: one per listed factor, then
    one per free summand. With U*mat*V = D, the columns of U^-1 are a basis
    of Z^rows in which the column span is d_i times the i-th basis vector.
    """
    d, _, _, uinv = smith_normal_form(mat)
    diag = d.diag() + [0] * (mat.rows - min(mat.rows, mat.cols))
    factors = tuple([x for x in diag if x > 1])
    gens = [uinv.column(i) for i, x in enumerate(diag) if x > 1]
    gens += [uinv.column(i) for i, x in enumerate(diag) if x == 0]
    return diag.count(0), factors, tuple(gens)
