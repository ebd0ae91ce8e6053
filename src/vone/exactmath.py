"""Exact arithmetic substrate: rationals, cyclotomic numbers, integer
matrices with Smith normal form, p-local membership, and Bernoulli numbers.

Rationals are `fractions.Fraction` throughout and integers are Python ints,
so every computation in this package is exact. An element of Q(zeta_N) is an
integer coefficient vector over the power basis 1, zeta, ..., zeta^(phi(N)-1)
with one common denominator, reduced modulo the N-th cyclotomic polynomial.
One elimination, `_smith`, gives every Smith form: over Z for kernels and
cokernels (`smith_normal_form`), carrying U^-1 for the cokernel generators,
and modulo a multiple E of the exponent of a cokernel of finite order
(`cokernel_mod`), whose entries then stay within E/2 of 0. Membership in a
Z_(p)-span (`p_local_in_image`, step 2 of a cyclic certificate, on the
deg F x deg F matrix of multiplication by h in Z[x]/(F)) takes the same
route at p: an elimination over Z/p^M, p^M a power of p that kills the
cokernel at p (p^(mu + n), mu the largest v_p of a nonzero mark, will
do), so no entry reaches p^M.
Nothing here touches floating point.
"""

from __future__ import annotations

import operator
import threading
from collections.abc import Iterable, Sequence
from fractions import Fraction
from functools import cache
from math import comb, gcd, lcm

from .limits import MAX_PRIME

__all__ = [
    "factorize",
    "is_prime",
    "prime_power",
    "check_prime",
    "euler_phi",
    "divisors",
    "pvaluation",
    "poly_mul",
    "poly_div_exact",
    "cyclotomic_poly",
    "CyclotomicElement",
    "bernoulli",
    "IntMatrix",
    "smith_normal_form",
    "kernel_basis",
    "p_local_in_image",
    "cokernel_data",
    "kernel_and_cokernel",
    "cokernel_mod",
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


def check_prime(p: int) -> None:
    """ValueError unless p is a prime at most `MAX_PRIME`, which is checked
    first, so trial division never runs past sqrt(MAX_PRIME)."""
    if p > MAX_PRIME:
        raise ValueError(f"p = {p} exceeds the limit {MAX_PRIME}")
    if not is_prime(p):
        raise ValueError("p must be a prime")


def _int_root(n: int, k: int) -> int:
    """floor(n^(1/k)) for n >= 1, by bisection between 2^a and 2^(a+1),
    a = (bit_length(n) - 1) // k."""
    a = (n.bit_length() - 1) // k
    lo, hi = 1 << a, 1 << (a + 1)  # lo^k <= n < hi^k
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if mid**k <= n:
            lo = mid
        else:
            hi = mid
    return lo


def prime_power(n: int) -> tuple[int, int] | None:
    """(p, k) with n = p^k, k >= 1 and p at most `MAX_PRIME`, with no trial
    division past sqrt(MAX_PRIME): a factor up to that bound is found by
    trial division; otherwise n = p^k with p <= MAX_PRIME has p = n^(1/k),
    which is prime because it has no factor up to its square root. None
    when n < 2 or a small factor shows n is not a prime power, ValueError
    when n is not a power of a prime at most `MAX_PRIME` (it may be one of
    a larger prime)."""
    if n < 2:
        return None
    d = 2
    while d * d <= min(n, MAX_PRIME):
        if n % d == 0:
            k = pvaluation(n, d)
            return (d, k) if n == d**k else None
        d += 1 if d == 2 else 2
    if n <= MAX_PRIME:
        return n, 1
    for k in range(2, n.bit_length()):
        a = (n.bit_length() - 1) // k  # 2^a <= n^(1/k) < 2^(a+1)
        if 1 << a > MAX_PRIME:
            continue
        if 1 << (a + 1) <= d:
            break  # every prime factor of n is at least d
        r = _int_root(n, k)
        if r <= MAX_PRIME and r**k == n:
            return r, k
    raise ValueError(f"{n} is not a power of a prime p <= {MAX_PRIME}, the limit on p")


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


def _as_int(x, what: str) -> int:
    """x as an int when it is one (a bool or any type with __index__), else
    a ValueError naming x: int() would truncate 2.5 or 7/2 and parse "3"."""
    try:
        return operator.index(x)
    except TypeError:
        raise ValueError(f"{what}, not {x!r}") from None


def pvaluation(x: int | Fraction, p: int) -> int:
    """p-adic valuation of a nonzero integer or rational."""
    if p < 2:
        raise ValueError("valuation needs p >= 2")
    if type(x) is not int:
        if isinstance(x, Fraction):
            if x == 0:
                raise ValueError("valuation of zero is undefined")
            return pvaluation(x.numerator, p) - pvaluation(x.denominator, p)
        x = _as_int(x, "a valuation needs an integer or a Fraction")
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


def poly_div_exact(num: Sequence[int], den: Sequence[int]) -> list[int]:
    """num / den for a monic den dividing num in Z[x], constant term first;
    ArithmeticError when the division leaves a remainder."""
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
        num = poly_div_exact(num, cyclotomic_poly(d))
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
        """Sum of coeff * zeta^exponent over (exponent, coeff) pairs; the
        denominator is read off the Fraction coefficients as they come, and
        the numerators are ints whenever one was not."""
        acc = [0] * conductor
        den, ints = 1, True
        for e, c in pairs:
            if c:
                acc[e % conductor] += c
                if type(c) is not int:
                    den, ints = lcm(den, c.denominator), False
        if not ints:
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
    """Immutable integer matrix; an entry that is not an integer is a
    ValueError, not truncated."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries: Iterable[Iterable[int]]):
        what = "IntMatrix entries must be integers"
        rows = tuple([tuple([x if type(x) is int else _as_int(x, what) for x in row])
                      for row in entries])
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

    @classmethod
    def _of(cls, rows) -> "IntMatrix":
        # rows: a nonempty sequence of equally long nonempty sequences of ints
        out = object.__new__(cls)
        object.__setattr__(out, "rows", len(rows))
        object.__setattr__(out, "cols", len(rows[0]))
        object.__setattr__(out, "entries", tuple([tuple(row) for row in rows]))
        return out

    def __setattr__(self, *a):
        raise AttributeError("IntMatrix is immutable")

    @classmethod
    def from_columns(cls, columns: Sequence[Sequence[int]]) -> "IntMatrix":
        if not columns or any(len(c) != len(columns[0]) for c in columns):
            raise ValueError("IntMatrix needs columns, all of one length")
        return cls(zip(*columns))

    def column(self, j: int) -> tuple[int, ...]:
        return tuple([row[j] for row in self.entries])

    def __eq__(self, other):
        return isinstance(other, IntMatrix) and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        return f"IntMatrix({[list(r) for r in self.entries]})"

    def diag(self) -> list[int]:
        return [self.entries[i][i] for i in range(min(self.rows, self.cols))]


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, s, t) with g = gcd(a, b) = s*a + t*b."""
    x, y = abs(a), abs(b)
    s0, s1, t0, t1 = 1, 0, 0, 1
    while y:
        q, r = divmod(x, y)
        x, y = y, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    return x, (s0 if a >= 0 else -s0), (t0 if b >= 0 else -t0)


def _smith(rows: Sequence[Sequence[int]], D: int) -> tuple:
    """The one Smith elimination of this module: (diag, U, V, w) for the
    r x c integer matrix M = rows, over Z at D = 0 and modulo D when D > 0
    (Cohen, GTM 138, Alg. 2.4.14; Domich, Kannan and Trotter, Math. Oper.
    Res. 12, 1987). diag holds the min(r, c) diagonal entries d_1 | d_2 |
    ..., each >= 0, and w the columns of U^-1 as rows. At D = 0,
    U*M*V = diag(d_t), U and V unimodular, given as the rows of U and the
    columns of V. At D > 0 the caller vouches that the column lattice L of
    M contains D * Z^r, and U and V are None: a modular form has no
    integral transforms to report.

    Modulo D, L is spanned by the columns of [M | D*I]. A row operation U
    keeps D*U*Z^r = D*Z^r, so throughout, the lattice U*L is spanned by
    the working matrix together with D*Z^r, and adding multiples of the
    D*e_i to its columns reduces any entry modulo D: a row with an entry
    past D/2 in absolute value is reduced into [-D/2, D/2]. A generator
    changed by a vector of D*Z^r, inside L, keeps its class, so the
    columns of U^-1 are reduced the same way. At D = 0 nothing is reduced.

    Step t takes as pivot p an entry of least absolute value. An entry b of
    its row or column is cleared by subtracting b/p times the pivot column
    or row when p divides b; otherwise a 2x2 operation of determinant 1
    puts gcd(p, b) in the pivot's place, and |p| shrinks. A row operation E
    applied to U is applied to U^-1 as the column operation E^-1 on the
    right, so no second elimination inverts U. When its row and column
    vanish, the pivot column is p e_t, and with D e_t it spans d e_t,
    d = gcd(p, D), which is |p| at D = 0; d must divide every remaining
    entry, else the offending row is added to the pivot row and |p|
    shrinks again. A block that vanishes gives d = D for the rest of the
    diagonal: the zeros of the free part at D = 0.
    """
    r, c = len(rows), len(rows[0])
    half = D // 2

    def reduce(row):
        if not D or max(row) <= half and min(row) >= -half:
            return row
        out = [x % D for x in row]
        return [x - D if x > half else x for x in out]

    def mix(m, i, j, c00, c01, c10, c11):
        # rows i, j of m <- (c00, c01; c10, c11) (rows i, j)
        x, y = m[i], m[j]
        m[i] = reduce([c00 * a + c01 * b for a, b in zip(x, y)])
        m[j] = reduce([c10 * a + c11 * b for a, b in zip(x, y)])

    def addmul(m, i, j, q):
        # row i of m += q row j
        m[i] = reduce([a + q * b for a, b in zip(m[i], m[j])])

    a = [reduce(list(row)) for row in rows]  # the block still to reduce
    w = [[int(i == j) for j in range(r)] for i in range(r)]  # rows: columns of U^-1
    u = None if D else [[int(i == j) for j in range(r)] for i in range(r)]
    v = None if D else [[int(i == j) for j in range(c)] for i in range(c)]  # rows: columns of V
    diag = []
    for t in range(min(r, c)):
        best = None
        for i, row in enumerate(a):
            least = min(map(abs, filter(None, row)), default=0)
            if least and (best is None or least < best[0]):
                best = (least, i)
                if least == 1:
                    break
        if best is None:  # the block vanishes
            diag += [D] * (min(r, c) - t)
            break
        least, pi = best
        pj = next(j for j, x in enumerate(a[pi]) if abs(x) == least)
        a[0], a[pi] = a[pi], a[0]
        w[t], w[t + pi] = w[t + pi], w[t]
        for row in a:
            row[0], row[pj] = row[pj], row[0]
        if not D:
            u[t], u[t + pi] = u[t + pi], u[t]
            v[t], v[t + pj] = v[t + pj], v[t]
        while True:
            p = a[0][0]
            for i in range(1, len(a)):
                b = a[i][0]
                if not b:
                    continue
                q, rem = divmod(b, p)
                if rem:
                    # rows 0, i <- (s, e; -b/h, p/h) (rows 0, i), of
                    # determinant 1, and columns 0, i of U^-1 <- its inverse
                    # (p/h, -e; b/h, s) on the right
                    h, s, e = _xgcd(p, b)
                    q, f = b // h, p // h
                    mix(a, 0, i, s, e, -q, f)
                    mix(w, t, t + i, f, q, -e, s)
                    if not D:
                        mix(u, t, t + i, s, e, -q, f)
                    p = a[0][0]
                else:
                    # row i -= q row 0; column 0 of U^-1 gains q times column i
                    addmul(a, i, 0, -q)
                    addmul(w, t, t + i, q)
                    if not D:
                        addmul(u, t + i, t, -q)
            piv = a[0]
            j = next((j for j in range(1, len(piv)) if piv[j] % p), None)
            if j is None:
                # column operations against column 0, now zero below p, clear
                # the pivot row and change nothing else
                d = gcd(p, D)
                bad = None if d == 1 else next(
                    (i for i in range(1, len(a)) if gcd(*a[i]) % d), None)
                if bad is None:
                    break
                # row 0 += row bad; column bad of U^-1 loses column 0
                addmul(a, 0, bad, 1)
                addmul(w, t + bad, t, -1)
                if not D:
                    addmul(u, t, t + bad, 1)
                piv = a[0]
                j = next(j for j in range(1, len(piv)) if piv[j] % p)
            # columns 0, j <- (s, -b/h; e, p/h) on the right, b = piv[j]
            p = piv[0]
            h, s, e = _xgcd(p, piv[j])
            q, f = piv[j] // h, p // h
            for row in a:
                x, y = row[0], row[j]
                row[0], row[j] = s * x + e * y, f * y - q * x
            a = [reduce(row) for row in a]
            if not D:
                mix(v, t, t + j, s, e, -q, f)
        if not D:
            # the column operations that clear the pivot row, and a sign
            # that makes d = |p|
            for j in range(1, len(piv)):
                if piv[j]:
                    addmul(v, t + j, t, -(piv[j] // p))
            if p < 0:
                v[t] = [-x for x in v[t]]
        diag.append(d)
        a = [row[1:] for row in a[1:]]
    return diag, u, v, w


def smith_normal_form(
    mat: IntMatrix,
) -> tuple[IntMatrix, IntMatrix, IntMatrix, IntMatrix]:
    """Return (D, U, V, U^-1) with U*mat*V = D, U and V unimodular, and D
    diagonal with nonnegative entries d1 | d2 | ...

    The one elimination `_smith`, run over Z (at modulus 0), which carries
    U^-1 through the same row operations as U, so no second elimination
    inverts U. Its pivots are gcds reached by 2x2 unimodular steps. Over Z
    no entry is reduced, and on some singular circulants over C32 the
    entries still grow past any practical size.
    """
    r, c = mat.rows, mat.cols
    diag, u, v, w = _smith(mat.entries, 0)
    d = [[0] * c for _ in range(r)]
    for i, x in enumerate(diag):
        d[i][i] = x
    return (IntMatrix._of(d), IntMatrix._of(u),
            IntMatrix._of(list(zip(*v))), IntMatrix._of(list(zip(*w))))


def kernel_basis(mat: IntMatrix) -> list[tuple[int, ...]]:
    """Basis of the integer kernel lattice {x : mat*x = 0}.

    Columns of V beyond the rank of the Smith form give a saturated basis.
    """
    return _kernel(smith_normal_form(mat))


def _kernel(snf) -> list[tuple[int, ...]]:
    d, _, v, _ = snf
    rank = sum(1 for x in d.diag() if x)
    return [v.column(j) for j in range(rank, v.cols)]


def p_local_in_image(mat: IntMatrix, vec: Sequence[int], p: int, modulus: int) -> bool:
    """Whether the integer vector vec lies in the Z_(p)-span L_(p) of mat.

    The contract of `cokernel_mod`, read at p: mat is square, k x k, and
    its column lattice L contains modulus * Z^k, p-locally at least. Only
    delta = v_p(modulus) is read, so modulus = |det mat| != 0 serves, and so
    does its p-part p^delta; certify step 2 passes p^(mu + n), mu the
    largest v_p of a nonzero mark, which `jtheory._fixed_mod_X` proves
    kills the cokernel at p. The question is whether A*x = b, A = mat and
    b = vec, has a solution over Z_(p). It is decided over Z/q, q = p^delta,
    with every entry in [0, q): the route `cokernel_mod` takes modulo a
    known order (Domich, Kannan and Trotter, Math. Oper. Res. 12, 1987).
    - For modulus = |det A|, A * adj(A) = det(A) * I puts det(A) * Z^k in
      L; in general the contract puts q * Z_(p)^k in L_(p). When delta = 0
      every b is a member, and nothing is eliminated.
    - So membership is decided modulo q: b may be reduced modulo q, and
      L_(p) is spanned by the columns of [A | q*I]. A row operation U
      invertible over Z_(p) keeps q*U*Z^k = q*Z^k, so throughout, the
      lattice is spanned by the working matrix together with q*Z^k, and
      any entry may be reduced modulo q.

    Elimination over Z_(p) (Cohen, GTM 138, 2.4), with b carried as one
    extra column. The pivot a = p^v*u is an entry of least valuation among
    the remaining rows (a row's is that of gcd(q, row)), so p^v divides
    every entry of its column, and row_i -= (a_i/p^v) * u^-1 * row_piv,
    u^-1 = pow(u, -1, q), clears that column. The pivot equation then fixes
    its variable in Z_(p) exactly when v_p(b_piv) >= v, whatever the other
    variables are, since every entry of the pivot row has valuation >= v;
    its row and column leave the system. The remaining rows span, with
    q*Z_(p), the projection of a lattice that contains q * Z_(p)^k, so the
    true remaining block always has an entry of valuation <= delta: every
    pivot has v <= delta, and each test v_p(b) >= v is read modulo q. That
    entry can read 0 modulo q; a row that does is then its own summand
    q*Z_(p) of the lattice and passes exactly when its b is 0 modulo q.
    """
    k = mat.rows
    if mat.cols != k:
        raise ValueError(f"a square matrix is needed, not {k} x {mat.cols}")
    if len(vec) != k:
        raise ValueError(f"vector of length {len(vec)} against {k} rows")
    if modulus < 1:
        raise ValueError("the modulus must be a positive integer")
    if not all(isinstance(b, int) for b in vec):
        raise ValueError("the vector must have integer entries")
    q = p ** pvaluation(modulus, p)
    if q == 1:
        return True
    rows = [[x % q for x in row] + [b % q] for row, b in zip(mat.entries, vec)]
    while rows:
        best = None  # (p^v, row index), v the least valuation in the row
        for i, row in enumerate(rows):
            g = gcd(q, *row[:-1])
            if best is None or g < best[0]:
                best = (g, i)
                if g == 1:
                    break
        pv, pi = best
        if pv == q:  # every remaining row reads 0
            return not any(row[-1] for row in rows)
        prow = rows.pop(pi)
        if prow[-1] % pv:
            return False
        pj = next(j for j, a in enumerate(prow) if a % (pv * p))
        inv = pow(prow.pop(pj) // pv, -1, q)
        for i, row in enumerate(rows):
            a = row.pop(pj)
            if a:
                c = q - a // pv * inv % q
                rows[i] = [z if (z := x + c * y) < q else z % q for x, y in zip(row, prow)]
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
    return _cokernel(smith_normal_form(mat))


def _cokernel(snf) -> tuple[int, tuple[int, ...], tuple[tuple[int, ...], ...]]:
    d, _, _, uinv = snf
    diag = d.diag() + [0] * (d.rows - min(d.rows, d.cols))
    factors = tuple([x for x in diag if x > 1])
    gens = [uinv.column(i) for i, x in enumerate(diag) if x > 1]
    gens += [uinv.column(i) for i, x in enumerate(diag) if x == 0]
    return diag.count(0), factors, tuple(gens)


def kernel_and_cokernel(mat: IntMatrix) -> tuple[list, tuple]:
    """(`kernel_basis(mat)`, `cokernel_data(mat)`) from one Smith form."""
    snf = smith_normal_form(mat)
    return _kernel(snf), _cokernel(snf)


def cokernel_mod(
    mat: IntMatrix, modulus: int,
) -> tuple[int, tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """`cokernel_data` of a square matrix whose column lattice L contains
    modulus * Z^k, for instance modulus = |det mat| != 0 or a multiple of
    it. The answer has the same form, with free rank 0 and each generator
    entry reduced into [0, d), d the largest factor.

    The one elimination `_smith`, run modulo D = modulus, so every entry
    stays in [-D/2, D/2]. At the end U*L is the sum of the d_t Z e_t, so
    Z^k / L is the sum of the Z/d_t, generated by the columns of U^-1,
    which are reduced at last into [0, d) for d the largest d_t, the
    exponent of Z^k / L.
    """
    k = mat.rows
    if mat.cols != k:
        raise ValueError(f"a square matrix is needed, not {k} x {mat.cols}")
    if modulus < 1:
        raise ValueError("the modulus must be a positive integer")
    diag, _, _, w = _smith(mat.entries, modulus)
    factors = tuple([x for x in diag if x > 1])
    top = diag[-1]  # the exponent of Z^k / L: top * Z^k lies in L as well
    return 0, factors, tuple([tuple([y % top for y in w[t]]) for t, x in enumerate(diag) if x > 1])
