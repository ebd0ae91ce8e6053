"""p-primary image-of-J orders and multiplicative Bott classes.

The cannibalistic class theta^ell(V) multiplies eigenvalues z of each group
element through 1 + z + ... + z^(ell-1). For a fixed point free
representation with rational characters and ell prime to |G| the class
collapses to 1 + lambda*[regular] with lambda = (ell^dim - 1)/|G| (Adams,
On the groups J(X) II, Topology 3, 1965), so the certificates read lambda
off that closed form and never convolve, and `theta` returns it for such V;
`_theta_convolution` computes the class factor by factor for any V, over
Dic_m on its restrictions to cyclic subgroups, and the tests hold the two
against each other. The p-adic valuation v of lambda is the quantity the
self-map certificates consume; `_adams_valuation` reads
v_p(ell^dim - 1) = v + n by the lifting-the-exponent lemma, so
`verify_adams_bott` never forms ell^dim, and lambda is built in one place
(`_adams_multiplier`), only for theta and for a report's `lam` when it is
read. Over a cyclic p-group, step 2 asks whether
lambda*[regular] lies in the ideal of the permutation character of X;
lambda is p^v times a p-local unit, so `_fixed_mod_X` asks it of
p^v*[regular]: yes with nothing built when h(1), read off the marks, is
prime to p, and otherwise by elimination over Z/p^(mu + n) in the
deg F x deg F quotient Z[x]/(F) of `repring._ideal_split`, F the product
of the Phi_{p^i} where X has a nonzero mark. Its docstring proves both and
the closed form in the marks of X that the tests hold against it.
Everything is exact: integer representation rings, cyclotomic character
values, Bernoulli denominators for the image-of-J oracle.
"""

from __future__ import annotations

from math import gcd

from .burnside import VirtualGSet, marks
from .exactmath import (
    bernoulli,
    check_prime,
    factorize,
    p_local_in_image,
    poly_div_exact,
    prime_power,
    pvaluation,
)
from .groups import GroupDescriptor, build_group
from .limits import IMJ_ORACLE_BOUND, MAX_ADAMS_BITS
from .record import record
from .repring import (
    VirtualRep,
    _half,
    _ideal_split,
    _lift,
    _restrict,
    eigenvalue_multiplicities,
    has_rational_characters,
    is_fixed_point_free,
)

__all__ = [
    "ImJOrder",
    "AdamsBottReport",
    "imj_valuation",
    "imj_order_oracle",
    "default_ell",
    "bott_shape",
    "theta",
    "verify_adams_bott",
    "verify_bott_fixed_mod_X",
]


@record
class ImJOrder:
    """p-primary order p^valuation of the image of J in degree 4s-1."""

    degree: int
    p: int
    valuation: int


def imj_valuation(s: int, p: int) -> ImJOrder:
    """v_p of the image-of-J order in degree 4s-1 (Adams):
    p odd: 1 + v_p(2s) when (p-1) | 2s, else 0; p = 2: v_2(4s) + 1."""
    if s < 1:
        raise ValueError("degree parameter s must be >= 1")
    if p == 2:
        v = pvaluation(4 * s, 2) + 1
    elif (2 * s) % (p - 1) == 0:
        v = 1 + pvaluation(2 * s, p)
    else:
        v = 0
    return ImJOrder(4 * s - 1, p, v)


def imj_order_oracle(s: int) -> int:
    """Full image-of-J order in degree 4s-1: the denominator of B_{2s}/4s,
    for s up to `IMJ_ORACLE_BOUND`."""
    if s < 1:
        raise ValueError("degree parameter s must be >= 1")
    if s > IMJ_ORACLE_BOUND:
        raise ValueError(f"oracle bound {IMJ_ORACLE_BOUND} exceeded")
    return (bernoulli(2 * s) / (4 * s)).denominator


def default_ell(p: int) -> int:
    """Adams-operation generator: 3 for p = 2, else the least primitive
    root mod p^2. The primes of p(p-1) are p and those of p - 1, so only
    p - 1 is factored."""
    if p == 2:
        return 3
    check_prime(p)
    m = p * p
    phi = p * (p - 1)
    prime_divs = [p, *factorize(p - 1)]
    for g in range(2, m):
        if gcd(g, p) != 1:
            continue
        if all(pow(g, phi // q, m) != 1 for q in prime_divs):
            return g
    raise AssertionError("every prime square has a primitive root")


def _power_counts(k: int, a: int, ell: int) -> list:
    """How often each e mod k occurs as a*t mod k for 0 <= t < ell: the
    exponents of 1 + z + ... + z^(ell-1) at z = zeta_k^a. With
    ell = q*k + r the exponent a*t recurs q + (t < r) times, so the count
    takes min(ell, k) steps."""
    q, r = divmod(ell, k)
    out = [0] * k
    for t in range(min(ell, k)):
        out[a * t % k] += q + (t < r)
    return out


def _check_adams_bits(ell: int, dim: int) -> None:
    """ValueError when ell^dim, the value of theta^ell(V) at e, has more
    than `MAX_ADAMS_BITS` bits by the bound dim * bit_length(ell)."""
    if dim * ell.bit_length() > MAX_ADAMS_BITS:
        raise ValueError(
            f"ell^dim = {ell}^{dim} exceeds the limit {MAX_ADAMS_BITS} on dim * bit_length(ell)"
        )


def _adams_multiplier(ell: int, dim: int, order: int) -> int:
    """lambda = (ell^dim - 1)/|G| of the closed form
    theta^ell(V) = 1 + lambda * [regular], formed behind
    `_check_adams_bits`: the one place where lambda is built."""
    _check_adams_bits(ell, dim)
    return (ell**dim - 1) // order


def _adams_valuation(p: int, ell: int, dim: int) -> int:
    """v_p(ell^dim - 1) for ell >= 2 prime to p and dim >= 1, by the
    lifting-the-exponent lemma; ell^dim is never formed.

    - p = 2: ell^d - 1 = (ell - 1)(1 + ell + ... + ell^(d-1)), a sum of d
      odd terms, so v_2 is v_2(ell - 1) at odd d. At even d,
      ell^d - 1 = (ell^(d/2) - 1)(ell^(d/2) + 1). The second factor has
      v_2 = 1 when d/2 is even (ell^(d/2) = 1 mod 8) and v_2(ell + 1)
      when d/2 is odd (its cofactor is a sum of d/2 odd terms), so by
      induction v_2(ell^d - 1) = v_2(ell - 1) + v_2(ell + 1) + v_2(d) - 1.
    - Odd p, with o the order of ell mod p: p divides ell^d - 1 exactly
      when o divides d, and then v_p(ell^d - 1) = v_p(ell^o - 1) +
      v_p(d/o). v_p(ell^o - 1) is read off ell^o mod p^j, with j doubled
      until the residue is not 1, so no power of ell beyond p^j is built.
    The tests hold it against `pvaluation(ell**d - 1, p)`.
    """
    if p == 2:
        v = pvaluation(ell - 1, 2)
        return v if dim % 2 else v + pvaluation(ell + 1, 2) + pvaluation(dim, 2) - 1
    o = p - 1
    for q in factorize(p - 1):
        while o % q == 0 and pow(ell, o // q, p) == 1:
            o //= q
    if dim % o:
        return 0
    j = 1
    while (r := pow(ell, o, p**j) - 1) == 0:
        j *= 2
    return pvaluation(r, p) + pvaluation(dim // o, p)


def theta(ell: int, V: VirtualRep) -> VirtualRep:
    """Multiplicative Bott class: eigenvalue z of g on V contributes the
    factor 1 + z + ... + z^(ell-1) to the character at g. Its value at e
    is ell^dim(V), bounded by `MAX_ADAMS_BITS` before anything else. For
    V fixed point free with rational characters and ell prime to |G| it
    is 1 + ((ell^dim - 1)/|G|)*[regular] by the argument of
    `verify_adams_bott`, which needs no more of |G| than that, so nothing
    is convolved; any other V goes through `_theta_convolution`."""
    if ell < 1:
        raise ValueError("theta needs ell >= 1")
    if not V.is_honest():
        raise ValueError("theta is defined on honest representations")
    dim = V.dim()
    _check_adams_bits(ell, dim)
    G = V.group
    if gcd(ell, G.order) == 1 and is_fixed_point_free(V) and has_rational_characters(V):
        return VirtualRep.trivial(G) + _adams_multiplier(ell, dim, G.order) * VirtualRep.regular(G)
    return _theta_convolution(ell, V)


def _theta_convolution(ell: int, V: VirtualRep) -> VirtualRep:
    """theta^ell(V) for an honest V, factor by factor: over C_m a product
    of the classes of the lines. Over Dic_m, theta commutes with
    restriction, to <x> = C_2m and to <j> and <xj>, each a C_4 on which V
    has the lines of its eigenvalues; so theta's restriction r is that
    product and its values f(j), f(xj) are those at the generators of the
    C_4, sum_t c_t i^t. As in `CharacterTable.decompose`,
    a = (f(j) + f(xj))/2 and t0 b = (f(j) - f(xj))/2, and `_lift` gives
    the coefficients."""
    G = V.group
    if not V.is_cyclic_side():
        m = G.descriptor.m

        def over_cyclic(lines):
            C = build_group(GroupDescriptor.cyclic_of_order(len(lines)))
            return _theta_convolution(ell, VirtualRep(C, lines)).coeffs

        r = over_cyclic(_restrict(V.coeffs, m)[0])
        (j0, j1, j2, j3), (x0, x1, x2, x3) = [
            over_cyclic(eigenvalue_multiplicities(V, g)) for g in (2 * m, 2 * m + 1)]
        b = j1 - j3 - x1 + x3 if m % 2 else j0 - j2 - x0 + x2  # t0 = i or 1
        return VirtualRep(G, _lift(r, _half(j0 - j2 + x0 - x2), _half(b), m))
    # group equal multiplicities so high powers run on one base product
    by_count: dict[int, list[int]] = {}
    for a, c in enumerate(V.coeffs):
        if c:
            by_count.setdefault(c, []).append(a)
    out = VirtualRep.trivial(G)
    for c, exps in by_count.items():
        base = VirtualRep.trivial(G)
        for a in exps:
            base = base * VirtualRep(G, _power_counts(G.order, a, ell))
        out = out * base**c
    return out


@record
class AdamsBottReport:
    """theta^ell(V) - 1 = lambda * [regular], with (p, n) read off |G|, k
    off dim V (`bott_shape`), and the p-valuation of lambda compared
    against the expected k+1-n: matches says that lambda * p^(n-k-1) is a
    p-local unit. lambda itself is formed only when `lam` is read."""

    V: VirtualRep
    ell: int
    p: int
    n: int
    k: int
    valuation: int
    matches: bool

    @property
    def lam(self) -> int:
        """lambda = (ell^dim - 1)/|G|, formed on each read; ValueError past
        `MAX_ADAMS_BITS`, as for theta."""
        return _adams_multiplier(self.ell, self.V.dim(), self.V.group.order)


def _group_prime(G) -> tuple[int, int]:
    """(p, n) with |G| = p^n. A dicyclic group of prime-power order 4m is
    the quaternion group Q_4m, with p = 2."""
    pp = prime_power(G.order)
    if pp is None:
        raise ValueError(f"group order {G.order} is not a prime power")
    return pp


def bott_shape(dim: int, p: int) -> tuple[int, int]:
    """(k, c_V) with dim = p^k c_V (p-1) for odd p and 2^(k-1) c_V at
    p = 2, c_V prime to p; ValueError when dim < 1 or, at odd p, p - 1
    does not divide dim."""
    if dim < 1:
        raise ValueError("V must have positive dimension")
    if p == 2:
        k = pvaluation(dim, 2) + 1
        return k, dim >> (k - 1)
    k = pvaluation(dim, p)
    rest = dim // p**k
    if rest % (p - 1):
        raise ValueError(f"dimension {dim} is not p^k*c*(p-1) shaped at p={p}")
    return k, rest // (p - 1)


def _check_ell(ell) -> None:
    """ValueError unless ell is an integer >= 2, a rule certify shares."""
    if not isinstance(ell, int) or ell < 2:
        raise ValueError(f"ell = {ell} must be an integer >= 2")


def _check_p_local(X: VirtualGSet, p: int) -> None:
    """ValueError unless every denominator of X is prime to p, so that X
    lies in A(G)_(p), a rule certify shares. The scale of w in
    `repring._ideal_split` is then a unit at p."""
    if any(c.denominator % p == 0 for c in X.coeffs):
        raise ValueError(f"X has a denominator divisible by p = {p}, so it is not in A(G)_({p})")


def verify_adams_bott(V: VirtualRep, ell: int) -> AdamsBottReport:
    """Report the p-valuation of lambda, theta^ell(V) - 1 =
    lambda * [regular], without computing theta or lambda: it is
    v_p(ell^dim - 1) - n, read off `_adams_valuation`, and the report
    forms lambda only when its `lam` is read. (p, n) come from |G| and k
    from dim V; ell < 2 is refused first, as `certify_self_map` does.

    The identity holds for every V that passes the checks below (Adams'
    cannibalistic-class computation). An element g != e has order p^j > 1,
    and V fixed point free gives it no eigenvalue 1. Rational characters
    make the eigenvalues of g Galois stable: for each i >= 1 the primitive
    p^i-th roots of unity occur with one common multiplicity. ell prime to
    p permutes those roots, z -> z^ell, so
    theta(g) = prod (1 - z^ell)/(1 - z) = 1. At e every eigenvalue is 1 and
    theta(e) = ell^dim. The class function that is ell^dim - 1 at e and 0
    elsewhere is (ell^dim - 1)/|G| times the regular character. It is
    theta - 1, a virtual representation, so lambda, its multiplicity of the
    trivial representation, is an integer. The tests hold this closed form
    against `_theta_convolution`.
    """
    _check_ell(ell)
    G = V.group
    p, n = _group_prime(G)
    if gcd(ell, p) != 1:
        raise ValueError("ell must be prime to p")
    if not is_fixed_point_free(V):
        raise ValueError("V must be fixed point free")
    if not has_rational_characters(V):
        raise ValueError("V must have rational characters")
    dim = V.dim()
    k, _ = bott_shape(dim, p)
    v = _adams_valuation(p, ell, dim) - n
    return AdamsBottReport(V, ell, p, n, k, v, v == k + 1 - n)


def verify_bott_fixed_mod_X(V: VirtualRep, X: VirtualGSet, ell: int) -> bool:
    """Whether theta^ell(V) - 1 lies in the ideal generated by the
    permutation character w of X p-locally, over a cyclic p-group. V and
    ell must pass `verify_adams_bott` (ell prime to p among its checks),
    whose lambda * [regular] is theta^ell(V) - 1, so nothing is convolved.
    The difference then also kills the annihilator of w: RU(G)_(p) is
    commutative, so d = w*y gives d*a = y*(w*a) = 0 for every a with
    w*a = 0."""
    G = V.group
    if G.descriptor.kind != "cyclic":
        raise ValueError("the fixedness check runs over cyclic p-groups")
    if X.group is not G:
        raise ValueError("V and X live over different groups")
    report = verify_adams_bott(V, ell)
    _check_p_local(X, report.p)
    return _fixed_mod_X(report.valuation, X)


def _fixed_mod_X(v: int, X: VirtualGSet) -> bool:
    """Fixedness for certify step 2 and `verify_bott_fixed_mod_X` over a
    cyclic p-group, read off v = v_p(lambda), lambda of `verify_adams_bott`,
    for X whose denominators are prime to p (`_check_p_local`).

    The test is p-local membership of lambda * [regular] in the ideal (w)
    of RU(C_N)_(p) = Z_(p)[x]/(x^N - 1), N = p^n, w = linearize(X), which
    is membership of p^v * [regular]: lambda = p^v * u, and an ideal is
    closed under the unit u of Z_(p) and its inverse. The marks phi of X
    are read first: phi_0 = 0 answers no, h(1) prime to p answers yes, and
    only p | h(1) builds the split R = P + G'*Q, wR = G' * (h*Q mod F) of
    `_ideal_split`, F of degree k. It is a k x k question:
    - [regular] = (x^N - 1)/(x - 1), the product of the Phi_{p^i}, i >= 1.
    - If phi_0 = 0, w vanishes at x = 1 and so does all of wR, while
      p^v * [regular] takes p^v * N != 0 there: not fixed.
    - If phi_0 != 0, then x - 1 divides F, G' is a product of Phi_{p^i}
      with i >= 1, and [regular] = G' * T with T = F/(x - 1), the product
      of the Phi_{p^i} over S+ = {i >= 1 : phi_i != 0}, of degree k - 1,
      so T lies in Q. Both p^v * G' * T and every G' * (h*y mod F) have
      degree < N, and G' is monic, so they are equal exactly when
      p^v * T = h*y mod F. Hence fixed <=> p^v * T lies in the Z_(p)-span
      of the columns x^j h mod F, which `p_local_in_image` decides on the
      k x k matrix A. A full-support X, F = x^N - 1, makes A N x N.

    The span is all of Z_(p)^k when p does not divide det A, that is,
    when h is a unit of (Z/p)[x]/(F). Each Phi_{p^i} is (x - 1)^phi(p^i)
    modulo p, so that ring is local with residue map x -> 1, and h is a
    unit exactly when h(1) is prime to p. h(1) = den * phi_0 / G'(1) and
    G'(1) = p^(n - |S+|), so with den a unit at p the test is
    v_p(phi_0) = n - |S+|, and nothing is built. That covers X = [G/e] at
    any n and a full-support X whose marks are prime to p.

    Otherwise the modulus is p^(mu + n), mu = max_{i in S} v_p(phi_i). It
    kills the p-part of Q / hQ, Q = Z[x]/(F), so the span h*Q_(p) of the
    columns of A contains p^(mu + n) * Q_(p), as `p_local_in_image` needs.
    Evaluation at the roots of F embeds Q_(p) in the product of the
    Z_(p)[zeta_{p^i}], i in S, where h takes the value
    den * phi_i / G'(zeta_{p^i}), of valuation <= mu as G'(zeta) is
    integral; so p^mu * y / h is integral for y in Q_(p). The idempotents
    of Q[C_N] are 1/N times integer combinations of group elements (Galois
    orbit sums of characters), and their images in Q[x]/(F) split that
    product, so N = p^n times it lies in Q_(p), and p^(mu + n) * y = h * z
    with z in Q_(p).

    It has a closed form, which the tests hold against this function:
    - Evaluation at zeta_{p^i}, i = 0..n, embeds the ring in the product
      of the Z_(p)[zeta_{p^i}] (x^N - 1 is separable over Q).
    - w has i-th coordinate phi_i, the mark of X at the subgroup of order
      p^i; [regular] has coordinates (N, 0, ..., 0).
    - So w*y = p^v * [regular] asks for y(zeta_{p^i}) = 0 for i in
      S+ = {i >= 1 : phi_i != 0}, and phi_0 * y(1) = p^v * N.
    - y vanishes at those roots exactly when T, the monic product of the
      Phi_{p^i} over S+, divides y; then y(1) = T(1) z(1) = p^|S+| z(1),
      and z = constant reaches every value in p^|S+| Z_(p).
    - Hence fixed <=> phi_0 != 0 and v >= v_p(phi_0) + |S+| - n.
    """
    p, n = prime_power(X.group.order)
    phi = marks(X)
    if not phi[0]:
        return False
    if pvaluation(phi[0], p) == n - sum([1 for c in phi[1:] if c]):
        return True  # h(1) is prime to p
    mu = max([pvaluation(c, p) for c in phi if c])
    _, F, _, A = _ideal_split(X, phi)
    T = poly_div_exact(F, (-1, 1))
    return p_local_in_image(A, [p**v * c for c in T], p, p**(mu + n))
