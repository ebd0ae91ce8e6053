"""Existence certificates for v1 self maps of cofibers of virtual G-sets.

`certify_self_map` raises ValueError for a setting outside the theorem's
(see its docstring); every other outcome is a verdict. A candidate self
map of Sigma^V C(X) is certified in three steps after the parameters
(p, n, t, c_X, k, c_V) are derived and the numerical hypotheses checked:

  1. the restriction of the transfer class to the trivial group is an
     image-of-J element of order exactly p^t (im-J valuation bookkeeping);
  2. the Adams multiplier of theta^ell(V) supplies the divisibility that
     kills the transfer obstruction, and theta^ell(V) - 1 is fixed by
     multiplication with X p-locally;
  3. the Toda-bracket contribution vanishes, either identically or
     because its coefficient 2^(k-n) is even.

Nothing homotopy-theoretic is constructed; the certificate records the
exact arithmetic that the existence argument consumes.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .burnside import VirtualGSet, cardinality
from .exactmath import check_prime, euler_phi
from .groups import GroupModel
from .jtheory import (
    AdamsBottReport,
    _check_ell,
    _check_p_local,
    _fixed_mod_X,
    _group_prime,
    bott_shape,
    default_ell,
    imj_valuation,
    verify_adams_bott,
)
from .limits import SWEEP_LIMIT, check_rows
from .powerop import EtaClass, sq1_int
from .record import record
from .repring import VirtualRep, is_fixed_point_free, standard_rep

__all__ = [
    "SelfMapParameters",
    "HypothesisVerdict",
    "StepOne",
    "StepTwo",
    "StepThree",
    "Certificate",
    "EnumerationRow",
    "QuaternionRow",
    "standardize_rep",
    "check_hypotheses",
    "certify_self_map",
    "enumerate_5_1",
    "enumerate_quaternion",
]


@record
class SelfMapParameters:
    """p^t c_X is the virtual cardinality of X; the complex dimension of
    V is p^k c_V (p-1) for odd p and 2^(k-1) c_V at p = 2."""

    p: int
    n: int
    t: int
    c_x: Fraction
    k: int
    c_v: int
    ell: int

    def __post_init__(self):
        if min(self.n, self.t, self.k) < 0:
            raise ValueError("parameters n, t, k must be >= 0")
        cx = Fraction(self.c_x)
        if cx.numerator % self.p == 0 or cx.denominator % self.p == 0:
            raise ValueError("c_X must be a p-local unit")
        if self.c_v % self.p == 0:
            raise ValueError("c_V must be prime to p")
        object.__setattr__(self, "c_x", cx)


@record
class HypothesisVerdict:
    passed: bool
    clause: str


@record
class StepOne:
    """Order of the underlying image-of-J class: p^(k+1-t) times a
    generator of order p^(valuation) in degree 4s-1."""

    degree: int
    s: int
    valuation: int
    expected: int
    claimed_order: int
    transfer_exponent: int
    passed: bool
    detail: str


@record
class StepTwo:
    report: AdamsBottReport
    fixedness: bool | None
    passed: bool
    detail: str


@record
class StepThree:
    sq1: EtaClass | None
    nonzero: bool
    coefficient_exponent: int | None
    passed: bool
    detail: str


@record
class Certificate:
    group: GroupModel
    X: VirtualGSet
    V: VirtualRep
    ell: int | None
    multiplicity: int | None
    parameters: SelfMapParameters | None
    hypothesis: HypothesisVerdict | None
    step1: StepOne | None
    step2: StepTwo | None
    step3: StepThree | None
    verdict: str  # "certified" | "hypothesis-failed" | "step-failed"
    warnings: tuple


def _setting(G: GroupModel, X: VirtualGSet, V: VirtualRep, ell: int | None) -> tuple[int, int, int]:
    """The front door of `certify_self_map`: (p, n, ell) for a setting the
    theorem covers, with ell defaulted; ValueError for any other."""
    p, n = _group_prime(G)
    for name, side in (("X", X), ("V", V)):
        if side.group is not G:
            raise ValueError(f"{name} lives over {side.group.descriptor.name}, not {G.descriptor.name}")
    _check_p_local(X, p)
    if ell is None:
        return p, n, default_ell(p)
    _check_ell(ell)
    if gcd(ell, p) != 1:
        raise ValueError(f"ell = {ell} is not prime to p = {p}")
    return p, n, ell


def _standard_dim(G: GroupModel) -> int:
    """dim W = phi(m) over C_m and dim H = phi(2m) over Dic_m."""
    if G.descriptor.kind == "cyclic":
        return euler_phi(G.order)
    return euler_phi(2 * G.descriptor.m)


def standardize_rep(V: VirtualRep) -> int:
    """Multiplicity of the standard fixed point free representation
    (W for cyclic groups, H for quaternion) that V matches p-locally."""
    if not V.is_honest():
        raise ValueError("standardization applies to honest representations")
    if not is_fixed_point_free(V):
        raise ValueError("V is not fixed point free")
    phi = _standard_dim(V.group)
    dim = V.dim()
    if dim % phi:
        raise ValueError(f"dimension {dim} is not a multiple of {phi}")
    return dim // phi


def _parameters(p: int, n: int, X: VirtualGSet, dim: int, ell: int) -> SelfMapParameters:
    """Read t, c_X off the virtual cardinality of X and k, c_V off dim V."""
    card = cardinality(X, p)
    k, c_v = bott_shape(dim, p)
    return SelfMapParameters(p, n, card.t, card.c, k, c_v, ell)


def check_hypotheses(params: SelfMapParameters) -> HypothesisVerdict:
    """k >= 3 gate at p = 2, then either k+1 >= n+t or the k > n escape
    reserved for (p, t) = (2, 1).

    The escape is implied by the main clause, over C_{2^n} and Q_{2^n}
    alike: with t = 1, k > n gives k + 1 >= n + 2 > n + t. So it decides
    no verdict; it only names the clause that passed.

    Over C_{p^n} a passed hypothesis implies step 2's X-fixedness. By the
    lifting-the-exponent lemma, which `jtheory._adams_valuation` puts into
    code, v_p(lambda) >= k + 1 - n, lambda =
    (ell^dim - 1)/p^n: for odd p the order of ell mod p divides p - 1,
    which divides dim, so v_p(ell^dim - 1) >= 1 + v_p(dim) = 1 + k; for
    p = 2, k >= 3 makes dim even, and v_2(ell^dim - 1) = v_2(ell - 1) +
    v_2(ell + 1) + v_2(dim) - 1 >= 3 + (k - 1) - 1. The mark of X at e is
    |X| = p^t c_X != 0, and S+ = {i >= 1 : the mark at C_{p^i} is nonzero}
    has |S+| <= n, so the closed form of `jtheory._fixed_mod_X`, which
    reads v = v_p(lambda) alone, v >= t + |S+| - n, holds: k + 1 >= n + t
    gives v >= k + 1 - n >= t, and the escape k > n gives
    v >= 2 > 1 + |S+| - n.
    """
    p, n, t, k = params.p, params.n, params.t, params.k
    if p == 2 and k < 3:
        return HypothesisVerdict(False, f"p = 2 requires k >= 3, got k = {k}")
    if (p, t) == (2, 1) and k > n:
        return HypothesisVerdict(True, f"k = {k} > n = {n} with (p, t) = (2, 1)")
    if k + 1 >= n + t:
        return HypothesisVerdict(True, f"k+1 = {k + 1} >= n+t = {n + t}")
    return HypothesisVerdict(
        False, f"k+1 = {k + 1} < n+t = {n + t} and the (p, t) = (2, 1) escape is off"
    )


def _run_step1(params: SelfMapParameters, dim: int) -> StepOne:
    p, t, k = params.p, params.t, params.k
    degree = 2 * dim - 1
    if dim % 2:
        return StepOne(
            degree, 0, -1, k + 1, p**t, k + 1 - params.n - t, False,
            f"degree {degree} is not 4s-1; no image-of-J order to cite",
        )
    s = dim // 2
    v = imj_valuation(s, p).valuation
    ok = v == k + 1 and k + 1 - t >= 0
    if k + 1 - t >= 0:
        order = max(0, v - (k + 1 - t))
        detail = (
            f"generator order p^{v} in degree {degree}; "
            f"p^{k + 1 - t} * j has order p^{order}"
        )
    else:
        detail = f"negative power p^{k + 1 - t} of the generator"
    return StepOne(degree, s, v, k + 1, p**t, k + 1 - params.n - t, ok, detail)


def _run_step2(
    G: GroupModel,
    X: VirtualGSet,
    V_std: VirtualRep,
    params: SelfMapParameters,
    warnings: list,
) -> StepTwo:
    n, k, ell = params.n, params.k, params.ell
    report = verify_adams_bott(V_std, ell)
    if not report.matches:
        warnings.append(
            f"Adams multiplier valuation {report.valuation} differs from the "
            f"expected {k + 1 - n} at ell = {ell}"
        )
    divisible = report.valuation <= k + 1 - n
    if G.descriptor.kind == "cyclic":
        fixedness = _fixed_mod_X(report.valuation, X)
        detail = "theta - 1 generates enough divisibility and is X-fixed p-locally"
        passed = divisible and fixedness
        if not fixedness:
            detail = "theta - 1 is not in the X-multiple ideal p-locally"
    else:
        fixedness = None
        detail = "X-fixedness check runs over cyclic groups only; skipped"
        passed = divisible
    if not divisible:
        detail = (
            f"multiplier valuation {report.valuation} exceeds k+1-n = {k + 1 - n}; "
            "the required power of p is not in the image"
        )
    return StepTwo(report, fixedness, passed, detail)


def _run_step3(params: SelfMapParameters, warnings: list) -> StepThree:
    p, n, t, k = params.p, params.n, params.t, params.k
    # |X| = p^t c_X is an integer exactly when c_X is, and Sq1 reads it mod 4
    c = params.c_x
    sq1 = sq1_int(c.numerator * pow(p, t, 4)) if c.denominator == 1 else None
    if p == 2 and t == 0 and c.denominator == 1 and c.numerator % 4 == 3 and k + 1 == n:
        warnings.append(
            "parameter region p = 2, t = 0, c = 3 mod 4, k+1 = n: the Sq1 class "
            "of the cardinality is eta while the bracket table reports 0"
        )
    if (p, t) == (2, 1):
        passed = k > n
        detail = (
            f"bracket contribution 2^{k - n} * tr(eta * j); "
            + ("even coefficient kills it" if passed else "odd coefficient survives")
        )
        return StepThree(sq1, True, k - n, passed, detail)
    return StepThree(sq1, False, None, True, "bracket contribution is 0")


def certify_self_map(
    G: GroupModel, X: VirtualGSet, V: VirtualRep, ell: int | None = None
) -> Certificate:
    """Assemble the full certificate. ValueError when G is not a cyclic
    p-group or a generalized quaternion group, X or V lives over another
    group, X has a denominator divisible by p (X must lie in A(G)_(p)),
    or ell is not an integer >= 2 prime to p. Every other failure is a
    verdict, e.g. "step-failed" for a V that is not fixed point free or an
    X of cardinality zero, with the reason in the warnings. Step 2 reads
    v_p(lambda) and never forms ell^dim, so a verdict comes at any dim(V);
    reading `step2.report.lam` forms lambda, within
    `vone.limits.MAX_ADAMS_BITS`."""
    p, n, adams_ell = _setting(G, X, V, ell)
    warnings: list = []
    try:
        mult = standardize_rep(V)
        dim = mult * _standard_dim(G)  # dim V, summed once, in standardize_rep
        params = _parameters(p, n, X, dim, adams_ell)
    except (ValueError, ArithmeticError) as exc:
        return Certificate(
            G, X, V, ell, None, None, None, None, None, None,
            "step-failed", (str(exc),),
        )
    hyp = check_hypotheses(params)
    if G.descriptor.kind == "cyclic":
        V_std = mult * standard_rep(G, "W")
    else:
        V_std = mult * standard_rep(G, "H")
    step1 = _run_step1(params, dim)
    step2 = _run_step2(G, X, V_std, params, warnings)
    step3 = _run_step3(params, warnings)
    if not hyp.passed:
        verdict = "hypothesis-failed"
    elif step1.passed and step2.passed and step3.passed:
        verdict = "certified"
        assert step1.transfer_exponent >= 0
    else:
        verdict = "step-failed"
    return Certificate(
        G, X, V, params.ell, mult, params, hyp, step1, step2, step3,
        verdict, tuple(warnings),
    )


@record
class EnumerationRow:
    """One (s, i, d) cell: X = p^s [G/C_{p^i}] against the p^d-th Bott
    power, judged by both the direct inequality and the derived
    parameters."""

    s: int
    i: int
    d: int
    t: int
    k: int
    verdict: bool
    thm1: bool
    thm511: bool
    consistent: bool


def enumerate_5_1(
    p: int, n: int, mode: str = "thm1", s_max: int = 3, d_max: int = 4
) -> tuple[EnumerationRow, ...]:
    """Sweep s, i, d; the mode picks which verdict column is primary."""
    if mode not in ("thm1", "thm511"):
        raise ValueError(f"unknown mode {mode!r}")
    check_prime(p)
    if n < 1:
        raise ValueError("n must be >= 1")
    if s_max < 0 or d_max < 0:
        raise ValueError("s_max and d_max must be >= 0")
    if max(s_max, d_max) > SWEEP_LIMIT:
        raise ValueError(f"s_max and d_max must be <= {SWEEP_LIMIT}")
    check_rows((s_max + 1) * (n + 1) * (d_max + 1))
    ell = default_ell(p)
    rows = []
    for s in range(s_max + 1):
        for i in range(n + 1):
            for d in range(d_max + 1):
                t = s + n - i
                k = d + n if p == 2 else d + n - 1
                if p == 2:
                    direct = d >= max(1, 3 - n, s + n - i - 1)
                else:
                    direct = d >= s + n - i - 1
                params = SelfMapParameters(p, n, t, Fraction(1), k, 1, ell)
                derived = check_hypotheses(params).passed
                verdict = derived if mode == "thm1" else direct
                rows.append(
                    EnumerationRow(
                        s, i, d, t, k, verdict, derived, direct, derived == direct
                    )
                )
    return tuple(rows)


@record
class QuaternionRow:
    """Cardinality class 2^t c: the 2^max(2,t)-th multiple of the
    faithful 2-dimensional family is the certified suspension."""

    t: int
    exponent: int
    multiplicity: int
    parameters: SelfMapParameters
    hypothesis: HypothesisVerdict


def enumerate_quaternion(n: int, t_max: int = 6) -> tuple[QuaternionRow, ...]:
    """Quaternion sweep: for each t the exponent max(2, t) and the
    derived parameters with verdicts."""
    if n < 3:
        raise ValueError("quaternion groups need n >= 3")
    if t_max < 0:
        raise ValueError("t_max must be >= 0")
    if t_max > SWEEP_LIMIT:
        raise ValueError(f"t_max must be <= {SWEEP_LIMIT}")
    ell = default_ell(2)
    rows = []
    for t in range(t_max + 1):
        e = max(2, t)
        # dim of 2^e * Ind(H) = 2^e * 2^(n-2), so k = e + n - 1
        k = e + n - 1
        params = SelfMapParameters(2, n, t, Fraction(1), k, 1, ell)
        rows.append(QuaternionRow(t, e, 2**e, params, check_hypotheses(params)))
    return tuple(rows)
