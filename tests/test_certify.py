import importlib.util
import json
import random
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from vone.burnside import VirtualGSet, bmul, orbit
from vone.certify import (
    SelfMapParameters,
    _parameters,
    certify_self_map,
    check_hypotheses,
    enumerate_5_1,
    enumerate_quaternion,
    standardize_rep,
)
from vone.cli import ParseError, parse_gset, parse_rep
from vone.exactmath import euler_phi, prime_power, pvaluation
from vone.groups import GroupDescriptor, build_group
from vone.jtheory import _group_prime, default_ell, verify_bott_fixed_mod_X
from vone.limits import MAX_PRIME
from vone.repring import VirtualRep, standard_rep

ROOT = Path(__file__).resolve().parents[1]


def cyc(m):
    return build_group(GroupDescriptor.cyclic_of_order(m))


def quat(order):
    return build_group(GroupDescriptor.quaternion(order))


def test_standardize_rep():
    c4 = cyc(4)
    L = standard_rep(c4, "L")
    assert standardize_rep(L + L**3) == 1
    assert standardize_rep(2 * L) == 1
    assert standardize_rep(4 * standard_rep(c4, "W")) == 4
    with pytest.raises(ValueError):
        standardize_rep(L + L**2)  # L^2 has kernel C2
    with pytest.raises(ValueError):
        standardize_rep(3 * L)  # dim 3 is not a multiple of phi(4)
    with pytest.raises(ValueError):
        standardize_rep(L - VirtualRep.trivial(c4))
    q8 = quat(8)
    assert standardize_rep(4 * standard_rep(q8, "H")) == 4


def test_derive_parameters_examples():
    c2 = cyc(2)
    par = _parameters(2, 1, orbit(c2, 0), (4 * standard_rep(c2, "L")).dim(), default_ell(2))
    assert (par.p, par.n, par.t, par.c_x, par.k, par.c_v) == (2, 1, 1, 1, 3, 1)

    c3 = cyc(3)
    par = _parameters(3, 1, orbit(c3, 0), standard_rep(c3, "W").dim(), default_ell(3))
    assert (par.n, par.t, par.k, par.c_v) == (1, 1, 0, 1)

    c4 = cyc(4)
    par = _parameters(2, 2, orbit(c4, "C2"), (2 * standard_rep(c4, "W")).dim(), default_ell(2))
    assert (par.k, par.c_v) == (3, 1)


def test_derive_parameters_errors():
    c3 = cyc(3)
    with pytest.raises(ValueError):
        _parameters(3, 1, VirtualGSet.zero(c3), standard_rep(c3, "W").dim(), default_ell(3))
    with pytest.raises(ValueError):
        # dim 3 over C3 is not p^k * c * (p-1)
        _parameters(3, 1, orbit(c3, 0), (3 * standard_rep(c3, "L")).dim(), default_ell(3))
    with pytest.raises(ValueError):
        _group_prime(cyc(6))


def test_parameter_invariants():
    with pytest.raises(ValueError):
        SelfMapParameters(3, 1, 1, Fraction(3), 1, 1, 2)
    with pytest.raises(ValueError):
        SelfMapParameters(3, 1, 1, Fraction(1), 1, 3, 2)
    with pytest.raises(ValueError):
        SelfMapParameters(3, 1, -1, Fraction(1), 1, 1, 2)
    par = SelfMapParameters(3, 1, 1, Fraction(2), 1, 1, 2)
    assert par.c_x == 2


def test_check_hypotheses_examples():
    v = check_hypotheses(SelfMapParameters(2, 1, 1, Fraction(1), 3, 1, 3))
    assert v.passed and "k = 3 > n = 1" in v.clause
    v = check_hypotheses(SelfMapParameters(2, 1, 4, Fraction(1), 3, 1, 3))
    assert not v.passed
    v = check_hypotheses(SelfMapParameters(3, 1, 1, Fraction(1), 1, 1, 2))
    assert v.passed and "k+1" in v.clause
    v = check_hypotheses(SelfMapParameters(2, 2, 0, Fraction(1), 2, 1, 3))
    assert not v.passed and "k >= 3" in v.clause


def test_check_hypotheses_monotone_in_k():
    for p in (2, 3):
        for n in range(1, 4):
            for t in range(5):
                prev = False
                for k in range(8):
                    cur = check_hypotheses(
                        SelfMapParameters(p, n, t, Fraction(1), k, 1, 3)
                    ).passed
                    assert cur or not prev, (p, n, t, k)
                    prev = cur


def _hypothesis_cases(rng):
    """(stratum, G, X, ell, c) over every C_{p^n} <= 256. X is random,
    p-local, of cardinality zero, or has every mark nonzero; c = p^e u with
    u prime to p and e chosen so that k lies on both sides of the
    hypothesis (k = e + n - 1 for odd p, e + n for p = 2, against
    k + 1 >= n + t); ell is default_ell(p) and two other units. Above order
    64 the random and p-local X have no mark at the two largest subgroups
    (at G alone over C_p) and no full-support X is drawn: step 2 eliminates
    over deg F, which is |G| for a full support, and a C128 certificate
    takes 0.2 s. Cases with ell^dim over 2^16 bits are left out, which
    drops the larger e over the large primes."""
    for N in range(2, 257):
        pp = prime_power(N)
        if pp is None:
            continue
        p, n = pp
        G = cyc(N)
        top = n + 1 if N <= 64 else max(1, n - 1)
        units = [u for u in (1, 2, 3, 5, 7) if u % p]
        xs = [
            ("random", VirtualGSet(G, [rng.randint(-3, 3) for _ in range(top)]
                                   + [0] * (n + 1 - top))),
            ("p-local", VirtualGSet(G, [Fraction(rng.randint(-3, 3), rng.choice(units))
                                        for _ in range(top)] + [0] * (n + 1 - top), p)),
            ("zero", p * orbit(G, 1) - orbit(G, 0)),
        ]
        if N <= 64:
            xs.append(("full", VirtualGSet(G, [rng.randint(1, 3) for _ in range(n + 1)])))
        others = [ell for ell in range(2, 40) if ell % p and ell != default_ell(p)]
        ells = [default_ell(p), *rng.sample(others, 2)]
        for stratum, X in xs:
            card = sum(c * p ** (n - i) for i, c in enumerate(X.coeffs))
            t = pvaluation(Fraction(card), p) if card else 0
            edge = t - 1 if p == 2 else t  # the least e that passes k + 1 >= n + t
            for e in sorted({max(0, e) for e in (edge - 1, edge, edge + 1)}):
                for ell in ells:
                    c = p**e * rng.choice(units)
                    if c * euler_phi(N) * ell.bit_length() <= 2**16:
                        yield stratum, G, X, ell, c


def test_hypothesis_implies_step_2_fixedness():
    """A certificate over C_{p^n} that passes the hypothesis has
    v_p(lambda) >= k + 1 - n and an X-fixed theta - 1, so step 2's
    fixedness never decides a verdict (the proof is in `check_hypotheses`).
    Both sides of the hypothesis occur in every stratum."""
    seen = Counter()
    for stratum, G, X, ell, c in _hypothesis_cases(random.Random(2600)):
        cert = certify_self_map(G, X, c * standard_rep(G, "W"), ell)
        if cert.hypothesis is None:  # |X| = 0 leaves no p^t c_X
            assert cert.verdict == "step-failed" and "cardinality is zero" in cert.warnings[0]
            seen[stratum, None] += 1
            continue
        assert stratum != "zero"
        par, step2 = cert.parameters, cert.step2
        if cert.hypothesis.passed:
            label = (G.descriptor.name, stratum, X.coeffs, ell, c)
            assert step2.fixedness is True, label
            assert pvaluation(step2.report.lam, par.p) >= par.k + 1 - par.n, label
        seen[stratum, cert.hypothesis.passed] += 1
    strata = {(s, b) for s in ("random", "p-local", "full") for b in (True, False)}
    assert strata | {("zero", None)} <= set(seen), seen


def test_certify_main_example():
    c2 = cyc(2)
    h = orbit(c2, 0)
    cert = certify_self_map(c2, h, 4 * standard_rep(c2, "L"))
    assert cert.verdict == "certified"
    assert cert.ell == 3 and cert.multiplicity == 4
    assert cert.step1.passed and cert.step1.valuation == 4
    assert cert.step1.transfer_exponent == 2
    assert cert.step2.report.lam == 40 and cert.step2.fixedness
    assert cert.step3.nonzero and cert.step3.coefficient_exponent == 2
    assert not cert.warnings


def test_certify_fourth_power_fails_hypotheses():
    c2 = cyc(2)
    h = orbit(c2, 0)
    h4 = bmul(bmul(h, h), bmul(h, h))
    assert h4.coeffs == (8, 0)
    cert = certify_self_map(c2, h4, 4 * standard_rep(c2, "L"))
    assert cert.verdict == "hypothesis-failed"
    assert cert.parameters.t == 4


def test_certify_free_orbit_family():
    for p, n, s in ((3, 1, 1), (3, 2, 1), (2, 2, 1), (2, 1, 2), (5, 1, 2)):
        g = cyc(p**n)
        cert = certify_self_map(g, orbit(g, 0), p**n * s * standard_rep(g, "W"))
        assert cert.verdict == "certified", (p, n, s)
        assert cert.step1.transfer_exponent >= 0
        assert cert.step2.report.valuation == cert.parameters.k + 1 - n


def test_certify_c2_odd_multiple_fails():
    # 2sL with s odd has k = 2 < 3
    c2 = cyc(2)
    cert = certify_self_map(c2, orbit(c2, 0), 2 * standard_rep(c2, "L"))
    assert cert.verdict == "hypothesis-failed"


def test_certify_quaternion_examples():
    q8 = quat(8)
    H = standard_rep(q8, "H")
    cert = certify_self_map(q8, orbit(q8, "C4a"), 4 * H)
    assert cert.verdict == "certified"
    assert cert.step2.report.lam == 820
    assert cert.step2.fixedness is None
    assert certify_self_map(q8, orbit(q8, 0), 8 * H).verdict == "certified"
    assert certify_self_map(q8, orbit(q8, "C2"), 4 * H).verdict == "certified"


def test_certify_quaternion_bracket_obstruction():
    # 2H has k = n = 3; the (p,t) = (2,1) bracket survives
    q8 = quat(8)
    cert = certify_self_map(q8, orbit(q8, "C4a"), 2 * standard_rep(q8, "H"))
    assert cert.hypothesis.passed
    assert not cert.step3.passed
    assert cert.verdict == "step-failed"


def test_certify_nonstandard_ell():
    c2 = cyc(2)
    h = orbit(c2, 0)
    V = 4 * standard_rep(c2, "L")
    cert = certify_self_map(c2, h, V, ell=5)
    assert cert.verdict == "certified" and not cert.warnings
    # 7^4 - 1 = 2400 has an extra factor of 2; flagged, not reinterpreted
    cert = certify_self_map(c2, h, V, ell=7)
    assert cert.verdict == "step-failed"
    assert cert.step2.report.valuation == 4
    assert any("valuation" in w for w in cert.warnings)


def test_certify_structured_input_failures():
    c4 = cyc(4)
    L = standard_rep(c4, "L")
    cert = certify_self_map(c4, orbit(c4, 0), L + L**2)
    assert cert.verdict == "step-failed"
    assert cert.parameters is None and cert.warnings
    cert = certify_self_map(c4, VirtualGSet.zero(c4), 2 * standard_rep(c4, "W"))
    assert cert.verdict == "step-failed"


def test_certify_warning_region():
    # p = 2, t = 0, c = 3 mod 4, k+1 = n: flagged; hypothesis fails anyway
    q8 = quat(8)
    X = 3 * orbit(q8, "Q8")
    cert = certify_self_map(q8, X, standard_rep(q8, "H"))
    assert cert.parameters.k + 1 == cert.parameters.n
    assert any("eta" in w for w in cert.warnings)
    assert cert.verdict == "hypothesis-failed"


def test_certify_depends_only_on_cardinality_class():
    rng = random.Random(31)
    g = cyc(8)
    classes = g.subgroup_classes()
    # [C8/C4] - 2[C8/C8] has virtual cardinality zero
    null = orbit(g, "C4") - 2 * orbit(g, "C8")
    V = 4 * standard_rep(g, "W")
    for _ in range(20):
        X = VirtualGSet(g, [rng.randrange(-2, 3) for _ in classes])
        try:
            base = _parameters(2, 3, X, V.dim(), default_ell(2))
        except ValueError:
            continue
        shifted = _parameters(2, 3, X + rng.randrange(1, 4) * null, V.dim(), default_ell(2))
        assert (base.t, base.c_x) == (shifted.t, shifted.c_x)
        assert check_hypotheses(base) == check_hypotheses(shifted)


def test_enumerate_modes_and_c8_examples():
    rows = {(r.s, r.i, r.d): r for r in enumerate_5_1(2, 3)}
    for cell in ((0, 2, 1), (0, 1, 1), (0, 0, 2)):
        assert rows[cell].thm1 and rows[cell].thm511 and rows[cell].consistent
    direct = {(r.s, r.i, r.d): r for r in enumerate_5_1(2, 3, mode="thm511")}
    for key, row in rows.items():
        assert direct[key].verdict == row.thm511
        assert row.verdict == row.thm1
    with pytest.raises(ValueError):
        enumerate_5_1(2, 3, mode="thm2")


def test_enumerate_odd_p_inconsistency_flag():
    rows = {(r.s, r.i, r.d): r for r in enumerate_5_1(3, 1)}
    r = rows[(1, 0, 1)]
    assert r.thm511 and not r.thm1 and not r.consistent
    # the disagreement is exactly the one-off band n + t = k + 2
    for row in rows.values():
        if not row.consistent:
            assert row.thm511 and not row.thm1
            assert 1 + row.t == row.k + 2


def test_enumerate_minimal_power_pattern():
    # p = 2, n = 1, X = h^j (s = j-1, i = 0): least passing k is max(3, j)
    rows = enumerate_5_1(2, 1, s_max=5, d_max=6)
    for j in range(1, 7):
        ks = [r.k for r in rows if (r.s, r.i) == (j - 1, 0) and r.thm1]
        assert min(ks) == max(3, j), j


def test_enumerate_quaternion_rows():
    rows = {r.t: r for r in enumerate_quaternion(3, 6)}
    # 2^d [Q8]: t = d + 3, multiplier 2^(d+3)
    for d in range(3):
        assert rows[d + 3].multiplicity == 2 ** (d + 3)
    # [Q8/<i>]: t = 1, multiplier 4
    assert rows[1].multiplicity == 4
    # 2^d [Q8/C2]: t = d + 2
    for d in range(3):
        assert rows[d + 2].multiplicity == 2 ** max(2, d + 2)
    assert all(r.hypothesis.passed for r in rows.values())
    assert all(r.parameters.k == max(2, r.t) + 2 for r in rows.values())
    with pytest.raises(ValueError):
        enumerate_quaternion(2)


def test_certified_matches_quaternion_table():
    q8 = quat(8)
    H = standard_rep(q8, "H")
    rows = {r.t: r for r in enumerate_quaternion(3, 4)}
    for X, t in ((orbit(q8, 0), 3), (orbit(q8, "C2"), 2), (orbit(q8, "C4b"), 1)):
        mult = rows[t].multiplicity
        cert = certify_self_map(q8, X, mult * H)
        assert cert.verdict == "certified", t


def test_quaternion_certificate_past_the_order_bound_reads_no_table(monkeypatch):
    """Over Q2048 with V = 8H the fixed point and rationality checks read
    the class values off the restriction to <x>; building the 515 x 515
    cyclotomic table for them took 35.8 s. The closed forms: |G| = 2^11
    gives n = 11, dim V = 8 phi(1024) = 2^12 gives k = 13 and c_V = 1, and
    lambda = (3^4096 - 1)/2^11 has valuation 2 + 12 - 11 = 3 = k + 1 - n."""
    import vone.groups as groups

    monkeypatch.setattr(groups, "DEFAULT_ORDER_BOUND", 2**11)
    g = groups.GroupModel(GroupDescriptor.quaternion(2**11))
    V = 8 * standard_rep(g, "H")
    for label, t, verdict in ((0, 11, "hypothesis-failed"), ("Q2048", 0, "certified")):
        start = time.perf_counter()
        cert = certify_self_map(g, orbit(g, label), V)
        took = time.perf_counter() - start
        assert cert.verdict == verdict, label
        assert cert.parameters == SelfMapParameters(2, 11, t, 1, 13, 1, 3)
        assert cert.multiplicity == 8
        assert cert.step2.report.valuation == 3 and cert.step2.passed
        assert took < 3.0, f"the certificate over Q2048 took {took:.2f} s"


def test_warm_c_2_16_certificate_reads_v_at_c_speed(monkeypatch):
    """Over C_{2^16} with X = [G/e] + [G/G] and V = 8W, the facts read off
    the 65,536 coefficients of V (honest, fixed point free, rational, dim)
    are slice passes; as coefficient loops they took about 60 ms of a
    warm certificate on a 2-vCPU VM. |X| = 2^16 + 1 gives t = 0, dim V = 2^18 gives
    k = 19, and v_2(3^(2^18) - 1) - 16 = 4 = k + 1 - n."""
    import vone.groups as groups

    monkeypatch.setattr(groups, "DEFAULT_ORDER_BOUND", 2**16)
    g = groups.GroupModel(GroupDescriptor.cyclic(2, 16))
    X = orbit(g, "e") + orbit(g, f"C{2**16}")
    V = 8 * standard_rep(g, "W")
    cert = certify_self_map(g, X, V)  # warm: the group's tables
    times = []
    for _ in range(3):
        start = time.perf_counter()
        cert = certify_self_map(g, X, V)
        times.append(time.perf_counter() - start)
    assert cert.verdict == "certified"
    assert cert.parameters == SelfMapParameters(2, 16, 0, 2**16 + 1, 19, 1, 3)
    assert cert.multiplicity == 8 and cert.step2.report.valuation == 4
    assert min(times) < 0.04, f"the certificate over C_2^16 took {min(times) * 1000:.1f} ms"


def test_certify_rejects_a_setting_outside_the_theorem():
    """The setting is checked before any step runs and a bad one raises.
    Q8 with X over C4 used to come out certified, and the others as
    step-failed verdicts."""
    c1, c4, c8, q8 = cyc(1), cyc(4), cyc(8), quat(8)
    X, V = orbit(c4, 0), 8 * standard_rep(c4, "W")
    with pytest.raises(ValueError, match="^group order 1 is not a prime power$"):
        certify_self_map(c1, orbit(c1, 0), VirtualRep.trivial(c1))
    with pytest.raises(ValueError, match="^ell = 2 is not prime to p = 2$"):
        certify_self_map(c4, X, V, ell=2)
    for ell in (-3, 0, 1):
        with pytest.raises(ValueError, match=f"^ell = {ell} must be an integer >= 2$"):
            certify_self_map(c4, X, V, ell=ell)
    with pytest.raises(ValueError, match="^X lives over C4, not Q8$"):
        certify_self_map(q8, X, 4 * standard_rep(q8, "H"))
    with pytest.raises(ValueError, match="^V lives over C8, not C4$"):
        certify_self_map(c4, X, 4 * standard_rep(c8, "W"))
    assert certify_self_map(c4, X, V, ell=5).verdict == "certified"


def test_certify_rejects_an_x_with_a_denominator_divisible_by_p():
    """X must lie in A(G)_(p): a denominator prime to p is a unit at p,
    whatever prime flags X. (1/2)[C8/e], flagged 3-local, used to come out
    certified with t = 2 and c_X = 1, and (1/2)[C8/C8], flagged 5-local,
    step-failed on "parameters n, t, k must be >= 0"; `certify_self_map`
    and `verify_bott_fixed_mod_X` share the one rule."""
    c8 = cyc(8)
    W = standard_rep(c8, "W")
    message = r"^X has a denominator divisible by p = 2, so it is not in A\(G\)_\(2\)$"
    bad = (VirtualGSet(c8, [Fraction(1, 2), 0, 0, 0], 3),
           VirtualGSet(c8, [0, 0, 0, Fraction(1, 2)], 5))
    for X in bad:
        for c in (2, 4, 8):
            with pytest.raises(ValueError, match=message):
                certify_self_map(c8, X, c * W)
            with pytest.raises(ValueError, match=message):
                verify_bott_fixed_mod_X(c * W, X, 3)
    # denominators prime to p serve, under either flag
    for X in (VirtualGSet(c8, [Fraction(1, 5), 0, 0, 0], 3),
              VirtualGSet(c8, [Fraction(1, 3), 1, 0, 0], 2)):
        assert certify_self_map(c8, X, 8 * W).verdict == "certified"
        assert verify_bott_fixed_mod_X(8 * W, X, 3)


def test_enumerate_5_1_needs_a_prime():
    for p in (4, 6, 1):
        with pytest.raises(ValueError, match="^p must be a prime$"):
            enumerate_5_1(p, 1)
    # a bound on p, checked before any trial division
    start = time.perf_counter()
    with pytest.raises(ValueError, match=f"exceeds the limit {MAX_PRIME}"):
        enumerate_5_1(10**14 + 31, 1)
    assert time.perf_counter() - start < 0.1


def _corpus_certificates():
    """(G, X, V, ell) of every golden certify request that parses, and of
    the perfbench certify-cyclic and certify-quaternion corpora, seeds 1-5."""
    for case in json.loads((ROOT / "tests" / "golden" / "cases.json").read_text()):
        argv = case["argv"]
        if argv[0] != "certify" or "--rep" not in argv:
            continue
        opts = dict(zip(argv[1::2], argv[2::2]))
        try:
            G = build_group(GroupDescriptor.parse(opts["--group"]))
            X, V = parse_gset(opts["--gset"], G), parse_rep(opts["--rep"], G)
        except (ParseError, ValueError):
            continue
        ell = int(opts["--ell"]) if "--ell" in opts else None
        yield case["name"], G, X, V, ell
    spec = importlib.util.spec_from_file_location("corpus", ROOT / "perfbench" / "corpus.py")
    corpus = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(corpus)
    for workload in ("certify-cyclic", "certify-quaternion"):
        for seed in range(1, 6):
            for item in corpus.generate(workload, seed):
                name = item["group"]
                G = build_group(GroupDescriptor.parse(name))
                X = VirtualGSet(G, corpus.coeff_vector(name, item["X"]))
                V = item["c"] * standard_rep(G, "W" if name[0] == "C" else "H")
                yield f"{workload}:{seed}", G, X, V, None


def test_adams_bott_report_matches_the_certificate_parameters():
    """verify_adams_bott derives (p, n, k) itself; on every certificate it
    agrees with the parameters, and lambda, its valuation and `matches`
    are their formulas."""
    checked = 0
    for label, G, X, V, ell in _corpus_certificates():
        try:
            cert = certify_self_map(G, X, V, ell)
        except ValueError:
            continue
        if cert.step2 is None:
            continue
        par, r = cert.parameters, cert.step2.report
        assert (r.p, r.n, r.k, r.ell) == (par.p, par.n, par.k, par.ell), label
        assert r.lam == (par.ell ** V.dim() - 1) // G.order, label
        assert r.valuation == pvaluation(r.lam, par.p), label
        assert r.matches == (r.valuation == par.k + 1 - par.n), label
        checked += 1
    assert checked > 500


def test_step_2_of_a_full_support_c512_certificate_stays_small():
    """Step 2 reads v = v_p(lambda), not lambda, which has 830,968 bits at
    V = 2048*W: multiplied into every coefficient of the 512 x 512
    question, lambda took the peak to 58.3 MiB of Python allocations, and
    p^v kept it at 4.2 MiB. Every mark of this X is odd, so step 2's
    modulus read off the marks is 1 and that question is not built at
    all (`test_step_2_at_m_0_builds_no_split`)."""
    import tracemalloc

    g = cyc(512)
    X = VirtualGSet(g, [1] * len(g.subgroup_classes()))
    V = 2048 * standard_rep(g, "W")
    certify_self_map(g, orbit(g, 0), standard_rep(g, "W"))  # build the group's tables
    tracemalloc.start()
    try:
        cert = certify_self_map(g, X, V)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (cert.verdict, cert.step2.fixedness) == ("certified", True)
    assert cert.step2.report.valuation == 12
    assert peak < 16 * 2**20, f"peak {peak / 2**20:.1f} MiB"


def test_step_2_at_m_0_builds_no_split(monkeypatch):
    """Every mark of the sum of all ten orbits of C512 is odd, so h(1),
    read off the marks, is odd and the matrix of step 2 invertible modulo
    2: its certificate at 8*W answers with no `_ideal_split`, no
    `linearize` and no `IntMatrix`, where the split would be 512 x 512
    (F = x^512 - 1)."""
    from vone import jtheory, repring
    from vone.exactmath import IntMatrix

    def refuse(*args, **kwargs):
        raise AssertionError("built on the certify path at a unit h(1)")

    for module in (jtheory, repring):
        monkeypatch.setattr(module, "_ideal_split", refuse)
    monkeypatch.setattr(repring, "linearize", refuse)
    monkeypatch.setattr(IntMatrix, "__init__", refuse)
    monkeypatch.setattr(IntMatrix, "_of", classmethod(refuse))
    g = cyc(512)
    X = VirtualGSet(g, [1] * len(g.subgroup_classes()))
    cert = certify_self_map(g, X, 8 * standard_rep(g, "W"))
    assert (cert.verdict, cert.step2.fixedness) == ("certified", True)


def test_step_2_builds_nothing_group_sized(monkeypatch):
    """Over C_{2^16}, X = 2[G/e] has the mark 2^17 at e and 0 elsewhere, so
    h(1) = 2: step 2 eliminates, on F = x - 1. The split reads the one
    coefficient of w it needs off X, so with `linearize` and
    `_permutation_lines` refused, the certificates at 8W
    (hypothesis-failed, v_2(lambda) = 4) and at 2^16 W (certified,
    v_2(lambda) = 17) are fixed, as they were when the split built w and
    G' at length 2^16."""
    import vone.groups as groups
    from vone import jtheory, repring

    def refuse(*args, **kwargs):
        raise AssertionError("a permutation character of length |G| on the certify path")

    split, degrees = jtheory._ideal_split, []

    def split_spy(X, phi):
        out = split(X, phi)
        degrees.append(len(out[0]) - 1)
        return out

    monkeypatch.setattr(groups, "DEFAULT_ORDER_BOUND", 2**16)
    g = groups.GroupModel(GroupDescriptor.cyclic(2, 16))
    X, W = 2 * orbit(g, "e"), standard_rep(g, "W")
    monkeypatch.setattr(repring, "linearize", refuse)
    monkeypatch.setattr(repring, "_permutation_lines", refuse)
    monkeypatch.setattr(jtheory, "_ideal_split", split_spy)
    for c, verdict, v in ((8, "hypothesis-failed", 4), (2**16, "certified", 17)):
        cert = certify_self_map(g, X, c * W)
        assert (cert.verdict, cert.step2.fixedness, cert.step2.report.valuation) == (
            verdict, True, v)
    assert degrees == [1, 1]


def test_the_certify_path_never_calls_from_columns(monkeypatch):
    """Step 2 takes the matrix that `_ideal_split` builds once, so the
    validating `IntMatrix.from_columns` is off the certify path,
    also where step 2 eliminates (even marks, delta > 0) and over Q_2^n."""
    from vone.exactmath import IntMatrix

    def refuse(cls, columns):
        raise AssertionError("from_columns on the certify path")

    monkeypatch.setattr(IntMatrix, "from_columns", classmethod(refuse))
    g = cyc(64)
    for X in (VirtualGSet(g, [2] * 7), orbit(g, "C2") + orbit(g, 0), orbit(g, 0)):
        cert = certify_self_map(g, X, 16 * standard_rep(g, "W"))
        assert cert.step2.fixedness is not None, X.coeffs
    q = quat(16)
    assert certify_self_map(q, orbit(q, 0), 8 * standard_rep(q, "H")).step2 is not None
