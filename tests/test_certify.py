import random
from fractions import Fraction

import pytest

from vone.burnside import VirtualGSet, bmul, orbit
from vone.certify import (
    SelfMapParameters,
    certify_self_map,
    check_hypotheses,
    derive_parameters,
    enumerate_5_1,
    enumerate_quaternion,
    standardize_rep,
)
from vone.groups import GroupDescriptor, build_group
from vone.repring import VirtualRep, standard_rep


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
    par = derive_parameters(c2, orbit(c2, 0), 4 * standard_rep(c2, "L"))
    assert (par.p, par.n, par.t, par.c_x, par.k, par.c_v) == (2, 1, 1, 1, 3, 1)

    c3 = cyc(3)
    par = derive_parameters(c3, orbit(c3, 0), standard_rep(c3, "W"))
    assert (par.n, par.t, par.k, par.c_v) == (1, 1, 0, 1)

    c4 = cyc(4)
    par = derive_parameters(c4, orbit(c4, "C2"), 2 * standard_rep(c4, "W"))
    assert (par.k, par.c_v) == (3, 1)


def test_derive_parameters_errors():
    c3 = cyc(3)
    with pytest.raises(ValueError):
        derive_parameters(c3, VirtualGSet.zero(c3), standard_rep(c3, "W"))
    with pytest.raises(ValueError):
        # dim 3 over C3 is not p^k * c * (p-1)
        derive_parameters(c3, orbit(c3, 0), 3 * standard_rep(c3, "L"))
    with pytest.raises(ValueError):
        derive_parameters(cyc(6), orbit(cyc(6), 0), standard_rep(cyc(6), "L"))
    with pytest.raises(ValueError):
        derive_parameters(c3, orbit(c3, 0), standard_rep(c3, "W"), p=2)


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
            base = derive_parameters(g, X, V)
        except ValueError:
            continue
        shifted = derive_parameters(g, X + rng.randrange(1, 4) * null, V)
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
