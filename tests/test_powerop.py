import random
import re
import time
from math import isqrt

import pytest

from vone.burnside import VirtualGSet, orbit
from vone.groups import GroupDescriptor, build_group
from vone.limits import MAX_SQ1_WORK
from vone.powerop import (
    EtaClass,
    Pi1Element,
    _coset_action,
    _fixed_orbits,
    sq1_gset,
    sq1_int,
)

ETA = EtaClass(1)  # the stable Hopf class


def G(name):
    return build_group(GroupDescriptor.parse(name))


def test_sq1_int_table():
    assert sq1_int(0) == EtaClass(0)
    assert sq1_int(1) == EtaClass(0)
    assert sq1_int(2) == ETA
    assert sq1_int(3) == ETA
    assert sq1_int(4) == EtaClass(0)
    assert sq1_int(5) == EtaClass(0)
    assert sq1_int(6) == ETA


def test_sq1_int_recursion():
    # Sq1(n+1) = Sq1(n) + eta*n
    for n in range(-20, 21):
        assert sq1_int(n + 1) == sq1_int(n) + EtaClass(n)


def test_eta_torsion():
    assert ETA + ETA == EtaClass(0)
    assert not (ETA + ETA)
    assert ETA


def test_point_is_zero():
    for name in ("C4", "Q8"):
        g = G(name)
        pt = orbit(g, f"{name}" if name.startswith("C") else "Q8")
        assert sq1_gset(pt).is_zero()


def test_trivial_group_matches_sq1_int():
    # sign of the swap on n^2 points is (-1)^(n(n-1)/2)
    e = G("C1")
    for n in range(0, 13):
        out = sq1_gset(VirtualGSet(e, [n]))
        eta, weyl = out.component(0)
        assert weyl == ()
        assert eta == sq1_int(n)


def test_free_orbit_table_cyclic():
    # [C_n/e]: (eta, g^(n/2)), (0, e), (0, g^(n/2)), (eta, e) per n mod 4
    for n in range(2, 17):
        g = G(f"C{n}")
        out = sq1_gset(orbit(g, "e"))
        eta, weyl = out.component("e")
        expect_eta = EtaClass(1 if n % 4 in (0, 3) else 0)
        assert eta == expect_eta, f"n={n}"
        wd = g.weyl_data(0)
        expect_weyl = wd.coords(n // 2) if n % 2 == 0 else wd.zero()
        assert weyl == expect_weyl, f"n={n}"
        for cls in g.subgroup_classes()[1:]:
            s, w = out.component(cls)
            assert not s and not any(w)


def test_free_orbit_underlying_sign_matches_sq1_int():
    # restricting to the trivial group: eta*[G/e] -> |G|*eta and a Weyl
    # element w -> sign of translation by w, so the table must collapse to
    # sq1_int(n) on underlying spheres
    for n in range(2, 17):
        g = G(f"C{n}")
        out = sq1_gset(orbit(g, "e"))
        eta, weyl = out.component("e")
        if n % 2 == 0:
            w = n // 2
            moved = [g.mul(w, x) for x in range(n)]
            seen = [False] * n
            parity = 0
            for s in range(n):
                if seen[s]:
                    continue
                length = 0
                t = s
                while not seen[t]:
                    seen[t] = True
                    t = moved[t]
                    length += 1
                parity += length - 1
        else:
            parity = 0
        total = EtaClass(eta.coefficient * n + parity)
        assert total == sq1_int(n), f"n={n}"


def test_free_orbit_q8():
    # inversion has sign -1 on Q8; the product of all elements lands in the
    # commutator subgroup, hence vanishes in the abelianization
    q8 = G("Q8")
    out = sq1_gset(orbit(q8, "e"))
    eta, weyl = out.component("e")
    assert eta == ETA
    assert not any(weyl)
    wd = q8.weyl_data(0)
    acc = wd.zero()
    for g in range(8):
        acc = wd.add(acc, wd.coords(g))
    assert weyl == acc


def test_half_orbit_c4():
    # tau exchanges the two off-diagonal points of [C4/C2] x [C4/C2] through
    # the generator, leaving a nontrivial Weyl coordinate at (C2)
    c4 = G("C4")
    out = sq1_gset(orbit(c4, "C2"))
    for cls in c4.subgroup_classes():
        s, w = out.component(cls)
        assert not s
        if cls.label == "C2":
            wd = c4.weyl_data(cls.id)
            assert w == wd.coords(1)
            assert any(w)
        else:
            assert not any(w)


def test_pi1_addition():
    c4 = G("C4")
    a = sq1_gset(orbit(c4, "e"))
    z = Pi1Element.zero(c4)
    assert a + z == a
    assert (a + a).components[0][0] == 0
    two = a + a
    # Weyl part doubles mod the invariant factors (here C4: 2*g^2 = e)
    assert not any(two.components[0][1])


def test_sq1_rejects_virtual():
    c4 = G("C4")
    with pytest.raises(ValueError):
        sq1_gset(orbit(c4, "e") - orbit(c4, "C2"))
    from fractions import Fraction

    with pytest.raises(ValueError):
        sq1_gset(VirtualGSet(c4, [Fraction(1, 3), 0, 0], p_local=2))


def test_sq1_accepts_exactly_the_genuine_g_sets():
    """One definition of a G-set: nonnegative integer coefficients, with or
    without a p-local flag. `is_genuine` used to refuse the flag that
    Sq1 accepted."""
    from fractions import Fraction

    c4, q8 = G("C4"), G("Q8")
    flagged = VirtualGSet(c4, [1, 0, 1], p_local=2)
    assert flagged.is_genuine()
    assert sq1_gset(flagged) == sq1_gset(VirtualGSet(c4, [1, 0, 1]))
    for g in (c4, q8):
        r = len(g.subgroup_classes())
        for first in (0, 1, 2, -1, Fraction(1, 3)):
            for flag in (None, 2):
                if isinstance(first, Fraction) and flag is None:
                    continue
                X = VirtualGSet(g, [first] + [1] * (r - 1), p_local=flag)
                try:
                    sq1_gset(X)
                    accepted = True
                except ValueError:
                    accepted = False
                assert accepted == X.is_genuine(), (g, first, flag)


def _points_action(G, counts):
    """Concrete model of the G-set sum(counts[c] * [G/H_c]), the input of
    `sq1_by_permutation_walk`: returns act with act[g][p] the image of
    point p. Deterministic: canonical subgroup representatives, least coset
    representatives, class order."""
    classes = G.subgroup_classes()
    blocks = []
    for cid, c in enumerate(counts):
        if not c:
            continue
        H = classes[cid].representative
        rep_of: dict[int, int] = {}
        reps = []
        for g in range(G.order):
            if g not in rep_of:
                for h in H:
                    rep_of[G.mul(g, h)] = g
                reps.append(g)
        blocks.extend([(reps, rep_of)] * c)
    points = [(b, r) for b, (reps, _) in enumerate(blocks) for r in reps]
    index = {pt: i for i, pt in enumerate(points)}
    act = [
        tuple(index[(b, blocks[b][1][G.mul(g, r)])] for (b, r) in points)
        for g in range(G.order)
    ]
    return act


def sq1_by_permutation_walk(G, act) -> Pi1Element:
    """The oracle for both Sq1 paths, on the G-set with act[g][p] the image
    of point p: decompose T x T into orbits, pick in each the least base
    point whose stabilizer is the class representative, build the whole
    permutation tau induces on the orbits of each type, walk its cycles for
    the sign, and search the group element behind tau at every orbit."""
    npts = len(act[0]) if act else 0
    if npts == 0:
        return Pi1Element.zero(G)
    n2 = npts * npts

    def act2(g: int, p: int) -> int:
        i, j = divmod(p, npts)
        return act[g][i] * npts + act[g][j]

    def stab_of(p: int) -> frozenset:
        return frozenset(g for g in range(G.order) if act2(g, p) == p)

    classes = G.subgroup_classes()
    orbit_of = [-1] * n2
    orbit_class = []
    orbit_base = []
    for p0 in range(n2):
        if orbit_of[p0] >= 0:
            continue
        oid = len(orbit_class)
        orbit_of[p0] = oid
        orb = [p0]
        frontier = [p0]
        while frontier:
            q = frontier.pop()
            for g in range(1, G.order):
                r = act2(g, q)
                if orbit_of[r] < 0:
                    orbit_of[r] = oid
                    orb.append(r)
                    frontier.append(r)
        cid = G.class_index_of(stab_of(p0))
        rep = classes[cid].representative
        base = min(q for q in orb if stab_of(q) == rep)
        orbit_class.append(cid)
        orbit_base.append(base)

    components = []
    for cid, cls in enumerate(classes):
        oids = sorted(
            (o for o in range(len(orbit_class)) if orbit_class[o] == cid),
            key=lambda o: orbit_base[o],
        )
        if not oids:
            components.append((0, (0,) * len(cls.weyl_invariants)))
            continue
        position = {o: k for k, o in enumerate(oids)}
        weyl = G.weyl_data(cid)
        sigma = []
        acc = weyl.zero()
        for o in oids:
            p = orbit_base[o]
            i, j = divmod(p, npts)
            q = j * npts + i  # tau swaps the two coordinates
            target = orbit_of[q]
            sigma.append(position[target])
            base_t = orbit_base[target]
            for g in range(G.order):
                if act2(g, base_t) == q:
                    acc = weyl.add(acc, weyl.coords(g))
                    break
            else:
                raise AssertionError("tau must send orbits to orbits of the same class")
        seen = [False] * len(sigma)
        parity = 0
        for k in range(len(sigma)):
            if seen[k]:
                continue
            length = 0
            t = k
            while not seen[t]:
                seen[t] = True
                t = sigma[t]
                length += 1
            parity += length - 1
        components.append((parity % 2, acc))
    return Pi1Element(G, tuple(components))


def _random_points_action(G, counts, rng):
    """The action of `_points_action` under a randomized enumeration: orbits
    in shuffled order, each stabilizer a random conjugate of the class
    representative, coset representatives in shuffled order."""
    classes = G.subgroup_classes()
    insts = [cid for cid, c in enumerate(counts) for _ in range(c)]
    rng.shuffle(insts)
    blocks = []
    for cid in insts:
        x = rng.randrange(G.order)
        H = frozenset(G.conj(h, x) for h in classes[cid].representative)
        order = list(range(G.order))
        rng.shuffle(order)
        rep_of = {}
        reps = []
        for g in order:
            if g not in rep_of:
                for h in H:
                    rep_of[G.mul(g, h)] = g
                reps.append(g)
        blocks.append((reps, rep_of))
    points = [(b, r) for b, (reps, _) in enumerate(blocks) for r in reps]
    index = {pt: i for i, pt in enumerate(points)}
    return [
        tuple(index[(b, blocks[b][1][G.mul(g, r)])] for (b, r) in points)
        for g in range(G.order)
    ]


def sq1_consistency(T, trials, seed):
    """The oracle under randomized enumerations of T equals sq1_gset(T)."""
    base = sq1_gset(T)
    rng = random.Random(seed)
    return all(
        sq1_by_permutation_walk(T.group, _random_points_action(T.group, T.coeffs, rng))
        == base
        for _ in range(trials)
    )


def test_consistency_under_reenumeration():
    c4 = G("C4")
    assert sq1_consistency(orbit(c4, "e"), trials=20, seed=7)
    q8 = G("Q8")
    assert sq1_consistency(orbit(q8, "e"), trials=10, seed=7)
    assert sq1_consistency(orbit(q8, "Q8"), trials=5, seed=7)
    mixed = orbit(c4, "e") + 2 * orbit(c4, "C2") + orbit(c4, "C4")
    assert sq1_consistency(mixed, trials=10, seed=7)


def test_sq1_sum_of_free_orbits_matches_regular_pattern():
    # k*[C2/e] has underlying cardinality 2k; the e-component must follow
    # the integer table through the restriction identity
    c2 = G("C2")
    for k in range(0, 5):
        out = sq1_gset(VirtualGSet(c2, [k, 0]))
        eta, weyl = out.component("e")
        # underlying sign: eta*2k + parity(translation by weyl part)
        wd = c2.weyl_data(0)
        parity = weyl[0] * 1 if weyl else 0  # translation by g on C2 is a 2-cycle
        assert EtaClass(eta.coefficient * 2 * k + parity) == sq1_int(2 * k)


def _check_against_point_action(G, counts, seconds=0.05):
    """sq1_gset, within `seconds`, equals the permutation walk on the point
    action of counts."""
    start = time.perf_counter()
    fast = sq1_gset(VirtualGSet(G, counts))
    assert time.perf_counter() - start < seconds, (G, counts)
    assert fast == sq1_by_permutation_walk(G, _points_action(G, counts)), (G, counts)


def _gsets_up_to(G, size):
    """Every count vector of a genuine G-set with at most `size` points."""
    indices = [cls.index for cls in G.subgroup_classes()]

    def grow(i, room):
        if i == len(indices):
            yield ()
            return
        for n in range(room // indices[i] + 1):
            for rest in grow(i + 1, room - n * indices[i]):
                yield (n, *rest)

    return grow(0, size)


def test_cyclic_closed_form_matches_the_point_action_on_every_small_gset():
    """The closed form against the point action on every genuine T over
    C_m, m <= 64, prime-power or not, whose point action has at most 2^11
    steps (|T|^2 m <= 2^11, so |T| <= 45 over C1 and |T| <= 5 over C64):
    3151 G-sets."""
    start = time.perf_counter()
    checked = 0
    for m in range(1, 65):
        cm = G(f"C{m}")
        for counts in _gsets_up_to(cm, min(64, isqrt(2**11 // m))):
            _check_against_point_action(cm, counts)
            checked += 1
    assert checked == 3151
    assert time.perf_counter() - start < 30


def test_cyclic_closed_form_matches_the_point_action_on_large_gsets():
    """One seeded G-set of 32 to 64 points over every C_m, m <= 64, built
    from randomly drawn orbits that still fit; the free orbit can be drawn
    whenever m is at most the target size."""
    rng = random.Random(2024)
    start = time.perf_counter()
    for m in range(1, 65):
        cm = G(f"C{m}")
        indices = [cls.index for cls in cm.subgroup_classes()]
        counts = [0] * len(indices)
        target = rng.randrange(32, 65)
        size = 0
        while True:
            fits = [i for i, d in enumerate(indices) if size + d <= target]
            if not fits:
                break
            i = rng.choice(fits)
            counts[i] += 1
            size += indices[i]
        _check_against_point_action(cm, counts)
    assert time.perf_counter() - start < 30


def test_cyclic_free_orbits_match_the_sign_and_product_oracle():
    """[C_m/e] for m <= 512: tau permutes the free orbits of G x G as
    x -> x^-1, so the eta part is the sign of inversion and the Weyl part
    is the product of all elements; every other component vanishes. Each
    case runs in closed form, within 50 ms at the best of three calls (one
    call can absorb a garbage-collection pass)."""
    for m in range(1, 513):
        cm = G(f"C{m}")
        inverse = [cm.inv_of(x) for x in range(m)]
        seen = [False] * m
        parity = 0
        for x in range(m):
            if seen[x]:
                continue
            length = 0
            t = x
            while not seen[t]:
                seen[t] = True
                t = inverse[t]
                length += 1
            parity += length - 1
        product = 0
        for x in range(m):
            product = cm.mul(product, x)
        times = []
        for _ in range(3):
            start = time.perf_counter()
            out = sq1_gset(orbit(cm, "e"))
            times.append(time.perf_counter() - start)
        assert min(times) < 0.05, m
        eta, weyl = out.component("e")
        assert eta == EtaClass(parity), m
        assert weyl == (cm.weyl_data(0).coords(product) if m > 1 else ()), m
        for cls in cm.subgroup_classes()[1:]:
            s, w = out.component(cls)
            assert not s and not any(w), (m, cls.label)


def test_dicyclic_orbit_count_matches_the_walk_on_every_small_gset():
    """The fixed-orbit count against the permutation walk on every genuine
    T over Dic_m, 2 <= m <= 8, whose point action has at most 2^11 steps,
    the cut of the cyclic sweep (|T|^2 |G| <= 2^11, so |T| <= 16 over Q8
    and |T| <= 8 over Q32): 2739 G-sets. At 2^12 there are 10935, and the
    walk makes the sweep take about 45 s."""
    start = time.perf_counter()
    checked = 0
    for m in range(2, 9):
        dm = G(f"Dic{m}")
        for counts in _gsets_up_to(dm, isqrt(2**11 // dm.order)):
            _check_against_point_action(dm, counts)
            checked += 1
    assert checked == 2739
    assert time.perf_counter() - start < 30


def test_dicyclic_orbit_count_matches_the_walk_on_large_gsets():
    """Seeded G-sets of up to 64 points over Q32 and Q64, drawn orbit by
    orbit as in the cyclic sweep; the free orbit can always be drawn."""
    rng = random.Random(2025)
    for name in ("Q32", "Q32", "Q32", "Q64", "Q64"):
        dm = G(name)
        indices = [cls.index for cls in dm.subgroup_classes()]
        counts = [0] * len(indices)
        target = rng.randrange(dm.order, 65)
        size = 0
        while True:
            fits = [i for i, d in enumerate(indices) if size + d <= target]
            if not fits:
                break
            i = rng.choice(fits)
            counts[i] += 1
            size += indices[i]
        _check_against_point_action(dm, counts, seconds=1.0)


def test_dicyclic_orbit_count_is_stable_under_reenumeration():
    """The per-type walk `_fixed_orbits` on randomized enumerations of one
    orbit [G/H] (conjugated stabilizer, shuffled cosets) equals it on the
    canonical coset action, for every H over Q8, Q16, Dic3 and Dic5: the
    fixed-orbit counts and Weyl part do not depend on the base points."""
    rng = random.Random(11)
    for name in ("Q8", "Q16", "Dic3", "Dic5"):
        dm = G(name)
        classes = dm.subgroup_classes()
        for cls in classes:
            canonical = _fixed_orbits(dm, _coset_action(dm, cls.representative))
            one = [int(c is cls) for c in classes]
            for _ in range(3):
                act = _random_points_action(dm, one, rng)
                assert _fixed_orbits(dm, act) == canonical, (name, cls.label)


def test_dicyclic_multiples_match_the_walk_and_cost_one_block_per_type():
    """n*T for n <= 4 equals the permutation walk over Q8, Q16 and Dic3,
    for free, non-free and mixed T: s_K and the Weyl part scale with the
    multiplicity of each type and N_K comes from T*T. The work is one
    diagonal block per type, so 4*[Q64/e], whose T x T has 2^22 point
    steps, twice MAX_SQ1_WORK, answers in about the time of [Q64/e]."""
    for name in ("Q8", "Q16", "Dic3"):
        dm = G(name)
        r = len(dm.subgroup_classes())
        for base in (orbit(dm, "e"), orbit(dm, r - 2), orbit(dm, "e") + orbit(dm, 1),
                     VirtualGSet(dm, [1] * r)):
            for n in range(1, 5):
                T = n * base
                walk = sq1_by_permutation_walk(dm, _points_action(dm, T.coeffs))
                assert sq1_gset(T) == walk, (name, T)
    q64 = G("Q64")

    def best_of_three(T):
        times = []
        for _ in range(3):
            start = time.perf_counter()
            sq1_gset(T)
            times.append(time.perf_counter() - start)
        return min(times)

    one, four = orbit(q64, "e"), 4 * orbit(q64, "e")
    assert sq1_gset(four).component("e") == (EtaClass(0), (0, 0))
    assert best_of_three(four) < 2 * best_of_three(one)


def test_dicyclic_point_action_is_bounded():
    """The sum of |G/H|^2 |G| over the orbit types H of T past MAX_SQ1_WORK
    raises at once: the free orbit of Q256 would take about ten seconds, and
    one more orbit type beside Q128's free orbit, which is at the bound, is
    already too much."""
    q128, q256 = G("Q128"), G("Q256")
    assert 128**3 == MAX_SQ1_WORK
    message = re.escape(f"exceeds the limit {MAX_SQ1_WORK} on the sum of "
                        "|G/H|^2 * |G| over the orbit types H of T")
    start = time.perf_counter()
    for T in (orbit(q256, "e"), orbit(q128, "e") + orbit(q128, "Q128")):
        with pytest.raises(ValueError, match=message):
            sq1_gset(T)
    assert time.perf_counter() - start < 0.5
