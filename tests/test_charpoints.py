import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import klwb
from klwb import charpoints
from klwb.charpoints import (
    NEGATIVE_V2,
    POSITIVE_V2,
    CharacterPoint,
    OrbitData,
    act,
    act_generator,
    chevalley_divisibility,
    cyclotomic,
    orbit,
    orbit_set,
    pairing,
    parse_point,
    poincare_of_subsystem,
    poincare_q,
    wl_subsystem,
)
from klwb.coxeter import build_weyl
from klwb.rings import LaurentPoly, V2

ONE = LaurentPoly.one()


def test_point_parse_and_normalize():
    p = parse_point("1/2,0")
    assert p.coords == (Fraction(1, 2), Fraction(0))
    assert p.denominator == 2
    assert p.render() == "1/2,0"
    # values normalize into [0, 1)
    q = CharacterPoint((Fraction(-1, 3), Fraction(7, 3)))
    assert q.coords == (Fraction(2, 3), Fraction(1, 3))
    assert q.denominator == 3
    with pytest.raises(ValueError):
        parse_point("1/2", rank=2)


def test_pairing_examples():
    W = build_weyl("A2")
    zero = parse_point("0,0")
    for c in W.datum.positive_coroots:
        assert pairing(zero, c) == 0
    lam = parse_point("1/2,0")
    vals = [pairing(lam, c) for c in W.datum.positive_coroots]
    assert vals == [Fraction(1, 2), Fraction(0), Fraction(1, 2)]

    A1 = build_weyl("A1")
    assert pairing(parse_point("1/2"), A1.datum.positive_coroots[0]) == Fraction(1, 2)


def test_wl_subsystem_examples():
    W = build_weyl("A2")
    full = wl_subsystem(W, parse_point("0,0"))
    assert full.cartan_type == "A2"
    assert full.order == W.size

    half = wl_subsystem(W, parse_point("1/2,0"))
    assert half.cartan_type == "A1"
    assert half.positive_roots == (1,)
    assert half.w0 == W.gens[1]

    third = wl_subsystem(W, parse_point("1/3,1/3"))
    assert third.cartan_type == "1"
    assert third.order == 1


def _random_point(rng, rank, max_den):
    den = rng.randint(1, max_den)
    return CharacterPoint(Fraction(rng.randrange(den), den) for _ in range(rank))


def test_pairing_equivariance():
    rng = random.Random(20260814)
    for t in ["A3", "B2", "G2"]:
        W = build_weyl(t)
        for _ in range(60):
            lam = _random_point(rng, W.rank, 6)
            w = rng.choice(W.elements)
            k = rng.randrange(len(W.root_pairs))
            coroot = W.root_pairs[k][1]
            kk = w.inv().apply_root(k)
            coroot_back = W.root_pairs[kk][1]
            assert pairing(act(W, w, lam), coroot) == pairing(lam, coroot_back)


def test_wl_subsystem_conjugation():
    rng = random.Random(7)
    for t in ["A2", "B2"]:
        W = build_weyl(t)
        N = W.n_positive
        for _ in range(25):
            lam = _random_point(rng, W.rank, 4)
            w = rng.choice(W.elements)
            sub = wl_subsystem(W, lam)
            moved = wl_subsystem(W, act(W, w, lam))
            conj = set()
            for k in sub.positive_roots:
                im = w.apply_root(k)
                conj.add(im if im < N else im - N)
            assert set(moved.positive_roots) == conj


def test_orbit_examples():
    W = build_weyl("A2")
    o0 = orbit(W, parse_point("0,0"))
    assert o0.size == 1
    assert o0.stabilizers[o0.representative].order == W.size

    A1 = build_weyl("A1")
    oh = orbit(A1, parse_point("1/2"))
    assert oh.size == 1
    # group stabilizer, all of W, strictly contains the trivial W_L
    assert oh.stabilizer_order == 2
    assert oh.stabilizers[oh.representative].cartan_type == "1"

    o = orbit(W, parse_point("1/2,0"))
    assert o.size == 3
    assert o.representative == min(o.points)
    assert o.points[0] == o.representative


def test_orbit_counting_invariant():
    for t in ["A2", "B2"]:
        W = build_weyl(t)
        for o in orbit_set(W, 4):
            assert o.size * o.stabilizer_order == W.size
            for p in o.points:
                # orbits are W-stable
                for j in range(W.rank):
                    from klwb.charpoints import act_generator

                    assert act_generator(W, j, p) in set(o.points)


def test_orbit_set_covers_all_points():
    W = build_weyl("A2")
    orbits = orbit_set(W, 3)
    pts = set()
    for o in orbits:
        pts.update(o.points)
    assert len(pts) == sum(o.size for o in orbits)
    # every point with lcm denominator <= 3 appears
    assert len(pts) == 12
    reps = [o.representative.render() for o in orbits]
    assert reps == sorted(reps, key=lambda s: parse_point(s).coords)


def test_poincare_examples():
    A1 = build_weyl("A1")
    assert poincare_q(A1, parse_point("1/2"), NEGATIVE_V2) == ONE
    assert poincare_q(A1, parse_point("0"), NEGATIVE_V2) == ONE - V2

    W = build_weyl("A2")
    expect = (ONE + V2) * (ONE + V2 + V2 * V2)
    assert poincare_q(W, parse_point("0,0"), POSITIVE_V2) == expect
    with pytest.raises(ValueError):
        poincare_q(W, parse_point("0,0"), "plain_v")


def test_poincare_counts_group_at_one():
    for t in ["A2", "B2", "G2"]:
        W = build_weyl(t)
        for o in orbit_set(W, 6):
            for p in o.points:
                q = poincare_q(W, p, POSITIVE_V2)
                assert q.eval_one() == o.stabilizers[p].order


def test_cyclotomic_values():
    v = LaurentPoly.monomial(1)
    assert cyclotomic(1) == v - ONE
    assert cyclotomic(2) == v + ONE
    assert cyclotomic(6) == v * v - v + ONE
    assert cyclotomic(12) == LaurentPoly({0: 1, 2: -1, 4: 1})
    prod = ONE
    for d in [1, 2, 3, 4, 6, 12]:
        prod = prod * cyclotomic(d)
    assert prod == LaurentPoly({12: 1}) - ONE


def test_chevalley_examples():
    r = chevalley_divisibility(ONE - V2, 1)
    assert r.success
    assert all(i <= 1 for _, i, _ in r.factors)

    q = (ONE + V2) * (ONE + V2 + V2 * V2)
    r = chevalley_divisibility(q, 3)
    assert r.success
    assert all(i <= 3 for _, i, _ in r.factors)
    assert r.remainder.is_unit

    hard = ONE - V2 + V2 * V2
    assert not chevalley_divisibility(hard, 3).success
    assert not chevalley_divisibility(hard, 5).success
    assert chevalley_divisibility(hard, 6).success

    # the product of the found factors accounts for q exactly
    recon = r.remainder
    for f, _, k in r.factors:
        recon = recon * f ** k
    assert recon == q


def test_chevalley_positive_convention_sweep():
    # positive convention always succeeds at m = 2*l(w0); at m = l(w0) the
    # single exception in these types is the full A1 group, whose polynomial
    # 1 + v^2 divides v^4 - 1 and no power of v^2 - 1
    for t in ["A1", "A2", "B2"]:
        W = build_weyl(t)
        m = W.longest().length
        for o in orbit_set(W, 8):
            for p in o.points:
                qpos = poincare_q(W, p, POSITIVE_V2)
                assert chevalley_divisibility(qpos, 2 * m).success
                tight = chevalley_divisibility(qpos, m).success
                if t == "A1" and p.is_trivial():
                    assert not tight
                    assert qpos == ONE + V2
                else:
                    assert tight
    # recorded discrepancy: negative convention already fails on full A2
    W = build_weyl("A2")
    qneg = poincare_q(W, parse_point("0,0"), NEGATIVE_V2)
    assert not chevalley_divisibility(qneg, 3).success
    # it needs the factor v^4 - v^2 + 1, a divisor of v^12 - 1 only
    assert chevalley_divisibility(qneg, 6).success


def test_subsystem_poincare_uses_intrinsic_length():
    # B2 long-root A1xA1: ambient lengths of the two reflections differ
    W = build_weyl("B2")
    longs = [k for k in range(W.n_positive) if W.root_pairs[k][0] in ((1, 0), (1, 2))]
    sub = W.reflection_subgroup(longs)
    q = poincare_of_subsystem(sub, POSITIVE_V2)
    assert q == (ONE + V2) * (ONE + V2)
    assert q.eval_one() == 4


def test_orbit_json():
    W = build_weyl("A2")
    j = orbit(W, parse_point("1/2,0")).to_json()
    assert j["representative"] == "0,1/2"
    assert len(j["points"]) == 3
    assert set(j["stabilizer_types"].values()) == {"A1"}
    assert j["points"][0] == j["representative"]


# -- integer orbit tables against the Fraction helpers ------------------------

ORACLE_TYPES = ["A1", "A2", "B2", "G2", "A3"]
_GROUPS = {t: build_weyl(t) for t in ORACLE_TYPES}


@pytest.mark.parametrize("t", ORACLE_TYPES)
def test_integer_tables_match_fraction_helpers(t):
    W = build_weyl(t)
    coroots = [W.root_pairs[k][1] for k in range(W.n_positive)]
    for o in orbit_set(W, 6):
        rep = o.representative
        # points and their order, from the Fraction action
        assert list(o.points) == sorted({act(W, w, rep) for w in W.elements})
        assert all(p.denominator == o.den for p in o.points)
        for p, a in zip(o.points, o.numerators):
            assert p.coords == tuple(Fraction(x, o.den) for x in a)
        subs = {}
        for i, p in enumerate(o.points):
            assert o.index_of(p) == i
            for s in range(W.rank):
                assert o.gen_move[s][i] == o.index_of(act_generator(W, s, p))
                assert o.simple_kernel[s][i] == (pairing(p, coroots[s]) == 0)
            kernel = tuple(k for k, c in enumerate(coroots) if pairing(p, c) == 0)
            assert o.kernels[i] == kernel
            sub = o.stabilizers[p]
            assert sub.positive_roots == kernel
            assert sub is wl_subsystem(W, p)
            assert o.w0L[p] == sub.w0
            # one Subsystem per kernel
            assert subs.setdefault(kernel, sub) is sub
        brute = sum(1 for w in W.elements if act(W, w, rep) == rep)
        assert o.stabilizer_order == brute


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_integer_and_fraction_actions_commute(data):
    W = _GROUPS[data.draw(st.sampled_from(ORACLE_TYPES))]
    N = data.draw(st.integers(1, 12))
    nums = data.draw(st.lists(st.integers(0, N - 1), min_size=W.rank, max_size=W.rank))
    eid = data.draw(st.integers(0, W.size - 1))
    lam = CharacterPoint(Fraction(x, N) for x in nums)
    assert CharacterPoint.from_numerators(lam.numerators(), lam.denominator) == lam
    o = orbit(W, lam)
    i = o.index_of(lam)
    for s in reversed(W.words[eid]):
        i = o.gen_move[s][i]
    moved = act(W, W.elements[eid], lam)
    assert moved.numerators() == o.numerators[i]
    assert moved == CharacterPoint.from_numerators(o.numerators[i], o.den)


# -- invariant checks that stay on under python -O ------------------------------


def test_kernel_closure_check_rejects_an_open_kernel():
    # A2's simple roots without their sum are not reflection-closed
    with pytest.raises(AssertionError, match="not reflection-closed"):
        charpoints._kernel_subsystem(build_weyl("A2"), (0, 1))


def test_orbit_stabilizer_check_rejects_a_corrupted_table(monkeypatch):
    W = build_weyl("A2")
    # every s w read as the identity: the stabilizer walk counts 4, not 2
    monkeypatch.setattr(W, "lmul_id", lambda s, eid: 0)
    with pytest.raises(AssertionError, match="stabilizer order 4 is not 6"):
        OrbitData(W, parse_point("0,1/2"))


def test_invariant_checks_run_under_optimize():
    script = """
from klwb import charpoints
from klwb.coxeter import build_weyl
W = build_weyl("A2")
for bad in (
    lambda: charpoints._kernel_subsystem(W, (0, 1)),
    lambda: (setattr(W, "lmul_id", lambda s, eid: 0),
             charpoints.OrbitData(W, charpoints.parse_point("0,1/2"))),
):
    try:
        bad()
    except AssertionError:
        continue
    raise SystemExit("check skipped")
"""
    src = os.path.dirname(os.path.dirname(klwb.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True
    )
    assert out.returncode == 0, out.stderr
