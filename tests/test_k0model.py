import hashlib
import itertools
import json
import random
import sys
import threading
import time
from fractions import Fraction

import pytest

from klwb.coxeter import build_weyl
from klwb.charpoints import orbit_set, parse_point
from klwb.k0model import (
    GluingViolation,
    IdentityFailure,
    KModule,
    KTuple,
    OrbitModule,
    PreconditionFailure,
    _gen_norm,
    _packed_sum,
    _render_vec,
    canonical_multiplicities,
    resolve_m,
)
from klwb import k0model, linalg
from klwb.klalgebra import KLAlgebra
from klwb.rings import BivarPoly, LaurentPoly, Qv, annihilator_family, divmod_x, p_poly, split_at_one, unpack


def lp(d):
    return LaurentPoly(d)


def rand_poly_vec(M, rng, density=0.4):
    return [
        lp({rng.randrange(-2, 3): rng.randrange(-3, 4)})
        if rng.random() < density
        else LaurentPoly.zero()
        for _ in range(M.dim)
    ]


def block_starts(M):
    # flat index of each block's first coordinate, from the layout helper
    return [start for start, _, _ in M._parts([])]


def test_module_shape_and_unit():
    M = KModule.for_type("A1", 6)
    assert M.dim == 24
    assert len(M.kl.algebras) == 7
    assert [blk.alg for blk in M.blocks] == list(M.kl.algebras)
    assert [blk.dim for blk in M.blocks] == [2, 4, 4, 4, 4, 4, 2]
    starts = block_starts(M)
    assert starts == [0, 2, 6, 10, 14, 18, 22]
    u = M.unit_vector()
    ones = [i for i, x in enumerate(u) if x]
    # one entry per (orbit, point), all sitting at the identity row
    assert len(ones) == 12
    for start, alg in zip(starts, M.kl.algebras):
        for p in range(alg.orbit.size):
            assert u[start + alg.flat_index(0, p)] == 1


@pytest.mark.parametrize(
    "t, den, orbits", [("A1", 6, 7), ("A2", 3, 5), ("B2", 2, 3), ("G2", 6, 13), ("A3", 2, 3)]
)
def test_block_count_matches_burnside(t, den, orbits):
    # one block per W-orbit of points with lcm denominator <= den; Burnside's
    # lemma counts the orbits as (1/|W|) sum_w |Fix(w)| over points and an
    # action enumerated here from the Cartan matrix, not from charpoints
    M = KModule.for_type(t, den)
    W = M.group
    C = W.datum.cartan_matrix
    points = {
        tuple(Fraction(a, N) for a in coords)
        for N in range(1, den + 1)
        for coords in itertools.product(range(N), repeat=W.rank)
    }

    def act(word, lam):
        for j in reversed(word):
            lam = tuple((lam[i] - lam[j] * C[i][j]) % 1 for i in range(W.rank))
        return lam

    fixed = sum(act(W.words[e], p) == p for e in range(W.size) for p in points)
    assert fixed % W.size == 0
    assert len(M.blocks) == len(orbit_set(W, den)) == fixed // W.size == orbits
    assert M.dim == W.size * len(points)


def test_generator_action_matches_block_product():
    M = KModule.for_type("A2", 2)
    rng = random.Random(20260814)
    starts = block_starts(M)
    for _ in range(10):
        oi = rng.randrange(len(M.kl.algebras))
        alg = M.blocks[oi].alg
        eid = rng.randrange(M.group.size)
        pidx = rng.randrange(alg.orbit.size)
        s = rng.randrange(M.group.rank)
        vec = M.basis_vector(starts[oi] + alg.flat_index(eid, pidx))
        got = M.apply_generator(s, vec)
        prod = alg.mul(alg.pi_generator(s), alg.basis(eid, pidx))
        for (e, p), c in prod.terms.items():
            e = alg.group.id_of(e)
            assert got[starts[oi] + alg.flat_index(e, alg.orbit.index_of(p))] == c
        assert sum(1 for x in got if x) == len(prod.terms)


def test_word_independence_and_braid_matrix_level():
    rng = random.Random(7)
    M = KModule.for_type("A2", 2)
    vec = [Qv(x) for x in rand_poly_vec(M, rng)]
    assert M.apply_word((0, 1, 0), vec) == M.apply_word((1, 0, 1), vec)
    M = KModule.for_type("B2", 2)
    vec = [Qv(x) for x in rand_poly_vec(M, rng)]
    lhs = M.apply_word((0, 1, 0, 1), vec)
    assert lhs == M.apply_word((1, 0, 1, 0), vec)
    assert lhs == M.apply_element(M.group.longest_id, vec)


def test_fulltwist_matches_double_longest_and_is_central():
    M = KModule.for_type("A2", 2)
    rng = random.Random(5)
    vec = [Qv(x) for x in rand_poly_vec(M, rng)]
    w0 = M.group.words[M.group.longest_id]
    assert M.apply_fulltwist(vec) == M.apply_word(w0 + w0, vec)
    for s in range(M.group.rank):
        assert M.apply_generator(s, M.apply_fulltwist(vec)) == M.apply_fulltwist(
            M.apply_generator(s, vec)
        )


def test_twist_poly_horner():
    M = KModule.for_type("A1", 6)
    rng = random.Random(2)
    vec = [Qv(x) for x in rand_poly_vec(M, rng)]
    fv = M.apply_fulltwist(vec)
    ffv = M.apply_fulltwist(fv)
    bp = annihilator_family(1)  # (x - 1)(x - v^2)
    want = [
        a - b * (lp({0: 1, 2: 1})) + c * lp({2: 1})
        for a, b, c in zip(ffv, fv, vec)
    ]
    assert M.apply_twist_poly(bp, vec) == want


def horner_reference(M, bp, vec):
    # Horner with apply_fulltwist and ring arithmetic only, no packing
    acc = [x * 0 for x in vec]
    for k in range(bp.degree, -1, -1):
        acc = M.apply_fulltwist(acc)
        c = bp.coefficient(k)
        acc = [a + c * x for a, x in zip(acc, vec)]
    return acc


@pytest.mark.parametrize(
    "t, den, shift", [("A1", 6, 0), ("A2", 3, 0), ("B2", 2, 0), ("G2", 2, 0), ("A1", 6, 2)]
)
def test_twist_poly_matches_horner_reference(t, den, shift):
    M = KModule.for_type(t, den)
    # F's least exponent is 0 in these modules; v^shift F raises it, and the
    # reference reads the same columns
    shift_twist(M, shift)
    ptilde = annihilator_family(resolve_m(None, M.group), tilde=True)
    polys = [
        ptilde,
        split_at_one(ptilde)[1],
        ptilde * ptilde,
        BivarPoly.const(lp({0: -3})),
        BivarPoly.zero(),
        BivarPoly((lp({-3: 2, 1: -1}), lp({-1: 5}), lp({-5: -4, 2: 3}))),
    ]
    rng = random.Random(7)
    q = lp({0: 1, 2: 1})
    field = [x / q if i % 3 else x / (q * q - 2) for i, x in enumerate(M.random_vector(rng))]
    big = [
        lp({-2: 2**200 + rng.randrange(99), 3: -(2**199)}) if rng.random() < 0.5 else x
        for x in rand_poly_vec(M, rng)
    ]
    for bp in polys:
        for vec in (field, big):
            got = M.apply_twist_poly(bp, vec)
            assert got == horner_reference(M, bp, vec), (t, shift, bp)
            assert list(map(type, got)) == [type(vec[0])] * M.dim


def twist_factor(i):
    return BivarPoly.x_minus(LaurentPoly.monomial(2 * i))


def factor_exponents(mu, top):
    """The i with (x - v^2i) dividing mu, 0 <= i <= top, each divided out
    once; the rest, which must be 1 for a product of distinct factors."""
    got = []
    for i in range(top + 1):
        quo, rem = divmod_x(mu, twist_factor(i))
        if rem.is_zero:
            got.append(i)
            mu = quo
    return got, mu


def kills_block(M, start, blk, bp):
    # bp(F) e_j = 0 for every basis vector of the block, by horner_reference
    zero = LaurentPoly.zero()
    units = ([zero] * i + [LaurentPoly.one()] + [zero] * (M.dim - i - 1) for i in range(start, start + blk.dim))
    return all(not any(horner_reference(M, bp, u)) for u in units)


@pytest.mark.parametrize("t, den", [("A1", 6), ("A2", 3), ("B2", 2), ("G2", 2)])
def test_block_minpoly_oracles(t, den):
    M = KModule.for_type(t, den)
    top = resolve_m("safe", M.group)
    union = set()
    for start, blk, _ in M._parts([]):
        mu = blk.minpoly
        assert kills_block(M, start, blk, mu)
        # a product of distinct (x - v^2i), 0 <= i <= 2 l(w0)
        exps, rest = factor_exponents(mu, top)
        assert rest == BivarPoly.const(1) and len(exps) == mu.degree
        # minimal: without any one factor it no longer kills F
        for i in exps:
            quo, rem = divmod_x(mu, twist_factor(i))
            assert rem.is_zero and not kills_block(M, start, blk, quo), (t, start, i)
        union.update(exps)
    lcm = BivarPoly.const(1)
    for i in sorted(union):
        lcm = lcm * twist_factor(i)
    assert lcm == M.kl.fulltwist_minpoly()[0]


@pytest.mark.parametrize("t, den", [("A1", 6), ("A2", 3), ("B2", 2), ("G2", 2)])
def test_minpoly_check_rejects_a_dropped_factor(monkeypatch, t, den):
    # a mu_B without one of its factors must fail mu_B(F) e_j = 0 for some j
    for blk in KModule.for_type(t, den).blocks:
        mu = blk.minpoly
        for i in factor_exponents(mu, resolve_m("safe", blk.alg.group))[0]:
            short = divmod_x(mu, twist_factor(i))[0]
            fresh = OrbitModule(blk.alg)
            monkeypatch.setattr(k0model, "minpoly_operator", lambda apply, n, bound, short=short: short)
            with pytest.raises(IdentityFailure, match="does not kill basis vector"):
                fresh.minpoly
            monkeypatch.undo()


def test_tuple_arithmetic_and_serialization():
    M = KModule.for_type("A1", 2)
    assert M.zero_tuple().is_zero
    t = M.make_free(1, M.basis_vector(0))
    s = t + t - t.scale(2)
    assert s.is_zero
    assert t == M.make_free(1, M.basis_vector(0))
    assert t != t.scale(lp({2: 1}))
    js = t.to_json()
    assert set(js) == {"e", "1"}
    assert js["1"][0] == "1"
    w = M.group.elements[1]
    assert t.get(w) == t.get(1)
    assert set(t.components) == set(M.group.elements)
    with pytest.raises(ValueError):
        KTuple(M, {0: [Qv(1)]})
    with pytest.raises(TypeError):
        KTuple(M, {0: ["x"] * M.dim})


def test_polynomial_entries_are_scaled_by_the_common_denominator():
    M = KModule.for_type("A1", 6)
    q = lp({0: 1, 2: 1})
    vec = [Qv(LaurentPoly.one(), q), LaurentPoly.one(), 2] + [0] * (M.dim - 3)
    t = M.tuple_from({0: vec})
    assert [x.render() for x in t.get(0)[:3]] == ["(1) / (1 + v^2)", "1", "2"]
    field = [Qv(LaurentPoly.one(), q), Qv(1), Qv(2)] + [Qv(0)] * (M.dim - 3)
    assert M.make_free(0, vec) == M.make_free(0, field)


def test_tuple_equality_and_hash_ignore_the_denominator():
    M = KModule.for_type("A1", 2)
    t = M.random_free_combination(random.Random(4), 2)
    c = lp({0: 1, 2: 1})
    u = t.scale(Qv(1, c)).scale(c)
    # the same values stored over D = 1 + v^2 instead of D = 1
    assert t.den == LaurentPoly.one() and u.den == c
    assert u == t and hash(u) == hash(t)
    assert t.scale(Qv(c, c)) == t and hash(t.scale(Qv(c, c))) == hash(t)
    assert [u.get(w) for w in range(M.group.size)] == [
        t.get(w) for w in range(M.group.size)
    ]
    assert (u - t).is_zero and u + t == t.scale(2)
    assert u != t.scale(Qv(1, c))
    assert u.to_json() == t.to_json()


# sha256 of json.dumps(check_gluing(...), sort_keys=True), taken before the
# solver and the tuples moved from Q(v) to Z[v, v^-1]
GLUING_REPORT_SHA256 = {
    "pass": "849f9908102b2c833806acb36362734c4e8ad79f4f927bf9aeb60c24a6a796d6",
    "fail": "400b47620fbc095bf491c83aa25cfd3dd178a7d18467054a49621b64de503c05",
    "scaled": "9ff0023552fc4e6bd9ebf3c354387f37d5c128bc7529a9ae157e95f3b401c0f1",
}


def gluing_fixtures(M):
    """A free combination plus the constant tuple on the trivial orbit's
    block, whose witnesses need 1 / (v^2 - 1), so the solver must scale;
    the same plus a basis bump at w = 1, and scaled by 1 / (1 + v^2)."""
    oi = M.kl.orbit_index(parse_point(",".join("0" * M.group.rank)))
    starts = block_starts(M)
    block = range(starts[oi], starts[oi] + M.blocks[oi].dim)
    unit = [x if i in block else 0 for i, x in enumerate(M.unit_vector())]
    t = M.random_free_combination(random.Random(7), 2) + M.constant_tuple(unit)
    return {
        "pass": t,
        "fail": t + M.tuple_from({1: M.basis_vector(starts[1])}),
        "scaled": t.scale(Qv(1, lp({0: 1, 2: 1}))),
    }


def assert_gluing_reports(M, pins):
    for name, tup in gluing_fixtures(M).items():
        rep = M.check_gluing(tup)
        assert any(r["status"] == "fail" for r in rep) == (name == "fail")
        text = json.dumps(rep, sort_keys=True)
        assert "/ (-1 + v^" in text
        assert hashlib.sha256(text.encode()).hexdigest() == pins[name], name


def test_gluing_reports_pinned():
    assert_gluing_reports(KModule.for_type("A2", 2), GLUING_REPORT_SHA256)


# the same fixtures on B2/6 and G2/2, pinned while the image of Phi_s^2 - 1
# was still solved by fraction-free elimination
GLUING_REPORT_SHA256_MORE = {
    ("B2", 6): {
        "pass": "328fa7e71cddf192c2753a1a28693f50fc4307ea6a807c90438951544ea32119",
        "fail": "9fa5484a9f83e2cbdc48550febfe1d185167564f92ec4b2e13f49273d53f2cf4",
        "scaled": "cb69689667f1ba8f201707a588a22c62c40d0c239bbb5434ff145c1ede2419da",
    },
    ("G2", 2): {
        "pass": "a70aa12a6fa7b7647a6559a1cb3b0e0ac437a00bfce6458f676de1f88ab3ffba",
        "fail": "e09809f0bb762e88a197bda781293eadf723c2157c617f37f77b4f3eb97e83dc",
        "scaled": "11707f507f12a98c73584813d9462753db7fcc2b61e12bd53615efc274d95347",
    },
}


@pytest.mark.parametrize("t, den", sorted(GLUING_REPORT_SHA256_MORE))
def test_gluing_reports_pinned_b2_g2(t, den):
    assert_gluing_reports(KModule.for_type(t, den), GLUING_REPORT_SHA256_MORE[(t, den)])


def test_minpoly_operator_non_unit_pivot(monkeypatch):
    # columns A e0 = (0, 1 + v^2, 1 + v + v^2), A e1 = (0, 0, 1),
    # A e2 = (0, 1, v): both entries of the Krylov vector A e0 have degree
    # span 2, so the least index gives the pivot 1 + v^2, and A^2 e0 meets
    # it with the entry 1 + v + v^2, so the reduction must scale by 1 + v^2
    cols = [
        [lp({}), lp({0: 1, 2: 1}), lp({0: 1, 1: 1, 2: 1})],
        [lp({}), lp({}), lp({0: 1})],
        [lp({}), lp({0: 1}), lp({1: 1})],
    ]

    def apply(vec):
        out = [LaurentPoly.zero()] * 3
        for c, col in zip(vec, cols):
            out = [o + c * x for o, x in zip(out, col)]
        return out

    sigmas = []
    orig = linalg.reduce_pair

    def traced(u, w, rows):
        out = orig(u, w, rows)
        sigmas.append(out[2])
        return out

    monkeypatch.setattr(linalg, "reduce_pair", traced)
    mp = linalg.minpoly_operator(apply, 3)
    assert lp({0: 1, 2: 1}) in sigmas
    # x^3 - v x^2 - x, the characteristic polynomial x (x^2 - v x - 1),
    # primitive, so the 1 + v^2 scaling is divided out again
    assert [c.render() for c in mp.xcoeffs] == ["0", "-1", "-v", "1"]


def test_minpoly_operator_skips_killed_basis_vectors(monkeypatch):
    # diag(1, v, v): ann(e0) = x - 1 is a proper divisor of the minimal
    # polynomial, so e1 must still run its Krylov sequence, on
    # (A - 1) e1 = (v - 1) e1; e2 is killed by (x - 1)(x - v) and is the
    # one skip
    diag = [lp({0: 1}), lp({1: 1}), lp({1: 1})]
    calls = []
    orig = linalg._krylov_annihilator

    def counted(apply_fn, vec, limit):
        calls.append(list(vec))
        return orig(apply_fn, vec, limit)

    monkeypatch.setattr(linalg, "_krylov_annihilator", counted)
    mp = linalg.minpoly_operator(lambda vec: [d * x for d, x in zip(diag, vec)], 3)
    assert [c.render() for c in mp.xcoeffs] == ["v", "-1 - v", "1"]
    zero = LaurentPoly.zero()
    assert calls == [[LaurentPoly.one(), zero, zero], [zero, lp({0: -1, 1: 1}), zero]]


def free_reference(M, terms):
    # sum of the free tuples y -> Phi_{y w^-1} k, from apply_element and the
    # tuple sum only
    g = M.group
    out = M.zero_tuple()
    for w, k in terms:
        out = out + M.tuple_from({y: M.apply_element(g.mul_id(y, g.inv_id(w)), k) for y in range(g.size)})
    return out


def shift_generators(M, shift):
    # Phi_s's least exponent is 0 in these modules; v^shift Phi_s raises it
    for blk in M.blocks:
        blk.gen_cols = [[[(r, f.shifted(shift)) for r, f in col] for col in cols] for cols in blk.gen_cols]


def shift_twist(M, shift):
    for blk in M.blocks:
        blk._solvers["twist"] = [[(r, f.shifted(shift)) for r, f in col] for col in blk.twist_cols]


def test_operators_outside_z_v_are_rejected():
    # the packed kernels pack Phi_s and F at exponent 0, so that an operator
    # step keeps the base of its input; v^-1 Phi_s or v^-1 F is refused
    rng = random.Random(3)
    M = KModule.for_type("A2", 2)
    k = rand_poly_vec(M, rng)
    t = free_reference(M, [(1, k)])
    shift_generators(M, -1)
    shift_twist(M, -1)
    calls = [
        lambda: M.free_sum([(1, k)]),
        lambda: M.check_gluing(t),
        lambda: M.canonical_identity(k),
        lambda: M.apply_twist_poly(annihilator_family(1), k),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="operator entries must lie in Z\\[v\\]"):
            call()


@pytest.mark.parametrize("t, den, shift", [("A1", 6, 0), ("A2", 2, 0), ("B2", 2, 0), ("A1", 6, 3)])
def test_free_sum_matches_apply_element_reference(t, den, shift):
    M = KModule.for_type(t, den)
    shift_generators(M, shift)
    rng = random.Random(13)
    q = lp({0: 1, 2: 1})
    field = [x / q if i % 2 else x for i, x in enumerate(M.random_vector(rng))]
    big = [lp({-3: 2**200 + rng.randrange(99), 2: -(2**199)}) if x else x for x in rand_poly_vec(M, rng)]
    start, blk, _ = list(M._parts([]))[1]
    one_block = [x if start <= i < start + blk.dim else 0 for i, x in enumerate(big)]
    w1, w2 = rng.randrange(M.group.size), rng.randrange(M.group.size)
    cases = [
        [(w1, field)],
        [(w1, field), (w2, big), (w1, rand_poly_vec(M, rng))],
        [(w2, one_block), (w1, one_block)],
        [(w1, [0] * M.dim)],
        [],
    ]
    for terms in cases:
        got = M.free_sum(terms)
        assert got == free_reference(M, terms), (t, shift, len(terms))
    assert M.make_free(w1, field) == free_reference(M, [(w1, field)])


@pytest.mark.parametrize("t, den", [("A2", 2), ("B2", 2)])
def test_random_free_combination_is_the_sum_of_its_draws(t, den):
    M = KModule.for_type(t, den)
    for seed in range(3):
        rng, again = random.Random(seed), random.Random(seed)
        got = M.random_free_combination(rng, 3)
        drawn = []
        for _ in range(3):
            w = again.randrange(M.group.size)
            drawn.append((w, M.random_vector(again)))
        assert got == free_reference(M, drawn)
        assert rng.random() == again.random()


def gluing_reference(M, t):
    # check_gluing with the right-hand sides formed by apply_generator in
    # LaurentPoly arithmetic, solved block by block by the same solver
    g = M.group
    out = []
    for s in range(g.rank):
        for w in range(g.size):
            rhs = [a - b for a, b in zip(t._c[g.lmul_id(s, w)], M.apply_generator(s, t._c[w]))]
            if not any(rhs):
                out.append(("pass", "0"))
                continue
            x = {}
            for start, blk, (part,) in M._parts([rhs]):
                got = blk.solve_image(s, {i: a for i, a in enumerate(part) if a}, t.den)
                if got is None:
                    x = None
                    break
                x.update((start + i, y) for i, y in got.items())
            out.append(("fail", None) if x is None else ("pass", _render_vec(x)))
    return out


@pytest.mark.parametrize("t, den, shift", [("A1", 6, 0), ("A2", 2, 0), ("B2", 2, 0), ("A1", 6, 3)])
def test_check_gluing_matches_laurent_reference(t, den, shift):
    M = KModule.for_type(t, den)
    shift_generators(M, shift)
    rng = random.Random(5)
    # built without free_sum, so that this test checks check_gluing alone
    free = free_reference(M, [(rng.randrange(M.group.size), M.random_vector(rng)) for _ in range(2)])
    cases = [
        free,
        free + M.tuple_from({1: M.basis_vector(block_starts(M)[1])}),
        free.scale(Qv(1, lp({0: 1, 2: 1}))),
        M.zero_tuple(),
        free.scale(lp({-3: 2**200 + 7, 1: -(2**199)})),
    ]
    verdicts = set()
    for tup in cases:
        rep = M.check_gluing(tup)
        got = [(r["status"], r.get("witness")) for r in rep]
        assert got == gluing_reference(M, tup), (t, shift)
        verdicts |= {status for status, _ in got}
    # v^shift Phi_s can make Phi_s^2 - 1 invertible, so that the bump passes
    assert verdicts == {"pass", "fail"} or shift


def image_echelon_reference(blk, s):
    """Reference for ``OrbitModule._build_pairs``: the image of Phi_s^2 - 1
    on blk, echelonized fraction-free over Z[v, v^-1] with preimages, the
    columns in index order.  A row (pivot, col, pre, d) has
    (Phi_s^2 - 1) pre = col and col[pivot] = d (``linalg.echelon_row``),
    col and pre sparse."""
    gen = blk.gen_cols[s]
    rows = []
    for j in range(blk.dim):
        col = {j: -LaurentPoly.one()}
        for r, c in gen[j]:
            for r2, c2 in gen[r]:
                col[r2] = col.get(r2, LaurentPoly.zero()) + c * c2
        col = {i: x for i, x in col.items() if x}
        row = linalg.echelon_row(*linalg.reduce_pair(col, {j: LaurentPoly.one()}, rows)[:2])
        if row is not None:
            rows.append(row)
    return rows


def solve_image_reference(rows, rhs, den):
    # reduce_pair keeps res = sigma * rhs + (Phi_s^2 - 1) negx, and negx is
    # supported on the columns that became rows
    res, negx, sigma = linalg.reduce_pair({i: a for i, a in enumerate(rhs) if a}, {}, rows)
    if res:
        return None
    return {i: Qv(-a, sigma * den) for i, a in negx.items()}


def pair_ranks(blk, s):
    return {2 if det else int(piv is not None) for _, _, _, piv, det, _ in blk._build_pairs(s)}


@pytest.mark.parametrize(
    "t, den, shift",
    [("A1", 6, 0), ("A2", 2, 0), ("B2", 2, 0), ("G2", 2, 0), ("A1", 6, 3), ("A2", 2, 3)],
)
def test_solve_image_matches_echelon_reference(t, den, shift):
    # both return the unique solution supported on the columns independent
    # of those before them, so verdicts and rendered witnesses agree
    M = KModule.for_type(t, den)
    # v^3 Phi_s makes every pair of Phi_s^2 - 1 invertible
    shift_generators(M, shift)
    rng = random.Random(11)
    dens = [LaurentPoly.one(), lp({0: 1, 2: 1}), lp({-1: 2, 0: -1, 2: 3})]
    ranks, verdicts = set(), set()
    for blk in M.blocks:
        for s in range(M.group.rank):
            ranks |= pair_ranks(blk, s)
            rows = image_echelon_reference(blk, s)
            phi = linalg.sparse_operator(blk.gen_cols[s], blk.dim)
            y = [lp({rng.randrange(-2, 3): rng.randrange(-3, 4)}) for _ in range(blk.dim)]
            image = [a - b for a, b in zip(phi(phi(y)), y)]
            bumped = list(image)
            bumped[rng.randrange(blk.dim)] += lp({1: 1})
            cases = [image, bumped, [x * lp({-2: 2**70 + 1}) for x in image], [LaurentPoly.zero()] * blk.dim]
            cases.append([lp({rng.randrange(-2, 3): rng.randrange(1, 4)}) if rng.random() < 0.3 else LaurentPoly.zero() for _ in range(blk.dim)])
            for rhs in cases:
                for d in dens:
                    got = blk.solve_image(s, {i: a for i, a in enumerate(rhs) if a}, d)
                    want = solve_image_reference(rows, rhs, d)
                    assert (got is None) == (want is None), (t, s)
                    if got is not None:
                        assert _render_vec(got) == _render_vec(want), (t, s)
                    verdicts.add(got is not None)
    # rank 0 pairs: A1/6's 1/2 block, where a_s squares to 1
    assert ranks == ({2} if shift else {0, 1})
    assert verdicts == ({True} if shift else {True, False})


def test_pair_table_rejects_an_entry_outside_its_pair():
    M = KModule.for_type("A2", 2)
    blk = M.blocks[0]
    # column 0 of Phi_1 is T_1 1_p: its pair is {0, its one row}
    (r, f), = blk.gen_cols[0][0]
    far = next(i for i in range(blk.dim) if i not in (0, r))
    blk.gen_cols[0][0] = [(r, f), (far, lp({0: 1}))]
    with pytest.raises(ValueError, match="pair"):
        blk.solve_image(0, {0: lp({0: 1})}, LaurentPoly.one())


def test_pack_contract():
    # OrbitModule.pack on the largest A2/2 block: parts come back from the
    # packed ints at their least exponent, gens[s] steps by Phi_s, b is the
    # stated bound for the step lists of check_gluing and polyconj_split,
    # and all-zero parts pack at b = 1, lo = 0
    M = KModule.for_type("A2", 2)
    blk = max(M.blocks, key=lambda blk: blk.dim)
    rng = random.Random(14)
    parts = [
        [
            lp({rng.randrange(-3, 3): rng.randrange(-9, 10)}) if rng.random() < 0.5 else LaurentPoly.zero()
            for _ in range(blk.dim)
        ]
        for _ in range(3)
    ]
    lo = min(x.min_exp for part in parts for x in part if x)
    norm = max(abs(c) for part in parts for x in part for c in x._c.values())
    C = blk.gen_norm
    assert lo < 0 and C > 1
    for steps, bound in (([0, 1], (1 + C) * norm), ([0, 1, 2, 3], (C * C + 1) * (C + 1) * norm)):
        gens, packed, got_lo, b = blk.pack(parts, steps)
        assert (got_lo, b) == (lo, bound.bit_length() + 1)
        assert [[unpack(n, lo, b) for n in row] for row in packed] == parts
        for s in range(M.group.rank):
            phi = linalg.sparse_operator(blk.gen_cols[s], blk.dim)
            for part, row in zip(parts, packed):
                assert [unpack(n, lo, b) for n in blk.apply_packed(gens, (s,), row)] == phi(part)
    gens, packed, lo, b = blk.pack([[LaurentPoly.zero()] * blk.dim] * 2, [0, 1])
    assert (lo, b) == (0, 1)
    assert packed == [[0] * blk.dim] * 2


def test_check_gluing_width_boundary():
    # t_sw - Phi_s t_w reaches its bound (1 + C) max |t|_inf at one
    # coefficient: t_w carries c against the sign of every term of a row r
    # of Phi_s with sum_j |(Phi_s)_rj|_1 = C, so (Phi_s t_w)_r = -C c v^E,
    # and (t_sw)_r = c v^E.  Under v^3 Phi_s every pair of Phi_s^2 - 1 is
    # invertible, so the witness shows the whole right-hand side.
    M = KModule.for_type("A1", 6)
    shift_generators(M, 3)
    starts = block_starts(M)
    g = M.group
    for c in (1, 3, 2**61 - 1):
        bi = max(range(len(M.blocks)), key=lambda i: M.blocks[i].gen_norm)
        blk, start = M.blocks[bi], starts[bi]
        rows = [
            {r: {} for r in range(blk.dim)} for _ in range(g.rank)
        ]
        for s, cols in enumerate(blk.gen_cols):
            for j, col in enumerate(cols):
                for r, f in col:
                    rows[s][r][j] = f
        s, r = max(
            ((s, r) for s in range(g.rank) for r in range(blk.dim)),
            key=lambda sr: sum(sum(map(abs, f._c.values())) for f in rows[sr[0]][sr[1]].values()),
        )
        E = 6
        tw = [LaurentPoly.zero()] * M.dim
        for j, f in rows[s][r].items():
            tw[start + j] = lp({E - k: -c if x > 0 else c for k, x in f._c.items()})
        tsw = [LaurentPoly.zero()] * M.dim
        tsw[start + r] = lp({E: c})
        t = M.tuple_from({0: tw, g.lmul_id(s, 0): tsw})
        rhs = [a - b for a, b in zip(tsw, M.apply_generator(s, tw))]
        assert max(abs(x) for a in rhs for x in a._c.values()) == (1 + blk.gen_norm) * c
        rep = M.check_gluing(t)
        assert [(q["status"], q.get("witness")) for q in rep] == gluing_reference(M, t)


def test_free_tuples_satisfy_gluing():
    rng = random.Random(20260814)
    for typ, den in (("A1", 6), ("A2", 2)):
        M = KModule.for_type(typ, den)
        rep = M.check_gluing(M.make_free(rng.randrange(M.group.size), rand_poly_vec(M, rng)))
        assert len(rep) == M.group.rank * M.group.size
        assert all(r["status"] == "pass" and "witness" in r for r in rep)
        assert all(r["status"] == "pass" for r in M.check_gluing(M.random_free_combination(rng, 3)))


def test_constant_tuple_on_trivial_orbit_passes_over_field():
    M = KModule.for_type("A1", 1)
    rep = M.check_gluing(M.constant_tuple())
    assert [r["status"] for r in rep] == ["pass", "pass"]
    # membership needs the localized scalar 1/(v^2 - 1)
    assert any("-1 + v^2" in r["witness"] for r in rep)


def test_constant_tuple_fails_outside_kernel_blocks():
    M = KModule.for_type("A1", 2)
    c = M.constant_tuple()
    assert any(r["status"] == "fail" for r in M.check_gluing(c))
    with pytest.raises(GluingViolation):
        M.polyconj_split(c)


def test_adversarial_perturbation_fails_gluing():
    M = KModule.for_type("A1", 6)
    t = M.make_free(0, M.unit_vector())
    assert all(r["status"] == "pass" for r in M.check_gluing(t))
    # the generator squares to the identity on the 1/2 block, so the image
    # of its square minus one vanishes there and any perturbation escapes
    oi = M.kl.orbit_index(parse_point("1/2"))
    delta = M.basis_vector(block_starts(M)[oi])
    t2 = t + M.tuple_from({1: delta})
    rep = M.check_gluing(t2)
    assert any(r["status"] == "fail" for r in rep)
    with pytest.raises(GluingViolation):
        M.polyconj_split(t2)


def test_iota_squares_to_fulltwist():
    rng = random.Random(11)
    M = KModule.for_type("A2", 2)
    t = M.random_free_combination(rng, 2)
    u = M.iota_sq(t)
    for w in range(M.group.size):
        assert list(u.get(w)) == M.apply_fulltwist(t.get(w))
    a = M.random_free_combination(rng, 2)
    assert M.iota(t + a) == M.iota(t) + M.iota(a)


def test_canonical_identity_exhaustive_rank_one():
    M = KModule.for_type("A1", 6)
    for i in range(M.dim):
        rep = M.canonical_identity(M.basis_vector(i))
        assert [r["status"] for r in rep] == ["pass", "pass"]


def test_canonical_identity_random_vectors():
    rng = random.Random(20260814)
    for typ in ("A2", "B2"):
        M = KModule.for_type(typ, 2)
        for _ in range(3):
            rep = M.canonical_identity(rand_poly_vec(M, rng))
            assert len(rep) == M.group.size
            assert all(r["status"] == "pass" for r in rep)


def test_canonical_identity_true_denominator(monkeypatch):
    M = KModule.for_type("A2", 2)
    k = M.random_vector(random.Random(5))
    kq = [x * Qv(1, lp({0: 1, 2: 1})) for x in k]
    assert any(not x.is_polynomial for x in kq)
    assert M.canonical_identity(kq) == M.canonical_identity(k)
    # double the first Phi_w0 the identity applies, the one on the y = e
    # side, in every block: in rank two rhs = Phi_y k - Phi_w0 Phi_{w0 y} k,
    # so that report alone fails, with lhs - rhs = Phi_w0 Phi_w0 k over Q(v)
    orig = M.apply_element
    packed = OrbitModule.apply_packed
    seen = set()

    def broken(blk, gens, word, vec):
        out = packed(blk, gens, word, vec)
        if blk in seen:
            return out
        seen.add(blk)
        assert tuple(word) == M.group.words[M.group.longest_id]
        return [2 * x for x in out]

    monkeypatch.setattr(OrbitModule, "apply_packed", broken)
    rep = M.canonical_identity(kq)
    assert [r["status"] for r in rep] == ["fail"] + ["pass"] * (M.group.size - 1)
    assert rep[0]["y"] == M.group.identity.word_str
    w0 = M.group.longest_id
    assert rep[0]["witness"] == _render_vec(orig(w0, orig(w0, kq)))
    assert "/ (1 + v^2)" in rep[0]["witness"]


def euler_reference(M, k):
    # per y, the rendered lhs - rhs of the Euler identity, or None where the
    # sides agree, from apply_element and LaurentPoly arithmetic only: the
    # left side sums Phi_{y x^-1} Phi_x k over nonempty J and the minimal
    # x in their cosets W_K x, K the complement of J (as perfbench's
    # euler_sides does, there over Q(v))
    g = M.group
    n = g.rank
    w0 = g.longest_id
    phi_x, memo = {}, {}

    def image(z, x):
        if x not in phi_x:
            phi_x[x] = M.apply_element(x, k)
        if (z, x) not in memo:
            memo[z, x] = M.apply_element(z, phi_x[x])
        return memo[z, x]

    out = []
    for y in range(g.size):
        lhs = [LaurentPoly.zero()] * M.dim
        for bits in range(1, 1 << n):
            kset = [s for s in range(n) if not bits >> s & 1]
            sign = 1 if bin(bits).count("1") % 2 else -1
            for x in range(g.size):
                if all(g.lengths[g.lmul_id(s, x)] > g.lengths[x] for s in kset):
                    part = image(g.mul_id(y, g.inv_id(x)), x)
                    lhs = [a + b if sign > 0 else a - b for a, b in zip(lhs, part)]
        top = M.apply_element(w0, M.apply_element(g.mul_id(w0, y), k))
        phi_y = M.apply_element(y, k)
        rhs = [a + b if (n - 1) % 2 == 0 else a - b for a, b in zip(phi_y, top)]
        diff = [a - b for a, b in zip(lhs, rhs)]
        out.append(_render_vec([Qv(d) for d in diff]) if any(diff) else None)
    return out


@pytest.mark.parametrize(
    "t, den, shift, broken",
    [
        ("A1", 6, 0, False),
        ("A2", 2, 0, False),
        ("B2", 2, 0, False),
        ("G2", 6, 0, False),
        ("A2", 2, 0, True),
        ("B2", 2, 2, True),
    ],
)
def test_canonical_identity_matches_laurent_reference(t, den, shift, broken):
    M = KModule.for_type(t, den)
    # v^shift Phi_s keeps the identity, and adding v^3 to one entry of Phi_1
    # per block breaks the relations and the identity at some y.  The
    # reference reads the same columns, so verdicts and witnesses must still
    # agree.
    shift_generators(M, shift)
    if broken:
        for blk in M.blocks:
            (r, f), *rest = blk.gen_cols[0][0]
            blk.gen_cols[0][0] = [(r, f + lp({3: 1}))] + rest
            blk.gen_norm = _gen_norm(blk.gen_cols, blk.dim)
    rng = random.Random(41)
    zero = LaurentPoly.zero()
    k = rand_poly_vec(M, rng, density=0.6)
    start, blk, _ = list(M._parts([]))[-1]
    vecs = [
        k,
        [zero] * M.dim,
        [x if start <= i < start + blk.dim else zero for i, x in enumerate(k)],
    ]
    if t == "A1":
        vecs += [[lp({0: 1}) if i == j else zero for j in range(M.dim)] for i in range(M.dim)]
    if t in ("A2", "B2"):
        vecs.append([x.shifted(-5) for x in k])
        vecs.append(
            [lp({-2: 2**200 + rng.randrange(99), 1: -(2**199)}) if x else x for x in k]
        )
    if t == "G2":
        vecs = vecs[:1]
    verdicts = []
    for vec in vecs:
        rep = M.canonical_identity(vec)
        want = euler_reference(M, vec)
        assert [r["y"] for r in rep] == [el.word_str for el in M.group.elements]
        assert [r["witness"] for r in rep] == want, (t, shift)
        assert [r["status"] for r in rep] == ["pass" if w is None else "fail" for w in want]
        verdicts += [r["status"] for r in rep]
    assert ("fail" in verdicts) == broken


def test_packed_sum_takes_integer_multiplicities():
    # c = +-1 adds or subtracts; any other c multiplies
    vecs = [[5, -(2**70), 0], [3, 1, -2], [2**65, 7, 1]]
    terms = list(zip((1, -3, 2), vecs))
    assert _packed_sum(terms) == [sum(c * v[i] for c, v in terms) for i in range(3)]
    assert _packed_sum([(-1, vecs[0]), (0, vecs[1])]) == [-5, 2**70, 0]


@pytest.mark.parametrize("t", ["A1", "A2", "B2", "G2", "A3", "B3", "C3", "A4", "D4"])
def test_canonical_multiplicities_are_e_and_w0(t):
    # x is a minimal representative of W_K x exactly when its left descent
    # set D(x) misses K, so mu(x) = sum of (-1)^(|J|+1) over nonempty J
    # containing D(x): 1 at D(x) = {}, (-1)^(n+1) at D(x) = S, else 0
    W = build_weyl(t)
    want = {W.id_of(W.identity): 1, W.longest_id: (-1) ** (W.rank + 1)}
    assert canonical_multiplicities(W) == want


@pytest.mark.parametrize("t", ["B3", "C3"])
def test_canonical_identity_beyond_polishchuk(t):
    # rank three outside type A, where Polishchuk's proof does not reach:
    # random vectors pass, and v^3 added to one entry of Phi_1 per block
    # makes the same draws fail at some y.  On a 2-core VM (CPython 3.11)
    # each type took 0.40-0.54 s, and 3.1-4.0 s when every (J, x) term was
    # summed; the bound is about 5x the former and below the latter.
    start = time.perf_counter()
    M = KModule.for_type(t, 2)
    draws = [M.random_vector(random.Random(seed)) for seed in range(3)]
    for k in draws:
        assert all(r["status"] == "pass" for r in M.canonical_identity(k))
    for blk in M.blocks:
        (r, f), *rest = blk.gen_cols[0][0]
        blk.gen_cols[0][0] = [(r, f + lp({3: 1}))] + rest
        blk.gen_norm = _gen_norm(blk.gen_cols, blk.dim)
    verdicts = [r["status"] for k in draws for r in M.canonical_identity(k)]
    assert "fail" in verdicts
    assert time.perf_counter() - start < 2.5, t


@pytest.mark.parametrize("delta", [-1, 1])
def test_vectors_of_wrong_dimension_are_rejected(delta):
    M = KModule.for_type("A2", 2)
    vec = [LaurentPoly.one()] * (M.dim + delta)
    calls = [
        lambda: M.canonical_identity(vec),
        lambda: M.apply_generator(0, vec),
        lambda: M.apply_twist_poly(annihilator_family(1), vec),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="vector has wrong dimension"):
            call()


def test_polyconj_split_contracts():
    rng = random.Random(31)
    M = KModule.for_type("A1", 6)
    a = M.random_free_combination(rng, 3)
    a0, a1, cert = M.polyconj_split(a)
    assert cert == {
        "m": 2,
        "p": p_poly(2).render(),
        "sum": "pass",
        "free": "pass",
        "annihilated": "pass",
    }
    assert a0 + a1 == a.scale(p_poly(2))
    # the free part is determined by its identity component
    assert a0 == M.make_free(0, a0.get(0))
    pt = annihilator_family(2, tilde=True)
    for w in range(M.group.size):
        assert not any(M.apply_twist_poly(pt, a1.get(w)))
    assert all(r["status"] == "pass" for r in M.check_gluing(a1))


def test_polyconj_field_valued_input():
    rng = random.Random(3)
    M = KModule.for_type("A1", 2)
    a = M.random_free_combination(rng, 2).scale(Qv(1, 3))
    a0, a1, cert = M.polyconj_split(a)
    assert cert["sum"] == "pass" and cert["annihilated"] == "pass"
    assert a0 + a1 == a.scale(p_poly(2))


def test_polyconj_paper_range_fails_in_rank_one():
    # the full twist has eigenvalue v^4 already in rank one, outside the
    # length-of-w0 exponent range, so the splitting contract breaks there
    M = KModule.for_type("A1", 6)
    a = M.make_free(0, M.basis_vector(0))
    a0, a1, cert = M.polyconj_split(a, m="safe")
    assert cert["free"] == "pass"
    with pytest.raises(IdentityFailure):
        M.polyconj_split(a, m="paper")


def test_annihilation_check_sees_a_bumped_a1(monkeypatch):
    # check (iv) decides Ptilde(F) a1 = 0 on the packed accumulators
    M = KModule.for_type("A2", 2)
    a = M.random_free_combination(random.Random(3), 2)
    a0, a1, _ = M.polyconj_split(a)
    assert a.den == LaurentPoly.one()
    ptilde = annihilator_family(resolve_m(None, M.group), tilde=True)
    assert all(M._twist_residual(ptilde, vec) is None for vec in a1._c)
    for w, i in ((0, 0), (3, M.dim - 1)):
        bumped = list(a1._c[w])
        bumped[i] = bumped[i] + lp({1: 1})
        assert M._twist_residual(ptilde, bumped) == M.apply_twist_poly(ptilde, bumped)
        assert any(M.apply_twist_poly(ptilde, bumped))
    # moving v a0 from a0 into a1 keeps checks (i)-(iii) true, since (1 - v) a0
    # is still Phi_s^2-fixed and free, so only (iv) can see that
    # Ptilde(F) a1 = v Ptilde(F) a0 is nonzero
    moved = [[lp({1: 1}) * x for x in vec] for vec in a0._c]
    calls = []
    orig = KModule.apply_twist_poly

    def bumped_split(self, bp, vec):
        w = calls.count(bp)
        calls.append(bp)
        sign = -1 if bp == ptilde else 1
        return [x + sign * d for x, d in zip(orig(self, bp, vec), moved[w])]

    monkeypatch.setattr(KModule, "apply_twist_poly", bumped_split)
    with pytest.raises(IdentityFailure, match="Ptilde\\(F\\) does not annihilate a1 at e: \\[\\d+:"):
        M.polyconj_split(a)


def test_euclid_descent():
    rng = random.Random(31)
    M = KModule.for_type("A1", 6)
    a = M.random_free_combination(rng, 3)
    _, a1, _ = M.polyconj_split(a)
    g, rep = M.euclid_descent(a1, 1)
    assert rep["status"] == "pass" and rep["m"] == 2
    assert g.degree == annihilator_family(2, tilde=True).degree - 1
    g2, rep2 = M.euclid_descent(a1, 2)
    assert rep2["status"] == "pass" and g2.degree == 3
    with pytest.raises(PreconditionFailure):
        M.euclid_descent(a, 1)
    with pytest.raises(ValueError):
        M.euclid_descent(a1, 0)


def test_euclid_descent_r2_matches_horner_reference():
    # the descent's quotient g, applied through apply_fulltwist and ring
    # arithmetic only, gives p(v)^2 a1 = g(F)(F - 1) a1 on B2/2
    M = KModule.for_type("B2", 2)
    a = M.random_free_combination(random.Random(23), 2)
    _, a1, _ = M.polyconj_split(a)
    g, rep = M.euclid_descent(a1, 2)
    mm = resolve_m(None, M.group)
    assert rep == {"check": "euclid_descent", "r": 2, "m": mm, "status": "pass"}
    assert g.degree == 2 * mm - 1
    p2 = p_poly(mm) ** 2
    for w in range(M.group.size):
        vec = list(a1._c[w])
        fm = [x - y for x, y in zip(M.apply_fulltwist(vec), vec)]
        assert horner_reference(M, g, fm) == [p2 * x for x in vec]


def test_express_free_tuple():
    M = KModule.for_type("A1", 6)
    res = M.express_in_free_span(M.make_free(0, M.basis_vector(3)))
    assert res == {
        "admissible": True,
        "max_power": 0,
        "m": 2,
        "coefficients": {"e|3": "1"},
    }


def test_express_constant_tuple_needs_localization():
    M = KModule.for_type("A1", 1)
    c = M.constant_tuple()
    res = M.express_in_free_span(c)
    assert res["admissible"] and res["max_power"] == 1
    assert any("1 - v^2" in s for s in res["coefficients"].values())
    for k in (1, 2, 3):
        res = M.express_in_free_span(c.scale(p_poly(2) ** k))
        assert res["admissible"] and res["max_power"] == 0


def test_express_detects_non_membership():
    M = KModule.for_type("A1", 2)
    assert M.express_in_free_span(M.constant_tuple()) is None


def test_express_scaled_combination():
    rng = random.Random(9)
    M = KModule.for_type("A2", 1)
    a = M.random_free_combination(rng, 2)
    mm = resolve_m("safe", M.group)
    for k in (1, 3):
        res = M.express_in_free_span(a.scale(p_poly(mm) ** k))
        assert res is not None and res["admissible"]


def dense_solve_free(blk, parts):
    """Reference for ``OrbitModule.solve_free``: every stacked free tuple
    F(w, e_j), entry (y, r) = (Phi_{y w^-1} e_j)_r, as a dense column in
    (w, j) order, solved over Q(v) by ``linalg.solve_linear``."""
    g = blk.alg.group
    n = blk.dim
    zero, one = LaurentPoly.zero(), LaurentPoly.one()
    ops = [linalg.sparse_operator(cols, n) for cols in blk.gen_cols]

    def image(z, vec):
        for s in reversed(g.words[z]):
            vec = ops[s](vec)
        return vec

    units = [[zero] * j + [one] + [zero] * (n - j - 1) for j in range(n)]
    tabs = [[image(z, u) for z in range(g.size)] for u in units]
    cols, labels = [], []
    for w in range(g.size):
        winv = g.inv_id(w)
        for j in range(n):
            cols.append([Qv(x) for y in range(g.size) for x in tabs[j][g.mul_id(y, winv)]])
            labels.append((w, j))
    rows = [list(row) for row in zip(*cols)]
    sol = linalg.solve_linear(rows, [Qv(x) for part in parts for x in part])
    if sol is None:
        return None
    return {lab: c for lab, c in zip(labels, sol) if c}


def c08_tuples(t, den, count=3, powers=(1, 2, 3)):
    """c08's first tuples times p(v)^k, k in powers."""
    M = KModule.for_type(t, den)
    p = p_poly(resolve_m("safe", M.group))
    rng = random.Random(4242)
    tuples = [M.random_free_combination(rng, terms=2) for _ in range(count)]
    return M, [a.scale(p ** k) for a in tuples for k in powers]


def free_span_cases():
    M = KModule.for_type("A1", 1)
    yield "A1/1 constant", M, [M.constant_tuple()]
    M = KModule.for_type("A1", 2)
    yield "A1/2 constant", M, [M.constant_tuple()]
    M = KModule.for_type("A2", 1)
    a = M.random_free_combination(random.Random(9), 2)
    yield "A2/1", M, [a.scale(p_poly(resolve_m("safe", M.group)) ** k) for k in (0, 1, 3)]
    yield ("A2/3 c08",) + c08_tuples("A2", 3)
    # the dense reference takes about 2 s per B2/2 tuple, so one
    M, scaled = c08_tuples("B2", 2, count=1, powers=(1,))
    yield "B2/2 c08", M, scaled


def test_free_span_matches_dense_oracle(monkeypatch):
    # the cached echelon returns the coefficients solve_linear does: both are
    # the unique solution on the greedily chosen independent (w, j) columns
    results = {}
    for name, M, tuples in free_span_cases():
        got = [M.express_in_free_span(a) for a in tuples]
        with monkeypatch.context() as mp:
            mp.setattr(OrbitModule, "solve_free", dense_solve_free)
            want = [M.express_in_free_span(a) for a in tuples]
        assert got == want, name
        results[name] = got
    # the cases cover Q(v) denominators, non-membership and rank deficiency
    assert results["A1/1 constant"][0]["max_power"] == 1
    assert results["A1/2 constant"] == [None]
    assert all(r is not None and r["admissible"] for r in results["A2/3 c08"])
    assert all(r is not None and r["admissible"] for r in results["B2/2 c08"])
    # some block's rank, dim plus the residual echelon's rank, is below its
    # |W| dim stacked columns
    M = KModule.for_type("B2", 2)
    assert any(blk.dim + len(blk._solver("free", blk._build_free_solver)[0]) < blk.dim * M.group.size for blk in M.blocks)


@pytest.mark.parametrize(
    "t, den, ranks", [("A2", 2, [19, 27]), ("A2", 3, [19, 27, 27, 27, 12]), ("B2", 2, [33, 24, 18])]
)
def test_free_span_rank_is_dim_plus_residual_rank(t, den, ranks):
    # the free span of a block is the direct sum of the F(e, e_j) and the
    # residuals R(w, j), so its rank is dim + rank R; the pinned ranks are
    # those of the echelon of all |W| dim columns, and dense elimination mod
    # 2^61 - 1 at a random point gave the same on A2/2 and B2/2
    M = KModule.for_type(t, den)
    got = []
    for blk in M.blocks:
        rows, phi = blk._solver("free", blk._build_free_solver)
        # row i combines the residuals of its own label, the i-th pivot, and
        # of the pivots before it; e's columns are never rows
        labels = list(phi)
        assert len(labels) == len(rows) and all(w != 0 for w, _ in labels)
        for i, (_, _, rw, _) in enumerate(rows):
            assert labels[i] in rw and set(rw) <= set(labels[: i + 1])
        got.append(blk.dim + len(rows))
    assert got == ranks


def test_free_span_of_a_block_with_zero_residuals():
    # on A2/3's 12-dim block every residual is zero, so the span is that of
    # the F(e, e_j) alone: a tuple is in it exactly when it is F(e, a_e)
    M = KModule.for_type("A2", 3)
    (start, blk, _), = [p for p in M._parts([]) if p[1].dim == 12]
    rows, phi = blk._solver("free", blk._build_free_solver)
    assert rows == [] and phi == {}
    rng = random.Random(17)
    k = [x if start <= i < start + 12 else LaurentPoly.zero() for i, x in enumerate(rand_poly_vec(M, rng, 0.6))]
    w = 4
    a = M.make_free(w, k)
    parts = [list(vec[start : start + 12]) for vec in a._c]
    got = blk.solve_free(parts)
    assert got == dense_solve_free(blk, parts)
    assert got and all(lab[0] == 0 for lab in got)
    # the coefficients are a_e itself
    assert got == {(0, j): Qv(x) for j, x in enumerate(parts[0]) if x}
    # a tuple off F(e, a_e) at some y != e is outside the span
    parts[3][5] = parts[3][5] + lp({1: 1})
    assert blk.solve_free(parts) is None and dense_solve_free(blk, parts) is None


def test_free_solver_built_once_per_block(monkeypatch):
    builds = []
    orig = OrbitModule._build_free_solver

    def counted(self):
        builds.append(id(self))
        time.sleep(0.005)  # a slow build widens the window a race needs
        return orig(self)

    monkeypatch.setattr(OrbitModule, "_build_free_solver", counted)
    M, scaled = c08_tuples("A2", 3, count=1)
    outs = [M.express_in_free_span(a) for a in scaled]
    assert all(out is not None and out["admissible"] for out in outs)
    assert sorted(builds) == sorted(id(blk) for blk in M.blocks)

    # two threads on a fresh module: each block's solver is still built once
    builds.clear()
    M, scaled = c08_tuples("A2", 3, count=1)
    got = []
    workers = [threading.Thread(target=lambda a=a: got.append(M.express_in_free_span(a))) for a in scaled[:2]]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, so a race shows
    try:
        for th in workers:
            th.start()
        for th in workers:
            th.join(timeout=300)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in workers)
    assert sorted(got, key=repr) == sorted(outs[:2], key=repr)
    assert sorted(builds) == sorted(id(blk) for blk in M.blocks)


def test_resolve_m():
    W = build_weyl("B2")
    assert resolve_m(None, W) == 8
    assert resolve_m("safe", W) == 8
    assert resolve_m("paper", W) == 4
    assert resolve_m(5, W) == 5
    with pytest.raises(ValueError):
        resolve_m(0, W)
    with pytest.raises(ValueError):
        resolve_m("fast", W)


def test_module_from_algebra_shares_group():
    kl = KLAlgebra.for_type("B2", 2)
    M = KModule(kl)
    assert M.group is kl.group
    assert M.dim == sum(a.dim for a in kl.algebras)


def test_solver_built_once_under_concurrent_gluing_checks(monkeypatch):
    # the cli runs serially, but library callers may share a module between
    # threads: each cached builder (the pair table of Phi_s^2 - 1 per s, the
    # twist columns, the minimal polynomial of F and each polynomial reduced
    # by it, the generators packed per width, the free-span echelon) must
    # still run exactly once per block.
    # Builders nest (a reduced polynomial reads the minimal polynomial, which
    # reads the twist columns), so a non-reentrant lock would deadlock: the
    # threads are daemons joined against one deadline, and a deadlock fails
    builds = []
    for name in ("_build_pairs", "_build_twist", "_build_minpoly", "_build_mod", "_build_gens", "_build_free_solver"):

        def counted(self, *args, orig=getattr(OrbitModule, name), name=name):
            builds.append((id(self), name) + args)
            time.sleep(0.005)  # a slow build widens the window a race needs
            return orig(self, *args)

        monkeypatch.setattr(OrbitModule, name, counted)
    M = KModule.for_type("A2", 3)
    rng = random.Random(5)
    tuples = [M.random_free_combination(rng, 3) for _ in range(4)]
    # the free-span echelon is slow to build on A2/3, so it races on A2/2
    N = KModule.for_type("A2", 2)
    small = [N.random_free_combination(rng, 3) for _ in range(2)]
    ptilde = annihilator_family(resolve_m(None, M.group), tilde=True)
    jobs = [lambda t=t: M.check_gluing(t) for t in tuples]
    jobs += [lambda t=t: M.apply_fulltwist(t.get(1)) for t in tuples]
    jobs += [lambda t=t: N.express_in_free_span(t) for t in small]
    jobs += [lambda t=t: M.apply_twist_poly(ptilde, t.get(2)) for t in tuples]
    jobs += [lambda t=t: N.polyconj_split(t)[2] for t in small]
    results = [None] * len(jobs)

    def run(i):
        results[i] = jobs[i]()

    workers = [threading.Thread(target=run, args=(i,), daemon=True) for i in range(len(jobs))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, so a race shows
    deadline = time.monotonic() + 300
    try:
        for th in workers:
            th.start()
        for th in workers:
            th.join(timeout=max(0.0, deadline - time.monotonic()))
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in workers), "a builder deadlocked or ran past the deadline"
    assert all(r["status"] == "pass" for rep in results[:4] for r in rep)
    monkeypatch.undo()
    fresh = KModule.for_type("A2", 3)
    assert results[4:8] == [fresh.apply_fulltwist(t.get(1)) for t in tuples]
    assert all(out is not None and out["admissible"] for out in results[8:10])
    assert results[10:14] == [fresh.apply_twist_poly(ptilde, t.get(2)) for t in tuples]
    assert all(cert["annihilated"] == "pass" for cert in results[14:])
    assert any(key == ("mod", ptilde) for blk in M.blocks for key in blk._solvers)
    want = []
    for blk in list(M.blocks) + list(N.blocks):
        # a pair table is built only for a block where some right-hand side
        # is nonzero, and a reduced polynomial only for a nonzero vector
        for key in blk._solvers:
            if isinstance(key, int):
                want.append((id(blk), "_build_pairs", key))
            elif isinstance(key, tuple):
                want.append((id(blk), {"mod": "_build_mod", "gens": "_build_gens"}[key[0]], key[1]))
            else:
                want.append((id(blk), {"twist": "_build_twist", "minpoly": "_build_minpoly", "free": "_build_free_solver"}[key]))
    assert all(blk._solvers.keys() >= {"twist", "minpoly"} for blk in M.blocks)
    assert all("free" in blk._solvers for blk in N.blocks)
    assert sorted(builds, key=repr) == sorted(want, key=repr)


@pytest.mark.parametrize("t, den", [("A1", 6), ("A2", 6), ("B2", 6), ("G2", 6), ("A3", 2)])
def test_step_columns_match_generator_columns(t, den):
    # Phi_s's columns, one step per basis element, equal those of the
    # general product with pi_generator(s)
    kl = KLAlgebra.for_type(t, den)
    for alg in kl.algebras:
        blk = OrbitModule(alg)
        for s in range(kl.group.rank):
            assert blk.gen_cols[s] == alg.columns(alg.pi_generator(s))
