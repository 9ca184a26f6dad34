import random

import pytest

from klwb import klalgebra, linalg
from klwb.charpoints import CharacterPoint, orbit, orbit_set, parse_point
from klwb.coxeter import build_weyl
from klwb.hecke import LY, HeckeAlgebra, hecke_algebra
from klwb.klalgebra import KLAlgebra, OrbitAlgebra, OrbitHeckeElement, OrbitMismatch
from klwb.rings import BivarPoly, LaurentPoly, divmod_x


def lp(d):
    return LaurentPoly(d)


def test_block_products_rank1():
    W = build_weyl("A1")
    alg = OrbitAlgebra(W, orbit(W, parse_point("1/2")))
    ts = alg.basis(W.gens[0], 0)
    # outside the kernel the square collapses to the idempotent
    assert alg.mul(ts, ts) == alg.idempotent(0)
    algt = OrbitAlgebra(W, orbit(W, parse_point("0")))
    t0 = algt.basis(W.gens[0], 0)
    assert algt.mul(t0, t0) == algt.idempotent(0).scale(lp({2: 1})) + t0.scale(
        lp({0: 1, 2: -1})
    )


def test_idempotents_orthogonal():
    W = build_weyl("A1")
    alg = OrbitAlgebra(W, orbit(W, parse_point("1/3")))
    assert alg.orbit.size == 2
    e0, e1 = alg.idempotent(0), alg.idempotent(1)
    assert alg.mul(e0, e0) == e0
    assert alg.mul(e1, e1) == e1
    assert alg.mul(e0, e1).is_zero
    assert alg.mul(e0 + e1, e0 + e1) == alg.unit()


def test_idempotent_commutation_rule():
    # 1_{wL} T_w 1_L = T_w 1_L and 1_M T_w 1_L = 0 for M != wL
    W = build_weyl("A2")
    alg = OrbitAlgebra(W, orbit(W, parse_point("1/2,0")))
    rng = random.Random(20260814)
    for _ in range(20):
        eid = rng.randrange(W.size)
        pidx = rng.randrange(alg.orbit.size)
        t = alg.basis(eid, pidx)
        moved = alg.moved_point(eid, pidx)
        assert alg.mul(alg.idempotent(moved), t) == t
        for other in range(alg.orbit.size):
            if other != moved:
                assert alg.mul(alg.idempotent(other), t).is_zero


def test_moved_point_table():
    from klwb.charpoints import act

    W = build_weyl("B2")
    alg = OrbitAlgebra(W, orbit(W, parse_point("1/3,0")))
    for eid in range(W.size):
        for pidx, p in enumerate(alg.orbit.points):
            expect = alg.orbit.index_of(act(W, W.elements[eid], p))
            assert alg.moved_point(eid, pidx) == expect


def test_pi_generator_signs():
    W = build_weyl("A1")
    algt = OrbitAlgebra(W, orbit(W, parse_point("0")))
    assert algt.pi_generator(0) == algt.basis(W.gens[0], 0)
    algh = OrbitAlgebra(W, orbit(W, parse_point("1/2")))
    assert algh.pi_generator(0) == -algh.basis(W.gens[0], 0)

    # mixed signs across the blocks of one orbit
    W2 = build_weyl("A2")
    alg = OrbitAlgebra(W2, orbit(W2, parse_point("1/2,0")))
    a = alg.pi_generator(0)
    for pidx, point in enumerate(alg.orbit.points):
        sign = 1 if point.coords[0] == 0 else -1
        assert a.coefficient(W2.gens[0], pidx) == LaurentPoly.const(sign)


def test_orbit_mismatch():
    W = build_weyl("A1")
    a1 = OrbitAlgebra(W, orbit(W, parse_point("0")))
    a2 = OrbitAlgebra(W, orbit(W, parse_point("1/2")))
    with pytest.raises(OrbitMismatch):
        a1.unit() + a2.unit()
    with pytest.raises(OrbitMismatch):
        a1.mul(a1.unit(), a2.unit())
    kl = KLAlgebra.for_type("A1", den_bound=2)
    other = KLAlgebra.for_type("A1", den_bound=2)
    with pytest.raises(OrbitMismatch):
        kl.mul(kl.unit(), other.unit())
    with pytest.raises(OrbitMismatch):
        kl.orbit_index(parse_point("1/7"))


def test_element_arithmetic_and_render():
    W = build_weyl("A1")
    alg = OrbitAlgebra(W, orbit(W, parse_point("0")))
    t = alg.basis(W.gens[0], 0)
    assert (t - t).is_zero
    assert t.scale(0).is_zero
    assert (3 * t).coefficient(W.gens[0], 0) == LaurentPoly.const(3)
    assert t * lp({2: 1}) == t.scale(lp({2: 1}))
    assert "T[1]1[0]" in t.render()
    assert alg.zero().render() == "0"
    assert t.to_json() == [["1", "0", "1"]]


def test_word_independence():
    kl = KLAlgebra.for_type("A2", den_bound=3)
    assert kl.element([0, 1, 0]) == kl.element([1, 0, 1])
    klb = KLAlgebra.for_type("B2", den_bound=2)
    assert klb.element([0, 1, 0, 1]) == klb.element([1, 0, 1, 0])
    # element_of follows the canonical word
    W = kl.group
    assert kl.element_of(W.longest()) == kl.element(W.words[W.longest_id])
    assert kl.element_of(W.identity) == kl.unit()


def test_kl_element_extensional_equality():
    kl = KLAlgebra.for_type("A2", den_bound=2)
    a = kl.element([0, 1, 0])
    b = kl.element([1, 0, 1])
    assert a == b and a.word != b.word
    j = a.to_json()
    assert j["word"] == [1, 2, 1]
    assert set(j["projections"]) == {o.representative.render() for o in kl.orbits}


def test_braid_suite():
    for t, den in (("A2", 3), ("B2", 3), ("G2", 2)):
        kl = KLAlgebra.for_type(t, den_bound=den)
        for r in kl.check_braid():
            assert r["status"] == "pass", r


def test_cubic_and_square_identities():
    for t, den in (("A1", 6), ("A2", 4)):
        kl = KLAlgebra.for_type(t, den_bound=den)
        for s in range(kl.group.rank):
            for r in kl.verify_cubic(s):
                assert r["status"] == "pass", r
            for r in kl.operator_square_identity(s):
                assert r["status"] == "pass", r


def test_cubic_report_shape():
    kl = KLAlgebra.for_type("A1", den_bound=2)
    reports = kl.verify_cubic(0)
    assert [r["orbit"] for r in reports] == ["0", "1/2"]
    assert all(r["check"] == "cubic" and r["type"] == "A1" for r in reports)


def test_twisted_product_randomized():
    rng = random.Random(20260814)
    for t in ("A2", "B2"):
        kl = KLAlgebra.for_type(t, den_bound=3)
        n = kl.group.rank
        for _ in range(40):
            w1 = [rng.randrange(n) for _ in range(rng.randrange(0, 5))]
            w2 = [rng.randrange(n) for _ in range(rng.randrange(0, 5))]
            assert kl.check_twisted_product(w1, w2)


def test_projection_of_kernel_words_is_plain_basis():
    # for letters inside the kernel of a point, a_w projects to T_w 1_L
    for t in ("A2", "B2"):
        kl = KLAlgebra.for_type(t, den_bound=3)
        W = kl.group
        for i, orb in enumerate(kl.orbits):
            for pidx, point in enumerate(orb.points):
                alg = kl.algebras[i]
                letters = [s for s in range(W.rank) if alg._in_wl[s][pidx]]
                if not letters:
                    continue
                for els in W.parabolic_subgroup_elements(letters):
                    col = kl.element_of(els).projections[i].column(pidx)
                    assert col == alg.basis(W.id_of(els), pidx)


def test_pi_square_outside_kernel_is_unit():
    # a_s^2 restricted to a block with s outside the kernel is the idempotent
    kl = KLAlgebra.for_type("A2", den_bound=3)
    for i, orb in enumerate(kl.orbits):
        alg = kl.algebras[i]
        for s in range(kl.group.rank):
            sq = kl.mul(kl.generator(s), kl.generator(s)).projections[i]
            for pidx in range(orb.size):
                if not alg._in_wl[s][pidx]:
                    assert sq.column(pidx) == alg.idempotent(pidx)


def test_w0_identity():
    for t in ("A1", "A2"):
        kl = KLAlgebra.for_type(t, den_bound=6)
        for r in kl.check_w0_identity():
            assert r["status"] == "pass", r


def test_fulltwist_minpoly_a1():
    kl = KLAlgebra.for_type("A1", den_bound=6)
    mp, verdicts = kl.fulltwist_minpoly()
    x_minus = BivarPoly.x_minus
    assert mp == x_minus(LaurentPoly.one()) * x_minus(lp({4: 1}))
    assert verdicts == {"paper": False, "safe": True}


def test_fulltwist_minpoly_a2():
    kl = KLAlgebra.for_type("A2", den_bound=3)
    mp, verdicts = kl.fulltwist_minpoly()
    x_minus = BivarPoly.x_minus
    expect = (
        x_minus(LaurentPoly.one())
        * x_minus(lp({4: 1}))
        * x_minus(lp({6: 1}))
        * x_minus(lp({12: 1}))
    )
    assert mp == expect
    assert verdicts == {"paper": False, "safe": True}


def kills_every_basis_vector(bp, apply, dim):
    # bp(A) e_i = 0 for every i, by Horner on the sparse operator
    for i in range(dim):
        e = [LaurentPoly.zero()] * dim
        e[i] = LaurentPoly.one()
        acc = [LaurentPoly.zero()] * dim
        for c in reversed(bp.xcoeffs):
            acc = [a + c * x for a, x in zip(apply(acc), e)]
        if any(acc):
            return False
    return True


@pytest.mark.parametrize("t", ["A2", "B2"])
def test_fulltwist_minpoly_runs_one_krylov_sequence_per_block(t, monkeypatch):
    # on every block the first basis vector's annihilator is already the
    # block's minimal polynomial, so every other basis vector is skipped;
    # only the Krylov runs that minpoly_operator starts are counted, not
    # those of lcm_x on its quotient spaces
    calls = []
    inside = []
    orig_krylov = linalg._krylov_annihilator
    orig_minpoly = klalgebra.minpoly_operator

    def counted(apply_fn, vec, limit):
        if inside:
            calls.append(len(vec))
        return orig_krylov(apply_fn, vec, limit)

    def minpoly(apply_fn, dim, max_degree):
        inside.append(dim)
        out = orig_minpoly(apply_fn, dim, max_degree)
        inside.pop()
        return out

    monkeypatch.setattr(linalg, "_krylov_annihilator", counted)
    monkeypatch.setattr(klalgebra, "minpoly_operator", minpoly)
    kl = KLAlgebra.for_type(t, 6)
    mp, _ = kl.fulltwist_minpoly()
    assert 0 < len(calls) <= len(kl.algebras)
    # the skips are exact: mp kills every basis vector of every block, and
    # mp is a product of distinct x - v^2i none of which can be dropped
    blocks = [
        (linalg.sparse_operator(alg.columns(proj), alg.dim), alg.dim)
        for alg, proj in zip(kl.algebras, kl.full_twist().projections)
    ]
    assert all(kills_every_basis_vector(mp, apply, dim) for apply, dim in blocks)
    lw0 = kl.group.lengths[kl.group.longest_id]
    rest, factors = mp, []
    for i in range(2 * lw0 + 1):
        quo, rem = divmod_x(rest, BivarPoly.x_minus(lp({2 * i: 1})))
        if rem.is_zero:
            rest = quo
            factors.append(i)
    assert rest == BivarPoly.const(1) and len(factors) == mp.degree
    for i in factors:
        short = divmod_x(mp, BivarPoly.x_minus(lp({2 * i: 1})))[0]
        assert not all(kills_every_basis_vector(short, apply, dim) for apply, dim in blocks), (t, i)


def test_fulltwist_minpoly_stable_under_denominator_growth():
    # enlarging the orbit family must not change the minimal polynomial
    for t, den in (("A1", 2), ("A2", 3)):
        small = KLAlgebra.for_type(t, den_bound=den)
        big = KLAlgebra.for_type(t, den_bound=den + 2)
        assert small.fulltwist_minpoly()[0] == big.fulltwist_minpoly()[0]


def test_full_twist_word():
    kl = KLAlgebra.for_type("A2", den_bound=2)
    z = kl.full_twist()
    w0word = kl.group.words[kl.group.longest_id]
    assert z.word == w0word + w0word
    assert z == kl.mul(kl.element_of(kl.group.longest()), kl.element_of(kl.group.longest()))


def test_orbit_configuration():
    kl = KLAlgebra.for_type("A1", den_bound=6)
    assert [o.representative.render() for o in kl.orbits] == [
        "0",
        "1/6",
        "1/5",
        "1/4",
        "1/3",
        "2/5",
        "1/2",
    ]
    assert kl.orbit_index(kl.orbits[3]) == 3
    assert kl.orbit_index(parse_point("1/4")) == 3
    W = build_weyl("A2")
    kl2 = KLAlgebra(W, orbit_set(W, 2))
    assert len(kl2.orbits) == 2
    with pytest.raises(OrbitMismatch):
        KLAlgebra(W, [])


@pytest.mark.parametrize("cartan_type", ["A1", "A2", "B2", "G2", "A3"])
def test_trivial_orbit_is_ly_hecke_algebra(cartan_type):
    # on the orbit of 0 every s lies in W_L, so H_o is the ly Hecke algebra
    # under eid <-> (eid, 0)
    W = build_weyl(cartan_type)
    alg = OrbitAlgebra(W, orbit(W, CharacterPoint([0] * W.rank)))
    (point,) = alg.orbit.points
    H = hecke_algebra(W, LY)
    for x in range(W.size):
        for y in range(W.size):
            got = alg.mul(alg.basis(x, 0), alg.basis(y, 0))
            want = H.t_mul(H.basis(x), H.basis(y))
            assert got.terms == {(w, point): c for w, c in want.terms.items()}


# orbits on which the generator step is checked against independent products
STEP_CASES = [("A1", 6), ("A2", 6), ("B2", 6), ("G2", 6), ("A3", 2)]


def _random_element(alg, rng, terms=6):
    out = {}
    for _ in range(terms):
        key = (rng.randrange(alg.group.size), rng.randrange(alg.orbit.size))
        out[key] = lp({rng.randrange(-3, 4): rng.choice([-2, -1, 1, 3]), rng.randrange(-3, 4): 1})
    return OrbitHeckeElement(alg, out)


def _reference_step(alg, s, x):
    """a_s x from the definitions: a_s T_u 1_m = +-T_s T_u 1_m, + when s lies
    in W_L for the block L = u m where T_u 1_m lands; there (T_s - 1)(T_s +
    v^2) = 0, elsewhere T_s^2 = 1."""
    W = alg.group
    v2 = lp({2: 1})
    out = alg.zero()
    for (u, m), c in x._t.items():
        su = W.lmul_id(s, u)
        if not alg.orbit.simple_kernel[s][alg.moved_point(u, m)]:
            out = out - alg.basis(su, m).scale(c)
        elif W.lengths[su] > W.lengths[u]:
            out = out + alg.basis(su, m).scale(c)
        else:
            out = out + alg.basis(su, m).scale(v2 * c) + alg.basis(u, m).scale((1 - v2) * c)
    return out


@pytest.mark.parametrize("t, den", STEP_CASES)
def test_step_matches_generator_product(t, den):
    # one table step is a_s x: the general product with pi_generator(s), which
    # walks the unsigned T_s tables, and the definitions agree with it
    rng = random.Random(20261020)
    kl = KLAlgebra.for_type(t, den)
    for alg in kl.algebras:
        for s in range(kl.group.rank):
            for _ in range(2):
                x = _random_element(alg, rng)
                got = alg.steps((s,), x)
                assert got == alg.mul(alg.pi_generator(s), x), (t, alg.orbit.representative, s)
                assert got == _reference_step(alg, s, x), (t, alg.orbit.representative, s)


def test_full_twist_and_braid_sides_match_product_chains():
    # the step chains equal the products they replaced: the full twist as
    # pi_generator products along w0's word twice, and each braid side as
    # generators multiplied in from the right
    for t, den in (("A2", 6), ("B2", 6), ("G2", 6), ("A3", 2)):
        kl = KLAlgebra.for_type(t, den)
        W = kl.group
        word = W.words[W.longest_id] * 2
        for alg in kl.algebras:
            chain = alg.unit()
            for s in reversed(word):
                chain = alg.mul(alg.pi_generator(s), chain)
            assert alg.full_twist() == chain
        for i in range(W.rank):
            for j in range(i + 1, W.rank):
                m = klalgebra._pair_order(W, i, j)
                for a, b in ((i, j), (j, i)):
                    chain = kl.unit()
                    for k in range(m):
                        chain = kl.mul(chain, kl.generator(a if k % 2 == 0 else b))
                    assert kl.element(((a, b) * m)[:m]) == chain


def test_w0_identity_squares_once_per_stabilizer(monkeypatch):
    # T_w0^2 of a stabilizer's Hecke algebra is computed once, however many
    # points share that stabilizer
    calls = []
    orig = HeckeAlgebra.t_mul

    def counted(self, a, b):
        calls.append(id(self.group))
        return orig(self, a, b)

    monkeypatch.setattr(HeckeAlgebra, "t_mul", counted)
    kl = KLAlgebra.for_type("A3", 6)
    assert all(r["status"] == "pass" for r in kl.check_w0_identity())
    groups = {id(o.stabilizers[p].group) for o in kl.orbits for p in o.points}
    assert sum(o.size for o in kl.orbits) > len(groups)
    assert sorted(calls) == sorted(groups)
