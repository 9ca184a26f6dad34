import math
import random

import pytest

from klwb.coxeter import build_weyl
from klwb.hecke import (
    INV_STD_RULE,
    LY,
    STD,
    STD_RULE,
    ConventionMismatch,
    HeckeElement,
    NotCentral,
    convert_convention,
    hecke_algebra,
    lmul_gen,
    step_table,
)
from klwb.rings import BivarPoly, LaurentPoly


def lp(d):
    return LaurentPoly(d)


def test_quadratic_relations():
    W = build_weyl("A1")
    Hs = hecke_algebra(W, STD)
    Ts = Hs.generator(0)
    assert Ts * Ts == Hs.from_terms({0: 1, 1: lp({-1: 1, 1: -1})})
    Hl = hecke_algebra(W, LY)
    Tl = Hl.generator(0)
    assert Tl * Tl == Hl.from_terms({0: lp({2: 1}), 1: lp({0: 1, 2: -1})})
    # (T_s - 1)(T_s + v^2) = 0 in ly
    z = Hl.t_mul(Tl - Hl.unit(), Tl + Hl.unit().scale(lp({2: 1})))
    assert z.is_zero


def test_algebra_cached_per_carrier():
    W = build_weyl("A2")
    assert hecke_algebra(W, STD) is hecke_algebra(W, STD)
    assert hecke_algebra(W, LY) is not hecke_algebra(W, STD)
    with pytest.raises(ConventionMismatch):
        hecke_algebra(W, "weird")


def test_length_additive_products():
    W = build_weyl("B2")
    H = hecke_algebra(W, STD)
    rng = random.Random(20260814)
    for _ in range(60):
        a = W.elements[rng.randrange(W.size)]
        b = W.elements[rng.randrange(W.size)]
        if a.length + b.length == (a * b).length:
            assert H.t_mul(H.basis(a), H.basis(b)) == H.basis(a * b)


def test_basis_inverse_all_elements():
    W = build_weyl("B2")
    for conv in (STD, LY):
        H = hecke_algebra(W, conv)
        for eid in range(W.size):
            assert H.t_mul(H.basis_inverse(eid), H.basis(eid)) == H.unit()
            assert H.t_mul(H.basis(eid), H.basis_inverse(eid)) == H.unit()


def test_braid_relations_rank2_exhaustive():
    # defining relations hold inside the algebra for both conventions
    for t, m in (("A2", 3), ("B2", 4), ("G2", 6)):
        W = build_weyl(t)
        for conv in (STD, LY):
            H = hecke_algebra(W, conv)
            a, b = H.generator(0), H.generator(1)
            left, right = H.unit(), H.unit()
            for k in range(m):
                left = H.t_mul(left, a if k % 2 == 0 else b)
                right = H.t_mul(right, b if k % 2 == 0 else a)
            assert left == right


def test_braid_relations_rank3_randomized():
    W = build_weyl("A3")
    rng = random.Random(7)
    for conv in (STD, LY):
        H = hecke_algebra(W, conv)
        gens = [H.generator(i) for i in range(3)]
        for _ in range(20):
            word = [rng.randrange(3) for _ in range(rng.randrange(1, 7))]
            el = H.unit()
            for i in word:
                el = H.t_mul(el, gens[i])
            # multiply via the group when the word is reduced
            g = W.identity
            for i in word:
                g = g * W.gens[i]
            if g.length == len(word):
                assert el == H.basis(g)
            # associativity spot check
            mid = rng.randrange(len(word) + 1)
            lft = H.unit()
            for i in word[:mid]:
                lft = H.t_mul(lft, gens[i])
            rgt = H.unit()
            for i in word[mid:]:
                rgt = H.t_mul(rgt, gens[i])
            assert H.t_mul(lft, rgt) == el


def test_mixing_conventions_rejected():
    W = build_weyl("A2")
    a = hecke_algebra(W, STD).generator(0)
    b = hecke_algebra(W, LY).generator(0)
    with pytest.raises(ConventionMismatch):
        a + b
    with pytest.raises(ConventionMismatch):
        a * b
    W2 = build_weyl("A2")
    c = hecke_algebra(W2, STD).generator(0)
    with pytest.raises(ConventionMismatch):
        a + c


def test_bar_involution():
    W = build_weyl("B2")
    H = hecke_algebra(W, STD)
    # bar is an involution and fixes the KL basis
    rng = random.Random(3)
    for _ in range(10):
        el = H.from_terms(
            {rng.randrange(W.size): lp({rng.randrange(-3, 4): rng.randrange(1, 5)})}
        )
        assert H.bar(H.bar(el)) == el
    for eid in range(W.size):
        c = H.kl_basis(eid)
        assert H.bar(c) == c


def test_kl_basis_examples():
    W = build_weyl("A2")
    H = hecke_algebra(W, STD)
    assert H.kl_basis(W.identity) == H.unit()
    s = W.gens[0]
    assert H.kl_basis(s) == H.from_terms({W.identity: lp({1: 1}), s: 1})
    # top element: graded sum over the whole group
    cw0 = H.kl_basis(W.longest_id)
    top = W.lengths[W.longest_id]
    for eid in range(W.size):
        assert cw0.coefficient(eid) == LaurentPoly.monomial(top - W.lengths[eid])
    with pytest.raises(ConventionMismatch):
        hecke_algebra(W, LY).kl_basis(s)


def test_kl_basis_bar_invariant_rank3():
    for t in ("A3", "B3"):
        W = build_weyl(t)
        H = hecke_algebra(W, STD)
        for eid in range(W.size):
            c = H.kl_basis(eid)
            assert c.coefficient(eid) == LaurentPoly.one()
            # lower coefficients sit in vZ[v]
            for zid, h in c._t.items():
                if zid != eid:
                    assert h.min_exp >= 1
            assert H.bar(c) == c


def test_kl_nontrivial_a3_values():
    W = build_weyl("A3")
    H = hecke_algebra(W, STD)
    w = W.element_from_word("2132")
    assert H.kl_basis(w).coefficient(W.element_from_word("2")) == lp({1: 1, 3: 1})
    assert H.kl_basis(w).coefficient(W.identity) == lp({2: 1, 4: 1})
    u = W.element_from_word("12321")
    assert H.kl_basis(u).coefficient(W.element_from_word("13")) == lp({1: 1, 3: 1})
    # these are the only elements of S4 with a non-monomial entry
    special = {W.id_of(w), W.id_of(u)}
    for eid in range(W.size):
        if eid in special:
            continue
        c = H.kl_basis(eid)
        for zid, h in c._t.items():
            assert h == LaurentPoly.monomial(W.lengths[eid] - W.lengths[zid])


def test_mu_values():
    W = build_weyl("A3")
    H = hecke_algebra(W, STD)
    assert H.mu(W.identity, W.gens[0]) == 1
    assert H.mu(W.gens[0], W.element_from_word("12")) == 1
    assert H.mu(W.identity, W.element_from_word("12")) == 0
    assert H.mu(W.gens[0], W.gens[0]) == 0


def test_kl_expand_round_trip():
    W = build_weyl("B2")
    H = hecke_algebra(W, STD)
    rng = random.Random(11)
    for _ in range(10):
        el = H.zero()
        for _ in range(4):
            el = el + H.basis(rng.randrange(W.size)).scale(
                lp({rng.randrange(-2, 3): rng.randrange(-3, 4)})
            )
        coeffs = H.kl_expand(el)
        back = H.zero()
        for eid, c in coeffs.items():
            back = back + H.kl_basis(eid).scale(c)
        assert back == el
    assert H.kl_expand(H.kl_basis(5)) == {5: LaurentPoly.one()}


def test_convert_round_trip_and_multiplicative():
    W = build_weyl("A2")
    Hs = hecke_algebra(W, STD)
    Hl = hecke_algebra(W, LY)
    rng = random.Random(20260814)
    for _ in range(15):
        terms = {
            rng.randrange(W.size): lp({rng.randrange(-2, 3): rng.randrange(-2, 3)})
            for _ in range(3)
        }
        a = Hl.from_terms(terms)
        assert convert_convention(convert_convention(a, STD), LY) == a
        b = Hl.basis(rng.randrange(W.size))
        lhs = convert_convention(Hl.t_mul(a, b), STD)
        rhs = Hs.t_mul(convert_convention(a, STD), convert_convention(b, STD))
        assert lhs == rhs
    # identity maps to identity, coefficients pass through untouched
    u = Hl.unit().scale(lp({-3: 7}))
    assert convert_convention(u, STD) == Hs.unit().scale(lp({-3: 7}))
    assert convert_convention(u, LY) is u


def test_convert_generator_images():
    W = build_weyl("A1")
    Hs = hecke_algebra(W, STD)
    Hl = hecke_algebra(W, LY)
    assert convert_convention(Hl.generator(0), STD) == Hs.from_terms(
        {0: lp({0: 1, 2: -1}), 1: lp({1: -1})}
    )
    assert convert_convention(Hs.generator(0), LY) == Hl.from_terms(
        {0: lp({-1: 1, 1: -1}), 1: lp({-1: -1})}
    )


def test_convert_word_independence():
    # image of T_w must not depend on the reduced word used
    W = build_weyl("A2")
    Hl = hecke_algebra(W, LY)
    w0 = W.longest()
    img = convert_convention(Hl.basis(w0), STD)
    Hs = hecke_algebra(W, STD)
    by_hand = Hs.unit()
    for i in (1, 0, 1):  # the other reduced word of w0
        by_hand = Hs.t_mul(by_hand, convert_convention(Hl.generator(i), STD))
    assert img == by_hand


def test_cells_a1_a2_b2():
    W = build_weyl("A1")
    dec = hecke_algebra(W, STD).cells()
    assert dec.to_json() == [["e"], ["1"]]

    W = build_weyl("A2")
    dec = hecke_algebra(W, STD).cells()
    assert dec.to_json() == [["e"], ["1", "2", "12", "21"], ["121"]]
    left = [sorted(w.word_str for w in c) for c in dec.left_cells]
    assert sorted(map(tuple, left)) == sorted(
        [("e",), ("1", "21"), ("12", "2"), ("121",)]
    )

    W = build_weyl("B2")
    dec = hecke_algebra(W, STD).cells()
    sizes = [len(c) for c in dec.two_sided]
    assert sizes == [1, 6, 1]
    assert dec.to_json()[0] == ["e"]
    assert dec.to_json()[-1] == ["12121212"[: W.lengths[W.longest_id]]]


def test_cells_partial_order():
    W = build_weyl("A2")
    dec = hecke_algebra(W, STD).cells()
    # identity cell is maximal, top cell is minimal
    for k in range(3):
        assert dec.leq(k, 0)
        assert dec.leq(2, k)
    assert not dec.leq(0, 1)
    assert not dec.leq(1, 2)
    assert dec.cell_of(W.identity) == 0
    assert dec.cell_of(W.longest()) == 2
    assert dec.cell_index(dec.two_sided[1]) == 1
    with pytest.raises(ValueError):
        dec.cell_index(9)


def test_two_sided_is_join_of_left_and_right():
    for t in ("A2", "B2", "A3", "G2"):
        W = build_weyl(t)
        dec = hecke_algebra(W, STD).cells()
        parent = list(range(W.size))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for cells in (dec._left_ids, dec._right_ids):
            for comp in cells:
                for a in comp[1:]:
                    parent[find(a)] = find(comp[0])
        blocks = {}
        for e in range(W.size):
            blocks.setdefault(find(e), set()).add(e)
        assert {frozenset(b) for b in blocks.values()} == {
            frozenset(c) for c in dec._two_ids
        }


def test_cells_shared_between_conventions():
    W = build_weyl("A2")
    assert hecke_algebra(W, LY).cells() is hecke_algebra(W, STD).cells()


def test_full_twist_central_and_scalars():
    W = build_weyl("A1")
    Hs = hecke_algebra(W, STD)
    z = Hs.full_twist()
    assert Hs.is_central(z)
    assert Hs.cell_scalar(z, 0) == (1, 2)
    assert Hs.cell_scalar(z, 1) == (1, -2)
    # unit acts as v^0 everywhere
    assert Hs.cell_scalar(Hs.unit(), 0) == (1, 0)
    assert Hs.cell_scalar(Hs.unit(), 1) == (1, 0)
    # ly full twist converts and lands in nonnegative even powers
    Hl = hecke_algebra(W, LY)
    zl = Hl.full_twist()
    assert Hs.cell_scalar(zl, 0) == (1, 0)
    assert Hs.cell_scalar(zl, 1) == (1, 4)


def test_full_twist_scalars_a2():
    W = build_weyl("A2")
    H = hecke_algebra(W, STD)
    z = H.full_twist()
    assert [H.cell_scalar(z, k) for k in range(3)] == [(1, 6), (1, 0), (1, -6)]
    zl = hecke_algebra(W, LY).full_twist()
    assert [H.cell_scalar(zl, k) for k in range(3)] == [(1, 0), (1, 6), (1, 12)]


def test_central_action_matches_the_product():
    # the full twist's word action equals the product with its std image,
    # in both conventions; other central elements fall back to the product
    for t in ["A2", "B2", "G2"]:
        W = build_weyl(t)
        H = hecke_algebra(W, STD)
        for alg in (H, hecke_algebra(W, LY)):
            for z in (alg.full_twist(), alg.unit() + alg.full_twist()):
                zs = convert_convention(z, STD)
                act = alg.central_action(z)
                assert alg.central_action(z) is act
                for x in range(W.size):
                    cx = H.kl_basis(x)
                    assert act(cx) == H.t_mul(zs, cx), (t, alg, x)


@pytest.mark.parametrize("cartan_type", ["A3", "G2"])
def test_inverse_step_is_one_pass(cartan_type):
    # the ly full twist steps by T_s^-1 = T_s + v - 1/v in std in one pass
    # (INV_STD_RULE): T_sw on a descent, T_sw + (v - 1/v) T_w on an ascent.
    # It equals the T_s step plus a (v - 1/v) pass over every term, and the
    # T_s step undoes it.
    W = build_weyl(cartan_type)
    H = hecke_algebra(W, STD)
    rng = random.Random(20261020)
    v_vinv = lp({1: 1, -1: -1})
    for _ in range(6):
        terms = {
            rng.randrange(W.size): lp({rng.randrange(-3, 4): rng.choice([-2, -1, 1, 3]), rng.randrange(-3, 4): 1})
            for _ in range(rng.randrange(1, W.size))
        }
        for s in range(W.rank):
            got = lmul_gen(step_table(W, s, INV_STD_RULE), terms)
            want = lmul_gen(step_table(W, s, STD_RULE), terms)
            for k, c in terms.items():
                want[k] = want.get(k, LaurentPoly.zero()) + v_vinv * c
            assert HeckeElement(H, got) == HeckeElement(H, want)
            back = lmul_gen(step_table(W, s, STD_RULE), got)
            assert HeckeElement(H, back) == HeckeElement(H, terms)


def test_full_twist_cached_per_algebra():
    W = build_weyl("B2")
    for conv in (STD, LY):
        H = hecke_algebra(W, conv)
        z = H.full_twist()
        assert H.full_twist() is z
        top = H.basis(W.longest_id)
        assert z == H.t_mul(top, top)


def test_cell_scalar_rejects_noncentral():
    W = build_weyl("A2")
    H = hecke_algebra(W, STD)
    with pytest.raises(NotCentral):
        H.cell_scalar(H.generator(0), 0)


def test_cell_scalar_none_when_not_scalar():
    # e + full twist is central; on a cell it acts by 1 + v^(2d), a non-unit
    W = build_weyl("A1")
    H = hecke_algebra(W, STD)
    z = H.unit() + H.full_twist()
    assert H.cell_scalar(z, 0) is None


def test_tilting_class():
    W = build_weyl("A1")
    Hs = hecke_algebra(W, STD)
    t = Hs.tilting_class()
    assert t == Hs.from_terms({0: lp({1: 1}), 1: 1})
    assert Hs.ic_e_coefficient(t) == LaurentPoly.zero()
    tm = hecke_algebra(W, LY).tilting_class(negative_v2=True)
    assert tm == hecke_algebra(W, LY).from_terms({0: lp({2: -1}), 1: 1})
    assert Hs.ic_e_coefficient(tm) == lp({0: 1, 2: -1})


def test_monodromic_tilting_matches_signed_growth():
    # ic_e of the (-v^2)-weighted class equals sum of (-v^2)^l(w) over the group
    for t in ("A1", "A2", "B2"):
        W = build_weyl(t)
        Hl = hecke_algebra(W, LY)
        got = hecke_algebra(W, STD).ic_e_coefficient(Hl.tilting_class(negative_v2=True))
        want = LaurentPoly.zero()
        for eid in range(W.size):
            k = W.lengths[eid]
            want = want + LaurentPoly({2 * k: (-1) ** k})
        assert got == want


def test_ic_e_of_kl_basis():
    W = build_weyl("A2")
    H = hecke_algebra(W, STD)
    assert H.ic_e_coefficient(H.kl_basis(0)) == LaurentPoly.one()
    assert H.ic_e_coefficient(H.kl_basis(W.gens[0])) == LaurentPoly.zero()


def test_minpoly_examples():
    W = build_weyl("A1")
    Hs = hecke_algebra(W, STD)
    Hl = hecke_algebra(W, LY)
    x_minus = BivarPoly.x_minus
    assert Hs.minpoly(Hs.unit()) == x_minus(LaurentPoly.one())
    assert Hl.minpoly(Hl.generator(0)) == x_minus(LaurentPoly.one()) * x_minus(
        lp({2: -1})
    )
    assert Hl.minpoly(Hl.full_twist()) == x_minus(LaurentPoly.one()) * x_minus(
        lp({4: 1})
    )
    with pytest.raises(ConventionMismatch):
        Hs.minpoly(Hl.unit())


def test_minpoly_full_twist_a2():
    W = build_weyl("A2")
    Hl = hecke_algebra(W, LY)
    mp = Hl.minpoly(Hl.full_twist())
    x_minus = BivarPoly.x_minus
    expect = (
        x_minus(LaurentPoly.one())
        * x_minus(lp({6: 1}))
        * x_minus(lp({12: 1}))
    )
    assert mp == expect


def test_hecke_over_subsystem_carrier():
    # intrinsic algebra of a non-parabolic reflection subgroup
    W = build_weyl("B2")
    longs = [k for k in range(W.n_positive) if W.root_pairs[k][0] in ((1, 0), (1, 2))]
    sub = W.reflection_subgroup(longs)
    assert sub.cartan_type == "A1xA1"
    H = hecke_algebra(sub.group, LY)
    a, b = H.generator(0), H.generator(1)
    assert H.t_mul(a, b) == H.t_mul(b, a)
    z = H.full_twist()
    assert H.is_central(z)
    mp = H.minpoly(z)
    x_minus = BivarPoly.x_minus
    assert mp == x_minus(LaurentPoly.one()) * x_minus(lp({4: 1})) * x_minus(lp({8: 1}))


def test_serialization():
    W = build_weyl("A2")
    H = hecke_algebra(W, STD)
    el = H.from_terms({0: lp({0: 1, 2: 1}), W.longest_id: 1})
    assert el.to_json() == [["e", "1 + v^2"], ["121", "1"]]
    assert "T[121]" in el.render()
    assert H.zero().render() == "0"


def test_element_arithmetic():
    W = build_weyl("A2")
    H = hecke_algebra(W, STD)
    a = H.generator(0)
    assert a - a == H.zero()
    assert (-a) + a == H.zero()
    assert a.scale(0).is_zero
    assert 3 * a == a * 3
    assert (lp({1: 1}) * a).coefficient(W.gens[0]) == lp({1: 1})
    assert a.coefficient(W.identity) == LaurentPoly.zero()
    assert a.support_ids() == (W.id_of(W.gens[0]),)


def _partitions(n, largest=None):
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest or n), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


def _hook_length_dim(shape):
    # f^lambda = n! / product of hook lengths
    n = sum(shape)
    conj = [sum(1 for r in shape if r > j) for j in range(shape[0])]
    hooks = 1
    for i, row in enumerate(shape):
        for j in range(row):
            hooks *= (row - j - 1) + (conj[j] - i - 1) + 1
    return math.factorial(n) // hooks


def test_a4_two_sided_cell_sizes_from_hook_lengths():
    # type A two-sided cells correspond to partitions of n, with (f^lambda)^2
    # elements each (Kazhdan-Lusztig 1979)
    want = sorted(_hook_length_dim(p) ** 2 for p in _partitions(5))
    assert want == [1, 1, 16, 16, 25, 25, 36]
    dec = hecke_algebra(build_weyl("A4"), STD).cells()
    assert sorted(len(c) for c in dec.two_sided) == want


def test_kl_polynomial_positivity_and_degree_bound():
    # h_{x,w} = v^(l(w) - l(x)) P_{x,w}(v^-2); P_{x,w} has nonnegative
    # coefficients, P_{x,w}(0) = 1 and, for x < w, degree at most
    # (l(w) - l(x) - 1) / 2
    pairs = 0
    for cartan_type in ("A1", "A2", "A3", "B2", "G2"):
        W = build_weyl(cartan_type)
        H = hecke_algebra(W, STD)
        for w in W.elements:
            cw = H.kl_basis(w)
            below = [x for x in W.elements if W.bruhat_leq(x, w)]
            assert set(cw.support_ids()) == {W.id_of(x) for x in below}
            for x in below:
                d = w.length - x.length
                P = {}
                for e, c in cw.coefficient(x).items():
                    assert (d - e) % 2 == 0 and e <= d
                    P[(d - e) // 2] = c
                assert all(c > 0 for c in P.values())
                assert P.get(0) == 1
                if x != w:
                    assert all(2 * k <= d - 1 for k in P)
                pairs += 1
    assert pairs == 341
