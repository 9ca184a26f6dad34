"""End-to-end acceptance checks, one test per criterion.

A verbose pytest run therefore emits one pass or fail line per criterion.
Pinned values (cell partitions, twist spectra, the matching sign
convention, the rank-one minimal polynomial) were computed independently
and are asserted literally.  Randomized checks use fixed seeds.
"""

import contextlib
import io
import random
import time

from klwb.charpoints import (
    NEGATIVE_V2,
    POSITIVE_V2,
    chevalley_divisibility,
    orbit_set,
    poincare_of_subsystem,
)
from klwb.cli import main
from klwb.coxeter import build_weyl
from klwb.hecke import LY, STD, hecke_algebra
from klwb.k0model import KModule
from klwb.klalgebra import KLAlgebra
from klwb.rings import BivarPoly, LaurentPoly, p_poly

TYPES = ("A1", "A2", "A3", "B2", "G2")

_KL = {}


def kl_for(cartan_type, den=6):
    key = (cartan_type, den)
    if key not in _KL:
        _KL[key] = KLAlgebra.for_type(cartan_type, den_bound=den)
    return _KL[key]


def test_c01_generator_relations_hold_in_all_types():
    # braid words agree and (a_s + v^2)(a_s^2 - 1) = 0 on every orbit block
    for t in TYPES:
        start = time.time()
        kl = kl_for(t)
        reports = list(kl.check_braid())
        for s in range(kl.group.rank):
            reports += kl.verify_cubic(s)
        assert reports
        for r in reports:
            assert r["status"] == "pass", r
        assert time.time() - start < 60.0, t


def test_c02_projection_laws_on_random_words():
    for t in TYPES:
        kl = kl_for(t)
        W = kl.group
        rng = random.Random(20260814)
        # twisted multiplicativity, checked blockwise across every orbit
        for _ in range(200):
            w1 = tuple(rng.randrange(W.rank) for _ in range(rng.randrange(1, 7)))
            w2 = tuple(rng.randrange(W.rank) for _ in range(rng.randrange(1, 7)))
            assert kl.check_twisted_product(w1, w2), (t, w1, w2)
        for i, orb in enumerate(kl.orbits):
            alg = kl.algebras[i]
            # squares of point-moving generators restrict to the idempotent
            for s in range(W.rank):
                sq = alg.mul(alg.pi_generator(s), alg.pi_generator(s))
                for pidx in range(orb.size):
                    if not alg._in_wl[s][pidx]:
                        assert sq.column(pidx) == alg.idempotent(pidx), (t, i, s, pidx)
            # words inside the kernel subgroup project to the plain basis
            for pidx in range(orb.size):
                letters = [s for s in range(W.rank) if alg._in_wl[s][pidx]]
                for els in W.parabolic_subgroup_elements(letters):
                    col = alg.idempotent(pidx)
                    for s in reversed(els.word):
                        col = alg.mul(alg.pi_generator(s), col)
                    assert col == alg.basis(W.id_of(els), pidx), (t, i, pidx, els.word)


def test_c03_longest_element_square_matches_blockwise():
    for t in ("A1", "A2", "B2"):
        reports = kl_for(t).check_w0_identity()
        assert reports
        for r in reports:
            assert r["status"] == "pass", r


def test_c04_full_twist_minimal_polynomial():
    expected_a1 = BivarPoly.x_minus(LaurentPoly.one()) * BivarPoly.x_minus(
        LaurentPoly({4: 1})
    )
    for t in ("A1", "A2", "B2"):
        kl = kl_for(t)
        mp, verdicts = kl.fulltwist_minpoly()
        # divides prod(x - v^2i) for i up to 2 l(w0)
        assert verdicts["safe"] is True, t
        # the window i <= l(w0) is measurably too small, already in rank one
        assert verdicts["paper"] is False, t
        if t == "A1":
            assert mp == expected_a1


def test_c05_cells_and_twist_spectrum():
    sizes = {
        "A1": [1, 1],
        "A2": [1, 4, 1],
        "A3": [1, 9, 4, 9, 1],
        "B2": [1, 6, 1],
        "G2": [1, 10, 1],
    }
    for t in TYPES:
        W = build_weyl(t)
        H = hecke_algebra(W, STD)
        Hly = hecke_algebra(W, LY)
        dec = H.cells()
        assert [len(c) for c in dec.two_sided] == sizes[t], t
        if t == "A2":
            assert dec.to_json() == [["e"], ["1", "2", "12", "21"], ["121"]]
        ft = H.full_twist()
        ftly = Hly.full_twist()
        lw0 = W.lengths[W.longest_id]
        dvals = []
        for ci in range(len(dec.two_sided)):
            for alg, z in ((H, ft), (Hly, ftly)):
                sc = alg.cell_scalar(z, ci)
                assert sc is not None, (t, ci)
                sign, exp = sc
                assert sign in (1, -1) and exp % 2 == 0, (t, ci, sc)
            dvals.append(Hly.cell_scalar(ftly, ci)[1])
        # observed exponents stay within [0, 4 l(w0)] but overflow the
        # shorter window [0, 2 l(w0)] in every type
        assert all(0 <= d <= 4 * lw0 for d in dvals), (t, dvals)
        assert max(dvals) > 2 * lw0, (t, dvals)


def test_c06_unique_sign_convention_for_growth_series():
    matched = []
    for t in ("A1", "A2", "B2"):
        W = build_weyl(t)
        H = hecke_algebra(W, STD)
        Hly = hecke_algebra(W, LY)
        neg = H.ic_e_coefficient(Hly.tilting_class(negative_v2=True))
        pos = H.ic_e_coefficient(H.tilting_class(False))
        tneg = LaurentPoly.zero()
        tpos = LaurentPoly.zero()
        for l in W.lengths:
            tneg = tneg + LaurentPoly({2 * l: (-1) ** l})
            tpos = tpos + LaurentPoly({2 * l: 1})
        hits = []
        if neg == tneg:
            hits.append(NEGATIVE_V2)
        if pos == tpos:
            hits.append(POSITIVE_V2)
        assert hits == [NEGATIVE_V2], (t, neg.render(), pos.render())
        if t == "A1":
            assert neg == LaurentPoly({0: 1, 2: -1})
        matched.append(hits[0])
    assert len(set(matched)) == 1


def test_c07_euler_identity():
    # rank one: every basis vector, so the check is exhaustive
    M = KModule.for_type("A1", 6)
    for i in range(M.dim):
        vec = [LaurentPoly.zero()] * M.dim
        vec[i] = LaurentPoly.one()
        for r in M.canonical_identity(vec):
            assert r["status"] == "pass", r
    for t, den in (("A2", 6), ("B2", 6), ("G2", 6), ("A3", 2)):
        start = time.time()
        M = KModule.for_type(t, den)
        rng = random.Random(777)
        for _ in range(20):
            for r in M.canonical_identity(M.random_vector(rng)):
                assert r["status"] == "pass", (t, r)
        assert time.time() - start < 300.0, t


def test_c08_splitting_and_free_span_after_localization():
    for t, den in (("A1", 6), ("A2", 3), ("B2", 2)):
        M = KModule.for_type(t, den)
        mm = 2 * M.kl.group.lengths[M.kl.group.longest_id]
        p = p_poly(mm)
        rng = random.Random(4242)
        tuples = [M.random_free_combination(rng, terms=2) for _ in range(50)]
        for a in tuples:
            a0, a1, cert = M.polyconj_split(a)
            assert cert["m"] == mm
            assert cert["sum"] == "pass"
            assert cert["free"] == "pass"
            assert cert["annihilated"] == "pass"
            assert a0 + a1 == a.scale(p)
        for a in tuples[:3]:
            scaled = a
            for k in (1, 2, 3):
                scaled = scaled.scale(p)
                out = M.express_in_free_span(scaled)
                assert out is not None, (t, k)
                assert out["admissible"], (t, k, out)


def test_c09_stabilizer_series_divisibility():
    short_fail = []
    for t in TYPES:
        W = build_weyl(t)
        lw0 = W.lengths[W.longest_id]
        for orb in orbit_set(W, 8):
            lam = orb.representative
            q = poincare_of_subsystem(orb.stabilizers[lam], POSITIVE_V2)
            rep = chevalley_divisibility(q, 2 * lw0)
            assert rep.success, (t, lam.render(), rep.remainder.render())
            if not chevalley_divisibility(q, lw0).success:
                short_fail.append((t, lam.render()))
    # the window i <= l(w0) misses the factor 1 + v^2 already in rank one
    assert short_fail == [("A1", "0")]
    # the sign-flipped convention fails the short window in rank two
    W = build_weyl("A2")
    lam0 = [o for o in orbit_set(W, 8) if o.representative.render() == "0,0"][0]
    qneg = poincare_of_subsystem(lam0.stabilizers[lam0.representative], NEGATIVE_V2)
    assert not chevalley_divisibility(qneg, W.lengths[W.longest_id]).success


def test_c10_localizing_polynomial_nonzero():
    for t in TYPES:
        W = build_weyl(t)
        lw0 = W.lengths[W.longest_id]
        for m in (lw0, 2 * lw0):
            p = p_poly(m)
            for q in (2, 3, 4, 5, 7, 8, 9):
                assert p.specialize_sqrt_q(q).nonzero, (t, m, q)


def test_c11_thread_count_invariance():
    def run(args):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(args)
        return code, buf.getvalue()

    for argv in (
        ["verify", "gluing", "--type", "A1", "--den", "3", "--seed", "7", "--json"],
        ["verify", "chevalley", "--type", "A2", "--den", "6", "--json"],
    ):
        outs = []
        for n in ("1", "2", "8"):
            code, text = run(argv + ["--threads", n])
            assert code == 0, argv
            outs.append(text)
        assert outs[0] == outs[1] == outs[2], argv
