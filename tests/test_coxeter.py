import random

import pytest

from klwb.coxeter import (
    MixedAmbient,
    UnsupportedType,
    build_weyl,
    cartan_matrix,
    parse_cartan_type,
    subsystem_type,
    type_order,
    weyl_order,
)


def test_orders_and_longest_lengths():
    data = {
        "A1": (2, 1),
        "A2": (6, 3),
        "A3": (24, 6),
        "B2": (8, 4),
        "C3": (48, 9),
        "D4": (192, 12),
        "G2": (12, 6),
        "F4": (1152, 24),
    }
    for t, (size, lw0) in data.items():
        W = build_weyl(t)
        assert W.size == size
        assert W.longest().length == lw0
        assert W.n_positive == lw0


def test_unsupported_types():
    for bad in ["E6", "H3", "A0", "B1", "D3", "G3", "F5", "Q2", "A"]:
        with pytest.raises(UnsupportedType):
            build_weyl(bad)
    # over the default order cap
    with pytest.raises(UnsupportedType):
        build_weyl("A6")
    with pytest.raises(UnsupportedType):
        build_weyl("B4", max_order=100)


def test_cartan_tables_pinned():
    assert cartan_matrix("G", 2) == ((2, -3), (-1, 2))
    assert cartan_matrix("B", 2) == ((2, -1), (-2, 2))
    assert cartan_matrix("C", 2) == ((2, -2), (-1, 2))
    F = cartan_matrix("F", 4)
    assert F[2][1] == -2 and F[1][2] == -1
    A = cartan_matrix("A", 3)
    assert A == ((2, -1, 0), (-1, 2, -1), (0, -1, 2))


def test_generator_relations():
    W = build_weyl("A1")
    s = W.gens[0]
    assert s * s == W.identity

    W = build_weyl("A2")
    s, t = W.gens
    assert s * t * s == t * s * t
    w0 = W.longest()
    assert w0.length == 3
    assert w0 * w0 == W.identity

    G = build_weyl("G2")
    a, b = G.gens
    lhs = a * b * a * b * a * b
    rhs = b * a * b * a * b * a
    assert lhs == rhs == G.longest()


def test_group_axioms_random():
    rng = random.Random(20260814)
    W = build_weyl("A3")
    els = list(W.elements)
    for _ in range(150):
        a, b, c = (rng.choice(els) for _ in range(3))
        assert (a * b) * c == a * (b * c)
        assert a * a.inv() == W.identity
        assert a.inv() * a == W.identity
        assert (a * b).inv() == b.inv() * a.inv()


@pytest.mark.parametrize("cartan_type", ["A1", "A2", "A3", "B2", "G2"])
def test_mul_id_table_matches_permutation_composition(cartan_type):
    # mul_id reads rows built on first use; every pair must compose the
    # root permutations, (ab)(k) = a(b(k)), and agree with the generator tables
    W = build_weyl(cartan_type)
    for a, pa in enumerate(W.perms):
        for b, pb in enumerate(W.perms):
            assert W.perms[W.mul_id(a, b)] == tuple(pa[pb[k]] for k in range(len(pa)))
    for i, g in enumerate(W.gens):
        for b in range(W.size):
            assert W.mul_id(g.eid, b) == W.lmul_id(i, b)
            assert W.mul_id(b, g.eid) == W.rmul_id(b, i)


def test_length_is_inversion_count():
    for t in ["A3", "B2", "G2"]:
        W = build_weyl(t)
        N = W.n_positive
        for w in W.elements:
            inv = sum(1 for k in range(N) if w.perm[k] >= N)
            assert inv == w.length
            # parity matches word length
            assert (w.length - len(w.word)) % 2 == 0


def _canonical_by_brute_force(W):
    # smallest reduced word per element by enumerating all words
    best = {W.identity.eid: ()}
    frontier = {W.identity.eid: ()}
    while frontier:
        nxt = {}
        for eid, word in sorted(frontier.items(), key=lambda kv: kv[1]):
            for i in range(W.rank):
                ne = W.rmul_id(eid, i)
                if W.lengths[ne] != W.lengths[eid] + 1:
                    continue
                cand = word + (i,)
                if ne not in best or cand < best[ne]:
                    if ne not in nxt or cand < nxt[ne]:
                        nxt[ne] = cand
        for ne, w in nxt.items():
            best[ne] = w
        frontier = nxt
    return best


def test_canonical_words_lex_minimal():
    # exhaustive for small ranks
    for t in ["A1", "A2", "B2", "G2", "A3"]:
        W = build_weyl(t)
        best = _canonical_by_brute_force(W)
        assert len(best) == W.size
        for eid, word in best.items():
            assert W.words[eid] == word

    # a reduced word evaluates back to its element
    W = build_weyl("C3")
    rng = random.Random(7)
    for _ in range(40):
        w = rng.choice(W.elements)
        assert W.element_from_word(w.word) == w
        assert len(w.word) == w.length


def test_mixed_ambient_rejected():
    W1 = build_weyl("A2")
    W2 = build_weyl("B2")
    with pytest.raises(MixedAmbient):
        W1.gens[0] * W2.gens[0]
    # even same-type distinct builds are distinct ambients
    W3 = build_weyl("A2")
    with pytest.raises(MixedAmbient):
        W1.gens[0] * W3.gens[0]


def _bruhat_oracle(W, a, b):
    # subword criterion against one fixed reduced word of b
    word = b.word
    la = a.length
    n = len(word)
    for mask in range(1 << n):
        picked = [word[i] for i in range(n) if mask >> i & 1]
        if len(picked) != la:
            continue
        if W.element_from_word(picked) == a:
            return True
    return la == 0


def test_bruhat_order():
    W = build_weyl("A2")
    s, t = W.gens
    st = s * t
    ts = t * s
    assert W.bruhat_leq(s, st)
    assert W.bruhat_leq(t, st)
    assert not W.bruhat_leq(st, ts)
    assert not W.bruhat_leq(ts, st)
    for w in W.elements:
        assert W.bruhat_leq(W.identity, w)
        assert W.bruhat_leq(w, W.longest())

    # full cross-check against the subword criterion
    for tname in ["B2", "A3"]:
        V = build_weyl(tname)
        for a in V.elements:
            for b in V.elements:
                assert V.bruhat_leq(a, b) == _bruhat_oracle(V, a, b)


def test_min_coset_reps_examples():
    W = build_weyl("A2")
    reps = W.min_coset_reps([0])
    assert [x.word_str for x in reps] == ["e", "2", "21"]
    assert W.min_coset_reps([]) == tuple(W.elements)
    assert W.min_coset_reps([0, 1]) == (W.identity,)


def test_min_coset_reps_bijection():
    for t in ["A3", "B2", "G2"]:
        W = build_weyl(t)
        for J, wj, reps in W.parabolic_closure_iter():
            seen = set()
            for u in wj:
                for x in reps:
                    ux = u * x
                    assert ux.length == u.length + x.length
                    seen.add(ux)
            assert len(seen) == W.size
            assert len(wj) * len(reps) == W.size
            # reps come sorted by (length, word)
            keys = [(x.length, x.word) for x in reps]
            assert keys == sorted(keys)


def test_parabolic_closure_iter_order():
    W = build_weyl("A2")
    subsets = [J for J, _, _ in W.parabolic_closure_iter()]
    assert subsets == [(), (0,), (1,), (0, 1)]

    B = build_weyl("B2")
    sizes = [len(elems) for _, elems, _ in B.parabolic_closure_iter()]
    assert sorted(sizes) == [1, 2, 2, 8]

    A = build_weyl("A1")
    assert [J for J, _, _ in A.parabolic_closure_iter()] == [(), (0,)]


def test_reflection_subgroup_examples():
    W = build_weyl("A2")
    sub = W.reflection_subgroup([1])
    assert sub.cartan_type == "A1"
    assert sub.order == 2
    assert sub.w0 == W.gens[1]
    assert sub.intrinsic_length(sub.w0) == 1
    assert not sub.closure_added

    full = W.reflection_subgroup(range(W.n_positive))
    assert full.cartan_type == "A2"
    assert full.order == W.size
    for w in W.elements:
        assert full.intrinsic_length(w) == w.length

    triv = W.reflection_subgroup([])
    assert triv.cartan_type == "1"
    assert triv.order == 1
    assert triv.w0 == W.identity

    # closure adds the missing root of A2 when fed both simples
    both = W.reflection_subgroup([0, 1])
    assert both.closure_added
    assert both.cartan_type == "A2"
    assert len(both.positive_roots) == 3


def test_reflection_subgroup_accepts_vectors():
    W = build_weyl("A2")
    sub = W.reflection_subgroup([(0, 1)])
    assert sub.cartan_type == "A1"
    with pytest.raises(ValueError):
        W.reflection_subgroup([(5, 0)])


def test_non_parabolic_subsystem():
    # the two long roots of B2 commute and span a non-parabolic A1xA1
    W = build_weyl("B2")
    longs = [k for k in range(W.n_positive) if W.root_pairs[k][0] in ((1, 0), (1, 2))]
    sub = W.reflection_subgroup(longs)
    assert sub.cartan_type == "A1xA1"
    assert sub.order == 4
    assert not sub.closure_added
    assert sub.intrinsic_length(sub.w0) == 2
    # the ambient length of its longest element exceeds the intrinsic one
    assert sub.w0.length > 2


def test_subsystem_types_in_bigger_groups():
    C3 = build_weyl("C3")
    assert C3.reflection_subgroup([1, 2]).cartan_type == "B2"
    F4 = build_weyl("F4")
    assert F4.reflection_subgroup([0, 1, 2]).cartan_type == "B3"
    assert F4.reflection_subgroup([1, 2, 3]).cartan_type == "C3"
    G2 = build_weyl("G2")
    assert G2.reflection_subgroup([0]).cartan_type == "A1"


def test_subsystem_simple_system_property():
    W = build_weyl("B2")
    full = W.reflection_subgroup(range(W.n_positive))
    vecs = {W.root_pairs[k][0] for k in full.positive_roots}
    simples = {W.root_pairs[k][0] for k in full.simple_system}
    for v in vecs:
        sums = any(
            tuple(x + y for x, y in zip(a, b)) == v
            for a in vecs
            for b in vecs
        )
        if v in simples:
            assert not sums
        else:
            assert sums


def test_subsystem_group_tables():
    C3 = build_weyl("C3")
    sub = C3.reflection_subgroup([1, 2])
    g = sub.group
    for eid in range(g.size):
        for i in range(g.rank):
            left = g.elements[g.lmul_id(i, eid)]
            right = g.elements[g.rmul_id(eid, i)]
            assert left == g.gens[i] * g.elements[eid]
            assert right == g.elements[eid] * g.gens[i]
        assert g.elements[g.inv_id(eid)] == g.elements[eid].inv()
    # words are intrinsic-reduced
    for eid in range(g.size):
        assert len(g.words[eid]) == g.lengths[eid]


def test_serialization_round_trip():
    W = build_weyl("A2")
    assert W.identity.word_str == "e"
    assert W.longest().word_str == "121"
    assert W.element_from_word("121") == W.longest()
    assert W.element_from_word("e") == W.identity
    assert W.element_from_word("") == W.identity
    j = W.datum.to_json()
    assert j["cartan_type"] == "A2"
    assert j["cartan_matrix"] == [[2, -1], [-1, 2]]
    assert len(j["positive_roots"]) == 3

    sub = W.reflection_subgroup([1])
    sj = sub.to_json()
    assert sj["cartan_type"] == "A1"
    assert sj["w0"] == "2"


def test_type_order_helper():
    assert type_order("1") == 1
    assert type_order("A1") == 2
    assert type_order("A1xA1") == 4
    assert type_order("B2") == 8
    assert type_order("G2") == 12
    assert weyl_order(*parse_cartan_type("F4")) == 1152


def test_subsystem_type_of_simples():
    W = build_weyl("A3")
    assert subsystem_type(W, ()) == "1"
    assert subsystem_type(W, (0,)) == "A1"
    assert subsystem_type(W, (0, 2)) == "A1xA1"
    assert subsystem_type(W, (0, 1, 2)) == "A3"
