import pytest
from hypothesis import given, settings, strategies as st

from klwb.linalg import (
    DegreeBoundExceeded,
    echelon_row,
    lcm_x,
    minpoly_operator,
    reduce_pair,
    solve_linear,
    sparse_operator,
)
from klwb.rings import BivarPoly, LaurentPoly, NonUnitLeadingCoefficient, Qv, gcd_laurent


def lp(d):
    return LaurentPoly(d)


def x_minus(d):
    return BivarPoly.x_minus(lp(d))


def matrix_operator(rows):
    # the operator of the square matrix rows, entries dicts of LaurentPoly
    n = len(rows)
    cols = [[(r, lp(rows[r][j])) for r in range(n) if rows[r][j]] for j in range(n)]
    return sparse_operator(cols, n), n


def test_minpoly_operator_repeated_root():
    # a Jordan block: ann(e0) = x - 1 and ann(e1) = (x - 1)^2 overlap
    apply, n = matrix_operator([[{0: 1}, {0: 1}], [{}, {0: 1}]])
    assert minpoly_operator(apply, n) == x_minus({0: 1}) ** 2


def test_minpoly_operator_overlapping_annihilators():
    # diagonal 1, v, v^2 with a superdiagonal: ann(e_i) is the product of
    # the first i + 1 factors, so each basis vector adds exactly one
    apply, n = matrix_operator([[{0: 1}, {0: 1}, {}], [{}, {1: 1}, {0: 1}], [{}, {}, {2: 1}]])
    mp = minpoly_operator(apply, n)
    assert mp == x_minus({0: 1}) * x_minus({1: 1}) * x_minus({2: 1})
    assert mp.xcoeffs[-1].is_unit


def test_minpoly_operator_of_zero_dimension():
    assert minpoly_operator(lambda vec: vec, 0) == BivarPoly.const(1)


def shift_operator(n):
    # the nilpotent shift e_j -> e_{j+1}, whose minimal polynomial is x^n
    return sparse_operator([[(j + 1, LaurentPoly.one())] if j + 1 < n else [] for j in range(n)], n)


def test_minpoly_operator_stops_at_its_degree_bound():
    n, bound = 40, 5
    shift = shift_operator(n)
    assert minpoly_operator(shift, n) == x_minus({}) ** n
    assert minpoly_operator(shift, n, n) == x_minus({}) ** n
    assert minpoly_operator(shift_operator(bound), bound, bound) == x_minus({}) ** bound
    steps = []

    def counted(vec):
        steps.append(1)
        return shift(vec)

    with pytest.raises(DegreeBoundExceeded, match="passes x-degree 5"):
        minpoly_operator(counted, n, bound)
    # one operator step per independent vector e_0, ..., e_bound
    assert len(steps) == bound + 1


def test_lcm_x_examples():
    one, v = x_minus({0: 1}), x_minus({1: 1})
    assert lcm_x(one**2, one * v) == one**2 * v
    x2v = BivarPoly((lp({1: 1}), LaurentPoly.zero(), LaurentPoly.one()))
    assert lcm_x(x2v, one) == x2v * one
    assert lcm_x(one * v, one) == one * v
    assert lcm_x(BivarPoly.const(1), v) == v
    with pytest.raises(NonUnitLeadingCoefficient):
        lcm_x(one, BivarPoly((lp({0: 1}), lp({0: 1, 1: 1}))))


FACTORS = (
    x_minus({0: 1}),
    x_minus({1: 1}),
    x_minus({2: 1}),
    x_minus({0: -1}),
    BivarPoly((lp({1: 1}), LaurentPoly.zero(), LaurentPoly.one())),
)
multiplicities = st.lists(st.integers(0, 2), min_size=len(FACTORS), max_size=len(FACTORS))


def product(ks):
    out = BivarPoly.const(1)
    for f, k in zip(FACTORS, ks):
        out = out * f**k
    return out


@settings(max_examples=60, deadline=None)
@given(multiplicities, multiplicities)
def test_lcm_x_takes_the_larger_multiplicity(ka, kb):
    assert lcm_x(product(ka), product(kb)) == product(map(max, ka, kb))


laurent = st.dictionaries(st.integers(-2, 2), st.integers(-3, 3), max_size=3).map(LaurentPoly)


@st.composite
def sparse_columns(draw):
    # up to 5 sparse columns of length n over Z[v, v^-1], each with a few
    # nonzero entries, and the coefficients of a combination of them
    n = draw(st.integers(1, 5))
    column = st.dictionaries(st.integers(0, n - 1), laurent, max_size=3).map(lambda c: {i: x for i, x in c.items() if x})
    cols = draw(st.lists(column, min_size=1, max_size=5))
    coeffs = draw(st.lists(laurent, min_size=len(cols), max_size=len(cols)))
    other = draw(st.lists(laurent, min_size=n, max_size=n))
    return n, cols, coeffs, other


def combine(cols, coeffs, n):
    out = [LaurentPoly.zero()] * n
    for col, c in zip(cols, coeffs):
        for i, x in col.items():
            out[i] = out[i] + c * x
    return out


def echelon(cols):
    rows = []
    for j, col in enumerate(cols):
        row = echelon_row(*reduce_pair(col, {j: LaurentPoly.one()}, rows)[:2])
        if row is not None:
            rows.append(row)
    return rows


@settings(max_examples=150, deadline=None)
@given(sparse_columns())
def test_fraction_free_echelon_solves_like_the_qv_oracle(case):
    n, cols, coeffs, other = case
    rows = echelon(cols)
    for piv, ru, rw, d in rows:
        # primitive, with d at the pivot, and ru the combination rw of the columns
        g = LaurentPoly.zero()
        for x in list(ru.values()) + list(rw.values()):
            g = gcd_laurent(g, x)
        assert g == LaurentPoly.one() and ru[piv] == d
        assert combine(cols, [rw.get(j, LaurentPoly.zero()) for j in range(len(cols))], n) == [ru.get(i, LaurentPoly.zero()) for i in range(n)]
    # a combination of the columns reduces to zero; beta = -negx / sigma
    # reproduces it exactly and is solve_linear's solution, which is zero
    # off the pivot columns
    rhs = combine(cols, coeffs, n)
    res, negx, sigma = reduce_pair({i: x for i, x in enumerate(rhs) if x}, {}, rows)
    assert res == {} and sigma
    assert combine(cols, [-negx.get(j, LaurentPoly.zero()) for j in range(len(cols))], n) == [sigma * x for x in rhs]
    dense = [[Qv(col.get(i, LaurentPoly.zero())) for col in cols] for i in range(n)]
    want = solve_linear(dense, [Qv(x) for x in rhs])
    assert [Qv(-negx.get(j, LaurentPoly.zero()), sigma) for j in range(len(cols))] == want
    # any right-hand side leaves a nonzero residue exactly when it is
    # outside the span, as one with an entry in a coordinate no column
    # reaches is
    res, _, _ = reduce_pair({i: x for i, x in enumerate(other) if x}, {}, rows)
    assert (res == {}) == (solve_linear(dense, [Qv(x) for x in other]) is not None)
    res, _, _ = reduce_pair({n: LaurentPoly.one(), **{i: x for i, x in enumerate(rhs) if x}}, {}, rows)
    assert res
