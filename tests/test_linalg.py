import pytest
from hypothesis import given, settings, strategies as st

from klwb.linalg import DegreeBoundExceeded, lcm_x, minpoly_operator, sparse_operator
from klwb.rings import BivarPoly, LaurentPoly, NonUnitLeadingCoefficient


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
