from __future__ import annotations

import doctest
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import klwb.rings
from klwb.rings import (
    BivarPoly,
    LaurentPoly,
    LocalizedScalar,
    NonUnitLeadingCoefficient,
    Qv,
    annihilator_family,
    binom,
    divides_p_power,
    divmod_x,
    gcd_laurent,
    p_poly,
    pack,
    split_at_one,
    unpack,
)

ONE = LaurentPoly.one()
ZERO = LaurentPoly.zero()


def test_docstring_examples():
    got = doctest.testmod(klwb.rings)
    assert (got.failed, got.attempted) == (0, 6)


def lp(pairs: dict[int, int]) -> LaurentPoly:
    return LaurentPoly(pairs)


def naive_mul(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    # independent convolution oracle, no library code paths
    out: dict[int, int] = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            out[ea + eb] = out.get(ea + eb, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def rand_poly(rng: random.Random, terms: int = 4, span: int = 8) -> LaurentPoly:
    return LaurentPoly({rng.randint(-span, span): rng.randint(-9, 9)
                        for _ in range(terms)})


# -- laurent_arith ----------------------------------------------------------

def test_difference_of_squares():
    assert lp({0: 1, 2: -1}) * lp({0: 1, 2: 1}) == lp({0: 1, 4: -1})


def test_add_zero_identity():
    p = lp({-3: 2, 0: 5, 7: -1})
    assert p + ZERO == p
    assert ZERO + p == p


def test_p_of_v_rank_three_longest():
    # (1 - v^2)(1 - v^4)(1 - v^6) expanded through the independent oracle
    expected = naive_mul(naive_mul({0: 1, 2: -1}, {0: 1, 4: -1}), {0: 1, 6: -1})
    assert p_poly(3) == LaurentPoly(expected)
    assert p_poly(3) == lp({0: 1, 2: -1, 4: -1, 8: 1, 10: 1, 12: -1})


def test_ring_axioms_randomized():
    rng = random.Random(20260814)
    for _ in range(60):
        a, b, c = (rand_poly(rng) for _ in range(3))
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a
        assert a - a == ZERO
        assert a * ONE == a


def test_canonical_no_zero_coefficients():
    p = lp({0: 1, 2: 3}) - lp({2: 3})
    assert p.to_json() == {"0": 1}
    assert (p - p).is_zero


def test_render_ascending():
    assert lp({0: 1, 2: -1, 4: 1}).render() == "1 - v^2 + v^4"
    assert lp({-2: 3, 1: -1}).render() == "3*v^-2 - v"
    assert ZERO.render() == "0"


# -- divmod_x ---------------------------------------------------------------

def test_divmod_linear():
    f = BivarPoly.x_minus(lp({2: 1}))
    g = BivarPoly.x_minus(ONE)
    q, rem = divmod_x(f, g)
    assert q == BivarPoly.const(ONE)
    assert rem == BivarPoly.const(lp({0: 1, 2: -1}))


def test_divmod_quadratic_remainder_is_value_at_one():
    f = annihilator_family(2, tilde=True)  # (x - v^2)(x - v^4)
    g = BivarPoly.x_minus(ONE)
    q, rem = divmod_x(f, g)
    assert rem.degree <= 0
    assert rem.coefficient(0) == f.eval_x(1)
    assert rem.coefficient(0) == lp({0: 1, 2: -1}) * lp({0: 1, 4: -1})


def test_divmod_self():
    f = annihilator_family(3)
    q, rem = divmod_x(f, f)
    assert q == BivarPoly.const(ONE)
    assert rem.is_zero


def test_divmod_requires_unit_leading_coefficient():
    g = BivarPoly((ONE, lp({0: 1, 2: 1})))
    with pytest.raises(NonUnitLeadingCoefficient):
        divmod_x(annihilator_family(2), g)


def test_divmod_roundtrip_randomized():
    rng = random.Random(99)
    for _ in range(40):
        f = BivarPoly(tuple(rand_poly(rng, 3, 4) for _ in range(rng.randint(1, 5))))
        gdeg = rng.randint(1, 3)
        g = BivarPoly(tuple(rand_poly(rng, 2, 3) for _ in range(gdeg))
                      + (LaurentPoly.monomial(rng.randint(-2, 2), rng.choice([1, -1])),))
        q, rem = divmod_x(f, g)
        assert q * g + rem == f
        assert rem.degree < g.degree


# -- annihilator_family -----------------------------------------------------

def test_family_m1():
    assert annihilator_family(1) == (
        BivarPoly.x_minus(ONE) * BivarPoly.x_minus(lp({2: 1})))


def test_family_m0():
    assert annihilator_family(0) == BivarPoly.x_minus(ONE)
    assert annihilator_family(0, tilde=True) == BivarPoly.const(ONE)


def test_family_m2_tilde():
    expected = BivarPoly.x_minus(lp({2: 1})) * BivarPoly.x_minus(lp({4: 1}))
    assert annihilator_family(2, tilde=True) == expected


# -- split_at_one -----------------------------------------------------------

def test_split_rank_one():
    pt = annihilator_family(1, tilde=True)
    pv, r = split_at_one(pt)
    assert pv == lp({0: 1, 2: -1})
    assert BivarPoly.const(pv) == pt + r * BivarPoly.x_minus(ONE)


def test_split_constant():
    c = lp({0: 7, 2: -3})
    pv, r = split_at_one(BivarPoly.const(c))
    assert pv == c
    assert r.is_zero


def test_split_identity_m_one_through_six():
    for m in range(1, 7):
        pt = annihilator_family(m, tilde=True)
        pv, r = split_at_one(pt)
        assert pv == p_poly(m)
        assert BivarPoly.const(pv) == pt + r * BivarPoly.x_minus(ONE)
        # evaluation crosscheck at three sample points
        for x in (lp({2: 1}), lp({0: -1}), lp({4: 1, 0: 2})):
            lhs = pt.eval_x(x) + r.eval_x(x) * (x - ONE)
            assert lhs == pv


# -- specialize_sqrt_q ------------------------------------------------------

def test_specialize_square_q():
    val = lp({0: 1, 2: -1}).specialize_sqrt_q(4)
    assert val == -3
    assert val.nonzero


def test_specialize_q_two():
    val = lp({0: 1, 2: -1}).specialize_sqrt_q(2)
    assert val == -1
    assert val.nonzero


def test_specialize_rank_three_product():
    val = p_poly(3).specialize_sqrt_q(2)
    assert val == (1 - 2) * (1 - 4) * (1 - 8)
    assert val == -21
    assert val.nonzero


def test_specialize_odd_exponents():
    val = lp({1: 1, -1: 1}).specialize_sqrt_q(2)
    assert not val.a
    assert str(val) == "3/2*sqrt(2)"
    assert val.nonzero


# -- LocalizedScalar reduction ----------------------------------------------

def test_localized_exact_cancellation():
    x = LocalizedScalar(binom(1) * binom(1), {1: 1})
    assert x.num == binom(1)
    assert x.den == {}


def test_localized_partial_cancellation():
    x = LocalizedScalar(lp({0: 1, 2: 1}), {2: 1})
    assert x.num == ONE
    assert x.den == {1: 1}


def test_localized_zero():
    x = LocalizedScalar(ZERO, {1: 3})
    assert x.num.is_zero
    assert x.den == {}


def test_localized_reduction_preserves_fraction():
    rng = random.Random(5)
    for _ in range(25):
        num = rand_poly(rng, 3, 4) * binom(rng.randint(1, 3))
        den = {rng.randint(1, 4): rng.randint(1, 2) for _ in range(2)}
        raw_den = ONE
        for i, k in den.items():
            raw_den = raw_den * binom(i) ** k
        x = LocalizedScalar(num, den)
        # cross multiplication: num * reduced_den == reduced_num * den
        assert num * x.denominator_poly() == x.num * raw_den


def test_localized_reduce_idempotent():
    x = LocalizedScalar(lp({0: 1, 2: 1}) * binom(2), {1: 2, 2: 1})
    y = LocalizedScalar(x.num, x.den)
    assert x == y


# -- divides_p_power --------------------------------------------------------

def test_divides_simple():
    assert divides_p_power(binom(1), 1) == 1


def test_divides_cube():
    assert divides_p_power(binom(1) ** 3, 1, rmax=5) == 3


def test_divides_absent():
    assert divides_p_power(lp({0: 1, 1: 1, 2: 1}), 1, rmax=5) is None


def test_divides_unit():
    assert divides_p_power(LaurentPoly.monomial(-4, -1), 3) == 0


def test_divides_mixed_product():
    assert divides_p_power(binom(1) * binom(2), 2) == 1
    assert divides_p_power(binom(1) ** 2 * binom(2), 2, rmax=4) == 2


# -- fraction field ---------------------------------------------------------

def test_qv_normalization():
    a = lp({0: 1, 2: -1})
    b = lp({0: 1, 2: 1})
    assert Qv(a, b * a) == Qv(ONE, b)
    assert Qv(a * b, a) == Qv(b)
    assert Qv(ZERO, a) == Qv(0)


def test_qv_field_axioms_randomized():
    rng = random.Random(77)
    for _ in range(30):
        x = Qv(rand_poly(rng, 3, 3), rand_poly(rng, 2, 2) + lp({9: 1}))
        y = Qv(rand_poly(rng, 3, 3), rand_poly(rng, 2, 2) + lp({7: 1}))
        z = Qv(rand_poly(rng, 2, 3), rand_poly(rng, 2, 2) + lp({5: 1}))
        assert (x + y) * z == x * z + y * z
        assert x - x == Qv(0)
        if not y.is_zero:
            assert (x / y) * y == x
        assert (x * y) * z == x * (y * z)


def test_qv_denominator_sign_canonical():
    # leading coefficient of the denominator is normalized positive
    assert Qv(ONE, lp({0: -1, 2: 1})) == Qv(-ONE, binom(1))
    x = Qv(-ONE, binom(1))
    assert x.den == lp({0: -1, 2: 1})
    assert x.num == ONE


def test_gcd_laurent():
    a = binom(1) * binom(2)
    b = binom(1) * lp({0: 1, 2: 1})
    g = gcd_laurent(a, b)
    # gcd is (1 - v^2)(1 + v^2) up to sign? no: common factor is 1 - v^2
    # times the shared (1 + v^2) inside 1 - v^4
    assert g == binom(2) or g == -binom(2)


def test_laurent_plus_minus_qv_both_orders():
    a = lp({0: 1, 2: 1})
    x = Qv(ONE, binom(1))
    assert ONE + Qv(1) == Qv(1) + ONE == Qv(2)
    assert a + x == x + a == Qv(a * binom(1) + ONE, binom(1))
    assert a - x == Qv(a * binom(1) - ONE, binom(1))
    assert x - a == -(a - x)
    assert ONE - Qv(1) == Qv(1) - ONE == Qv(0)


def fraction_divide(f: LaurentPoly, g: LaurentPoly):
    """f / g in Z[v, v^-1] by long division over Q, or None: a reference
    for LaurentPoly.divide_exact that keeps every step in Fraction."""
    fc, gc = dict(f.items()), dict(g.items())
    if not fc:
        return {}
    flo, glo = min(fc), min(gc)
    rem = [Fraction(fc.get(e, 0)) for e in range(flo, max(fc) + 1)]
    div = [gc.get(e, 0) for e in range(glo, max(gc) + 1)]
    if len(rem) < len(div):
        return None
    quo = {}
    for k in range(len(rem) - len(div), -1, -1):
        c = rem[k + len(div) - 1] / div[-1]
        if c:
            quo[k + flo - glo] = c
            for j, d in enumerate(div):
                rem[k + j] -= c * d
    if any(rem) or any(c.denominator != 1 for c in quo.values()):
        return None
    return {e: int(c) for e, c in quo.items()}


def test_divide_exact_non_integral_quotients():
    assert ONE.divide_exact(lp({0: 2})) is None
    assert lp({0: 2, 1: 2}).divide_exact(lp({0: 2})) == lp({0: 1, 1: 1})
    # (v^2 - 1) / (2v - 2) = (v + 1) / 2: exact over Q, not over Z
    assert lp({0: -1, 2: 1}).divide_exact(lp({0: -2, 1: 2})) is None
    assert lp({0: 1, 2: 1}).divide_exact(lp({0: 1, 1: 1})) is None
    for f, g in ((ONE, lp({0: 2})), (lp({0: -1, 2: 1}), lp({0: -2, 1: 2}))):
        assert fraction_divide(f, g) is None


# -- properties (hypothesis) ------------------------------------------------

laurent = st.dictionaries(
    st.integers(-4, 4), st.integers(-6, 6), max_size=4
).map(LaurentPoly)
nonzero_laurent = laurent.filter(lambda p: not p.is_zero)
units = st.builds(
    LaurentPoly.monomial, st.integers(-5, 5), st.sampled_from((1, -1))
)
fractions = st.builds(Qv, laurent, nonzero_laurent)
props = settings(max_examples=150, deadline=None)


@props
@given(laurent, nonzero_laurent, st.one_of(nonzero_laurent, units))
def test_qv_common_factor_cancels(a, b, c):
    assert Qv(a * c, b * c) == Qv(a, b)


@props
@given(laurent, nonzero_laurent)
def test_qv_canonical_form(a, b):
    x = Qv(a, b)
    d = x.den
    # in Z[v] with nonzero constant term and positive leading coefficient
    assert d.min_exp == 0
    assert d.coefficient(d.max_exp) > 0
    if x.is_zero:
        assert d == ONE
    else:
        assert gcd_laurent(x.num, d) == ONE
    # the pair represents a / b: a * den == num * b
    assert a * d == x.num * b


@props
@given(laurent, units, nonzero_laurent.filter(lambda p: not p.is_unit))
def test_qv_unit_denominator_matches_gcd_path(a, u, c):
    # a / u for a unit u = +-v^k is a * u^-1 over the denominator 1
    x = Qv(a, u)
    assert x.den == ONE
    assert x.num == a * u ** -1
    # the same value with a non-unit factor on both sides goes through gcd
    assert Qv(a * c, u * c) == x


@props
@given(laurent, laurent)
def test_gcd_laurent_divides_both(p, q):
    g = gcd_laurent(p, q)
    if p.is_zero and q.is_zero:
        assert g.is_zero
        return
    for f in (p, q):
        quo = f.divide_exact(g)
        assert quo is not None and quo * g == f


@props
@given(fractions, fractions, fractions)
def test_qv_field_axioms(x, y, z):
    zero, one = Qv(0), Qv(1)
    assert x + y == y + x and x * y == y * x
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + zero == x and x * one == x
    assert x + (-x) == zero and x - y == x + (-y)
    if not x.is_zero:
        assert x * x.inv() == one
        assert (y / x) * x == y


def _as_dict(q):
    return None if q is None else dict(q.items())


@props
@given(laurent, nonzero_laurent)
def test_divide_exact_on_multiples(a, b):
    assert (a * b).divide_exact(b) == a
    assert _as_dict((a * b).divide_exact(b)) == fraction_divide(a * b, b)


@props
@given(laurent, nonzero_laurent, st.integers(-3, 3).filter(lambda k: k not in (0, 1, -1)))
def test_divide_exact_matches_fraction_reference(a, b, k):
    # a * b / (k * b) is integral exactly when k divides every coefficient
    # of a; a / b alone is usually not exact at all
    for f, g in ((a * b, b * k), (a, b)):
        assert _as_dict(f.divide_exact(g)) == fraction_divide(f, g)


bivar = st.lists(laurent, max_size=4).map(BivarPoly)
monic_up_to_unit = st.builds(
    lambda cs, u: BivarPoly(tuple(cs) + (u,)), st.lists(laurent, max_size=3), units
)


@props
@given(bivar, monic_up_to_unit)
def test_divmod_x_identity(f, g):
    q, r = divmod_x(f, g)
    assert q * g + r == f
    assert r.degree < g.degree


binomials = st.lists(
    st.sampled_from([binom(1), binom(2), binom(3), lp({0: 1, 2: 1})]), max_size=3
)


@props
@given(laurent, binomials, st.dictionaries(st.integers(1, 3), st.integers(0, 2), max_size=3))
def test_localized_reduction_idempotent(a, factors, den):
    num = a
    for f in factors:
        num = num * f
    x = LocalizedScalar(num, den)
    assert LocalizedScalar(x.num, x.den) == x


# -- Kronecker packing, v -> 2^b ----------------------------------------------

wide_laurent = st.dictionaries(
    st.integers(-8, 8), st.integers(-(10**6), 10**6), max_size=6
).map(LaurentPoly)
nonzero_wide = wide_laurent.filter(lambda p: not p.is_zero)


def sup_norm(p):
    return max((abs(x) for _, x in p.items()), default=0)


def one_norm(p):
    return sum(abs(x) for _, x in p.items())


@props
@given(wide_laurent, st.integers(0, 5), st.integers(2, 40))
def test_pack_unpack_round_trip(p, slack, width):
    # any base at or below the least exponent, any width whose signed
    # slots hold every coefficient
    b = max(width, sup_norm(p).bit_length() + 1)
    lo = (p.min_exp if p else 0) - slack
    assert unpack(pack(p, lo, b), lo, b) == p


def test_pack_zero_polynomial():
    assert pack(ZERO, -3, 7) == 0
    assert unpack(0, -3, 7) == ZERO


def test_unpack_rejects_one_bit_slots():
    # a one-bit slot holds no signed digit but 0: an all-zero block packs at
    # b = 1, and any nonzero n fails at once instead of never ending
    assert unpack(0, 4, 1) == ZERO
    with pytest.raises(ValueError, match="at least 2 bits"):
        unpack(1, 0, 1)
    with pytest.raises(ValueError):
        unpack(-5, 0, 0)


@props
@given(st.integers(3, 80), st.lists(st.sampled_from((1, -1, 0)), max_size=8), st.integers(-5, 5))
def test_pack_unpack_extreme_slots(b, signs, lo):
    top = (1 << (b - 1)) - 1
    p = LaurentPoly({lo + i: s * top for i, s in enumerate(signs)})
    assert unpack(pack(p, lo, b), lo, b) == p
    if p:
        # one bit narrower, the top coefficient no longer fits its slot
        assert unpack(pack(p, lo, b - 1), lo, b - 1) != p


@props
@given(nonzero_wide, nonzero_wide, nonzero_wide, st.integers(-5, 5))
def test_packed_product_plus_shifted_term(a, f, c, k):
    # a * f + v^k c with the width from the documented bound
    # |a f + v^k c|_inf <= |f|_1 |a|_inf + |c|_inf
    b = (one_norm(f) * sup_norm(a) + sup_norm(c)).bit_length() + 1
    lo_af, lo_c = a.min_exp + f.min_exp, c.min_exp + k
    base = min(lo_af, lo_c)
    n = (pack(a, a.min_exp, b) * pack(f, f.min_exp, b) << b * (lo_af - base)) + (
        pack(c, c.min_exp, b) << b * (lo_c - base)
    )
    assert unpack(n, base, b) == naive_sum(a, f, c, k)


def naive_sum(a, f, c, k):
    # a * f + v^k c by the convolution oracle above
    out = naive_mul(dict(a.items()), dict(f.items()))
    for e, x in c.items():
        out[e + k] = out.get(e + k, 0) + x
    return LaurentPoly(out)
