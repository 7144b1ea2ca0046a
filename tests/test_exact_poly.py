from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from powersum_denoms.exact_poly import (
    RationalPolynomial,
    content_split,
    lagrange_interpolate,
    poly_denominator,
)

F = Fraction

rationals = st.fractions(
    min_value=-100, max_value=100, max_denominator=50
)


def test_construction_normalizes():
    assert RationalPolynomial([1, 2, 0, 0]).coeffs == (1, 2)
    assert RationalPolynomial([0, 0]).is_zero()
    assert RationalPolynomial().degree == -1
    assert RationalPolynomial([0, 0, F(1, 3)]).degree == 2


def test_immutability():
    p = RationalPolynomial([1, 2])
    with pytest.raises(AttributeError):
        p.coeffs = (3,)


def test_arithmetic():
    p = RationalPolynomial([1, 2, 3])
    q = RationalPolynomial([0, 1])
    assert (p + q).coeffs == (1, 3, 3)
    assert (p + p * -1).is_zero()
    assert (p * q).coeffs == (0, 1, 2, 3)
    assert (p * 2).coeffs == (2, 4, 6)
    assert (p * F(1, 2)).coeffs == (F(1, 2), 1, F(3, 2))


def test_eval():
    half_square = RationalPolynomial([0, F(1, 2), F(1, 2)])
    assert half_square.eval(4) == 10
    assert RationalPolynomial().eval(F(7, 3)) == 0
    s4 = RationalPolynomial([0, F(-1, 30), 0, F(1, 3), F(1, 2), F(1, 5)])
    assert s4.eval(2) == 17


def test_poly_denominator():
    assert poly_denominator(RationalPolynomial()) == 1
    assert poly_denominator(RationalPolynomial([0, F(1, 2), F(1, 2)])) == 2
    s4 = RationalPolynomial([0, F(-1, 30), 0, F(1, 3), F(1, 2), F(1, 5)])
    assert poly_denominator(s4) == 30


def test_content_split_examples():
    p = RationalPolynomial([0, F(1, 6), F(1, 2), F(1, 3)])
    scale, primitive = content_split(p)
    assert scale == F(1, 6)
    assert primitive.coeffs == (0, 1, 3, 2)

    scale, primitive = content_split(RationalPolynomial([0, 3]))
    assert scale == 3
    assert primitive.coeffs == (0, 1)

    p = RationalPolynomial([0, F(-1, 30), 0, F(1, 3), F(1, 2), F(1, 5)])
    scale, primitive = content_split(p)
    assert scale == F(1, 30)
    assert primitive.coeffs == (0, -1, 0, 10, 15, 6)


def test_content_split_zero_rejected():
    with pytest.raises(ValueError, match="no content decomposition"):
        content_split(RationalPolynomial())


def test_lagrange_examples():
    assert lagrange_interpolate([(0, 0), (1, 1), (2, 2)]).coeffs == (0, 1)
    assert lagrange_interpolate([(0, 1)]).coeffs == (1,)
    points = [(i, sum(j * j for j in range(1, i + 1))) for i in range(4)]
    assert lagrange_interpolate(points).coeffs == (0, F(1, 6), F(1, 2), F(1, 3))


def test_lagrange_duplicate_x():
    with pytest.raises(ValueError, match="duplicate"):
        lagrange_interpolate([(1, 1), (1, 2)])


@given(rationals, rationals)
def test_rational_closure(a, b):
    from math import gcd

    assert (a + b) - b == a
    if b != 0:
        assert (a * b) / b == a
    total = a + b
    assert total.denominator >= 1
    assert gcd(total.numerator, total.denominator) == 1


@given(
    st.lists(
        st.tuples(st.integers(-20, 20), rationals), min_size=1, max_size=7
    ).filter(lambda pts: len({x for x, _ in pts}) == len(pts))
)
def test_lagrange_round_trip(points):
    poly = lagrange_interpolate(points)
    assert poly.degree < len(points)
    for x, y in points:
        assert poly.eval(x) == y


@given(st.lists(rationals, min_size=1, max_size=8).filter(lambda cs: any(cs)))
def test_content_split_round_trip(values):
    from math import gcd

    p = RationalPolynomial(values)
    scale, primitive = content_split(p)
    assert scale > 0
    assert primitive * scale == p
    assert all(c.denominator == 1 for c in primitive.coeffs)
    assert gcd(*(int(c) for c in primitive.coeffs)) == 1


@given(st.lists(rationals, min_size=1, max_size=8))
def test_poly_denominator_is_minimal(values):
    p = RationalPolynomial(values)
    d = poly_denominator(p)
    assert all((c * d).denominator == 1 for c in p.coeffs)
    # dropping any single prime from d must leave some coefficient fractional
    t, f = d, 2
    while f <= t:
        if t % f == 0:
            assert any((c * (d // f)).denominator != 1 for c in p.coeffs)
            while t % f == 0:
                t //= f
        f += 1
