from fractions import Fraction

import pytest

from powersum_denoms.bernoulli import (
    BernoulliTable,
    SquarefreeProduct,
    almkvist_meurman_check,
    bernoulli_numbers,
    bernoulli_poly,
    bernoulli_poly_denominator_direct,
    bernoulli_poly_denominator_formula,
    clausen_denominator,
)
from powersum_denoms.exact_poly import RationalPolynomial

F = Fraction

# denominators of B_n(x) for n = 1..19
POLY_DENOMS = [2, 6, 2, 30, 6, 42, 6, 30, 10, 66, 6, 2730, 210, 30, 6, 510, 30, 3990, 210]


def test_first_values():
    t = bernoulli_numbers(12)
    assert t.number(0) == 1
    assert t.number(1) == F(-1, 2)
    assert t.number(2) == F(1, 6)
    assert t.number(3) == 0
    assert t.number(4) == F(-1, 30)
    assert t.number(12) == F(-691, 2730)


def test_odd_values_vanish():
    t = bernoulli_numbers(99)
    for n in range(3, 100, 2):
        assert t.number(n) == 0


def test_table_grows_monotonically():
    t = BernoulliTable(4)
    assert t.max_n == 4
    b4 = t.number(4)
    t.extend_to(10)
    assert t.max_n == 10
    assert t.number(4) == b4
    assert t.number(2) == F(1, 6)
    with pytest.raises(ValueError):
        t.number(-1)


def test_recurrence_direct():
    # sum(binom(n+1, k) * B_k, k = 0..n) vanishes for n >= 1
    from math import comb

    t = bernoulli_numbers(40)
    for n in range(1, 41):
        assert sum(comb(n + 1, k) * t.number(k) for k in range(n + 1)) == 0


def test_squarefree_product():
    sp = SquarefreeProduct.of([5, 2, 3, 2])
    assert sp.primes == (2, 3, 5)
    assert sp.value == 30
    assert SquarefreeProduct.of([]).value == 1
    with pytest.raises(ValueError, match="not a prime factor"):
        SquarefreeProduct.of([4])


def test_bernoulli_poly_small():
    assert bernoulli_poly(0).coeffs == (1,)
    assert bernoulli_poly(1).coeffs == (F(-1, 2), 1)
    assert bernoulli_poly(2).coeffs == (F(1, 6), -1, 1)


def test_bernoulli_poly_structure():
    t = bernoulli_numbers(60)
    for n in range(61):
        b = bernoulli_poly(n, t)
        assert b.degree == n
        assert b.leading_coefficient == 1
        assert b.coefficient(0) == t.number(n)


def test_bernoulli_poly_explicit_table_matches_cached():
    t = BernoulliTable(25)
    for n in (0, 1, 7, 25):
        assert bernoulli_poly(n, t) == bernoulli_poly(n)


def test_clausen_examples():
    assert clausen_denominator(2).primes == (2, 3)
    assert clausen_denominator(4).value == 30
    assert clausen_denominator(12).primes == (2, 3, 5, 7, 13)
    assert clausen_denominator(12).value == 2730


def test_clausen_rejects_bad_n():
    for bad in (0, -2, 3, 7):
        with pytest.raises(ValueError, match="positive even n"):
            clausen_denominator(bad)


def test_clausen_matches_recurrence():
    t = bernoulli_numbers(120)
    for n in range(2, 121, 2):
        assert t.number(n).denominator == clausen_denominator(n).value
        assert clausen_denominator(n).value % 6 == 0


def test_poly_denominator_direct_examples():
    assert bernoulli_poly_denominator_direct(1) == 2
    assert bernoulli_poly_denominator_direct(2) == 6
    assert bernoulli_poly_denominator_direct(13) == 210
    with pytest.raises(ValueError):
        bernoulli_poly_denominator_direct(0)


def test_poly_denominator_formula_examples():
    assert bernoulli_poly_denominator_formula(1).value == 2
    assert bernoulli_poly_denominator_formula(4).value == 30
    assert bernoulli_poly_denominator_formula(12).value == 2730
    with pytest.raises(ValueError):
        bernoulli_poly_denominator_formula(0)


def test_poly_denominator_fixture_list():
    assert [bernoulli_poly_denominator_direct(n) for n in range(1, 20)] == POLY_DENOMS
    assert [
        bernoulli_poly_denominator_formula(n).value for n in range(1, 20)
    ] == POLY_DENOMS


def test_poly_denominator_routes_agree():
    for n in range(1, 160):
        sp = bernoulli_poly_denominator_formula(n)
        direct = bernoulli_poly_denominator_direct(n)
        assert sp.value == direct
        # even, squarefree by construction, and divisible by denom(B_n)
        assert sp.value % 2 == 0
        assert sp.value % bernoulli_numbers(n).number(n).denominator == 0


def test_poly_denominator_routes_agree_to_300():
    for n in range(160, 301):
        assert bernoulli_poly_denominator_formula(n).value == bernoulli_poly_denominator_direct(n)


def test_clausen_matches_divisor_scan():
    from powersum_denoms.padic import is_prime

    for n in range(2, 3000, 2):
        scan = tuple(d + 1 for d in range(1, n + 1) if n % d == 0 and is_prime(d + 1))
        assert clausen_denominator(n).primes == scan


def test_almkvist_meurman_examples():
    for n in (1, 4, 9):
        for h in (-3, 0, 5):
            assert almkvist_meurman_check(n, h, 1)
    assert almkvist_meurman_check(2, 1, 2)
    assert almkvist_meurman_check(12, 5, 7)
    with pytest.raises(ValueError):
        almkvist_meurman_check(3, 1, 0)


def test_almkvist_meurman_sweep():
    t = bernoulli_numbers(25)
    assert all(
        almkvist_meurman_check(n, h, k, t)
        for n in range(26)
        for h in range(-6, 7)
        for k in range(1, 7)
    )


def test_poly_uses_rational_polynomial():
    assert isinstance(bernoulli_poly(5), RationalPolynomial)
