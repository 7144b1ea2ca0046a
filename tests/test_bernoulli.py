import random
from fractions import Fraction
from itertools import accumulate
from math import comb, gcd, isqrt, lcm

import pytest

from powersum_denoms import bernoulli
from powersum_denoms.bernoulli import (
    BernoulliTable,
    almkvist_meurman_check,
    bernoulli_numbers,
    bernoulli_poly,
    bernoulli_poly_denominator_direct,
    bernoulli_poly_denominator_formula,
    clausen_denominator,
)
from powersum_denoms.exact_poly import RationalPolynomial
from powersum_denoms.padic import is_prime

F = Fraction

# denominators of B_n(x) for n = 1..19
POLY_DENOMS = [2, 6, 2, 30, 6, 42, 6, 30, 10, 66, 6, 2730, 210, 30, 6, 510, 30, 3990, 210]


def recurrence_oracle(upto: int) -> list[Fraction]:
    """B_0 .. B_upto from sum(binomial(m+1, k) * B_k for k in 0..m) = 0, in
    Fractions: the route the integer table replaced."""
    values = [F(1)]
    for m in range(1, upto + 1):
        if m % 2 == 1 and m > 1:
            values.append(F(0))
            continue
        s = sum(comb(m + 1, k) * values[k] for k in range(m))
        values.append(-s / (m + 1))
    return values


def seidel_oracle(upto: int) -> list[Fraction]:
    """B_0 .. B_upto from the zigzag numbers A_(2k-1), each the last entry of
    row 2k - 1 of the Seidel boustrophedon triangle, in Fractions: the route
    the tangent-number columns replaced."""
    values = [F(1)]
    row = [1]  # row 0 of the Seidel triangle
    for m in range(1, upto + 1):
        if m % 2 == 1:
            values.append(F(-1, 2) if m == 1 else F(0))
            continue
        while len(row) < m:
            row = list(accumulate(reversed(row), initial=0))
        k = m // 2
        four_k = 4**k
        values.append(F((-1) ** (k - 1) * m * row[-1], four_k * (four_k - 1)))
    return values


def fraction_horner_check(poly: RationalPolynomial, n: int, h: int, k: int) -> bool:
    """Integrality of k^n * (poly(h/k) - poly(0)) by rational Horner evaluation."""
    return ((poly.eval(F(h, k)) - poly.coeffs[0]) * k**n).denominator == 1


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


def test_table_matches_recurrence_oracle():
    oracle = recurrence_oracle(600)
    one_shot = BernoulliTable(600)
    assert [one_shot.number(n) for n in range(601)] == oracle
    grown = BernoulliTable()
    for n in range(601):
        grown.extend_to(n)
        assert grown.max_n == n
        assert grown.number(n) == oracle[n], f"n={n}"


def test_table_matches_seidel_oracle():
    oracle = seidel_oracle(1500)
    one_shot = BernoulliTable(1500)
    assert [one_shot.number(n) for n in range(1501)] == oracle
    grown = BernoulliTable()
    for n in range(1501):
        grown.extend_to(n)
        assert grown.max_n == n
        assert grown.number(n) == oracle[n], f"n={n}"
    jumped = BernoulliTable(700)
    jumped.extend_to(1500)
    assert [jumped.number(n) for n in range(1501)] == oracle


def test_recurrence_direct():
    # sum(binom(n+1, k) * B_k, k = 0..n) vanishes for n >= 1
    t = bernoulli_numbers(40)
    for n in range(1, 41):
        assert sum(comb(n + 1, k) * t.number(k) for k in range(n + 1)) == 0


def test_bernoulli_poly_small():
    assert bernoulli_poly(0).coeffs == (1,)
    assert bernoulli_poly(1).coeffs == (F(-1, 2), 1)
    assert bernoulli_poly(2).coeffs == (F(1, 6), -1, 1)


def test_bernoulli_poly_structure():
    t = bernoulli_numbers(60)
    for n in range(61):
        b = bernoulli_poly(n)
        assert b.degree == n
        assert b.coeffs[-1] == 1
        assert b.coeffs[0] == t.number(n)


def test_bernoulli_poly_matches_fresh_table():
    t = BernoulliTable(25)
    for n in (0, 1, 7, 25):
        expected = RationalPolynomial(
            [comb(n, n - i) * t.number(n - i) for i in range(n + 1)]
        )
        assert bernoulli_poly(n) == expected


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


def _sqrt_divisor_scan(n: int) -> tuple[int, ...]:
    # The von Staudt-Clausen primes of n by pairing each divisor d <= sqrt(n)
    # with n // d: no factorisation involved.
    ps = set()
    for d in range(1, isqrt(n) + 1):
        if n % d == 0:
            ps.update(p for p in {d + 1, n // d + 1} if is_prime(p))
    return tuple(sorted(ps))


def test_clausen_matches_divisor_scan():
    for n in range(2, 3000, 2):
        scan = tuple(d + 1 for d in range(1, n + 1) if n % d == 0 and is_prime(d + 1))
        assert clausen_denominator(n).primes == scan
    seed = 2017
    ns = [2 * h for h in random.Random(seed).sample(range(1500, 10**6), 200)]
    # 963761198400 = 2^6 * 3^4 * 5^2 * 7 * 11 * ... * 23 has 6,720 divisors.
    for n in [*ns, 963761198400]:
        assert clausen_denominator(n).primes == _sqrt_divisor_scan(n), f"seed={seed}, n={n}"


def test_almkvist_meurman_examples():
    for n in (1, 4, 9):
        for h in (-3, 0, 5):
            assert almkvist_meurman_check(n, h, 1)
    assert almkvist_meurman_check(2, 1, 2)
    assert almkvist_meurman_check(12, 5, 7)
    with pytest.raises(ValueError):
        almkvist_meurman_check(3, 1, 0)


def test_almkvist_meurman_sweep():
    assert all(
        almkvist_meurman_check(n, h, k)
        for n in range(26)
        for h in range(-6, 7)
        for k in range(1, 7)
    )


def test_poly_uses_rational_polynomial():
    assert isinstance(bernoulli_poly(5), RationalPolynomial)


def test_almkvist_meurman_matches_fraction_horner():
    for n in range(61):
        b = bernoulli_poly(n)
        for h in range(-20, 21):
            for k in range(1, 21):
                assert almkvist_meurman_check(n, h, k) == fraction_horner_check(
                    b, n, h, k
                ), f"n={n}, h={h}, k={k}"


def test_shared_poly_is_scaled_coefficients():
    # The cached B_n(x) is (numerators, D) with numerators[i] / D the exact
    # coefficient binomial(n, i) * B_(n-i) of x^i and D their least common
    # denominator, so no factor is left to cancel.
    oracle = recurrence_oracle(300)
    for n in range(301):
        numerators, d = bernoulli._shared_poly(n)
        exact = [comb(n, i) * oracle[n - i] for i in range(n + 1)]
        assert d == lcm(*(c.denominator for c in exact)), f"n={n}"
        assert [F(c, d) for c in numerators] == exact, f"n={n}"
        assert gcd(d, *numerators) == 1, f"n={n}"


def test_shared_poly_grows_the_table_once(monkeypatch):
    # One B_n(x) reads B_0 .. B_n from one growth of the shared table, not one
    # extend_to call per Bernoulli number.
    calls = []
    real = BernoulliTable.extend_to
    monkeypatch.setattr(
        BernoulliTable, "extend_to", lambda self, n: calls.append(n) or real(self, n)
    )
    bernoulli._shared_poly.cache_clear()
    bernoulli._shared_poly(40)
    assert calls == [40]


def _scaled(poly: RationalPolynomial) -> tuple[tuple[int, ...], int]:
    d = lcm(*(c.denominator for c in poly.coeffs))
    return tuple(int(c * d) for c in poly.coeffs), d


def test_almkvist_meurman_perturbed_term_fails(monkeypatch):
    # Adding x/3 to B_n(x) adds h * k^(n-1) / 3 to the checked value, which is
    # not an integer unless 3 divides h or k: the check must notice, and agree
    # with rational Horner evaluation of the same perturbed polynomial.
    bump = RationalPolynomial([0, F(1, 3)])
    perturbed = {n: bernoulli_poly(n) + bump for n in range(2, 21)}
    monkeypatch.setattr(bernoulli, "_shared_poly", lambda n: _scaled(perturbed[n]))
    outcomes = set()
    for n in range(2, 21):
        b = perturbed[n]
        for h in range(-6, 7):
            for k in range(1, 7):
                ok = almkvist_meurman_check(n, h, k)
                assert ok == fraction_horner_check(b, n, h, k), f"n={n}, h={h}, k={k}"
                outcomes.add(ok)
    assert not almkvist_meurman_check(2, 1, 1)
    assert outcomes == {True, False}
