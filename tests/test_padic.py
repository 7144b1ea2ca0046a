from math import comb, factorial

import pytest
from hypothesis import given
from hypothesis import strategies as st

from powersum_denoms import padic
from powersum_denoms.padic import (
    DigitExpansion,
    binomial_valuation,
    digit_sum,
    digits,
    fine_count,
    is_prime,
    legendre_valuation_factorial,
    lucas_binom_mod,
    marble_witness,
)

small_primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]


def _valuation(x, p):
    v = 0
    while x % p == 0:
        v += 1
        x //= p
    return v


def test_is_prime():
    assert [n for n in range(50) if is_prime(n)] == small_primes
    assert not is_prime(-7)
    assert is_prime(97)
    assert not is_prime(91)


def test_is_prime_matches_sieve():
    from powersum_denoms.formulas import primes_upto

    assert [n for n in range(10**5) if is_prime(n)] == primes_upto(10**5 - 1)


def test_is_prime_large():
    # Strong pseudoprimes to the first 1, 4, 9..11 and 12 prime bases; the last
    # is why is_prime uses 13 Miller-Rabin bases.
    psi_12 = 318665857834031151167461
    assert psi_12 == 399165290221 * 798330580441
    for n in (2047, 3215031751, 3825123056546413051, psi_12):
        assert not is_prime(n)
    assert is_prime(999999999989)
    assert is_prime(2**61 - 1)
    assert not is_prime((2**31 - 1) ** 2)


def test_digits_examples():
    assert digits(0, 5).digits == ()
    assert digits(20, 3).digits == (2, 0, 2)
    assert digits(21, 11).digits == (10, 1)


def test_digits_rejects_bad_input():
    for bad in (0, 1, 4, 9, 15):
        with pytest.raises(ValueError, match="not a prime base"):
            digits(10, bad)
    with pytest.raises(ValueError):
        digits(-1, 5)


def test_digit_sum_examples():
    assert digit_sum(20, 7) == 8
    assert digit_sum(21, 2) == 3
    for p in (2, 3, 5, 31):
        assert digit_sum(0, p) == 0


def test_example_tables():
    assert [digit_sum(20, p) for p in (2, 3, 5, 7)] == [2, 4, 4, 8]
    assert [digit_sum(21, p) for p in (2, 3, 5, 7, 11)] == [3, 3, 5, 3, 11]


def test_legendre_examples():
    for p in (2, 3, 5):
        assert legendre_valuation_factorial(0, p) == 0
    assert legendre_valuation_factorial(10, 2) == 8
    assert legendre_valuation_factorial(9, 3) == 4


def test_legendre_against_factorial():
    for p in small_primes:
        for x in range(120):
            assert legendre_valuation_factorial(x, p) == _valuation(factorial(x), p)


def test_binomial_valuation_examples():
    for m in (0, 1, 5, 17):
        assert binomial_valuation(m, 0, 7) == 0
    assert binomial_valuation(20, 6, 3) == 1
    assert binomial_valuation(4, 2, 2) == 1
    with pytest.raises(ValueError):
        binomial_valuation(5, 6, 3)


def test_binomial_valuation_checks_its_base_once(monkeypatch):
    calls = []
    monkeypatch.setattr(padic, "is_prime", lambda p: calls.append(p) or is_prime(p))
    assert binomial_valuation(20, 6, 3) == 1
    assert calls == [3]
    with pytest.raises(ValueError, match="binomial index out of range"):
        binomial_valuation(5, 6, 4)
    with pytest.raises(ValueError, match="not a prime base: 4"):
        binomial_valuation(6, 5, 4)
    assert calls == [3, 4]


def test_lucas_examples():
    for m in (0, 3, 50):
        assert lucas_binom_mod(m, 0, 5) == 1
    assert lucas_binom_mod(20, 6, 3) == 0
    assert lucas_binom_mod(21, 10, 11) == 1
    assert lucas_binom_mod(3, 7, 5) == 0  # k > m convention
    with pytest.raises(ValueError, match="not a prime base"):
        lucas_binom_mod(10, 2, 6)


def test_lucas_against_comb():
    for p in (2, 3, 5, 7):
        for m in range(60):
            for k in range(m + 1):
                assert lucas_binom_mod(m, k, p) == comb(m, k) % p


def test_valuation_zero_iff_lucas_nonzero():
    for p in (2, 3, 5, 7, 11):
        for m in range(50):
            for k in range(m + 1):
                zero_val = binomial_valuation(m, k, p) == 0
                assert zero_val == (lucas_binom_mod(m, k, p) != 0)


def test_fine_count_examples():
    for p in (2, 3, 13):
        assert fine_count(0, p) == 1
    for r in range(1, 9):
        assert fine_count(2**r, 2) == 2
    assert fine_count(20, 3) == 9


def test_fine_count_against_row_scan():
    for p in (2, 3, 5):
        for m in range(100):
            assert fine_count(m, p) == sum(
                1 for k in range(m + 1) if comb(m, k) % p != 0
            )


def test_power_of_two_rows():
    # every interior even-k entry of row m is even exactly when m is a power of 2
    for m in range(4, 257, 2):
        all_even = all(comb(m, k) % 2 == 0 for k in range(2, m - 1, 2))
        assert all_even == (m & (m - 1) == 0)


def test_marble_witness_examples():
    w = marble_witness(21, 11)
    assert (w.j, w.b) == (1, 10)
    assert w.beta_digits.digits == (10,)

    w = marble_witness(13, 3)
    assert (w.j, w.b) == (2, 4)

    for p in (3, 5, 7, 13):
        w = marble_witness(2 * p - 1, p)
        assert (w.j, w.b) == (1, p - 1)
        assert lucas_binom_mod(2 * p - 1, p - 1, p) == 1


def test_marble_witness_preconditions():
    with pytest.raises(ValueError, match="witness preconditions unmet"):
        marble_witness(100, 2)  # even p
    with pytest.raises(ValueError, match="witness preconditions unmet"):
        marble_witness(3, 5)  # m <= p
    with pytest.raises(ValueError, match="witness preconditions unmet"):
        marble_witness(20, 5)  # digit sum 4 < 5


def test_marble_witness_tests_its_base_twice(monkeypatch):
    # Once for the digits of m and once for the digits of b; the self-check
    # takes its residue unchecked.
    calls = []
    real = padic.is_prime

    def counted(p):
        calls.append(p)
        return real(p)

    monkeypatch.setattr(padic, "is_prime", counted)
    for p in (3, 5, 7, 11, 13):
        for m in range(p + 1, 200):
            if digit_sum(m, p) >= p:
                calls.clear()
                marble_witness(m, p)
                assert calls == [p, p], f"m={m}, p={p}"
    with pytest.raises(ValueError, match="not a prime base"):
        marble_witness(21, 9)
    with pytest.raises(ValueError, match="nonnegative"):
        marble_witness(-1, 5)


def test_marble_witness_soundness_sweep():
    for p in (3, 5, 7, 11, 13):
        for m in range(p + 1, 400):
            if digit_sum(m, p) < p:
                continue
            w = marble_witness(m, p)
            assert w.beta_digits.digit_sum() == p - 1
            assert w.b % (p - 1) == 0
            assert 1 <= w.j <= (m - 1) // (p - 1)
            assert lucas_binom_mod(m, w.j * (p - 1), p) != 0


@given(st.integers(0, 10**9), st.sampled_from(small_primes))
def test_digits_round_trip(x, p):
    e = digits(x, p)
    assert e.value() == x
    assert all(0 <= d < p for d in e.digits)
    assert not e.digits or e.digits[-1] != 0


@given(st.integers(0, 10**9), st.sampled_from(small_primes))
def test_digit_sum_congruence(x, p):
    assert digit_sum(x, p) % (p - 1) == x % (p - 1)


def test_digit_expansion_helpers():
    e = DigitExpansion(3, (2, 0, 2))
    assert e.value() == 20
    assert e.digit_sum() == 4
