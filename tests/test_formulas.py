import random
from bisect import bisect_right
from math import floor, prod

import pytest

from powersum_denoms import formulas, padic
from powersum_denoms.formulas import (
    _prime_factors,
    hermite_bachmann_holds,
    primes_upto,
    pset,
    pset_bound_check,
    q_n_epsilon,
    q_n_formula,
    q_n_via_psets,
    sharpness_witnesses,
)
from powersum_denoms.padic import digit_sum
from powersum_denoms.powersum import bound_M, q_n_bruteforce

Q_SEQ = [1, 1, 2, 1, 6, 2, 6, 3, 10, 2, 6, 2, 210, 30, 6, 3, 30, 10, 210, 42, 330]


def test_primes_upto():
    assert primes_upto(1) == []
    assert primes_upto(2) == [2]
    assert primes_upto(11) == [2, 3, 5, 7, 11]
    thirty = primes_upto(30)
    assert len(thirty) == 10
    assert thirty[-1] == 29


def test_prime_factors():
    assert _prime_factors(1) == []
    assert _prime_factors(360) == [2, 2, 2, 3, 3, 5]
    assert _prime_factors(2 * 101**2) == [2, 101, 101]
    assert _prime_factors(2**64) == [2] * 64
    assert _prime_factors(10**20) == [2] * 20 + [5] * 20
    assert _prime_factors(2 * 101**2 * 10007) == [2, 101, 101, 10007]
    for x in range(1, 3000):
        factors = _prime_factors(x)
        assert prod(factors) == x and factors == sorted(factors)
        assert all(padic.is_prime(f) for f in factors)


def test_q_n_formula_examples():
    assert q_n_formula(19).primes == (2, 3, 7)
    assert q_n_formula(19).value == 42
    assert q_n_formula(20).primes == (2, 3, 5, 11)
    assert q_n_formula(20).value == 330
    assert q_n_formula(0).primes == ()
    assert q_n_formula(0).value == 1


def test_q_n_formula_first_values():
    assert [q_n_formula(n).value for n in range(21)] == Q_SEQ


def test_epsilon_examples():
    assert q_n_epsilon(12).value() == 210
    assert q_n_epsilon(20).value() == 330
    e3 = q_n_epsilon(3)
    assert e3.value() == 1
    assert 2 not in e3.exponents  # no primes within the bound at n = 3
    e7 = q_n_epsilon(7)
    assert e7.exponents[2] == 0  # 8 is a power of 2


def test_epsilon_structure():
    for n in range(200):
        vec = q_n_epsilon(n)
        limit = bound_M(n)
        for p, e in vec.exponents.items():
            assert p <= limit
            assert e in (0, 1)
            # the exponent matches the digit-sum criterion prime by prime
            assert e == (1 if digit_sum(n + 1, p) >= p else 0)


def test_pset_examples():
    assert pset(4, 1).primes == ()
    assert pset(9, 1).primes == (2,)
    assert pset(5, 2).primes == (3,)
    assert pset(4, 2).primes == ()
    assert pset(7, 0).primes == ()
    assert pset(11, 5).primes == ()  # odd k >= 3
    with pytest.raises(ValueError):
        pset(4, 5)


def test_pset_against_literal_denominator():
    # denominator of binom(m, k) * B_k matches the prime-set product
    from math import comb

    from powersum_denoms.bernoulli import bernoulli_numbers

    t = bernoulli_numbers(40)
    for m in range(1, 41):
        for k in range(m + 1):
            expected = (comb(m, k) * t.number(k)).denominator
            assert pset(m, k).value == expected


def test_psets_route():
    assert q_n_via_psets(1).value == 1
    assert q_n_via_psets(4).value == 6
    assert q_n_via_psets(12).value == 210
    assert [q_n_via_psets(n).value for n in range(21)] == Q_SEQ


def test_routes_agree_midrange():
    for n in range(120):
        brute = q_n_bruteforce(n)
        assert q_n_formula(n).value == brute
        assert q_n_epsilon(n).value() == brute
        assert q_n_via_psets(n).value == brute


def test_residue_loops_test_each_prime_once(monkeypatch):
    # The epsilon route takes its primes from the sieve and pset takes the
    # von Staudt-Clausen primes of k, which test each candidate p with p - 1 | k
    # once, so no Lucas residue checks its base again.  clausen_denominator
    # lives in formulas, so patching padic and formulas covers every test.
    # pset caches those primes per k, so the count starts from an empty cache.
    expected = q_n_formula(300)
    formulas._clausen_primes.cache_clear()
    calls = []
    real = padic.is_prime

    def counted(p):
        calls.append(p)
        return real(p)

    monkeypatch.setattr(padic, "is_prime", counted)
    monkeypatch.setattr(formulas, "is_prime", counted)
    assert q_n_epsilon(300).value() == expected.value
    assert calls == []
    assert q_n_via_psets(300) == expected
    candidates = sum(
        len({d + 1 for d in range(1, k + 1) if k % d == 0}) for k in range(2, 301, 2)
    )
    assert len(calls) == candidates == 1222


def test_hermite_examples():
    assert hermite_bachmann_holds(2, 5)  # m < p, empty sum
    assert hermite_bachmann_holds(7, 3)
    assert hermite_bachmann_holds(10, 5)
    with pytest.raises(ValueError, match="not a prime base"):
        hermite_bachmann_holds(10, 9)
    with pytest.raises(ValueError):
        hermite_bachmann_holds(0, 3)


def test_hermite_sweep():
    for p in primes_upto(30):
        for m in range(1, 80):
            assert hermite_bachmann_holds(m, p)


def test_sharpness_examples():
    assert sharpness_witnesses(3) == (4, 7)
    assert sharpness_witnesses(5) == (8, 13)
    assert sharpness_witnesses(7) == (12, 19)
    for bad in (2, 9):
        with pytest.raises(ValueError):
            sharpness_witnesses(bad)


def test_sharpness_sweep():
    for p in primes_upto(60):
        if p == 2:
            continue
        n0, n1 = sharpness_witnesses(p)
        assert n0 == 2 * p - 2 and n1 == 3 * p - 2
        assert bound_M(n0) == p and bound_M(n1) == p


def test_pset_bound_examples():
    assert pset_bound_check(5, 2)
    assert pset_bound_check(4, 2)
    assert pset_bound_check(9, 4)
    with pytest.raises(ValueError):
        pset_bound_check(5, 3)  # odd k
    with pytest.raises(ValueError):
        pset_bound_check(6, 6)  # k > m - 2 for even m
    with pytest.raises(ValueError):
        pset_bound_check(2, 2)


def test_pset_bound_sweep():
    for m in range(3, 80):
        top = m - 1 if m % 2 == 1 else m - 2
        for k in range(2, top + 1, 2):
            assert pset_bound_check(m, k)


def test_growth_evidence_small():
    peaks = [max(q_n_formula(n).value for n in range(N + 1)) for N in (20, 60, 120)]
    assert peaks[0] < peaks[1] < peaks[2]


def _plain_digit_sum(x, p):
    s = 0
    while x:
        x, r = divmod(x, p)
        s += r
    return s


def _q_primes_oracle(n, primes):
    """Digit-sum criterion over every sieve prime up to the sharp bound."""
    m = n + 1
    candidates = primes[: bisect_right(primes, floor(bound_M(n)))]
    return tuple(p for p in candidates if _plain_digit_sum(m, p) >= p)


def test_formula_matches_full_scan_small():
    primes = primes_upto(1501)
    for n in range(3000):
        assert q_n_formula(n).primes == _q_primes_oracle(n, primes)


def test_formula_matches_full_scan_large():
    # n = 10^6 checks completeness: no qualifying prime above sqrt(n+1) is missed.
    ns = [10**6, *random.Random(2017).sample(range(10**5, 10**7 + 1), 20)]
    primes = primes_upto(max(ns) // 2 + 1)
    for n in ns:
        q = q_n_formula(n)
        assert q.primes == _q_primes_oracle(n, primes), n
        assert q.value == prod(q.primes)
