import random
from bisect import bisect_right
from itertools import islice
from math import floor, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from powersum_denoms import _primes, formulas, padic
from powersum_denoms._primes import _prime_factors
from powersum_denoms.formulas import (
    bernoulli_poly_denominator_formula,
    bernoulli_poly_denominator_formula_range,
    clausen_denominator,
    hermite_bachmann_holds,
    primes_upto,
    pset,
    pset_bound_check,
    q_n_epsilon,
    q_n_formula,
    q_n_formula_range,
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


def _d_primes_oracle(n, primes):
    """The criterion s_p(n) >= p - 1 over every sieve prime up to n + 1."""
    candidates = primes[: bisect_right(primes, n + 1)]
    return tuple(p for p in candidates if _plain_digit_sum(n, p) >= p - 1)


def test_poly_denominator_formula_matches_full_scan_small():
    primes = primes_upto(3000)
    for n in range(1, 3000):
        expected = tuple(p for p in primes if p <= n + 1 and digit_sum(n, p) >= p - 1)
        assert bernoulli_poly_denominator_formula(n).primes == expected, n


def test_poly_denominator_formula_matches_full_scan_large():
    # The public digit_sum checks its base by a Miller-Rabin test at each
    # call, which for every prime up to 10^7 takes about a minute; the scan
    # here uses the plain loop above.
    ns = random.Random(2017).sample(range(10**5, 10**7 + 1), 20)
    primes = primes_upto(max(ns) + 1)
    for n in ns:
        D = bernoulli_poly_denominator_formula(n)
        assert D.primes == _d_primes_oracle(n, primes), n
        assert D.value == prod(D.primes)


def _lcm_oracle(n):
    """The primes of lcm(denominator of B_n, q_{n-1}): von Staudt-Clausen by
    factorising n, and Kellner's part by the q_n search.  B_1 = -1/2, and
    B_n = 0 for odd n >= 3."""
    primes = set(q_n_formula(n - 1).primes)
    if n % 2 == 0:
        primes.update(clausen_denominator(n).primes)
    elif n == 1:
        primes = {2}
    return tuple(sorted(primes))


def test_product_tree_matches_math_prod():
    rng = random.Random(2008)
    lists = [[], [1], [7], [2**89 - 1]]
    for k in (2, 63, 64, 65, 128, 129, 1000, 4321):
        lists.append([rng.randrange(1, 10 ** rng.randrange(1, 30)) for _ in range(k)])
    for xs in lists:
        assert _primes._product(xs) == prod(xs), len(xs)


@pytest.mark.parametrize(
    "start, stop",
    [
        (0, 1),  # windows of length 1, and the first indices
        (1, 2),
        (0, 130),  # three windows
        (7, 7),  # empty
        (9990, 10010),  # m = n + 1 = 100^2 for q_9999: r grows inside the window
        (16350, 16420),  # past m = 16384 some candidates exceed 64 * isqrt(m)
        (2**28 - 8, 2**28 + 8),  # 64 * isqrt(m) reaches the 2^20 sieve cap
        (9998, 10002),  # D(B_10000(x)) gets 401 = 10000/25 + 1 at a multiple of a + 1
        (10005, 10008),  # D(B_10006(x)) gets 10007 = n + 1, above the lookup bound
    ],
)
def test_window_edges_match_single_indices(start, stop):
    assert list(q_n_formula_range(start, stop)) == [q_n_formula(n) for n in range(start, stop)]
    lo = max(start, 1)
    window = list(bernoulli_poly_denominator_formula_range(lo, stop))
    assert window == [bernoulli_poly_denominator_formula(n) for n in range(lo, stop)]
    assert [D.primes for D in window] == [_lcm_oracle(n) for n in range(lo, stop)]


def test_window_ranges_are_checked_up_front():
    with pytest.raises(ValueError, match="nonnegative"):
        q_n_formula_range(-1, 3)
    with pytest.raises(ValueError, match="n >= 1"):
        bernoulli_poly_denominator_formula_range(0, 3)


# Up to n + 1 for the largest n drawn below: D(B_n(x))'s primes reach it.
_WINDOW_PRIMES = primes_upto(5300)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 4999), st.integers(0, 300))
def test_window_matches_full_scan(start, length):
    stop = start + length
    got = [q.primes for q in q_n_formula_range(start, stop)]
    assert got == [_q_primes_oracle(n, _WINDOW_PRIMES) for n in range(start, stop)]
    got = [D.primes for D in bernoulli_poly_denominator_formula_range(max(start, 1), stop)]
    assert got == [_d_primes_oracle(n, _WINDOW_PRIMES) for n in range(max(start, 1), stop)]


def test_window_near_10_4_decides_every_candidate_by_lookup(monkeypatch):
    # Near 10^4 the window's sieve reaches its largest candidate, so no
    # candidate reaches is_prime, which the search would read off padic.
    calls = []
    real = padic.is_prime

    def counted(p):
        calls.append(p)
        return real(p)

    monkeypatch.setattr(padic, "is_prime", counted)
    monkeypatch.setattr(formulas, "is_prime", counted)
    assert len(list(q_n_formula_range(9750, 10000))) == 250
    assert calls == []


def test_window_near_10_6_tests_candidates_past_the_sieve_through_padic(monkeypatch):
    # Near 10^6 a short window's candidates pass its sieve's lookup bound,
    # 64 * isqrt(m), and the search tests them with padic.is_prime as bound
    # when it is called, so a rebinding there (perfbench's tracer wraps it)
    # sees every test.
    expected = list(q_n_formula_range(10**6, 10**6 + 10))
    calls = []
    real = padic.is_prime

    def counted(p):
        calls.append(p)
        return real(p)

    monkeypatch.setattr(padic, "is_prime", counted)
    assert list(q_n_formula_range(10**6, 10**6 + 10)) == expected
    assert calls and min(calls) > 64 * 1000


def test_poly_denominator_window_tests_each_index_once(monkeypatch):
    # D(B_n(x)) reads the von Staudt-Clausen primes off the digit sums: no
    # factorisation, and no primality test: the search's one sieve reaches
    # the window's last n + 1, so every candidate is decided by lookup.
    calls = []
    real = padic.is_prime

    def counted(p):
        calls.append(p)
        return real(p)

    def refused(n):
        raise AssertionError("the formula route factorises n")

    monkeypatch.setattr(padic, "is_prime", counted)
    monkeypatch.setattr(formulas, "is_prime", counted)
    monkeypatch.setattr(formulas, "clausen_denominator", refused)
    monkeypatch.setattr(formulas, "_prime_factors", refused)
    monkeypatch.setattr(_primes, "_prime_factors", refused)
    assert len(list(bernoulli_poly_denominator_formula_range(9000, 9125))) == 125
    assert calls == []


@pytest.mark.parametrize(
    "run, sieves, tests",
    [
        # The sieve reaches the call's need, (stop + 2) // 2 for q and stop
        # for D(B_n(x)), so every candidate is decided by lookup.
        (lambda: q_n_formula_range(9000, 9250), [4626], 0),
        (lambda: bernoulli_poly_denominator_formula_range(9000, 9125), [9125], 0),
        # A single index sieves to 64 times its isqrt(n + 1) and tests the
        # candidates above.
        (lambda: q_n_formula_range(10**6, 10**6 + 1), [64000], 14),
        # Past 10^9 the sieve stops at 2^20; at 10^10 the windows
        # narrow to 41 indices, so these are two of them.
        (lambda: q_n_formula_range(10**9, 10**9 + 64), [1 << 20], 1324),
        (lambda: q_n_formula_range(10**10, 10**10 + 82), [1 << 20], 19804),
        # A range to 10^18 sieves for the indices it has reached: twice the
        # last candidate of the window that outgrows the sieve.
        (lambda: islice(q_n_formula_range(0, 10**18), 300), [66, 194], 0),
    ],
    ids=("q-9000", "Dpoly-9000", "q-10^6", "q-10^9", "q-10^10", "q-to-10^18"),
)
def test_search_sieves_and_tests_as_pinned(monkeypatch, run, sieves, tests):
    # The sizes of the search's sieves and its number of primality tests,
    # which its windows, lookup bound and regrowth rule decide between them.
    sizes, calls = [], []
    real_sieve, real_is_prime = _primes._sieve, padic.is_prime

    def sieve(x):
        sizes.append(x)
        return real_sieve(x)

    def is_prime(p):
        calls.append(p)
        return real_is_prime(p)

    monkeypatch.setattr(_primes, "_sieve", sieve)
    monkeypatch.setattr(padic, "is_prime", is_prime)
    for _ in run():
        pass
    assert (sizes, len(calls)) == (sieves, tests)
