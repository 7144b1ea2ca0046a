"""The q_n and D(B_n(x)) routes against independent ones past n = 300, where
the four-route agreement stops, the paper's structural facts about q_n, and
known answers from Carmichael numbers: seeded sparse indices, a few per
decade.  Each assertion message names the seed, so a failure can be
replayed."""

import random
from math import lcm

from powersum_denoms.formulas import (
    SquarefreeProduct,
    _prime_limit,
    bernoulli_poly_denominator_formula,
    clausen_denominator,
    q_n_epsilon,
    q_n_formula,
    q_n_formula_range,
    q_n_via_psets,
)
from powersum_denoms.padic import is_prime

SEED = 20170511


def _sample(lo: int, hi: int, count: int) -> list[int]:
    # count distinct indices in [lo, hi), the same on every run.
    return sorted(random.Random(f"{SEED}:{lo}:{hi}").sample(range(lo, hi), count))


def _assert_structure(n: int, q: SquarefreeProduct) -> None:
    # The paper's structural facts: q_n is a product of distinct primes within
    # the sharp bound, odd exactly when n+1 is a power of 2.
    primes = q.primes
    assert all(p < r for p, r in zip(primes, primes[1:])), f"seed={SEED}, n={n}"
    assert not primes or primes[-1] <= _prime_limit(n), f"seed={SEED}, n={n}"
    assert (q.value % 2 == 1) == ((n + 1) & n == 0), f"seed={SEED}, n={n}"


def test_formula_matches_epsilon_per_decade():
    for lo in (10**3, 10**4, 10**5):
        for n in _sample(lo, 10 * lo, 3):
            q = q_n_formula(n)
            assert q.value == q_n_epsilon(n).value(), f"seed={SEED}, n={n}"
            _assert_structure(n, q)


def test_structure_at_powers_of_two():
    for k in range(21):
        for n in (2**k - 1, 2**k):
            _assert_structure(n, q_n_formula(n))


def test_psets_match_formula():
    for n in _sample(300, 3001, 10):
        assert q_n_via_psets(n) == q_n_formula(n), f"seed={SEED}, n={n}"


def test_polynomial_denominator_formula_matches_lcm():
    # D(B_n(x)) = lcm(denominator of B_n, q_{n-1}); B_n is an integer (0)
    # for odd n >= 3.  von Staudt-Clausen, by factorising n, is the oracle
    # for the primes with p - 1 dividing n.  q_{n-1} comes from the epsilon
    # route up to 3000 and, where that is too slow, from the q_n search.
    decades = [n for lo in (10**k for k in range(3, 9)) for n in _sample(lo, 10 * lo, 3)]
    for n in _sample(300, 3001, 20) + decades:
        den_b = clausen_denominator(n).value if n % 2 == 0 else 1
        q = q_n_epsilon(n - 1).value() if n <= 3000 else q_n_formula(n - 1).value
        assert bernoulli_poly_denominator_formula(n).value == lcm(den_b, q), f"seed={SEED}, n={n}"


# Carmichael numbers m divide q_{m-1}: Korselt's criterion gives m squarefree
# and p - 1 | m - 1 for every p | m, so s_p(m) = m = 1 (mod p - 1), and
# s_p(m) > 1 since m is not a power of p; hence s_p(m) >= p (Kellner and
# Sondow, arXiv:1902.10672).  A known answer at any scale.
def test_small_carmichael_numbers_divide_q():
    for m in (561, 1105, 1729, 2465, 2821, 6601):
        assert q_n_formula(m - 1).value % m == 0, m


def test_chernick_carmichael_number_near_10_9_divides_q():
    # Chernick's (6k+1)(12k+1)(18k+1) is a Carmichael number when all three
    # factors are prime; the search from a seeded k lands near 10^9.
    k = random.Random(f"{SEED}:chernick").randrange(80, 101)
    while not all(is_prime(c * k + 1) for c in (6, 12, 18)):
        k += 1
    m = (6 * k + 1) * (12 * k + 1) * (18 * k + 1)
    assert q_n_formula(m - 1).value % m == 0, f"seed={SEED}, k={k}, m={m}"
    window = list(q_n_formula_range(m - 3, m + 2))
    assert window[2].value % m == 0, f"seed={SEED}, k={k}, m={m}"
