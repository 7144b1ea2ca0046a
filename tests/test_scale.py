"""The q_n and D(B_n(x)) routes against independent ones past n = 300, where
the four-route agreement stops: seeded sparse indices, a few per decade.
Each assertion message names the seed, so a failure can be replayed."""

import random
from math import lcm

from powersum_denoms.formulas import (
    bernoulli_poly_denominator_formula,
    clausen_denominator,
    q_n_epsilon,
    q_n_formula,
    q_n_via_psets,
)

SEED = 20170511


def _sample(lo: int, hi: int, count: int) -> list[int]:
    # count distinct indices in [lo, hi), the same on every run.
    return sorted(random.Random(f"{SEED}:{lo}:{hi}").sample(range(lo, hi), count))


def test_formula_matches_epsilon_per_decade():
    for lo in (10**3, 10**4, 10**5):
        for n in _sample(lo, 10 * lo, 3):
            assert q_n_formula(n).value == q_n_epsilon(n).value(), f"seed={SEED}, n={n}"


def test_psets_match_formula():
    for n in _sample(300, 3001, 10):
        assert q_n_via_psets(n) == q_n_formula(n), f"seed={SEED}, n={n}"


def test_polynomial_denominator_formula_matches_lcm():
    # D(B_n(x)) = lcm(denominator of B_n, q_{n-1}); B_n is an integer (0)
    # for odd n >= 3.
    for n in _sample(300, 3001, 20):
        den_b = clausen_denominator(n).value if n % 2 == 0 else 1
        expected = lcm(den_b, q_n_epsilon(n - 1).value())
        assert bernoulli_poly_denominator_formula(n).value == expected, f"seed={SEED}, n={n}"
