"""Fast product formulas for the power-sum denominator quotient q_n, and for
the denominator of the Bernoulli polynomial B_n(x).

Three independent routes, all returning the same squarefree number:

* digit-sum criterion: q_n is the product of the primes p up to the sharp
  bound whose base-p digit sum of n+1 is at least p;
* exponent vector: each prime up to the bound contributes exponent 0 or 1,
  decided by a divisibility test plus a run of Lucas zero tests;
* prime sets: the denominator of binomial(n+1, k) * B_k is a product of
  primes determined by k and a single Lucas zero test, and q_n is the
  union of those sets over k.

The digit-sum route is the one that scales to very large n: it costs
O(sqrt(n)) per index.  Only the sieve primes up to sqrt(n+1) get a digit
sum.  A larger prime p has two base-p digits, n+1 = a*p + b, so its digit
sum a + b is at least p exactly when p <= (n+1+a)/(a+1); together with
p > (n+1)/(a+1) that leaves one candidate per quotient a, which needs only a
primality test (Kellner, "On a product of certain primes", J. Number Theory,
2017).  The search runs over windows of consecutive indices: one sieve per
search, grown as its windows need, lists the small primes and decides the
candidates up to a fixed bound by lookup, each small prime's digit sum is
carried from one index to the next, and each quotient's candidate is
decided once for the run of indices that share it.  A single index is a
window of one.  The search, ``_digit_sum_primes``, lives in the private
prime layer ``_primes`` with the sieve, the product tree and the factoriser.

The denominator D(B_n(x)) of the Bernoulli polynomial is the product of
the primes p whose base-p digit sum s_p(n) is at least p - 1, for every
n >= 1, so it comes from the same search at that threshold.  The primes
with s_p(n) >= p make the denominator of B_n(x) - B_n (Kellner, as above),
von Staudt-Clausen's, with p - 1 dividing n, that of B_n (for odd n >= 3,
where B_n = 0, that is 2, already among the first), and since
s_p(n) = n (mod p - 1) and s_p(n) >= 1, those are the p with s_p(n) a
positive multiple of p - 1.

Supporting checks (a binomial-sum congruence, the sharpness of the prime
bound, and per-k bounds on the prime sets) live here too.  So do the
squarefree result type ``SquarefreeProduct`` and ``clausen_denominator``,
which tests d + 1 for each divisor d of n read off the package's one
factoriser, ``_primes._prime_factors``: trial division up to the larger of
n's second largest prime factor and the square root of its largest.
``seq --seq Dclausen`` and ``pset`` use it; the D(B_n(x)) formula does not.
This module needs only ``_primes`` and ``padic``, so the q_n and B_n(x)
formulas, which ``bernoulli`` imports, load no Bernoulli or polynomial
code.

Bases are validated by the public functions of ``padic``; the loops here
work on sieve primes and tested candidates, so they use the unchecked
``padic._lucas_nonzero`` and build results with the unchecked
``SquarefreeProduct._of_sorted_primes``.
"""

from __future__ import annotations

from collections.abc import Iterator
from functools import cache
from math import comb

from ._primes import _digit_sum_primes, _prime_factors, _product, _sieve
from ._record import Record
from .padic import _lucas_nonzero, _require_prime, is_prime


class SquarefreeProduct(Record):
    """A product of distinct primes, carried with its sorted factor tuple."""

    __slots__ = ("primes", "value")
    primes: tuple[int, ...]
    value: int

    @classmethod
    def _of_sorted_primes(cls, primes: list[int]) -> SquarefreeProduct:
        # Unchecked: the caller guarantees distinct primes in increasing order.
        return cls(tuple(primes), _product(primes))


def primes_upto(x: int) -> list[int]:
    """All primes <= x in increasing order, by a plain Eratosthenes sieve."""
    if x < 2:
        return []
    composite = _sieve(x)
    return [p for p in range(2, x + 1) if not composite[p]]


def _prime_limit(n: int) -> int:
    # Largest integer allowed by the sharp bound (n+2)/2 or (n+2)/3.
    return (n + 2) // (2 if n % 2 == 0 else 3)


def q_n_formula(n: int) -> SquarefreeProduct:
    """q_n by the digit-sum criterion.

    Product of the primes p within the sharp bound such that the base-p
    digit sum of n+1 is at least p.  An empty product is 1.
    """
    return next(q_n_formula_range(n, n + 1))


def q_n_formula_range(start: int, stop: int) -> Iterator[SquarefreeProduct]:
    """q_n for each n in range(start, stop), as q_n_formula gives it; each
    window of consecutive indices shares one sieve and one search."""
    if start < 0:
        raise ValueError(f"index must be nonnegative, got {start}")
    return map(SquarefreeProduct._of_sorted_primes, _digit_sum_primes(start + 1, stop + 1, 0))


def bernoulli_poly_denominator_formula(n: int) -> SquarefreeProduct:
    """Denominator of B_n(x) as a squarefree product, without coefficients.

    The product of the primes p whose base-p digit sum s_p(n) is at least
    p - 1, all of them at most n + 1.  Proof in three steps:
    * the denominator of B_n(x) - B_n is the product of the p with
      s_p(n) >= p (Kellner), and D(B_n(x)) is its lcm with that of B_n;
    * by von Staudt-Clausen B_n's primes are the p with p - 1 dividing n,
      but for odd n >= 3, where B_n = 0 and 2 is in the first set anyway;
    * s_p(n) = n (mod p - 1) and s_p(n) >= 1, so p - 1 divides n exactly
      when s_p(n) is a positive multiple of p - 1: the union is
      s_p(n) >= p - 1.
    The primes come from the same O(sqrt(n)) search as q_n_formula's.
    """
    return next(bernoulli_poly_denominator_formula_range(n, n + 1))


def bernoulli_poly_denominator_formula_range(start: int, stop: int) -> Iterator[SquarefreeProduct]:
    """The denominator of B_n(x) for each n in range(start, stop), as
    bernoulli_poly_denominator_formula gives it, from one windowed search."""
    if start < 1:
        raise ValueError(f"polynomial denominator needs n >= 1, got {start}")
    return map(SquarefreeProduct._of_sorted_primes, _digit_sum_primes(start, stop, 1))


class EpsilonVector(Record):
    """Exponent (0 or 1) of each prime within the sharp bound, for one n."""

    __slots__ = ("n", "exponents")
    n: int
    exponents: dict[int, int]

    def value(self) -> int:
        return _product([p for p, e in self.exponents.items() if e])


def q_n_epsilon(n: int) -> EpsilonVector:
    """q_n by per-prime exponents.

    The prime 2 drops out exactly when n+1 is a power of 2.  An odd prime p
    drops out exactly when p does not divide n+2 and p divides
    binomial(n+1, j*(p-1)) for every j from 2 through n // (p-1) - 1; the
    j = 1 case is equivalent to the divisibility test and the top j follows
    from the others by a congruence, so neither needs its own Lucas test.
    """
    if n < 0:
        raise ValueError(f"index must be nonnegative, got {n}")
    m = n + 1
    exponents: dict[int, int] = {}
    for p in primes_upto(_prime_limit(n)):
        if p == 2:
            drop = m & (m - 1) == 0
        else:
            drop = (n + 2) % p != 0 and not any(
                _lucas_nonzero(m, j * (p - 1), p) for j in range(2, n // (p - 1))
            )
        exponents[p] = 0 if drop else 1
    return EpsilonVector(n=n, exponents=exponents)


def clausen_denominator(n: int) -> SquarefreeProduct:
    """Denominator of the Bernoulli number B_n for positive even n.

    By von Staudt-Clausen this is the product of the primes p with p - 1
    dividing n; it always contains 2 and 3.
    """
    if n <= 0 or n % 2 != 0:
        raise ValueError(f"von Staudt-Clausen applies to positive even n, got {n}")
    # n + 1 is tested before n is factored: one past is_prime's bound is
    # refused at once.
    top = [n + 1] if is_prime(n + 1) else []
    divisors = {1}
    for f in _prime_factors(n):
        divisors |= {d * f for d in divisors}
    divisors.discard(n)
    primes = sorted(d + 1 for d in divisors if is_prime(d + 1))
    return SquarefreeProduct._of_sorted_primes(primes + top)


@cache
def _clausen_primes(k: int) -> tuple[int, ...]:
    # pset meets the same few k for every m, so their primes are derived once.
    # clausen_denominator stays uncached: seq streams it over any range.
    return clausen_denominator(k).primes


def pset(m: int, k: int) -> SquarefreeProduct:
    """Primes dividing the denominator of binomial(m, k) * B_k.

    Empty for k = 0 and for odd k >= 3 (where B_k is 0 or an integer).  For
    k = 1 the answer is {2} exactly when m is odd.  For even k >= 2 it is
    the set of primes p with p - 1 dividing k and binomial(m, k) not
    divisible by p.
    """
    if not 0 <= k <= m:
        raise ValueError(f"index out of range: k={k}, m={m}")
    if k == 0 or (k % 2 == 1 and k >= 3):
        return SquarefreeProduct._of_sorted_primes([])
    if k == 1:
        return SquarefreeProduct._of_sorted_primes([2] if m % 2 == 1 else [])
    return SquarefreeProduct._of_sorted_primes(
        [p for p in _clausen_primes(k) if _lucas_nonzero(m, k, p)]
    )


def q_n_via_psets(n: int) -> SquarefreeProduct:
    """q_n as the union of the per-term denominator prime sets.

    Each summand binomial(n+1, k) * B_k of the scaled power sum contributes
    its own squarefree denominator; q_n is their least common multiple.
    """
    if n < 0:
        raise ValueError(f"index must be nonnegative, got {n}")
    m = n + 1
    ps: set[int] = set()
    for k in range(1, m):
        ps.update(pset(m, k).primes)
    return SquarefreeProduct._of_sorted_primes(sorted(ps))


def hermite_bachmann_holds(m: int, p: int) -> bool:
    """Whether sum(binomial(m, j*(p-1)) for j = 1 .. (m-1)//(p-1)) is
    divisible by p.

    The congruence holds for every m >= 1 and prime p; the sum is computed
    with exact binomials so the check is independent of the Lucas route.
    """
    _require_prime(p)
    if m < 1:
        raise ValueError(f"index must be positive, got {m}")
    return _hermite_bachmann_holds(m, p)


def _hermite_bachmann_holds(m: int, p: int) -> bool:
    # hermite_bachmann_holds without the checks: m >= 1 and p prime are the
    # caller's to ensure.
    total = sum(comb(m, j * (p - 1)) for j in range(1, (m - 1) // (p - 1) + 1))
    return total % p == 0


def sharpness_witnesses(p: int) -> tuple[int, int]:
    """Indices showing the prime bound cannot be lowered at p.

    For an odd prime p, n = 2p - 2 (even) and n = 3p - 2 (odd) both have
    sharp bound exactly p, and p divides q_n in both cases.  Returns the
    pair after verifying it; failure to verify raises ArithmeticError.
    """
    if not is_prime(p) or p == 2:
        raise ValueError(f"sharpness witnesses need an odd prime, got {p}")
    pair = (2 * p - 2, 3 * p - 2)
    for n in pair:
        # The sharp bound (n+2)/2 or (n+2)/3 equals p.
        if n + 2 != p * (2 if n % 2 == 0 else 3) or p not in q_n_formula(n).primes:
            raise ArithmeticError(f"sharpness witness failed at n={n}, p={p}")
    return pair


def pset_bound_check(m: int, k: int) -> bool:
    """Whether the largest prime in pset(m, k) respects both caps.

    For even k with 2 <= k <= m-1 and odd m >= 3, the cap is
    min(k+1, (m+1)/2); for even m >= 4 and 2 <= k <= m-2 it tightens to
    min(k+1, (m+1)/3).  Index combinations outside those ranges raise
    ValueError.
    """
    if m % 2 == 1:
        if m < 3 or k % 2 != 0 or not 2 <= k <= m - 1:
            raise ValueError(f"bound needs odd m >= 3 and even k in 2..m-1, got m={m}, k={k}")
    elif m < 4 or k % 2 != 0 or not 2 <= k <= m - 2:
        raise ValueError(f"bound needs even m >= 4 and even k in 2..m-2, got m={m}, k={k}")
    primes = pset(m, k).primes
    # (m+1)/2 or (m+1)/3 is the sharp bound of q_{m-1}.
    return not primes or primes[-1] <= min(k + 1, _prime_limit(m - 1))
