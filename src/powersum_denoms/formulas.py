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
2017).  The denominator of B_n(x) is read off the same digit sums, of n
this time, by the same search.  Supporting checks (a binomial-sum
congruence, the sharpness of the prime bound, and per-k bounds on the prime
sets) live here too.

So do the squarefree result type ``SquarefreeProduct``, the package's one
factoriser ``_prime_factors`` (trial division) and ``clausen_denominator``,
which tests d + 1 for each divisor d of n read off that factorisation: trial
division up to the larger of n's second largest prime factor and the square
root of its largest.  This module needs only ``padic``, so the q_n and B_n(x)
formulas, which ``bernoulli`` imports, load no Bernoulli or polynomial code.

Bases are validated by the public functions of ``padic``; the loops here
work on sieve primes and tested candidates, so they use the unchecked
``padic._digit_sum`` and ``padic._lucas_nonzero`` and build results with
the unchecked ``SquarefreeProduct._of_sorted_primes``.
"""

from __future__ import annotations

from functools import cache
from math import comb, isqrt, prod

from ._record import Record
from .padic import _digit_sum, _lucas_nonzero, _require_prime, is_prime


class SquarefreeProduct(Record):
    """A product of distinct primes, carried with its sorted factor tuple."""

    __slots__ = ("primes", "value")
    primes: tuple[int, ...]
    value: int

    @classmethod
    def _of_sorted_primes(cls, primes: list[int]) -> SquarefreeProduct:
        # Unchecked: the caller guarantees distinct primes in increasing order.
        return cls(tuple(primes), prod(primes))


def primes_upto(x: int) -> list[int]:
    """All primes <= x in increasing order, by a plain Eratosthenes sieve."""
    if x < 2:
        return []
    # Zero-filled, so that an allocation too large fails cleanly: in CPython
    # 3.11 a failed ``bytearray([1]) * size`` also prints a stray SystemError.
    composite = bytearray(x + 1)
    for p in range(2, isqrt(x) + 1):
        if not composite[p]:
            composite[p * p :: p] = b"\x01" * len(range(p * p, x + 1, p))
    return [p for p in range(2, x + 1) if not composite[p]]


def _prime_factors(x: int) -> list[int]:
    # The prime factors of x >= 1 in increasing order, with multiplicity.
    factors, f = [], 2
    while f * f <= x:
        while x % f == 0:
            factors.append(f)
            x //= f
        f += 1 if f == 2 else 2
    if x > 1:
        factors.append(x)
    return factors


def _prime_limit(n: int) -> int:
    # Largest integer allowed by the sharp bound (n+2)/2 or (n+2)/3.
    return (n + 2) // (2 if n % 2 == 0 else 3)


def _digit_sum_primes(m: int, limit: int) -> list[int]:
    """The primes p <= limit whose base-p digit sum of m >= 1 is at least p,
    in increasing order, in O(sqrt(m)) steps."""
    r = isqrt(m)
    ps = [p for p in primes_upto(min(r, limit)) if _digit_sum(m, p) >= p]
    # Above r, m = a*p + b with a = m // p < p; p falls as a rises, so walk a
    # down to list the candidates m // (a+1) + 1 in increasing order.  Such a
    # p has digit sum a + b >= p exactly when a + 1 does not divide m.
    for a in range(m // (r + 1), 0, -1):
        p = m // (a + 1) + 1
        if p > limit:
            break
        if p > r and m % (a + 1) and is_prime(p):
            ps.append(p)
    return ps


def q_n_formula(n: int) -> SquarefreeProduct:
    """q_n by the digit-sum criterion.

    Product of the primes p within the sharp bound such that the base-p
    digit sum of n+1 is at least p.  An empty product is 1.
    """
    if n < 0:
        raise ValueError(f"index must be nonnegative, got {n}")
    return SquarefreeProduct._of_sorted_primes(_digit_sum_primes(n + 1, _prime_limit(n)))


def bernoulli_poly_denominator_formula(n: int) -> SquarefreeProduct:
    """Denominator of B_n(x) as a squarefree product, without coefficients.

    For odd n >= 3 it is the product of the primes p <= (n+1)/2 whose base-p
    digit sum of n is at least p.  For even n the von Staudt-Clausen primes
    appear, together with the primes p <= (n+1)/3 whose digit sum of n is at
    least p.  n = 1 gives the bare factor 2.  The digit-sum primes come from
    the same O(sqrt(n)) search as q_n_formula's.
    """
    if n < 1:
        raise ValueError(f"polynomial denominator needs n >= 1, got {n}")
    if n == 1:
        return SquarefreeProduct._of_sorted_primes([2])
    # The digit-sum primes of n under q_{n-1}'s bound: q_{n-1}'s own search.
    ps = _digit_sum_primes(n, _prime_limit(n - 1))
    if n % 2 == 0:
        ps = sorted(set(clausen_denominator(n).primes).union(ps))
    return SquarefreeProduct._of_sorted_primes(ps)


class EpsilonVector(Record):
    """Exponent (0 or 1) of each prime within the sharp bound, for one n."""

    __slots__ = ("n", "exponents")
    n: int
    exponents: dict[int, int]

    def value(self) -> int:
        return prod(p for p, e in self.exponents.items() if e)


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
    divisors = {1}
    for f in _prime_factors(n):
        divisors |= {d * f for d in divisors}
    return SquarefreeProduct._of_sorted_primes(sorted(d + 1 for d in divisors if is_prime(d + 1)))


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
