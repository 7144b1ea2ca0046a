"""Bernoulli numbers and polynomials, exactly.

Provides the shared table of Bernoulli numbers (first kind, B_1 = -1/2),
Bernoulli polynomials as exact rational polynomials, the von Staudt-Clausen
denominator, and two independent routes to the denominator of B_n(x): direct
coefficient inspection and a squarefree product over digit-sum criteria.
The integrality check k^n * (B_n(h/k) - B_n) rounds out the module.

The Bernoulli numbers come from integers only: the zigzag (tangent) numbers
of the Seidel boustrophedon triangle give every even-index B_2k through
B_2k = (-1)^(k-1) * 2k * A_(2k-1) / (4^k * (4^k - 1)) (Brent and Harvey,
"Fast computation of Bernoulli, tangent and secant numbers", 2011), so the
table needs no rational arithmetic until that last division.  Every B_n(x)
is built once and cached; the table and the polynomials only ever grow, so
no caller can see a stale value.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from math import comb, isqrt, lcm, prod
from typing import Iterable

from .exact_poly import RationalPolynomial, poly_denominator
from .padic import is_prime


@dataclass(frozen=True)
class SquarefreeProduct:
    """A product of distinct primes, carried with its sorted factor tuple."""

    primes: tuple[int, ...]
    value: int

    @classmethod
    def of(cls, primes: Iterable[int]) -> "SquarefreeProduct":
        ps = sorted(set(primes))
        for p in ps:
            if not is_prime(p):
                raise ValueError(f"not a prime factor: {p}")
        return cls._of_sorted_primes(ps)

    @classmethod
    def _of_sorted_primes(cls, primes: list[int]) -> "SquarefreeProduct":
        # Unchecked: the caller guarantees distinct primes in increasing order.
        return cls(primes=tuple(primes), value=prod(primes))


class BernoulliTable:
    """Exact Bernoulli numbers B_0 .. B_max_n.

    B_1 = -1/2, the odd indices above 1 are 0, and each even index 2k >= 2
    is read off the zigzag number A_(2k-1), the last entry of row 2k - 1 of
    the Seidel boustrophedon triangle.  Only the last row is kept: the next
    one is 0 followed by the running sums of the last row reversed, one pass
    of integer additions, so the table grows one index at a time as cheaply
    as in one go.  The internal list only ever grows, so values already
    handed out never change.
    """

    def __init__(self, upto: int = 0) -> None:
        self._values: list[Fraction] = [Fraction(1)]
        self._row: list[int] = [1]  # row 0 of the Seidel triangle
        self.extend_to(upto)

    @property
    def max_n(self) -> int:
        return len(self._values) - 1

    def extend_to(self, n: int) -> None:
        while len(self._values) <= n:
            m = len(self._values)
            if m % 2 == 1:
                self._values.append(Fraction(-1, 2) if m == 1 else Fraction(0))
                continue
            while len(self._row) < m:
                self._row = list(accumulate(reversed(self._row), initial=0))
            k = m // 2
            four_k = 4**k
            self._values.append(
                Fraction((-1) ** (k - 1) * m * self._row[-1], four_k * (four_k - 1))
            )

    def number(self, n: int) -> Fraction:
        """B_n, extending the table as needed."""
        if n < 0:
            raise ValueError(f"Bernoulli numbers are indexed from 0, got {n}")
        self.extend_to(n)
        return self._values[n]


_SHARED = BernoulliTable()


def bernoulli_numbers(upto: int) -> BernoulliTable:
    """The shared append-only table, grown to cover B_0 .. B_upto."""
    _SHARED.extend_to(upto)
    return _SHARED


@lru_cache(maxsize=None)
def _shared_poly(n: int) -> RationalPolynomial:
    table = bernoulli_numbers(n)
    return RationalPolynomial([comb(n, k) * table.number(k) for k in range(n, -1, -1)])


def bernoulli_poly(n: int) -> RationalPolynomial:
    """B_n(x) = sum(binomial(n, k) * B_k * x^(n-k) for k in 0..n).

    Built once per n from the shared table and cached; that is safe because
    the polynomials are immutable.
    """
    if n < 0:
        raise ValueError(f"Bernoulli polynomials are indexed from 0, got {n}")
    return _shared_poly(n)


def clausen_denominator(n: int) -> SquarefreeProduct:
    """Denominator of the Bernoulli number B_n for positive even n.

    By von Staudt-Clausen this is the product of the primes p with p - 1
    dividing n; it always contains 2 and 3.
    """
    if n <= 0 or n % 2 != 0:
        raise ValueError(f"von Staudt-Clausen applies to positive even n, got {n}")
    ps = set()
    for d in range(1, isqrt(n) + 1):
        if n % d == 0:
            ps.update(p for p in (d + 1, n // d + 1) if is_prime(p))
    return SquarefreeProduct._of_sorted_primes(sorted(ps))


def bernoulli_poly_denominator_direct(n: int) -> int:
    """Denominator of B_n(x) read off its coefficients, for n >= 1."""
    if n < 1:
        raise ValueError(f"polynomial denominator needs n >= 1, got {n}")
    return poly_denominator(bernoulli_poly(n))


def bernoulli_poly_denominator_formula(n: int) -> SquarefreeProduct:
    """Denominator of B_n(x) as a squarefree product, without coefficients.

    For odd n >= 3 it is the product of the primes p <= (n+1)/2 whose base-p
    digit sum of n is at least p.  For even n the von Staudt-Clausen primes
    appear, together with the primes p <= (n+1)/3 whose digit sum of n is at
    least p.  n = 1 gives the bare factor 2.  The digit-sum primes come from
    the same O(sqrt(n)) search as q_n_formula's.
    """
    # formulas imports this module for SquarefreeProduct, so import back late.
    from .formulas import _digit_sum_primes

    if n < 1:
        raise ValueError(f"polynomial denominator needs n >= 1, got {n}")
    if n == 1:
        return SquarefreeProduct._of_sorted_primes([2])
    if n % 2 == 1:
        return SquarefreeProduct._of_sorted_primes(_digit_sum_primes(n, (n + 1) // 2))
    ps = set(clausen_denominator(n).primes).union(_digit_sum_primes(n, (n + 1) // 3))
    return SquarefreeProduct._of_sorted_primes(sorted(ps))


@lru_cache(maxsize=None)
def _almkvist_terms(n: int) -> tuple[tuple[int, ...], int]:
    # c_j = binomial(n, j) * B_j * D for j < n, with D the least common
    # denominator of those terms: the coefficients of B_n(x) - B_n, scaled.
    coeffs = bernoulli_poly(n).coeffs[1:]
    d = lcm(*(c.denominator for c in coeffs))
    return tuple(int(c * d) for c in reversed(coeffs)), d


def almkvist_meurman_check(n: int, h: int, k: int) -> bool:
    """Whether k^n * (B_n(h/k) - B_n) is an integer.

    The identity holds for every n >= 0, integer h, and k >= 1.  With the
    scaled integer terms c_j of B_n(x) - B_n over their common denominator
    D, the value times D is sum(c_j * h^(n-j) * k^j for j < n), so the check
    is that sum mod D, by homogeneous Horner in integers, independent of the
    rational evaluation of B_n(x).
    """
    if n < 0:
        raise ValueError(f"index must be nonnegative, got {n}")
    if k < 1:
        raise ValueError(f"denominator must be positive, got {k}")
    terms, d = _almkvist_terms(n)
    acc = 0
    k_power = 1
    for c in terms:
        acc = acc * h + c * k_power
        k_power *= k
    return acc * h % d == 0
