"""Bernoulli numbers and polynomials, exactly.

Provides the shared table of Bernoulli numbers (first kind, B_1 = -1/2),
Bernoulli polynomials as exact rational polynomials, the von Staudt-Clausen
denominator, and two independent routes to the denominator of B_n(x): direct
coefficient inspection and a squarefree product over digit-sum criteria.
The integrality check k^n * (B_n(h/k) - B_n) rounds out the module.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, isqrt, prod
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

    Filled by the recurrence sum(binomial(n+1, k) * B_k for k in 0..n) = 0,
    skipping the odd indices above 1 whose value is identically zero.  The
    internal list only ever grows, so values already handed out never change.
    """

    def __init__(self, upto: int = 0) -> None:
        self._values: list[Fraction] = [Fraction(1)]
        self.extend_to(upto)

    @property
    def max_n(self) -> int:
        return len(self._values) - 1

    def extend_to(self, n: int) -> None:
        while len(self._values) <= n:
            m = len(self._values)
            if m % 2 == 1 and m > 1:
                self._values.append(Fraction(0))
                continue
            # B_0 and B_1 terms, then the even-index tail.
            s = Fraction(1)
            if m >= 2:
                s += (m + 1) * self._values[1]
            s += sum(comb(m + 1, k) * self._values[k] for k in range(2, m, 2))
            self._values.append(-s / (m + 1))

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


def _build_poly(n: int, table: BernoulliTable) -> RationalPolynomial:
    coeffs = [Fraction(0)] * (n + 1)
    for k in range(n + 1):
        coeffs[n - k] = comb(n, k) * table.number(k)
    return RationalPolynomial(coeffs)


@lru_cache(maxsize=None)
def _shared_poly(n: int) -> RationalPolynomial:
    return _build_poly(n, bernoulli_numbers(n))


def bernoulli_poly(n: int, table: BernoulliTable | None = None) -> RationalPolynomial:
    """B_n(x) = sum(binomial(n, k) * B_k * x^(n-k) for k in 0..n).

    With no explicit table the result is cached; that is safe because the
    polynomials are immutable.
    """
    if n < 0:
        raise ValueError(f"Bernoulli polynomials are indexed from 0, got {n}")
    if table is None:
        return _shared_poly(n)
    table.extend_to(n)
    return _build_poly(n, table)


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


def bernoulli_poly_denominator_direct(
    n: int, table: BernoulliTable | None = None
) -> int:
    """Denominator of B_n(x) read off its coefficients, for n >= 1."""
    if n < 1:
        raise ValueError(f"polynomial denominator needs n >= 1, got {n}")
    return poly_denominator(bernoulli_poly(n, table))


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


def almkvist_meurman_check(
    n: int, h: int, k: int, table: BernoulliTable | None = None
) -> bool:
    """Whether k^n * (B_n(h/k) - B_n) is an integer.

    The identity holds for every n >= 0, integer h, and k >= 1; the checker
    recomputes it from scratch so it can serve as an independent probe.
    """
    if n < 0:
        raise ValueError(f"index must be nonnegative, got {n}")
    if k < 1:
        raise ValueError(f"denominator must be positive, got {k}")
    if table is None:
        table = bernoulli_numbers(n)
    value = (bernoulli_poly(n, table).eval(Fraction(h, k)) - table.number(n)) * k**n
    return value.denominator == 1
