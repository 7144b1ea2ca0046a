"""Bernoulli numbers and polynomials, exactly.

Provides the shared table of Bernoulli numbers (first kind, B_1 = -1/2),
Bernoulli polynomials as exact rational polynomials, and the denominator of
B_n(x) read off its coefficients.  The integrality check
k^n * (B_n(h/k) - B_n) rounds out the module.  The product formula for that
denominator and the von Staudt-Clausen denominator live in ``formulas``,
which imports nothing from here; both can still be imported from this
module.

The Bernoulli numbers come from integers only: the zigzag (tangent) numbers
of the Seidel boustrophedon triangle give every even-index B_2k through
B_2k = (-1)^(k-1) * 2k * A_(2k-1) / (4^k * (4^k - 1)) (Brent and Harvey,
"Fast computation of Bernoulli, tangent and secant numbers", 2011), so the
table needs no rational arithmetic until that last division.  Each B_n(x)
is cached once as integer numerators over their least common denominator,
which every program path reads; ``bernoulli_poly`` builds a
``RationalPolynomial`` view of it on each call, and alone loads
``exact_poly``.  The caches only ever grow.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from math import comb, lcm

from .formulas import bernoulli_poly_denominator_formula, clausen_denominator


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
def _shared_poly(n: int) -> tuple[tuple[int, ...], int]:
    # B_n(x) as (numerators, D): numerators[i] / D is the coefficient of x^i,
    # and D is the least common denominator, so gcd(D, *numerators) == 1.
    # The term binomial(n, k) * B_k sits at x^(n-k); it is zero for odd k >= 3.
    # B_n .. B_0 read after one growth of the table: ``number`` would call
    # ``extend_to`` again for each of them.
    bs = bernoulli_numbers(n)._values[n::-1]
    terms = [Fraction(comb(n, i) * b.numerator, b.denominator) for i, b in enumerate(bs)]
    d = lcm(*(t.denominator for t in terms))
    return tuple(t.numerator * (d // t.denominator) for t in terms), d


def bernoulli_poly(n: int) -> RationalPolynomial:
    """B_n(x) = sum(binomial(n, k) * B_k * x^(n-k) for k in 0..n).

    A ``Fraction`` view, built at each call from the cached scaled-integer
    form; no program path calls it.
    """
    if n < 0:
        raise ValueError(f"Bernoulli polynomials are indexed from 0, got {n}")
    from .exact_poly import RationalPolynomial

    numerators, d = _shared_poly(n)
    return RationalPolynomial(Fraction(c, d) for c in numerators)


def bernoulli_poly_denominator_direct(n: int) -> int:
    """Denominator of B_n(x) read off its coefficients, for n >= 1."""
    if n < 1:
        raise ValueError(f"polynomial denominator needs n >= 1, got {n}")
    return _shared_poly(n)[1]


def almkvist_meurman_check(n: int, h: int, k: int) -> bool:
    """Whether k^n * (B_n(h/k) - B_n) is an integer.

    The identity holds for every n >= 0, integer h, and k >= 1.  With the
    cached integer numerators c_i of B_n(x) over their common denominator D,
    the value times D is sum(c_i * h^i * k^(n-i) for 1 <= i <= n), so the
    check is that sum mod D, by homogeneous Horner in integers, independent
    of the rational evaluation of B_n(x).
    """
    if n < 0:
        raise ValueError(f"index must be nonnegative, got {n}")
    if k < 1:
        raise ValueError(f"denominator must be positive, got {k}")
    numerators, d = _shared_poly(n)
    acc = 0
    k_power = 1
    for c in reversed(numerators[1:]):
        acc = acc * h + c * k_power
        k_power *= k
    return acc * h % d == 0
