"""Bernoulli numbers and polynomials, exactly.

Provides the shared table of Bernoulli numbers (first kind, B_1 = -1/2),
each Bernoulli polynomial B_n(x) as integer numerators over their least
common denominator, and that denominator read off the coefficients.  The
integrality check k^n * (B_n(h/k) - B_n) rounds out the module.  The product
formula for that denominator (the primes p with base-p digit sum of n at
least p - 1) and the von Staudt-Clausen denominator live in ``formulas``,
which imports nothing from here; both can still be imported from this
module, which loads ``formulas`` only when one of them is first read.

Everything here is integer arithmetic.  The tangent numbers T_k = A_(2k-1)
come from one column of the tangent-number triangle at a time (Brent and
Harvey, "Fast computation of Bernoulli, tangent and secant numbers", 2011),
held with entry i of column k divided by (k-i)!.  That keeps every entry an
integer, makes each update one small multiply-add, and leaves the last entry
T_k itself.  Each T_k gives B_2k = (-1)^(k-1) * 2k * T_k / (4^k * (4^k - 1)),
kept as a (numerator, denominator) pair reduced by their gcd.  Each B_n(x)
is built from those pairs as integer numerators over their least common
denominator, and every program path reads that form.  ``Fraction`` is
loaded only by ``BernoulliTable.number``, the one view that returns one.
The table only ever grows; the B_n(x) cache holds the last polynomial
built, the only one its readers reuse.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd, lcm


def __getattr__(name: str):
    # The two denominators by formula, re-exported from ``formulas`` and
    # loaded on first read (PEP 562), so that ``poly`` never compiles it.
    if name in ("bernoulli_poly_denominator_formula", "clausen_denominator"):
        from . import formulas

        return getattr(formulas, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class BernoulliTable:
    """Exact Bernoulli numbers B_0 .. B_max_n, as integer pairs.

    B_1 = -1/2, the odd indices above 1 are 0, and each even index 2k >= 2
    is read off the tangent number T_k, the last entry of column k of the
    tangent-number triangle.  Column k has k entries: c_1 = (k-1) * c'_1 and
    c_i = (k-i) * c'_i + (k-i+2) * c_(i-1) for 2 <= i <= k, where c' is
    column k - 1.  The table keeps d_i = c_i / (k-i)! instead: an integer,
    by induction through the recurrence, and (k-i)! times smaller.  The
    recurrence becomes d_1 = 1 and d_i = d'_i + (k-i+2)(k-i+1) * d_(i-1),
    so d_k = 2 * d_(k-1) = c_k = T_k.  Only the last column is kept, updated
    in place: d_i overwrites d'_i, which nothing reads after it.  So the
    table grows one index at a time as cheaply as in one go, with one column
    alive.  Each value is held as (numerator, denominator) in lowest terms,
    reduced by their gcd alone so that von Staudt-Clausen stays a check on
    the table, not an input to it.
    The internal list only ever grows, so values already handed out never
    change.
    """

    def __init__(self, upto: int = 0) -> None:
        self._values: list[tuple[int, int]] = [(1, 1)]
        self._column: list[int] = [1]  # column 1 of the scaled tangent triangle
        self.extend_to(upto)

    @property
    def max_n(self) -> int:
        return len(self._values) - 1

    def extend_to(self, n: int) -> None:
        while len(self._values) <= n:
            m = len(self._values)
            if m % 2 == 1:
                self._values.append((-1, 2) if m == 1 else (0, 1))
                continue
            k = m // 2
            if k > 1:
                # In place: slot i holds d'_(i+1) until d_(i+1) overwrites
                # it, and that needs only d'_(i+1) and the new d_i, held in
                # ``d``.  Slot 0 stays d_1 = 1.
                column = self._column
                d = 1
                for i in range(1, k - 1):
                    d = column[i] = column[i] + (k - i + 1) * (k - i) * d
                column.append(2 * d)  # d_k, where d'_k does not exist
            four_k = 4**k
            num, den = (-1) ** (k - 1) * m * self._column[-1], four_k * (four_k - 1)
            g = gcd(num, den)
            self._values.append((num // g, den // g))

    def number(self, n: int) -> Fraction:
        """B_n, extending the table as needed."""
        if n < 0:
            raise ValueError(f"Bernoulli numbers are indexed from 0, got {n}")
        from fractions import Fraction

        self.extend_to(n)
        return Fraction(*self._values[n])


_SHARED = BernoulliTable()


def bernoulli_numbers(upto: int) -> BernoulliTable:
    """The shared append-only table, grown to cover B_0 .. B_upto."""
    _SHARED.extend_to(upto)
    return _SHARED


@lru_cache(maxsize=1)
def _shared_poly(n: int) -> tuple[tuple[int, ...], int]:
    # B_n(x) as (numerators, D): numerators[i] / D is the coefficient of x^i,
    # and D is the least common denominator, so gcd(D, *numerators) == 1.
    # The term binomial(n, k) * B_k sits at x^(n-k).  With B_k = a / b in
    # lowest terms and g = gcd(binomial(n, k), b), the term is
    # (binomial(n, k) / g) * a over e = b / g, again in lowest terms, so D is
    # the lcm of the e.  B_n .. B_0 are read after one growth of the table:
    # ``number`` would call ``extend_to`` again for each of them.  c walks
    # row n of Pascal's triangle, binomial(n, k) at step k from the one
    # before, at less cost than one ``comb`` per k.
    values = bernoulli_numbers(n)._values
    terms = []
    c = 1
    for k in range(n + 1):
        a, b = values[k]
        if a:
            g = gcd(c, b)
            terms.append((n - k, c // g * a, b // g))
        c = c * (n - k) // (k + 1)
    d = lcm(*(e for _, _, e in terms))
    numerators = [0] * (n + 1)
    for i, a, e in terms:
        numerators[i] = a * (d // e)
    return tuple(numerators), d


def bernoulli_poly_denominator_direct(n: int) -> int:
    """Denominator of B_n(x) read off its coefficients, for n >= 1."""
    if n < 1:
        raise ValueError(f"polynomial denominator needs n >= 1, got {n}")
    return _shared_poly(n)[1]


def almkvist_meurman_check(n: int, h: int, k: int) -> bool:
    """Whether k^n * (B_n(h/k) - B_n) is an integer.

    The identity holds for every n >= 0, integer h, and k >= 1.  With the
    cached integer numerators c_i of B_n(x) over their common denominator D,
    the value times D is sum(c_i * h^i * k^(n-i) for 1 <= i <= n).  The
    check computes that sum exactly, by homogeneous Horner in integers, and
    reduces it mod D once at the end, independent of the rational
    evaluation of B_n(x).
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


def _almkvist_meurman_row(n: int, k: int, h_max: int) -> list[bool]:
    # almkvist_meurman_check(n, h, k) for h = -h_max .. h_max, unchecked.
    # w_i = c_i * k^(n-i) mod D is formed once; with E and O the Horner sums
    # of the even and odd w_i in h^2, the value is E + h*O at h, E - h*O at -h.
    numerators, d = _shared_poly(n)
    w = [0] * (n + 1)  # w_0 = 0: the constant term cancels against B_n
    k_power = 1
    for i in range(n, 0, -1):
        w[i] = numerators[i] * k_power % d
        k_power = k_power * k % d
    even, odd = w[0::2], w[1::2]
    row = [True] * (2 * h_max + 1)  # h = 0 gives 0
    for h in range(1, h_max + 1):
        e = o = 0
        for c in reversed(even):
            e = (e * h * h + c) % d
        for c in reversed(odd):
            o = (o * h * h + c) % d
        row[h_max + h] = (e + h * o) % d == 0
        row[h_max - h] = (e - h * o) % d == 0
    return row
