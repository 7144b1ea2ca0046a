"""Power-sum polynomials and their denominators.

S_n(x) interpolates 1^n + 2^n + ... + (x-1)^n, so S_n(x) + x^n interpolates
the sum up to x^n.  d_n is the least common denominator of either form, and
q_n = d_n / (n+1) is the squarefree quotient that the formulas in
:mod:`powersum_denoms.formulas` reproduce; its ``_prime_factors`` checks
that it is squarefree.  Both forms are read off the integer numerators of the
cached B_{n+1}(x) over one denominator, with no ``Fraction`` arithmetic;
``power_sum_oracle`` interpolates the literal sums in ``Fraction``s, the
independent check.  It and ``shifted_power_sum_poly`` load ``exact_poly``
only when called, and they and ``bound_M`` alone load ``fractions``.
"""

from __future__ import annotations

from math import gcd

from ._record import Record
from .bernoulli import _shared_poly
from .formulas import _prime_factors


def _power_sums(n: int) -> list[tuple[list[int], int]]:
    # S_n(x) and S_n(x) + x^n for n >= 1, each as (numerators low degree
    # first, denominator) in lowest terms: S_n = (B_{n+1}(x) - B_{n+1}) / (n+1)
    # is the cached B_{n+1}(x) over D * (n+1) without its constant term.
    numerators, d = _shared_poly(n + 1)
    scale = d * (n + 1)
    base = [0, *numerators[1:]]
    shifted = [*base[:n], base[n] + scale, base[n + 1]]
    gs = (gcd(scale, *base), gcd(scale, *shifted))
    return [([c // g for c in cs], scale // g) for cs, g in zip((base, shifted), gs)]


def shifted_power_sum_poly(n: int) -> RationalPolynomial:
    """S_n(x) + x^n, the polynomial with value 1^n + ... + x^n at integers.

    Handles n = 0 as well, where the sum is simply x.
    """
    if n < 0:
        raise ValueError(f"index must be nonnegative, got {n}")
    from fractions import Fraction

    from .exact_poly import RationalPolynomial

    if n == 0:
        return RationalPolynomial([0, 1])
    _, (numerators, d) = _power_sums(n)
    return RationalPolynomial(Fraction(c, d) for c in numerators)


def power_sum_oracle(n: int) -> RationalPolynomial:
    """1^n + ... + x^n via exact interpolation of the literal sums.

    Uses n + 2 sample points, enough to pin down the degree n+1 polynomial.
    Independent of the Bernoulli route, so the two can check each other.
    """
    if n < 0:
        raise ValueError(f"index must be nonnegative, got {n}")
    from .exact_poly import lagrange_interpolate

    points = []
    total = 0
    for i in range(n + 2):
        if i > 0:
            total += i**n
        points.append((i, total))
    return lagrange_interpolate(points)


def d_n(n: int) -> int:
    """Smallest positive d with d * (1^n + ... + x^n) having integer
    coefficients as a polynomial in x.

    For n >= 1 the shifted and unshifted power sums have the same
    denominator; that equality is asserted rather than assumed.
    """
    if n < 0:
        raise ValueError(f"index must be nonnegative, got {n}")
    if n == 0:
        return 1
    (_, d_base), (_, d) = _power_sums(n)
    if d_base != d:
        raise ArithmeticError(f"shifted and unshifted denominators differ at n={n}")
    return d


def q_n_bruteforce(n: int) -> int:
    """q_n = d_n / (n+1), computed from the polynomial itself.

    Divisibility of d_n by n+1 and squarefreeness of the quotient are
    structural facts; violations raise ArithmeticError because they can
    only come from a bug.
    """
    d = d_n(n)
    if d % (n + 1) != 0:
        raise ArithmeticError(f"d_{n} = {d} is not divisible by {n + 1}")
    q = d // (n + 1)
    factors = _prime_factors(q)
    if len(set(factors)) != len(factors):
        raise ArithmeticError(f"q_{n} = {q} is not squarefree")
    return q


def bound_M(n: int) -> Fraction:
    """Sharp bound on the primes dividing q_n: (n+2)/2 for even n, (n+2)/3
    for odd n."""
    if n < 0:
        raise ValueError(f"index must be nonnegative, got {n}")
    from fractions import Fraction

    return Fraction(n + 2, 2 if n % 2 == 0 else 3)


class FaulhaberForm(Record):
    """1^n + ... + x^n written as (1/denominator) * integer polynomial.

    ``coeffs[i]`` is the integer coefficient of x^i; the gcd of the nonzero
    coefficients is 1, which makes the form unique.
    """

    __slots__ = ("n", "denominator", "coeffs")
    n: int
    denominator: int
    coeffs: tuple[int, ...]


def faulhaber_form(n: int) -> FaulhaberForm:
    """Write 1^n + ... + x^n over its least common denominator.

    The content of the scaled polynomial is 1 (the coefficients of the
    power sum admit no common cancellation), so the denominator is exactly
    d_n; anything else raises ArithmeticError.
    """
    if n < 1:
        raise ValueError(f"defined for n >= 1, got {n}")
    _, (numerators, d) = _power_sums(n)
    content = gcd(*numerators)
    if content != 1:
        raise ArithmeticError(f"power-sum coefficients share a factor of {content} at n={n}")
    return FaulhaberForm(n=n, denominator=d, coeffs=tuple(numerators))
