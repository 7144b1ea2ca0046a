"""Dense polynomials over the rationals: the tests' independent oracle.

No program path does ``Fraction`` polynomial arithmetic: d_n, q_n, the
Faulhaber form and the denominator of B_n(x) are read off the scaled-integer
B_n(x) of :mod:`powersum_denoms.bernoulli`.  This module checks them and is
not a general polynomial API: an immutable coefficient vector with ``+``,
``*`` and exact evaluation, its denominator and content split, and exact
interpolation (behind ``powersum.power_sum_oracle``).  Only the ``Fraction``
views in ``bernoulli`` and ``powersum`` import it, when called, so no CLI
command loads it.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence, Union

RationalLike = Union[Fraction, int]


class RationalPolynomial:
    """Immutable dense univariate polynomial with Fraction coefficients.

    ``coeffs[i]`` is the coefficient of x^i.  Trailing zeros are stripped on
    construction, so the zero polynomial has an empty coefficient tuple and
    every other polynomial has a nonzero leading coefficient.
    """

    __slots__ = ("coeffs",)

    coeffs: tuple[Fraction, ...]

    def __init__(self, coeffs: Iterable[RationalLike] = ()) -> None:
        cs = [c if type(c) is Fraction else Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("RationalPolynomial is immutable")

    @property
    def degree(self) -> int:
        """Degree of the polynomial; the zero polynomial has degree -1."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other: "RationalPolynomial") -> "RationalPolynomial":
        if not isinstance(other, RationalPolynomial):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return RationalPolynomial(out)

    def __mul__(self, other: object) -> "RationalPolynomial":
        if isinstance(other, (int, Fraction)):
            return RationalPolynomial([c * other for c in self.coeffs])
        if not isinstance(other, RationalPolynomial):
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return RationalPolynomial()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return RationalPolynomial(out)

    def eval(self, x: RationalLike) -> Fraction:
        """Evaluate at x by Horner's rule, exactly."""
        acc = Fraction(0)
        xf = Fraction(x)
        for c in reversed(self.coeffs):
            acc = acc * xf + c
        return acc

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RationalPolynomial):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"RationalPolynomial({list(self.coeffs)!r})"


def poly_denominator(poly: RationalPolynomial) -> int:
    """Least common multiple of the coefficient denominators.

    This is the smallest positive integer d with d * poly having integer
    coefficients; the zero polynomial gives 1.
    """
    return lcm(*(c.denominator for c in poly.coeffs)) if poly.coeffs else 1


def content_split(poly: RationalPolynomial) -> tuple[Fraction, RationalPolynomial]:
    """Split poly as scale * primitive with primitive having integer
    coefficients of gcd 1 and the scale a positive rational.

    Signs stay with the primitive part, so the scale is always positive.
    Raises ValueError for the zero polynomial, which has no such splitting.
    """
    if poly.is_zero():
        raise ValueError("no content decomposition for the zero polynomial")
    d = poly_denominator(poly)
    ints = [int(c * d) for c in poly.coeffs]
    g = gcd(*ints)
    scale = Fraction(g, d)
    primitive = RationalPolynomial([c // g for c in ints])
    return scale, primitive


def lagrange_interpolate(
    points: Sequence[tuple[RationalLike, RationalLike]],
) -> RationalPolynomial:
    """Unique polynomial of degree < len(points) through the given points.

    All arithmetic is exact.  Duplicate x-coordinates raise ValueError.
    Internally this builds the Newton divided-difference form and expands
    it, which needs O(n^2) field operations instead of the O(n^3) of the
    textbook basis-polynomial sum.
    """
    xs = [Fraction(x) for x, _ in points]
    ys = [Fraction(y) for _, y in points]
    if len(set(xs)) != len(xs):
        raise ValueError("duplicate x-coordinates in interpolation points")
    if not points:
        return RationalPolynomial()

    # dd[i] walks through the divided differences f[x_i, ..., x_{i+level}].
    dd = list(ys)
    newton = [dd[0]]
    for level in range(1, len(xs)):
        for i in range(len(xs) - level):
            dd[i] = (dd[i + 1] - dd[i]) / (xs[i + level] - xs[i])
        newton.append(dd[0])

    result = RationalPolynomial([newton[-1]])
    for k in range(len(newton) - 2, -1, -1):
        result = result * RationalPolynomial([-xs[k], 1]) + RationalPolynomial([newton[k]])
    return result
