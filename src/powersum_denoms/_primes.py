"""The prime layer: the sieve, the digit sum, the product tree, the one
factoriser, and the windowed digit-sum search behind the formulas for q_n
and for the denominator of B_n(x).

Every helper here is unchecked: its caller guarantees that bases are
prime and indices in range, and validation stays at the public boundary
(``padic``, ``formulas`` and the CLI's flags).  The module imports nothing
from the package when it loads, so a ``seq`` run by formula, which reads
the search directly, loads this module and ``cli`` alone.  The search
looks up ``padic.is_prime``, the package's one primality test, only when
its range has a candidate past the sieve's lookup bound; near n = 10^4 none
has, and ``padic`` stays unloaded.
"""

from __future__ import annotations

from collections.abc import Iterator
from math import isqrt, prod


def _sieve(x: int) -> bytearray:
    # composite[i] is 0 exactly for 0, 1 and the primes i <= x.  Zero-filled,
    # so that an allocation too large fails cleanly: in CPython 3.11 a failed
    # ``bytearray([1]) * size`` also prints a stray SystemError.
    composite = bytearray(x + 1)
    for p in range(2, isqrt(x) + 1):
        if not composite[p]:
            composite[p * p :: p] = b"\x01" * len(range(p * p, x + 1, p))
    return composite


def _digit_sum(x: int, p: int) -> int:
    # The sum of the base-p digits of x: x >= 0 and p prime are the caller's
    # to ensure.
    s = 0
    while x:
        x, r = divmod(x, p)
        s += r
    return s


def _product(xs: list[int]) -> int:
    # A balanced product tree (Bernstein 2008).  math.prod multiplies left to
    # right, each step the whole partial product by one small factor, which is
    # quadratic in the digits; halves of equal size keep the large
    # multiplications balanced, where CPython's Karatsuba pays.  Short lists,
    # such as q_n's near n = 10^4 (about 40 primes), stay with math.prod.
    if len(xs) <= 64:
        return prod(xs)
    half = len(xs) // 2
    return _product(xs[:half]) * _product(xs[half:])


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


def _digit_sum_primes(start: int, stop: int, t: int) -> Iterator[list[int]]:
    """For each m in range(start, stop), start >= 1, the primes p whose base-p
    digit sum of m is at least p - t, in increasing order, for t = 0 or 1.
    A digit sum of m is at most m, so p <= m + t; for t = 0 the sum also needs
    m >= 2p - 1, and, for odd p and even m, an even sum, so m >= 3p - 1."""
    # One sieve serves the call's windows: it lists the primes up to each
    # window's r and decides its candidates up to its last, hi (a = 0's) for
    # t = 1 and otherwise (hi + 1) // 2, by lookup as far as cap.  A window
    # that needs more makes it again, to r and twice that candidate, never
    # past the call's own need: a short range sieves once, a single index to
    # 64 times its r, and a range with a large stop holds no more than
    # max(r, 2^20) bytes at any index it has reached.  r grows by one only
    # every 2r indices, so sieving to r again costs little per index.
    if start >= stop:
        return
    top = isqrt(stop - 1)
    cap = min(max(64, stop - start) * top, 1 << 20)
    need = stop if t else (stop + 1) // 2
    bound = max(top, min(need, cap))
    if need > cap:
        # Only a candidate past cap is tested, by the module attribute, so
        # that a rebinding of padic.is_prime (a tracing wrapper, say) is used.
        from .padic import is_prime
    composite = bytearray()
    lo = start
    while lo < stop:
        # A window holds its indices' primes until it yields them, about
        # isqrt(m) / 10 each near m = 10^12, so it narrows as m grows.
        hi = min(stop, lo + max(1, min(64, (1 << 22) // isqrt(lo))))
        r = isqrt(hi - 1)
        last = min(hi if t else (hi + 1) // 2, cap)
        if max(r, last) >= len(composite):
            composite = _sieve(min(bound, max(r, min(2 * last, cap))))
        size = len(composite) - 1
        hits: list[list[int]] = [[] for _ in range(lo, hi)]
        # Up to r, p's digit sum rises by one from m to m + 1, and is formed
        # again only at each multiple of p.
        for p in range(2, r + 1):
            if composite[p]:
                continue
            m = lo
            while m < hi:
                end = min(hi, m - m % p + p)
                for k in range(max(m, m + p - t - _digit_sum(m, p)), end):
                    hits[k - lo].append(p)
                m = end
        # Above r, m = a*p + b with a = m // p < p, and a + b >= p - t exactly
        # when m < (a+1)*p <= m + a + t, that is p = m // (a+1) + 1, with a + 1
        # not dividing m if t = 0.  So each a has one candidate per block of
        # a + 1 consecutive m, for all of the block but, if t = 0, its
        # multiple of a + 1; a = 0, whose candidate is m + 1, counts only for
        # t = 1.  Walking a down keeps each list increasing.
        for a in range((hi - 1) // (r + 1), -t, -1):
            d = a + 1
            for c in range(lo // d, (hi - 2 + t) // d + 1):
                p = c + 1
                if p > r and (not composite[p] if p <= size else is_prime(p)):
                    for k in range(max(lo, c * d + 1 - t), min(hi, c * d + d)):
                        hits[k - lo].append(p)
        yield from hits
        lo = hi
