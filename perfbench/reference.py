"""Reference values that the benchmark checks the program's outputs against.

Nothing here imports powersum_denoms.  Every sequence value comes from the
digit-sum criteria of the paper, evaluated over one shared sieve and with no
primality checks on the bases; polynomial outputs are checked against the
literal sums 1^N + ... + x^N, which need no Bernoulli numbers.
"""

from __future__ import annotations

from math import isqrt, prod


def sieve(limit: int) -> list[int]:
    """All primes <= limit."""
    if limit < 2:
        return []
    flags = bytearray([1]) * (limit + 1)
    flags[0] = flags[1] = 0
    for p in range(2, isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = bytes(len(range(p * p, limit + 1, p)))
    return [p for p, f in enumerate(flags) if f]


def digit_sum(x: int, p: int) -> int:
    s = 0
    while x:
        x, r = divmod(x, p)
        s += r
    return s


def q_limit(n: int) -> int:
    """Largest prime that can divide q_n: (n+2)/2 for even n, (n+2)/3 for odd."""
    return (n + 2) // (2 if n % 2 == 0 else 3)


def q_primes(n: int, primes: list[int]) -> list[int]:
    """Primes of q_n: p <= q_limit(n) with base-p digit sum of n+1 at least p.

    ``primes`` must cover q_limit(n); it is shared by every index.
    """
    limit, m = q_limit(n), n + 1
    out = []
    for p in primes:
        if p > limit:
            break
        if digit_sum(m, p) >= p:
            out.append(p)
    return out


def q_value(n: int, primes: list[int]) -> int:
    return prod(q_primes(n, primes))


def clausen_value(n: int, primes: list[int]) -> int:
    """Denominator of B_n: product of primes p with p - 1 dividing n (even n >= 2),
    and 1 for odd n >= 3, where B_n = 0."""
    if n % 2:
        return 1
    return prod(p for p in primes if p <= n + 1 and n % (p - 1) == 0)


def dpoly_value(n: int, primes: list[int]) -> int:
    """Denominator of the Bernoulli polynomial B_n(x), n >= 1, by digit sums.

    ``primes`` must cover n + 1.
    """
    if n == 1:
        return 2
    if n % 2:
        return prod(p for p in primes if p <= (n + 1) // 2 and digit_sum(n, p) >= p)
    extra = prod(
        p
        for p in primes
        if p <= (n + 1) // 3 and n % (p - 1) != 0 and digit_sum(n, p) >= p
    )
    return clausen_value(n, primes) * extra


def parse_poly(text: str) -> tuple[int, dict[int, int]]:
    """Parse the ``poly`` output ``1/D * (c x^k + ...)`` into D and {power: c}."""
    text = text.strip()
    den = 1
    if text.startswith("1/"):
        head, sep, body = text.partition(" * (")
        if not sep or not body.endswith(")"):
            raise ValueError(f"malformed polynomial: {text[:80]!r}")
        den = int(head[2:])
        text = body[:-1]
    tokens = text.split()
    if not tokens:
        raise ValueError("empty polynomial")
    if tokens[0].startswith("-"):
        tokens[0:1] = ["-", tokens[0][1:]]
    else:
        tokens.insert(0, "+")
    if len(tokens) % 2:
        raise ValueError(f"malformed polynomial: {text[:80]!r}")
    coeffs: dict[int, int] = {}
    for sign, term in zip(tokens[0::2], tokens[1::2]):
        if sign not in ("+", "-"):
            raise ValueError(f"bad sign {sign!r}")
        mag, x, power = term.partition("x")
        c = int(mag) if mag else 1
        if x:
            if power and not power.startswith("^"):
                raise ValueError(f"bad term {term!r}")
            k = int(power[1:]) if power else 1
        else:
            k = 0
        if k in coeffs:
            raise ValueError(f"repeated power x^{k}")
        coeffs[k] = -c if sign == "-" else c
    return den, coeffs


def poly_is_power_sum(text: str, n: int, xs: tuple[int, ...] = (1, 2, 3, 5, 11)) -> bool:
    """Whether the printed polynomial equals 1^n + ... + x^n at every x in xs."""
    den, coeffs = parse_poly(text)
    if den < 1 or max(coeffs) != n + 1:
        return False
    for x in xs:
        literal = sum(i**n for i in range(1, x + 1))
        if sum(c * x**k for k, c in coeffs.items()) != den * literal:
            return False
    return True
