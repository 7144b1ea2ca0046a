"""Base-p digit machinery.

Digit expansions and digit sums, factorial and binomial valuations computed
from digit sums alone, binomial residues by Lucas's theorem, the count of
nonzero entries in a row of Pascal's triangle mod p, and a digit-filling
construction that exhibits a multiple of p - 1 whose binomial coefficient
survives reduction mod p.

Every public function validates its base: composite or non-positive bases
raise ValueError up front rather than producing digit garbage.  The
unchecked ``_digit_sum`` and ``_lucas_binom_mod`` are for loops whose bases
are already known to be prime (sieve output or candidates that passed
``is_prime``), so that the check is paid once at the public boundary, not
once per digit sum or residue.

``is_prime`` is the package's one primality test: trial division by the
primes up to 41, then a deterministic Miller-Rabin test with those same
thirteen bases, which is exact below 3.3 * 10^24; larger inputs fall back
to trial division.
"""

from __future__ import annotations

from math import comb

from ._record import Record


_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# psi_13, the least strong pseudoprime to all of _BASES.  Twelve bases are not
# enough: psi_12 = 318665857834031151167461 passes 2..37 and is composite.
_MILLER_RABIN_BOUND = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Primality of n: deterministic Miller-Rabin below 3.3 * 10^24, trial
    division above."""
    if n < 2:
        return False
    for p in _BASES:
        if n % p == 0:
            return n == p
    if n < 43 * 43:
        return True
    if n >= _MILLER_RABIN_BOUND:
        f = 43
        while f * f <= n:
            if n % f == 0:
                return False
            f += 2
        return True
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for a in _BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _require_prime(p: int) -> None:
    if not is_prime(p):
        raise ValueError(f"not a prime base: {p}")


class DigitExpansion(Record):
    """Little-endian base-p digits of a nonnegative integer.

    Canonical form: no trailing zero digits, so zero has an empty tuple and
    the most significant digit of anything else is nonzero.
    """

    __slots__ = ("p", "digits")
    p: int
    digits: tuple[int, ...]

    def value(self) -> int:
        v = 0
        for d in reversed(self.digits):
            v = v * self.p + d
        return v

    def digit_sum(self) -> int:
        return sum(self.digits)


def digits(x: int, p: int) -> DigitExpansion:
    """Base-p digit expansion of x >= 0, least significant digit first."""
    _require_prime(p)
    if x < 0:
        raise ValueError(f"digit expansion needs a nonnegative integer, got {x}")
    ds = []
    while x:
        x, r = divmod(x, p)
        ds.append(r)
    return DigitExpansion(p, tuple(ds))


def digit_sum(x: int, p: int) -> int:
    """Sum of the base-p digits of x >= 0."""
    _require_prime(p)
    if x < 0:
        raise ValueError(f"digit sum needs a nonnegative integer, got {x}")
    return _digit_sum(x, p)


def _digit_sum(x: int, p: int) -> int:
    # digit_sum without the checks: x >= 0 and p prime are the caller's to ensure.
    s = 0
    while x:
        x, r = divmod(x, p)
        s += r
    return s


def legendre_valuation_factorial(x: int, p: int) -> int:
    """Exponent of p in x!, via Legendre's identity (x - digit_sum) / (p - 1)."""
    return (x - digit_sum(x, p)) // (p - 1)


def binomial_valuation(m: int, k: int, p: int) -> int:
    """Exponent of p in binomial(m, k), by Kummer's digit-sum form.

    Equals the number of carries when adding k and m - k in base p.
    """
    if not 0 <= k <= m:
        raise ValueError(f"binomial index out of range: k={k}, m={m}")
    _require_prime(p)
    return (_digit_sum(k, p) + _digit_sum(m - k, p) - _digit_sum(m, p)) // (p - 1)


def lucas_binom_mod(m: int, k: int, p: int) -> int:
    """binomial(m, k) mod p by Lucas's theorem: the digit-wise product.

    Zero exactly when some base-p digit of k exceeds the matching digit of m.
    """
    _require_prime(p)
    if m < 0 or k < 0:
        raise ValueError(f"binomial indices must be nonnegative: m={m}, k={k}")
    return _lucas_binom_mod(m, k, p)


def _lucas_binom_mod(m: int, k: int, p: int) -> int:
    # lucas_binom_mod without the checks: m, k >= 0 and p prime are the
    # caller's to ensure.
    if k > m:
        return 0
    r = 1
    while k:
        m, dm = divmod(m, p)
        k, dk = divmod(k, p)
        if dk > dm:
            return 0
        r = r * comb(dm, dk) % p
    return r


def fine_count(m: int, p: int) -> int:
    """Number of k in 0..m with binomial(m, k) not divisible by p.

    Product of (digit + 1) over the base-p digits of m; row m = 0 gives 1.
    """
    _require_prime(p)
    if m < 0:
        raise ValueError(f"row index must be nonnegative, got {m}")
    n = 1
    while m:
        m, d = divmod(m, p)
        n *= d + 1
    return n


class MarbleWitness(Record):
    """A multiple b = j*(p-1) of p - 1 with binomial(m, b) nonzero mod p.

    The digits of b have sum exactly p - 1 and sit digit-wise below the
    digits of m, which is what makes the binomial coefficient survive.
    """

    __slots__ = ("p", "m", "j", "b", "beta_digits")
    p: int
    m: int
    j: int
    b: int
    beta_digits: DigitExpansion


def marble_witness(m: int, p: int) -> MarbleWitness:
    """Construct a witness index for odd prime p when m > p and the base-p
    digit sum of m is at least p.

    Think of the digit sum of m as marbles in boxes, one box per base-p
    place.  Remove one marble from the top box, then keep boxes from the
    top down, capping the running total at p - 1.  The kept counts are the
    digits of b: they sum to p - 1, so p - 1 divides b, and each sits at or
    below the corresponding digit of m, so binomial(m, b) is nonzero mod p
    by Lucas.  Removing the top marble keeps b below m, hence j >= 1 and
    j*(p-1) <= m - 1.

    Raises ValueError when the preconditions fail, ArithmeticError if the
    constructed witness does not verify (which would be a bug).
    """
    alpha = digits(m, p).digits  # checks that p is prime and m >= 0
    if p == 2 or m <= p or sum(alpha) < p:
        raise ValueError(
            f"witness preconditions unmet: need odd prime p, m > p, "
            f"digit sum >= p (got m={m}, p={p})"
        )

    r = len(alpha) - 1
    beta = [0] * (r + 1)
    beta[r] = alpha[r] - 1
    kept = beta[r]
    for i in range(r - 1, -1, -1):
        beta[i] = min(alpha[i], (p - 1) - kept)
        kept += beta[i]

    b = 0
    for d in reversed(beta):
        b = b * p + d
    j = b // (p - 1)

    witness = MarbleWitness(p=p, m=m, j=j, b=b, beta_digits=digits(b, p))
    if (
        witness.beta_digits.digit_sum() != p - 1
        or b % (p - 1) != 0
        or not 1 <= j <= (m - 1) // (p - 1)
        or _lucas_binom_mod(m, b, p) == 0
    ):
        raise ArithmeticError(f"witness construction failed for m={m}, p={p}")
    return witness
