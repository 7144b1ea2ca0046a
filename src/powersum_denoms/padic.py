"""Base-p digit machinery.

Digit expansions and digit sums, factorial valuations computed from digit
sums alone, binomial residues by Lucas's theorem, the count of
nonzero entries in a row of Pascal's triangle mod p, and a digit-filling
construction that exhibits a multiple of p - 1 whose binomial coefficient
survives reduction mod p.

Every public function validates its base: composite or non-positive bases
raise ValueError up front rather than producing digit garbage, and so do
the bases of 3.3 * 10^24 and more that ``is_prime`` refuses.  The unchecked
helpers are ``_digits`` and ``_lucas_nonzero`` here, and ``_digit_sum`` in
``_primes``, the prime layer, whose search it serves.  They are for loops
whose bases are already known to be prime (sieve output, tested
candidates, a base checked once on entry), so that the check is paid once
at the public boundary, not once per call.
``_lucas_nonzero`` serves the callers that only compare a residue with 0:
it tests digit dominance and forms no binomial.

``is_prime`` is the package's one primality test: trial division by the
primes up to 41, then a deterministic Miller-Rabin test with the first k
of those thirteen bases, the fewest that are exact below n; all thirteen are
exact below 3.3 * 10^24.  A larger input that no prime up to 41 divides is
refused with ValueError.
"""

from __future__ import annotations

from math import comb, prod

from ._primes import _digit_sum
from ._record import Record


_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# psi_k, the least strong pseudoprime to the first k of _BASES: below psi_k
# the first k bases decide (Jaeschke, Math. Comp. 1993, up to k = 8; Jiang
# and Deng, Math. Comp. 2014, and Sorenson and Webster, Math. Comp. 2017,
# beyond).  Twelve bases are not enough past psi_12, which passes 2..37 and
# is composite; the test stops at psi_13.
_PSI = (
    2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
    341550071728321, 341550071728321, 3825123056546413051, 3825123056546413051,
    3825123056546413051, 318665857834031151167461, 3317044064679887385961981,
)
_MILLER_RABIN_BOUND = _PSI[-1]


def is_prime(n: int) -> bool:
    """Primality of n: deterministic Miller-Rabin below 3.3 * 10^24; at and
    above it, ValueError unless a prime up to 41 divides n."""
    if n < 2:
        return False
    for p in _BASES:
        if n % p == 0:
            return n == p
    if n < 43 * 43:
        return True
    if n >= _MILLER_RABIN_BOUND:
        raise ValueError(f"base too large to test for primality: {n}")
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for a, psi in zip(_BASES, _PSI):
        x = pow(a, d, n)
        if x != 1 and x != n - 1:
            for _ in range(s - 1):
                x = x * x % n
                if x == n - 1:
                    break
            else:
                return False
        if n < psi:
            break
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
    return DigitExpansion(p, _digits(x, p))


def _digits(x: int, p: int) -> tuple[int, ...]:
    # digits without the checks: x >= 0 and p prime are the caller's to ensure.
    ds = []
    while x:
        x, r = divmod(x, p)
        ds.append(r)
    return tuple(ds)


def digit_sum(x: int, p: int) -> int:
    """Sum of the base-p digits of x >= 0."""
    _require_prime(p)
    if x < 0:
        raise ValueError(f"digit sum needs a nonnegative integer, got {x}")
    return _digit_sum(x, p)


def legendre_valuation_factorial(x: int, p: int) -> int:
    """Exponent of p in x!, via Legendre's identity (x - digit_sum) / (p - 1)."""
    return (x - digit_sum(x, p)) // (p - 1)


def lucas_binom_mod(m: int, k: int, p: int) -> int:
    """binomial(m, k) mod p by Lucas's theorem: the digit-wise product.

    Zero exactly when some base-p digit of k exceeds the matching digit of m.
    """
    _require_prime(p)
    if m < 0 or k < 0:
        raise ValueError(f"binomial indices must be nonnegative: m={m}, k={k}")
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


def _lucas_nonzero(m: int, k: int, p: int) -> bool:
    # Whether binomial(m, k) is nonzero mod p, without the residue: each
    # digit factor binomial(dm, dk) with dk <= dm < p is a unit mod p, so
    # only digit dominance matters.  m, k >= 0 and p prime are the caller's
    # to ensure.
    if k > m:
        return False
    while k:
        m, dm = divmod(m, p)
        k, dk = divmod(k, p)
        if dk > dm:
            return False
    return True


def fine_count(m: int, p: int) -> int:
    """Number of k in 0..m with binomial(m, k) not divisible by p.

    Product of (digit + 1) over the base-p digits of m; row m = 0 gives 1.
    """
    _require_prime(p)
    if m < 0:
        raise ValueError(f"row index must be nonnegative, got {m}")
    return prod(d + 1 for d in _digits(m, p))


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
    _require_prime(p)
    if m < 0:
        raise ValueError(f"digit expansion needs a nonnegative integer, got {m}")
    # m <= p leaves no digits to read, and fails the digit-sum test.
    alpha = _digits(m, p) if m > p else ()
    if p == 2 or sum(alpha) < p:
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
    while beta[-1] == 0:  # canonical form; the kept digits sum to p - 1 > 0
        beta.pop()

    beta_digits = DigitExpansion(p, tuple(beta))
    b = beta_digits.value()
    j = b // (p - 1)

    witness = MarbleWitness(p=p, m=m, j=j, b=b, beta_digits=beta_digits)
    if (
        witness.beta_digits.digit_sum() != p - 1
        or b % (p - 1) != 0
        or not 1 <= j <= (m - 1) // (p - 1)
        or not _lucas_nonzero(m, b, p)
    ):
        raise ArithmeticError(f"witness construction failed for m={m}, p={p}")
    return witness
