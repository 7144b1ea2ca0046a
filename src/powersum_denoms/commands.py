"""The handlers of ``poly``, ``witness`` and ``bench``.

``cli`` imports this module only when it dispatches one of these commands,
so a ``seq`` or ``verify`` run neither compiles nor loads it; ``verify``'s
handler lives in ``checks``, beside its suites.  Each handler takes the
parsed arguments, checks its own flags first and raises ``UsageError`` for a
bad one.  Library functions are looked up on their modules at each call, so
a rebound attribute (a tracing wrapper, say) is the one used.
"""

from __future__ import annotations

import sys
from collections.abc import Iterator, Sequence
from types import SimpleNamespace

from .cli import METHODS, Q_ROUTES, UsageError, _nonneg


def _poly_pieces(denominator: int, coeffs: Sequence[int]) -> Iterator[str]:
    # The output line of ``poly``, one term and its separator at a time.
    if denominator != 1:
        yield f"1/{denominator} * ("
    sep = ("", "-")
    for power in range(len(coeffs) - 1, -1, -1):
        c = coeffs[power]
        if c == 0:
            continue
        x = "" if power == 0 else "x" if power == 1 else f"x^{power}"
        yield f"{sep[c < 0]}{'' if abs(c) == 1 and x else abs(c)}{x}"
        sep = (" + ", " - ")
    yield "\n" if denominator == 1 else ")\n"


def cmd_poly(args: SimpleNamespace) -> int:
    n = args.n
    _nonneg("--n", n)
    if n == 0 and not args.shifted:
        raise UsageError("the unshifted power sum needs --n >= 1")
    if n == 0:
        print("x")
        return 0
    from . import powersum

    form = powersum.faulhaber_form(n)
    coeffs = form.coeffs
    if not args.shifted:
        # S_n(x) = (S_n(x) + x^n) - x^n, over the same denominator d_n.
        coeffs = list(coeffs)
        coeffs[n] -= form.denominator
    sys.stdout.writelines(_poly_pieces(form.denominator, coeffs))
    return 0


def cmd_witness(args: SimpleNamespace) -> int:
    n, p = args.n, args.p
    _nonneg("--n", n)
    from . import formulas, padic

    # A prime above the sharp bound never divides q_n.
    if p > formulas._prime_limit(n):
        raise UsageError(f"p is not a factor of q_n (n={n}, p={p})")
    # p is tested before the search, which takes seconds at n = 10^12, but
    # for a p that is_prime refuses: within the bound it puts n past 10^24,
    # where the search's sieve does not fit in memory and so reports first.
    if p < padic._MILLER_RABIN_BOUND and (p == 2 or not padic.is_prime(p)):
        raise UsageError(f"--p must be an odd prime, got {p}")
    q = formulas.q_n_formula(n)
    if p not in q.primes:
        raise UsageError(f"p is not a factor of q_n (n={n}, p={p})")
    w = padic.marble_witness(n + 1, p)
    residue = padic.lucas_binom_mod(n + 1, w.b, p)
    print(f"n = {n}, p = {p}")
    print(f"q_{n} = {q.value} = {' * '.join(str(f) for f in q.primes)}")
    print(f"j = {w.j}, b = j*(p-1) = {w.b}")
    print(f"digits of b in base {p} (low to high): {list(w.beta_digits.digits)}")
    print(f"binomial({n + 1}, {w.b}) mod {p} = {residue}")
    return 0


def cmd_bench(args: SimpleNamespace) -> int:
    if args.spot is None:
        _nonneg("--max-n", args.max_n)
        indices = range(args.max_n + 1)
        label = f"n = 0..{args.max_n}"
    else:
        _nonneg("--spot", args.spot)
        indices = range(args.spot, args.spot + 1)
        label = f"n = {args.spot}"
    methods = args.methods or METHODS

    # Each route runs in this process.  The B_n(x) cache holds one entry, so
    # the brute route's timed runs over a range rebuild each B_n(x).
    baseline = [Q_ROUTES[methods[0]](n) for n in indices]
    for method in methods[1:]:
        if [Q_ROUTES[method](n) for n in indices] != baseline:
            raise ArithmeticError(
                f"method {method!r} disagrees with {methods[0]!r} over {label}"
            )

    import timeit

    timings = []
    for method in methods:
        route = Q_ROUTES[method]
        runs = timeit.repeat(lambda: [route(n) for n in indices], number=1, repeat=3)
        timings.append((method, min(runs) * 1000))

    if args.fmt == "csv":
        print("method,min_ms")
        line = "{},{:.3f}"
    else:
        print(f"values agree across methods for {label}")
        line = "{:>8}  {:10.3f} ms"
    for method, ms in timings:
        print(line.format(method, ms))
    return 0
