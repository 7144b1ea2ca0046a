"""Command-line interface: a thin layer over the library.

Subcommands: ``seq`` emits integer sequences (d, q, and the two Bernoulli
polynomial denominator variants) in plain, csv, or b-file form; ``poly``
renders one power-sum polynomial over its least common denominator;
``verify`` runs the cross-checking suites; ``witness`` explains a prime
factor of q_n; ``bench`` times the q_n routes against each other.

Each ``cmd_*`` handler takes the parsed arguments, checks its own flags
first and raises ``UsageError`` for a bad one.  ``Q_ROUTES`` is the one
table of the four q_n routes that ``seq``, ``bench`` and the agreement
suite share; ``SUITES`` names the verify suites.  ``--workers`` spreads
the agreement suite and each ``bench`` route over a process pool.

A run imports only what its command uses.  The module itself loads
``formulas`` and ``padic``, enough for the three digit-based q_n routes,
``seq --seq q``/``d`` and ``Dclausen``, and ``witness``.  ``bernoulli`` and
``powersum``, and with them ``fractions`` and the polynomial layer, are
imported inside the paths that need them: the brute route, ``Dpoly``,
``poly`` and the verify suites.  The process pool is imported only when a
pool of two or more spans starts.

Exit codes: 0 on success, 1 when a verification fails, 2 on usage errors
and on an index too large for the memory at hand.
A reader that closes the output pipe early ends the run quietly with 0.
All output except timings is deterministic; ``seq`` writes each value as
soon as it is computed.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from functools import partial

from . import formulas, padic

SEQUENCES = ("d", "q", "Dclausen", "Dpoly")


def _q_brute(n: int) -> int:
    from . import powersum

    return powersum.q_n_bruteforce(n)


# The four routes to q_n.  Each looks its function up when it is called, so a
# module attribute rebound after import (a tracing wrapper, say) is used.
Q_ROUTES = {
    "formula": lambda n: formulas.q_n_formula(n).value,
    "epsilon": lambda n: formulas.q_n_epsilon(n).value(),
    "psets": lambda n: formulas.q_n_via_psets(n).value,
    "brute": _q_brute,
}
METHODS = tuple(Q_ROUTES)

_METHODS_FOR_SEQ = {
    "d": METHODS,
    "q": METHODS,
    "Dclausen": ("formula",),
    "Dpoly": ("formula", "brute"),
}


class UsageError(Exception):
    pass


def _sequence_value(sequence: str, method: str, n: int) -> int:
    if sequence == "q":
        return Q_ROUTES[method](n)
    if sequence == "d":
        if method != "brute":
            return (n + 1) * Q_ROUTES[method](n)
        from . import powersum

        return powersum.d_n(n)
    if sequence == "Dclausen":
        return formulas.clausen_denominator(n).value
    from . import bernoulli

    if method == "brute":
        return bernoulli.bernoulli_poly_denominator_direct(n)
    return bernoulli.bernoulli_poly_denominator_formula(n).value


def cmd_seq(args: argparse.Namespace) -> int:
    sequence, method, start, end = args.sequence, args.method, args.start, args.end
    if start < 0:
        raise UsageError(f"--from must be nonnegative, got {start}")
    if end < start:
        raise UsageError(f"--to must be >= --from, got {start}..{end}")
    if method not in _METHODS_FOR_SEQ[sequence]:
        raise UsageError(f"method {method!r} is not available for --seq {sequence}")
    if sequence == "Dclausen" and (start % 2 or end % 2 or start < 2):
        raise UsageError("--seq Dclausen needs an even range starting at 2 or above")
    if sequence == "Dpoly" and start < 1:
        raise UsageError("--seq Dpoly needs --from >= 1")
    if args.fmt == "csv":
        print("n,value,method")
    for n in range(start, end + 1, 2 if sequence == "Dclausen" else 1):
        value = _sequence_value(sequence, method, n)
        if args.fmt == "csv":
            print(f"{n},{value},{method}")
        elif args.fmt == "bfile":
            print(f"{n} {value}")
        else:
            print(value)
    return 0


def _format_poly(denominator: int, coeffs: list[int]) -> str:
    terms = []
    for power in range(len(coeffs) - 1, -1, -1):
        c = coeffs[power]
        if c == 0:
            continue
        mag = abs(c)
        if power == 0:
            body = str(mag)
        else:
            x = "x" if power == 1 else f"x^{power}"
            body = x if mag == 1 else f"{mag}{x}"
        if not terms:
            terms.append(body if c > 0 else f"-{body}")
        else:
            terms.append(f"{'+' if c > 0 else '-'} {body}")
    joined = " ".join(terms)
    return joined if denominator == 1 else f"1/{denominator} * ({joined})"


def cmd_poly(args: argparse.Namespace) -> int:
    n = args.n
    if n < 0:
        raise UsageError(f"--n must be nonnegative, got {n}")
    if n == 0 and not args.shifted:
        raise UsageError("the unshifted power sum needs --n >= 1")
    if n == 0:
        print("x")
        return 0
    from . import powersum

    form = powersum.faulhaber_form(n)
    coeffs = list(form.coeffs)
    if not args.shifted:
        # S_n(x) = (S_n(x) + x^n) - x^n, over the same denominator d_n.
        coeffs[n] -= form.denominator
    print(_format_poly(form.denominator, coeffs))
    return 0


def cmd_witness(args: argparse.Namespace) -> int:
    n, p = args.n, args.p
    if n < 0:
        raise UsageError(f"--n must be nonnegative, got {n}")
    # A prime above the sharp bound never divides q_n.  Below it, p is tested
    # for primality only when it is not one of q_n's primes: that test falls
    # back to trial division for p near 10^25, while an n that large ends at
    # once with an out-of-memory error from q_n's sieve.
    if p > formulas._prime_limit(n):
        raise UsageError(f"p is not a factor of q_n (n={n}, p={p})")
    q = formulas.q_n_formula(n)
    if p == 2 or (p not in q.primes and not padic.is_prime(p)):
        raise UsageError(f"--p must be an odd prime, got {p}")
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


# ---------------------------------------------------------------------------
# verify suites


class SuiteResult:
    def __init__(self) -> None:
        self.checks, self.failures = 0, []

    def check(self, ok: bool, message: str) -> None:
        self.checks += 1
        if not ok:
            self.failures.append(message)


def _worker_spans(lo: int, hi: int, workers: int) -> list[tuple[int, int]]:
    """[lo, hi) cut into equal spans, one per process: at most --workers, the
    number of indices, or the CPU count, whichever is least."""
    count = min(workers, hi - lo, os.cpu_count() or 1)
    if count <= 1:
        return [(lo, hi)]
    chunk = -(-(hi - lo) // count)
    return [(a, min(a + chunk, hi)) for a in range(lo, hi, chunk)]


def _map_spans(fn, lo: int, hi: int, workers: int) -> list:
    """fn over the spans of [lo, hi), in a process pool when there is more
    than one span; the per-span lists are joined in order."""
    spans = _worker_spans(lo, hi, workers)
    if len(spans) == 1:
        return fn(spans[0])
    # Read as a module attribute, so that a pool class bound on this module
    # from outside (perfbench's tracer counts pool starts that way) is used.
    pool_class = sys.modules[__name__].ProcessPoolExecutor
    with pool_class(max_workers=len(spans)) as pool:
        return [row for part in pool.map(fn, spans) for row in part]


def __getattr__(name: str):
    # ``concurrent.futures.process`` pulls in ``multiprocessing``, about 20 ms
    # of start-up that only a pool of two or more spans needs, so the pool
    # class is imported on first use.
    if name == "ProcessPoolExecutor":
        from concurrent.futures import ProcessPoolExecutor

        return ProcessPoolExecutor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _agreement_chunk(bounds: tuple[int, int]) -> list[tuple[int, tuple[int, ...]]]:
    return [(n, tuple(route(n) for route in Q_ROUTES.values())) for n in range(*bounds)]


def _suite_agreement(max_n: int, workers: int) -> SuiteResult:
    result = SuiteResult()
    for n, values in _map_spans(_agreement_chunk, 0, max_n + 1, workers):
        result.check(
            len(set(values)) == 1,
            f"q_{n}: {'/'.join(Q_ROUTES)} disagree: {values}",
        )
    return result


def _suite_clausen(max_n: int) -> SuiteResult:
    from . import bernoulli

    result = SuiteResult()
    table = bernoulli.bernoulli_numbers(max_n)
    for n in range(2, max_n + 1, 2):
        expected = formulas.clausen_denominator(n).value
        actual = table.number(n).denominator
        result.check(
            actual == expected, f"denominator of B_{n}: {actual} != {expected}"
        )
    return result


def _suite_hermite(max_n: int) -> SuiteResult:
    result = SuiteResult()
    for p in formulas.primes_upto(50):
        for m in range(1, max_n + 1):
            result.check(
                formulas._hermite_bachmann_holds(m, p),
                f"binomial sum congruence fails at m={m}, p={p}",
            )
    return result


def _suite_bounds(max_n: int) -> SuiteResult:
    from . import powersum

    result = SuiteResult()
    for m in range(3, max_n + 1):
        top = m - 1 if m % 2 == 1 else m - 2
        for k in range(2, top + 1, 2):
            result.check(
                formulas.pset_bound_check(m, k), f"prime-set bound fails at m={m}, k={k}"
            )
    for n in range(max_n + 1):
        d = powersum.d_n(n)
        q = powersum.q_n_bruteforce(n)
        result.check(d == (n + 1) * q, f"d_{n} != (n+1) * q_{n}")
        if n >= 1:
            result.check(d % 2 == 0, f"d_{n} is odd")
        result.check(
            (q % 2 == 1) == ((n + 1) & n == 0),
            f"parity of q_{n} disagrees with n+1 being a power of 2",
        )
        limit = powersum.bound_M(n)
        for f in powersum._prime_factors(q):
            result.check(f <= limit, f"prime {f} of q_{n} exceeds the bound")
    return result


def _suite_witnesses(max_n: int) -> SuiteResult:
    result = SuiteResult()
    for n in range(max_n + 1):
        for p in formulas.q_n_formula(n).primes:
            if p == 2:
                continue
            try:
                padic.marble_witness(n + 1, p)
                result.check(True, "")
            except (ValueError, ArithmeticError) as exc:
                result.check(False, f"witness failed at n={n}, p={p}: {exc}")
    for p in formulas.primes_upto(max(2, (max_n + 2) // 3)):
        if p == 2:
            continue
        try:
            formulas.sharpness_witnesses(p)
            result.check(True, "")
        except ArithmeticError as exc:
            result.check(False, f"sharpness failed at p={p}: {exc}")
    return result


def _suite_almkvist(max_n: int) -> SuiteResult:
    from . import bernoulli

    result = SuiteResult()
    for n in range(max_n + 1):
        for h in range(-10, 11):
            for k in range(1, 11):
                result.check(
                    bernoulli.almkvist_meurman_check(n, h, k),
                    f"k^n (B_n(h/k) - B_n) not integral at n={n}, h={h}, k={k}",
                )
    return result


SUITES = {
    "agreement": lambda args: _suite_agreement(args.max_n, args.workers),
    "clausen": lambda args: _suite_clausen(args.max_n),
    "hermite": lambda args: _suite_hermite(args.max_n),
    "bounds": lambda args: _suite_bounds(args.max_n),
    "witnesses": lambda args: _suite_witnesses(args.max_n),
    "almkvist": lambda args: _suite_almkvist(args.max_n),
}


def cmd_verify(args: argparse.Namespace) -> int:
    if args.workers < 1:
        raise UsageError(f"--workers must be at least 1, got {args.workers}")
    if args.max_n < 0:
        raise UsageError(f"--max-n must be nonnegative, got {args.max_n}")
    names = list(SUITES) if args.suite == "all" else [args.suite]
    failed = False
    for name in names:
        result = SUITES[name](args)
        if result.failures:
            failed = True
            print(f"{name}: FAIL ({len(result.failures)} of {result.checks} checks)")
            for message in result.failures[:5]:
                print(f"  {message}")
            if len(result.failures) > 5:
                print(f"  ... and {len(result.failures) - 5} more")
        else:
            print(f"{name}: PASS ({result.checks} checks)")
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# bench


def _bench_values(method: str, bounds: tuple[int, int]) -> list[int]:
    return [Q_ROUTES[method](n) for n in range(*bounds)]


def _bench_run(method: str, indices: tuple[int, int], workers: int) -> list[int]:
    return _map_spans(partial(_bench_values, method), *indices, workers)


def cmd_bench(args: argparse.Namespace) -> int:
    if args.workers < 1:
        raise UsageError(f"--workers must be at least 1, got {args.workers}")
    if args.spot is None:
        if args.max_n < 0:
            raise UsageError(f"--max-n must be nonnegative, got {args.max_n}")
        span = (0, args.max_n + 1)
        label = f"n = 0..{args.max_n}"
    else:
        if args.spot < 0:
            raise UsageError(f"--spot must be nonnegative, got {args.spot}")
        span = (args.spot, args.spot + 1)
        label = f"n = {args.spot}"
    methods = args.methods or METHODS

    baseline = None
    for method in methods:
        values = _bench_run(method, span, args.workers)
        if baseline is None:
            baseline = values
        elif values != baseline:
            raise ArithmeticError(
                f"method {method!r} disagrees with {methods[0]!r} over {label}"
            )

    timings = []
    for method in methods:
        best = None
        for _ in range(3):
            t0 = time.perf_counter()
            _bench_run(method, span, args.workers)
            elapsed = (time.perf_counter() - t0) * 1000
            best = elapsed if best is None else min(best, elapsed)
        timings.append((method, best))

    if args.fmt == "csv":
        print("method,min_ms")
        for method, ms in timings:
            print(f"{method},{ms:.3f}")
    else:
        print(f"values agree across methods for {label}")
        for method, ms in timings:
            print(f"{method:>8}  {ms:10.3f} ms")
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="powersum-denoms",
        description="Exact denominators of power-sum and Bernoulli polynomials.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    seq = sub.add_parser("seq", help="emit a denominator sequence")
    seq.add_argument("--seq", dest="sequence", choices=SEQUENCES, default="q")
    seq.add_argument("--from", dest="start", type=int, default=0, metavar="N")
    seq.add_argument("--to", dest="end", type=int, required=True, metavar="N")
    seq.add_argument("--format", dest="fmt", choices=("plain", "csv", "bfile"), default="plain")
    seq.add_argument("--method", choices=METHODS, default="formula")

    poly = sub.add_parser("poly", help="render one power-sum polynomial")
    poly.add_argument("--n", type=int, required=True)
    poly.add_argument("--shifted", action="store_true", help="sum up to x^n instead of (x-1)^n")

    verify = sub.add_parser("verify", help="run cross-checking suites")
    verify.add_argument("--suite", choices=(*SUITES, "all"), default="all")
    verify.add_argument("--max-n", dest="max_n", type=int, default=50)
    verify.add_argument("--workers", type=int, default=1)

    witness = sub.add_parser("witness", help="explain a prime factor of q_n")
    witness.add_argument("--n", type=int, required=True)
    witness.add_argument("--p", type=int, required=True)

    bench = sub.add_parser("bench", help="time the q_n methods against each other")
    bench.add_argument("--max-n", dest="max_n", type=int, default=100)
    bench.add_argument("--method", dest="methods", action="append", choices=METHODS, default=None)
    bench.add_argument("--spot", type=int, default=None, metavar="N", help="time a single index instead of a range")
    bench.add_argument("--format", dest="fmt", choices=("plain", "csv"), default="plain")
    bench.add_argument("--workers", type=int, default=1)

    return parser


_COMMANDS = {
    "seq": cmd_seq,
    "poly": cmd_poly,
    "verify": cmd_verify,
    "witness": cmd_witness,
    "bench": cmd_bench,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        # An index too large for the tables it needs (the sieve up to
        # sqrt(n+1) for n near 10^20, say).
        print("error: out of memory: the index is too large", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader has gone (``seq ... | head``): stop without a traceback,
        # and point stdout at devnull so the interpreter's final flush of the
        # unwritten buffer does not fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 0
    raise SystemExit(code)


if __name__ == "__main__":
    entry()
