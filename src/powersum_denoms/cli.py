"""Command-line interface: a thin layer over the library.

Subcommands: ``seq`` emits integer sequences (d, q, and the two Bernoulli
polynomial denominator variants) in plain, csv, or b-file form; ``poly``
renders one power-sum polynomial over its least common denominator;
``verify`` runs the cross-checking suites; ``witness`` explains a prime
factor of q_n; ``bench`` times the q_n routes against each other.

Each ``cmd_*`` handler takes the parsed arguments, checks its own flags
first and raises ``UsageError`` for a bad one.  The commands are tables over
the library: ``Q_ROUTES`` holds the four q_n routes that ``seq``, ``bench``
and the agreement suite share; ``SEQ_ROUTES`` maps each sequence to its
methods and their routes; ``SUITES`` maps each verify suite to a generator
that yields one item per check: ``None`` when it passes, its failure
message when it fails, so no message is formatted for a passing check.
Every command runs in the calling process, and none starts a process pool.
``verify --workers`` is still parsed and still rejects values below 1, and
has no other effect: the benchmark harness (``perfbench/workloads.py``)
passes it, and the next change to the harness removes it.

A run imports only what its command uses.  The module itself loads
``formulas`` and ``padic``, enough for the three digit-based q_n routes,
``seq --seq q``/``d``, ``Dclausen`` and ``Dpoly`` by formula, and
``witness``.  ``bernoulli`` and ``powersum``, and with them ``fractions``
and the polynomial layer, are imported inside the paths that need them: the
brute routes, ``poly`` and the verify suites.

Exit codes: 0 on success, 1 when a verification fails, 2 on usage errors
and on an index too large for the memory at hand.
A reader that closes the output pipe early ends the run quietly with 0, and
an interrupt (Ctrl-C) ends it quietly with 130.
All output except timings is deterministic; ``seq`` writes each value as
soon as it is computed.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from collections.abc import Callable, Iterator
from importlib import import_module
from math import prod

from . import formulas, padic


def _lazy(module: str, name: str) -> Callable[[int], int]:
    # A route into a module that loads the polynomial layer: imported on the
    # first call, and the function looked up at each call, like the others.
    return lambda n: getattr(import_module(f"{__package__}.{module}"), name)(n)


# The four routes to q_n.  Each looks its function up when it is called, so a
# module attribute rebound after import (a tracing wrapper, say) is used.
Q_ROUTES = {
    "formula": lambda n: formulas.q_n_formula(n).value,
    "epsilon": lambda n: formulas.q_n_epsilon(n).value(),
    "psets": lambda n: formulas.q_n_via_psets(n).value,
    "brute": _lazy("powersum", "q_n_bruteforce"),
}
METHODS = tuple(Q_ROUTES)


def _d_via(method: str) -> Callable[[int], int]:
    return lambda n: (n + 1) * Q_ROUTES[method](n)


# Each sequence's methods and their routes, in the order --seq lists them.
# d_n is (n+1) * q_n by each digit-based q_n route.
SEQ_ROUTES = {
    "d": {
        "formula": _d_via("formula"),
        "epsilon": _d_via("epsilon"),
        "psets": _d_via("psets"),
        "brute": _lazy("powersum", "d_n"),
    },
    "q": Q_ROUTES,
    "Dclausen": {"formula": lambda n: formulas.clausen_denominator(n).value},
    "Dpoly": {
        "formula": lambda n: formulas.bernoulli_poly_denominator_formula(n).value,
        "brute": _lazy("bernoulli", "bernoulli_poly_denominator_direct"),
    },
}
SEQUENCES = tuple(SEQ_ROUTES)


class UsageError(Exception):
    pass


def cmd_seq(args: argparse.Namespace) -> int:
    sequence, method, start, end = args.sequence, args.method, args.start, args.end
    if start < 0:
        raise UsageError(f"--from must be nonnegative, got {start}")
    if end < start:
        raise UsageError(f"--to must be >= --from, got {start}..{end}")
    route = SEQ_ROUTES[sequence].get(method)
    if route is None:
        raise UsageError(f"method {method!r} is not available for --seq {sequence}")
    if sequence == "Dclausen" and (start % 2 or end % 2 or start < 2):
        raise UsageError("--seq Dclausen needs an even range starting at 2 or above")
    if sequence == "Dpoly" and start < 1:
        raise UsageError("--seq Dpoly needs --from >= 1")
    if args.fmt == "csv":
        print("n,value,method")
    for n in range(start, end + 1, 2 if sequence == "Dclausen" else 1):
        value = route(n)
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


def __getattr__(name: str):
    # Only perfbench/tracer.py reads ``cli.ProcessPoolExecutor``: it rebinds
    # it to count pool starts, and no command starts a pool.  Imported on
    # first read, so no command loads the process machinery.
    if name == "ProcessPoolExecutor":
        from concurrent.futures import ProcessPoolExecutor

        return ProcessPoolExecutor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _suite_agreement(max_n: int) -> Iterator[str | None]:
    for n in range(max_n + 1):
        values = tuple(route(n) for route in Q_ROUTES.values())
        ok = len(set(values)) == 1
        yield None if ok else f"q_{n}: {'/'.join(Q_ROUTES)} disagree: {values}"


def _suite_clausen(max_n: int) -> Iterator[str | None]:
    from . import bernoulli

    table = bernoulli.bernoulli_numbers(max_n)
    for n in range(2, max_n + 1, 2):
        # The von Staudt-Clausen primes of n, shared with the agreement suite.
        expected = prod(formulas._clausen_primes(n))
        actual = table.number(n).denominator
        yield None if actual == expected else f"denominator of B_{n}: {actual} != {expected}"


def _suite_hermite(max_n: int) -> Iterator[str | None]:
    for p in formulas.primes_upto(50):
        for m in range(1, max_n + 1):
            ok = formulas._hermite_bachmann_holds(m, p)
            yield None if ok else f"binomial sum congruence fails at m={m}, p={p}"


def _suite_bounds(max_n: int) -> Iterator[str | None]:
    from . import powersum

    for m in range(3, max_n + 1):
        top = m - 1 if m % 2 == 1 else m - 2
        for k in range(2, top + 1, 2):
            ok = formulas.pset_bound_check(m, k)
            yield None if ok else f"prime-set bound fails at m={m}, k={k}"
    for n in range(max_n + 1):
        d = powersum.d_n(n)
        q = powersum.q_n_bruteforce(n)
        yield None if d == (n + 1) * q else f"d_{n} != (n+1) * q_{n}"
        if n >= 1:
            yield None if d % 2 == 0 else f"d_{n} is odd"
        odd = q % 2 == 1
        ok = odd == ((n + 1) & n == 0)
        yield None if ok else f"parity of q_{n} disagrees with n+1 being a power of 2"
        limit = powersum.bound_M(n)
        for f in powersum._prime_factors(q):
            yield None if f <= limit else f"prime {f} of q_{n} exceeds the bound"


def _suite_witnesses(max_n: int) -> Iterator[str | None]:
    for n in range(max_n + 1):
        for p in formulas.q_n_formula(n).primes:
            if p == 2:
                continue
            try:
                padic.marble_witness(n + 1, p)
                yield None
            except (ValueError, ArithmeticError) as exc:
                yield f"witness failed at n={n}, p={p}: {exc}"
    for p in formulas.primes_upto(max(2, (max_n + 2) // 3)):
        if p == 2:
            continue
        try:
            formulas.sharpness_witnesses(p)
            yield None
        except ArithmeticError as exc:
            yield f"sharpness failed at p={p}: {exc}"


def _suite_almkvist(max_n: int) -> Iterator[str | None]:
    from . import bernoulli

    for n in range(max_n + 1):
        for h in range(-10, 11):
            for k in range(1, 11):
                ok = bernoulli.almkvist_meurman_check(n, h, k)
                yield None if ok else f"k^n (B_n(h/k) - B_n) not integral at n={n}, h={h}, k={k}"


# Each suite yields one item per check: None, or the check's failure message.
SUITES = {
    "agreement": lambda args: _suite_agreement(args.max_n),
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
        checks, failures = 0, []
        for failure in SUITES[name](args):
            checks += 1
            if failure is not None:
                failures.append(failure)
        if failures:
            failed = True
            print(f"{name}: FAIL ({len(failures)} of {checks} checks)")
            for message in failures[:5]:
                print(f"  {message}")
            if len(failures) > 5:
                print(f"  ... and {len(failures) - 5} more")
        else:
            print(f"{name}: PASS ({checks} checks)")
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# bench


def cmd_bench(args: argparse.Namespace) -> int:
    if args.spot is None:
        if args.max_n < 0:
            raise UsageError(f"--max-n must be nonnegative, got {args.max_n}")
        indices = range(args.max_n + 1)
        label = f"n = 0..{args.max_n}"
    else:
        if args.spot < 0:
            raise UsageError(f"--spot must be nonnegative, got {args.spot}")
        indices = range(args.spot, args.spot + 1)
        label = f"n = {args.spot}"
    methods = args.methods or METHODS

    # Each route runs in this process: its agreement pass warms the caches
    # (the brute route's B_n(x)) that its timed runs then read.
    baseline = [Q_ROUTES[methods[0]](n) for n in indices]
    for method in methods[1:]:
        if [Q_ROUTES[method](n) for n in indices] != baseline:
            raise ArithmeticError(
                f"method {method!r} disagrees with {methods[0]!r} over {label}"
            )

    timings = []
    for method in methods:
        route = Q_ROUTES[method]
        runs = []
        for _ in range(3):
            t0 = time.perf_counter()
            for n in indices:
                route(n)
            runs.append((time.perf_counter() - t0) * 1000)
        timings.append((method, min(runs)))

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
    verify.add_argument("--workers", type=int, default=1, help="no effect: verify runs in one process (to be removed)")

    witness = sub.add_parser("witness", help="explain a prime factor of q_n")
    witness.add_argument("--n", type=int, required=True)
    witness.add_argument("--p", type=int, required=True)

    bench = sub.add_parser("bench", help="time the q_n methods against each other")
    bench.add_argument("--max-n", dest="max_n", type=int, default=100)
    bench.add_argument("--method", dest="methods", action="append", choices=METHODS, default=None)
    bench.add_argument("--spot", type=int, default=None, metavar="N", help="time a single index instead of a range")
    bench.add_argument("--format", dest="fmt", choices=("plain", "csv"), default="plain")

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
    if hasattr(sys, "set_int_max_str_digits"):
        # q_n at n = 10^8 has more than the 4,300 digits CPython converts to
        # str by default (3.10.7 on); the input was parsed above, under it.
        sys.set_int_max_str_digits(0)
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
    except KeyboardInterrupt:
        # Ctrl-C: stop without a traceback, with the shell's code for SIGINT.
        code = 130
    raise SystemExit(code)


if __name__ == "__main__":
    entry()
