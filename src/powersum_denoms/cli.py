"""Command-line interface: a thin layer over the library.

Subcommands: ``seq`` emits integer sequences (d, q, and the two Bernoulli
polynomial denominator variants) in plain, csv, or b-file form; ``poly``
renders one power-sum polynomial over its least common denominator;
``verify`` runs the cross-checking suites; ``witness`` explains a prime
factor of q_n; ``bench`` times the q_n routes against each other.

Each subparser binds its ``cmd_*`` handler, which takes the parsed
arguments, checks its own flags first and raises ``UsageError`` for a bad
one.  The commands are tables over the library: ``Q_ROUTES`` holds the four
q_n routes that ``seq``, ``bench`` and the agreement suite share;
``SEQ_ROUTES`` maps each sequence to its methods and their routes over an
index range;
``SUITES`` is the tuple of verify suite names, in order; ``verify`` imports
``checks`` and runs its generator of each name, one item per check: ``None``
when it passes, its failure message when it fails.
Every command runs in the calling process, and none starts a process pool.
``verify --workers`` is still parsed and still rejects values below 1, and
has no other effect: the benchmark harness (``perfbench/workloads.py``)
passes it, and the next change to the harness removes it.

A run imports only what its command uses.  The module itself loads
``formulas`` and ``padic``, enough for the three digit-based q_n routes,
``seq --seq q``/``d``, ``Dclausen`` and ``Dpoly`` by formula, and
``witness``.  ``bernoulli`` and ``powersum`` are imported inside the paths
that need them: the brute routes, ``poly`` and the verify suites.  Only
``verify`` loads ``checks``, and each suite there imports the layers its
checks use.  No command loads ``fractions`` or ``exact_poly``, the tests'
polynomial oracle.

Exit codes: 0 on success, 1 when a verification fails, 2 on usage errors,
on an input the library refuses, and on an index too large for the memory
at hand.
A reader that closes the output pipe early ends the run quietly with 0, and
an interrupt (Ctrl-C) ends it quietly with 130.
All output except timings is deterministic.  ``seq`` writes each value as
soon as it is computed, or its window of indices searched, and ``poly`` each
term, so neither holds its output.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections.abc import Callable, Iterator, Sequence
from importlib import import_module
from operator import mul

from . import formulas, padic


def _lazy(module: str, name: str) -> Callable[[int], object]:
    # A route into a module that only some commands load: imported on the
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


def _each(route: Callable[[int], object]) -> Callable[[range], Iterator[object]]:
    # A per-index route over a range of indices.
    return lambda ns: map(route, ns)


# Each sequence's methods and their routes over a range of indices, in the
# order --seq lists them.  q_n and D(B_n(x)) by formula search each window of
# indices once; d_n is (n+1) * q_n by each q_n route.
Q_RANGES = {method: _each(route) for method, route in Q_ROUTES.items()}
Q_RANGES["formula"] = lambda ns: (q.value for q in formulas.q_n_formula_range(ns.start, ns.stop))
SEQ_ROUTES = {
    "d": {
        method: lambda ns, q=q: map(mul, range(ns.start + 1, ns.stop + 1), q(ns))
        for method, q in Q_RANGES.items()
    },
    "q": Q_RANGES,
    "Dclausen": {"formula": _each(lambda n: formulas.clausen_denominator(n).value)},
    "Dpoly": {
        "formula": lambda ns: (
            D.value for D in formulas.bernoulli_poly_denominator_formula_range(ns.start, ns.stop)
        ),
        "brute": _each(_lazy("bernoulli", "bernoulli_poly_denominator_direct")),
    },
}
SEQUENCES = tuple(SEQ_ROUTES)


class UsageError(ValueError):
    pass


def _nonneg(flag: str, value: int) -> None:
    if value < 0:
        raise UsageError(f"{flag} must be nonnegative, got {value}")


def cmd_seq(args: argparse.Namespace) -> int:
    sequence, method, start, end = args.sequence, args.method, args.start, args.end
    _nonneg("--from", start)
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
    line = {"plain": "{1}", "csv": f"{{0}},{{1}},{method}", "bfile": "{0} {1}"}[args.fmt]
    ns = range(start, end + 1, 2 if sequence == "Dclausen" else 1)
    for n, value in zip(ns, route(ns)):
        print(line.format(n, value))
    return 0


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


def cmd_poly(args: argparse.Namespace) -> int:
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


def cmd_witness(args: argparse.Namespace) -> int:
    n, p = args.n, args.p
    _nonneg("--n", n)
    # A prime above the sharp bound never divides q_n.
    if p > formulas._prime_limit(n):
        raise UsageError(f"p is not a factor of q_n (n={n}, p={p})")
    q = formulas.q_n_formula(n)
    if p == 2 or not padic.is_prime(p):
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
# verify


def __getattr__(name: str):
    # Only perfbench/tracer.py reads ``cli.ProcessPoolExecutor``: it rebinds
    # it to count pool starts, and no command starts a pool.  Imported on
    # first read, so no command loads the process machinery.
    if name == "ProcessPoolExecutor":
        from concurrent.futures import ProcessPoolExecutor

        return ProcessPoolExecutor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# Each verify suite, in the order ``--suite all`` runs them: the name of a
# generator in ``checks`` of one item per check, None or its failure message.
SUITES = ("agreement", "clausen", "hermite", "bounds", "witnesses", "almkvist")


def cmd_verify(args: argparse.Namespace) -> int:
    if args.workers < 1:
        raise UsageError(f"--workers must be at least 1, got {args.workers}")
    _nonneg("--max-n", args.max_n)
    from . import checks

    failed = False
    for name in SUITES if args.suite == "all" else (args.suite,):
        results = list(getattr(checks, name)(args.max_n))
        failures = [message for message in results if message is not None]
        if failures:
            failed = True
            print(f"{name}: FAIL ({len(failures)} of {len(results)} checks)")
            for message in failures[:5]:
                print(f"  {message}")
            if len(failures) > 5:
                print(f"  ... and {len(failures) - 5} more")
        else:
            print(f"{name}: PASS ({len(results)} checks)")
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# bench


def cmd_bench(args: argparse.Namespace) -> int:
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
    seq.set_defaults(run=cmd_seq)

    poly = sub.add_parser("poly", help="render one power-sum polynomial")
    poly.add_argument("--n", type=int, required=True)
    poly.add_argument("--shifted", action="store_true", help="sum up to x^n instead of (x-1)^n")
    poly.set_defaults(run=cmd_poly)

    verify = sub.add_parser("verify", help="run cross-checking suites")
    verify.add_argument("--suite", choices=(*SUITES, "all"), default="all")
    verify.add_argument("--max-n", dest="max_n", type=int, default=50)
    verify.add_argument("--workers", type=int, default=1, help="no effect: verify runs in one process (to be removed)")
    verify.set_defaults(run=cmd_verify)

    witness = sub.add_parser("witness", help="explain a prime factor of q_n")
    witness.add_argument("--n", type=int, required=True)
    witness.add_argument("--p", type=int, required=True)
    witness.set_defaults(run=cmd_witness)

    bench = sub.add_parser("bench", help="time the q_n methods against each other")
    bench.add_argument("--max-n", dest="max_n", type=int, default=100)
    bench.add_argument("--method", dest="methods", action="append", choices=METHODS, default=None)
    bench.add_argument("--spot", type=int, default=None, metavar="N", help="time a single index instead of a range")
    bench.add_argument("--format", dest="fmt", choices=("plain", "csv"), default="plain")
    bench.set_defaults(run=cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if hasattr(sys, "set_int_max_str_digits"):
        # q_n at n = 10^8 has more than the 4,300 digits CPython converts to
        # str by default (3.10.7 on); the input was parsed above, under it.
        sys.set_int_max_str_digits(0)
    try:
        return args.run(args)
    except ValueError as exc:
        # A bad flag, or an input the library refuses.
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
