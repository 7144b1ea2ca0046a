"""Command-line interface: a thin layer over the library.

Subcommands: ``seq`` emits integer sequences (d, q, and the two Bernoulli
polynomial denominator variants) in plain, csv, or b-file form; ``poly``
renders one power-sum polynomial over its least common denominator;
``verify`` runs the cross-checking suites; ``witness`` explains a prime
factor of q_n; ``bench`` times the q_n methods against each other.

``COMMANDS`` declares each command once: its help line, its handler and
its options.  ``main`` parses the argv that callers send straight from that
table; anything else (``-h``, ``--to=5``, an abbreviated or unknown flag, a
bad or missing value) goes to the argparse parser that ``build_parser``
builds from the same table, the one source of usage, help and error text.
Each handler checks its own flags first and raises ``UsageError`` for a bad
one.  ``cmd_seq`` lives here, ``verify``'s handler beside its suites in
``checks``, and the other three in ``commands``, each module imported only
when one of its commands is dispatched.  ``Q_ROUTES`` holds the four q_n
routes that ``seq``, ``bench`` and the agreement suite share;
``SEQ_METHODS`` lists each sequence's methods, and ``seq_values`` streams a
sequence over a range of indices by one of them; ``SUITES`` names the verify
suites in order, each a generator in ``checks`` of one item per check:
``None`` when it passes, its failure message when it fails.
Every command runs in the calling process, and none starts a process pool.
``verify --workers`` is still parsed and still rejects values below 1, and
has no other effect: the benchmark harness (``perfbench/workloads.py``)
passes it, and the next change to the harness removes it.

A run imports only what its command uses, on first use in ``seq_values``
or ``Q_ROUTES``.  ``seq`` by formula for ``q``, ``d`` and ``Dpoly`` loads
the prime layer ``_primes`` alone, and ``padic`` for its primality test
only when a candidate lies past the search's lookup bound, as in a short
window near 10^6 but in no 250-index window near 10^4.  The other
digit-based routes and ``Dclausen`` load the digit-sum layers ``formulas``
and ``padic``, and the brute routes ``bernoulli``, for ``q`` and ``d`` with
``powersum`` and ``_primes``.  ``poly`` loads ``commands``, ``powersum``
and ``bernoulli``; ``witness`` and ``bench`` ``commands`` and the digit-sum
layers; ``verify`` ``checks`` and what its suites use.  Only help and usage
errors load ``argparse``, and no command loads ``fractions`` or
``exact_poly``, the tests' oracle.

Exit codes: 0 on success, 1 when a verification fails, 2 on usage errors,
on an input the library refuses, and on an index too large for the memory
at hand or for a table's size.
A reader that closes the output pipe early ends the run quietly with 0, and
an interrupt (Ctrl-C) ends it quietly with 130.
All output except timings is deterministic.  ``seq`` writes each value as
soon as it is computed, or its window of indices searched, and ``poly`` each
term, so neither holds its output.
"""

from __future__ import annotations

import os
import sys
from collections.abc import Callable, Iterator, Sequence
from importlib import import_module
from operator import mul
from types import SimpleNamespace


def _module(name: str):
    # A layer that only some commands load, imported on first use.  A hit in
    # sys.modules costs a tenth of import_module, which the q_n routes that
    # bench times would otherwise pay on every call.
    module = f"{__package__}.{name}"
    return sys.modules.get(module) or import_module(module)


def _lazy(module: str, name: str) -> Callable[[object], object]:
    # A function of such a layer, looked up at each call.
    return lambda x: getattr(_module(module), name)(x)


# The four routes to q_n.  Each looks its function up when it is called, so a
# module attribute rebound after import (a tracing wrapper, say) is used.
Q_ROUTES = {
    "formula": lambda n: _module("formulas").q_n_formula(n).value,
    "epsilon": lambda n: _module("formulas").q_n_epsilon(n).value(),
    "psets": lambda n: _module("formulas").q_n_via_psets(n).value,
    "brute": _lazy("powersum", "q_n_bruteforce"),
}
METHODS = tuple(Q_ROUTES)


# Each sequence's methods, in the order --seq lists them.
SEQ_METHODS = {"d": METHODS, "q": METHODS, "Dclausen": ("formula",), "Dpoly": ("formula", "brute")}
SEQUENCES = tuple(SEQ_METHODS)


def seq_values(sequence: str, method: str, ns: range) -> Iterator[int]:
    # The values of a sequence at the indices ns by one of its methods; d_n
    # is (n+1) * q_n by each q_n route.  q_n and D(B_n(x)) by formula are the
    # products of the primes that the windowed search yields per index, the
    # primes of s_p(n+1) >= p and of s_p(n) >= p - 1, read straight from the
    # prime layer: cmd_seq has checked the range, so no record is built.
    if sequence == "Dclausen":
        formulas = _module("formulas")
        return (formulas.clausen_denominator(n).value for n in ns)
    if method == "formula":
        from ._primes import _digit_sum_primes, _product

        if sequence == "Dpoly":
            return map(_product, _digit_sum_primes(ns.start, ns.stop, 1))
        qs = map(_product, _digit_sum_primes(ns.start + 1, ns.stop + 1, 0))
    elif sequence == "Dpoly":
        return map(_lazy("bernoulli", "bernoulli_poly_denominator_direct"), ns)
    else:
        qs = map(Q_ROUTES[method], ns)
    return qs if sequence == "q" else map(mul, range(ns.start + 1, ns.stop + 1), qs)


class UsageError(ValueError):
    pass


def _nonneg(flag: str, value: int) -> None:
    if value < 0:
        raise UsageError(f"{flag} must be nonnegative, got {value}")


def cmd_seq(args: SimpleNamespace) -> int:
    sequence, method, start, end = args.sequence, args.method, args.start, args.end
    _nonneg("--from", start)
    if end < start:
        raise UsageError(f"--to must be >= --from, got {start}..{end}")
    if method not in SEQ_METHODS[sequence]:
        raise UsageError(f"method {method!r} is not available for --seq {sequence}")
    if sequence == "Dclausen" and (start % 2 or end % 2 or start < 2):
        raise UsageError("--seq Dclausen needs an even range starting at 2 or above")
    if sequence == "Dpoly" and start < 1:
        raise UsageError("--seq Dpoly needs --from >= 1")
    if args.fmt == "csv":
        print("n,value,method")
    line = {"plain": "{1}", "csv": f"{{0}},{{1}},{method}", "bfile": "{0} {1}"}[args.fmt]
    ns = range(start, end + 1, 2 if sequence == "Dclausen" else 1)
    for n, value in zip(ns, seq_values(sequence, method, ns)):
        print(line.format(n, value))
    return 0


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


# ---------------------------------------------------------------------------
# argument parsing


# Each command's help line, handler and options, the one declaration of the
# grammar: an option is its flag and the keywords argparse's add_argument
# takes for it.  The fast parse reads dest, type (int), choices, action
# (store_true or append), default (None if absent, as in argparse) and
# required from the same entries.
COMMANDS = {
    "seq": ("emit a denominator sequence", cmd_seq, {
        "--seq": {"dest": "sequence", "choices": SEQUENCES, "default": "q"},
        "--from": {"dest": "start", "type": int, "default": 0, "metavar": "N"},
        "--to": {"dest": "end", "type": int, "required": True, "metavar": "N"},
        "--format": {"dest": "fmt", "choices": ("plain", "csv", "bfile"), "default": "plain"},
        "--method": {"dest": "method", "choices": METHODS, "default": "formula"},
    }),
    "poly": ("render one power-sum polynomial", _lazy("commands", "cmd_poly"), {
        "--n": {"dest": "n", "type": int, "required": True},
        "--shifted": {"dest": "shifted", "action": "store_true", "default": False,
                      "help": "sum up to x^n instead of (x-1)^n"},
    }),
    "verify": ("run cross-checking suites", _lazy("checks", "cmd_verify"), {
        "--suite": {"dest": "suite", "choices": (*SUITES, "all"), "default": "all"},
        "--max-n": {"dest": "max_n", "type": int, "default": 50},
        "--workers": {"dest": "workers", "type": int, "default": 1,
                      "help": "no effect: verify runs in one process (to be removed)"},
    }),
    "witness": ("explain a prime factor of q_n", _lazy("commands", "cmd_witness"), {
        "--n": {"dest": "n", "type": int, "required": True},
        "--p": {"dest": "p", "type": int, "required": True},
    }),
    "bench": ("time the q_n methods against each other", _lazy("commands", "cmd_bench"), {
        "--max-n": {"dest": "max_n", "type": int, "default": 100},
        "--method": {"dest": "methods", "action": "append", "choices": METHODS},
        "--spot": {"dest": "spot", "type": int, "metavar": "N",
                   "help": "time a single index instead of a range"},
        "--format": {"dest": "fmt", "choices": ("plain", "csv"), "default": "plain"},
    }),
}


def _parse(argv: Sequence[str]) -> SimpleNamespace | None:
    # The argv every real caller sends: the command, then exact long flags,
    # each with a valid value, and every required flag.  Anything else (help,
    # --to=5, an abbreviated or unknown flag, a bad or missing value) is
    # None, for argparse to parse or to explain.
    if not argv or argv[0] not in COMMANDS:
        return None
    _, run, options = COMMANDS[argv[0]]
    values = {option["dest"]: option.get("default") for option in options.values()}
    missing = {flag for flag, option in options.items() if option.get("required")}
    words = iter(argv[1:])
    for flag in words:
        option = options.get(flag)
        if option is None:
            return None
        missing.discard(flag)
        dest, action = option["dest"], option.get("action")
        if action == "store_true":
            values[dest] = True
            continue
        value = next(words, None)
        if value is None:
            return None
        if option.get("type") is int:
            # argparse takes a word that starts with "-" for a flag unless
            # it reads as a negative number.
            if value[:1] == "-" and not value[1:].isdecimal():
                return None
            try:
                value = int(value)
            except ValueError:
                return None
        elif value not in option["choices"]:
            return None
        values[dest] = [*(values[dest] or ()), value] if action == "append" else value
    if missing:
        return None
    return SimpleNamespace(command=argv[0], **values, run=run)


def build_parser():
    # The one source of usage, help and error text; main() builds it only
    # for an argv that the fast parse does not take.
    import argparse

    parser = argparse.ArgumentParser(
        prog="powersum-denoms",
        description="Exact denominators of power-sum and Bernoulli polynomials.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (summary, run, options) in COMMANDS.items():
        command_parser = sub.add_parser(command, help=summary)
        for flag, option in options.items():
            command_parser.add_argument(flag, **option)
        command_parser.set_defaults(run=run)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _parse(argv) or build_parser().parse_args(argv)
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
    except (MemoryError, OverflowError):
        # An index too large for the tables it needs (the sieve up to
        # sqrt(n+1) for n near 10^20, say), or for a table's size to fit an
        # index-sized integer at all (n near 10^40).
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
