"""Command-line interface.

Subcommands: ``seq`` emits integer sequences (d, q, and the two Bernoulli
polynomial denominator variants) in plain, csv, or b-file form; ``poly``
renders one power-sum polynomial over its least common denominator;
``verify`` runs the cross-checking suites; ``witness`` explains a prime
factor of q_n; ``bench`` times the formula routes against each other.

Exit codes: 0 on success, 1 when a verification fails, 2 on usage errors.
A reader that closes the output pipe early ends the run quietly with 0.
All output except timings is deterministic; ``seq`` writes each value as
soon as it is computed.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from typing import Iterable, Iterator

from . import bernoulli, formulas, padic, powersum
from .exact_poly import content_split

SEQUENCES = ("d", "q", "Dclausen", "Dpoly")
METHODS = ("formula", "epsilon", "psets", "brute")
SUITES = (
    "agreement",
    "clausen",
    "hermite",
    "bounds",
    "witnesses",
    "almkvist",
    "all",
)

_METHODS_FOR_SEQ = {
    "d": METHODS,
    "q": METHODS,
    "Dclausen": ("formula",),
    "Dpoly": ("formula", "brute"),
}


class UsageError(Exception):
    pass


@dataclass(frozen=True)
class SequenceRecord:
    """One emitted sequence entry, tagged with the method that produced it."""

    n: int
    value: int
    method: str


@dataclass
class RunConfig:
    """Validated knobs for one CLI invocation."""

    command: str
    sequence: str = "q"
    start: int = 0
    end: int = 0
    fmt: str = "plain"
    method: str = "formula"
    methods: tuple[str, ...] = ()
    suite: str = "all"
    max_n: int = 50
    workers: int = 1
    shifted: bool = False
    n: int = 0
    p: int = 0
    spot: int | None = None

    def validate(self) -> None:
        if self.workers < 1:
            raise UsageError(f"--workers must be at least 1, got {self.workers}")
        if self.command == "seq":
            if self.start < 0:
                raise UsageError(f"--from must be nonnegative, got {self.start}")
            if self.end < self.start:
                raise UsageError(f"--to must be >= --from, got {self.start}..{self.end}")
            if self.method not in _METHODS_FOR_SEQ[self.sequence]:
                raise UsageError(
                    f"method {self.method!r} is not available for --seq {self.sequence}"
                )
            if self.sequence == "Dclausen" and (
                self.start % 2 or self.end % 2 or self.start < 2
            ):
                raise UsageError(
                    "--seq Dclausen needs an even range starting at 2 or above"
                )
            if self.sequence == "Dpoly" and self.start < 1:
                raise UsageError("--seq Dpoly needs --from >= 1")
        elif self.command == "poly":
            if self.n < 0:
                raise UsageError(f"--n must be nonnegative, got {self.n}")
            if self.n == 0 and not self.shifted:
                raise UsageError("the unshifted power sum needs --n >= 1")
        elif self.command == "verify":
            if self.max_n < 0:
                raise UsageError(f"--max-n must be nonnegative, got {self.max_n}")
        elif self.command == "witness":
            if self.n < 0:
                raise UsageError(f"--n must be nonnegative, got {self.n}")
            # Before the primality test, which is slow for very large p: a
            # prime above the sharp bound never divides q_n.
            if self.p > powersum.bound_M(self.n):
                raise UsageError(f"p is not a factor of q_n (n={self.n}, p={self.p})")
            if self.p == 2 or not padic.is_prime(self.p):
                raise UsageError(f"--p must be an odd prime, got {self.p}")
        elif self.command == "bench":
            if self.max_n < 0 and self.spot is None:
                raise UsageError(f"--max-n must be nonnegative, got {self.max_n}")
            if self.spot is not None and self.spot < 0:
                raise UsageError(f"--spot must be nonnegative, got {self.spot}")
            if self.fmt == "bfile":
                raise UsageError("bench supports plain or csv output only")
            for m in self.methods:
                if m not in METHODS:
                    raise UsageError(f"unknown method {m!r}")


def _sequence_value(sequence: str, method: str, n: int) -> int:
    if sequence == "q" or sequence == "d":
        if method == "brute":
            value = (
                powersum.d_n(n) if sequence == "d" else powersum.q_n_bruteforce(n)
            )
            return value
        if method == "formula":
            q = formulas.q_n_formula(n).value
        elif method == "epsilon":
            q = formulas.q_n_epsilon(n).value()
        else:
            q = formulas.q_n_via_psets(n).value
        return q if sequence == "q" else (n + 1) * q
    if sequence == "Dclausen":
        return bernoulli.clausen_denominator(n).value
    if method == "brute":
        return bernoulli.bernoulli_poly_denominator_direct(n)
    return bernoulli.bernoulli_poly_denominator_formula(n).value


def _seq_records(cfg: RunConfig) -> Iterator[SequenceRecord]:
    step = 2 if cfg.sequence == "Dclausen" else 1
    for n in range(cfg.start, cfg.end + 1, step):
        yield SequenceRecord(n, _sequence_value(cfg.sequence, cfg.method, n), cfg.method)


def _emit_records(records: Iterable[SequenceRecord], cfg: RunConfig) -> None:
    if cfg.fmt == "csv":
        print("n,value,method")
        for r in records:
            print(f"{r.n},{r.value},{r.method}")
    elif cfg.fmt == "bfile":
        for r in records:
            print(f"{r.n} {r.value}")
    else:
        for r in records:
            print(r.value)


def parse_bfile(text: str) -> list[SequenceRecord]:
    """Parse OEIS b-file lines ("n value", comments starting with #)."""
    records = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"malformed b-file line {lineno}: {raw!r}")
        records.append(SequenceRecord(int(parts[0]), int(parts[1]), "bfile"))
    return records


def cmd_seq(cfg: RunConfig) -> int:
    _emit_records(_seq_records(cfg), cfg)
    return 0


def _format_poly(denominator: int, coeffs: tuple[int, ...]) -> str:
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


def cmd_poly(cfg: RunConfig) -> int:
    if cfg.shifted:
        form = powersum.faulhaber_form(cfg.n) if cfg.n else None
        if form is None:
            print("x")
            return 0
        print(_format_poly(form.denominator, form.coeffs))
        return 0
    scale, primitive = content_split(powersum.power_sum_poly(cfg.n))
    print(
        _format_poly(
            scale.denominator,
            tuple(int(c) * scale.numerator for c in primitive.coeffs),
        )
    )
    return 0


def cmd_witness(cfg: RunConfig) -> int:
    n, p = cfg.n, cfg.p
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


# ---------------------------------------------------------------------------
# verify suites


@dataclass
class SuiteResult:
    name: str
    checks: int = 0
    failures: list[str] = field(default_factory=list)

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
    with ProcessPoolExecutor(max_workers=len(spans)) as pool:
        return [row for part in pool.map(fn, spans) for row in part]


def _agreement_chunk(bounds: tuple[int, int]) -> list[tuple[int, tuple[int, ...]]]:
    lo, hi = bounds
    out = []
    for n in range(lo, hi):
        out.append(
            (
                n,
                (
                    formulas.q_n_formula(n).value,
                    formulas.q_n_epsilon(n).value(),
                    formulas.q_n_via_psets(n).value,
                    powersum.q_n_bruteforce(n),
                ),
            )
        )
    return out


def _suite_agreement(max_n: int, workers: int = 1) -> SuiteResult:
    result = SuiteResult("agreement")
    for n, values in _map_spans(_agreement_chunk, 0, max_n + 1, workers):
        result.check(
            len(set(values)) == 1,
            f"q_{n}: formula/epsilon/psets/brute disagree: {values}",
        )
    return result


def _suite_clausen(max_n: int) -> SuiteResult:
    result = SuiteResult("clausen")
    table = bernoulli.bernoulli_numbers(max_n)
    for n in range(2, max_n + 1, 2):
        expected = bernoulli.clausen_denominator(n).value
        actual = table.number(n).denominator
        result.check(
            actual == expected, f"denominator of B_{n}: {actual} != {expected}"
        )
    return result


def _suite_hermite(max_n: int) -> SuiteResult:
    result = SuiteResult("hermite")
    for p in formulas.primes_upto(50):
        for m in range(1, max_n + 1):
            result.check(
                formulas.hermite_bachmann_holds(m, p),
                f"binomial sum congruence fails at m={m}, p={p}",
            )
    return result


def _suite_bounds(max_n: int) -> SuiteResult:
    result = SuiteResult("bounds")
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
        t, f = q, 2
        while f * f <= t:
            while t % f == 0:
                result.check(f <= limit, f"prime {f} of q_{n} exceeds the bound")
                t //= f
            f += 1
        if t > 1:
            result.check(t <= limit, f"prime {t} of q_{n} exceeds the bound")
    return result


def _suite_witnesses(max_n: int) -> SuiteResult:
    result = SuiteResult("witnesses")
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
    result = SuiteResult("almkvist")
    for n in range(max_n + 1):
        for h in range(-10, 11):
            for k in range(1, 11):
                result.check(
                    bernoulli.almkvist_meurman_check(n, h, k),
                    f"k^n (B_n(h/k) - B_n) not integral at n={n}, h={h}, k={k}",
                )
    return result


def cmd_verify(cfg: RunConfig) -> int:
    runners = {
        "agreement": lambda: _suite_agreement(cfg.max_n, cfg.workers),
        "clausen": lambda: _suite_clausen(cfg.max_n),
        "hermite": lambda: _suite_hermite(cfg.max_n),
        "bounds": lambda: _suite_bounds(cfg.max_n),
        "witnesses": lambda: _suite_witnesses(cfg.max_n),
        "almkvist": lambda: _suite_almkvist(cfg.max_n),
    }
    names = list(runners) if cfg.suite == "all" else [cfg.suite]
    failed = False
    for name in names:
        result = runners[name]()
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
    return [_sequence_value("q", method, n) for n in range(*bounds)]


def _bench_run(method: str, indices: tuple[int, int], workers: int) -> list[int]:
    return _map_spans(partial(_bench_values, method), *indices, workers)


def cmd_bench(cfg: RunConfig) -> int:
    methods = cfg.methods or METHODS
    if cfg.spot is not None:
        span = (cfg.spot, cfg.spot + 1)
        label = f"n = {cfg.spot}"
    else:
        span = (0, cfg.max_n + 1)
        label = f"n = 0..{cfg.max_n}"

    baseline = None
    for method in methods:
        values = _bench_run(method, span, cfg.workers)
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
            _bench_run(method, span, cfg.workers)
            elapsed = (time.perf_counter() - t0) * 1000
            best = elapsed if best is None else min(best, elapsed)
        timings.append((method, best))

    if cfg.fmt == "csv":
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
    verify.add_argument("--suite", choices=SUITES, default="all")
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


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig(command=args.command)
    for name in (
        "sequence",
        "start",
        "end",
        "fmt",
        "method",
        "suite",
        "max_n",
        "workers",
        "shifted",
        "n",
        "p",
        "spot",
    ):
        if hasattr(args, name) and getattr(args, name) is not None:
            setattr(cfg, name, getattr(args, name))
    if getattr(args, "methods", None):
        cfg.methods = tuple(args.methods)
    return cfg


_COMMANDS = {
    "seq": cmd_seq,
    "poly": cmd_poly,
    "verify": cmd_verify,
    "witness": cmd_witness,
    "bench": cmd_bench,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    cfg = _config_from_args(args)
    try:
        cfg.validate()
        return _COMMANDS[cfg.command](cfg)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
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
