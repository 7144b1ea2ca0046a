"""The benchmark's workloads: seeded inputs, the jobs of one pass, and checks.

A pass is a fixed list of CLI runs made one after another by a single client
in a closed loop; each run is one fresh child process and one operation.
Every input is drawn by seed inside fixed strata, so the mix of sizes is the
same for every seed.

seq-window   b-file generation over contiguous ranges: ``seq --seq q`` over
             four 250-index windows and ``seq --seq Dpoly`` over four
             125-index windows, one window of each per 500-wide stratum of
             [9000, 11000).  Many inputs share work (the sieve, the primes);
             digit sums and base checks dominate, Bernoulli numbers and
             exact polynomials do nothing.
exact-check  ``verify --suite all --max-n 60``, ``poly --n N --shifted`` for
             one N per 25-wide stratum of [550, 650), and a brute-force
             ``seq --method brute --from 0 --to 200``: Bernoulli-table growth,
             cached Bernoulli polynomials, Horner evaluation and exact
             polynomial arithmetic, with little digit-sum work.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from math import lcm

import reference as ref

NAMES = ("seq-window", "exact-check")


@dataclass(frozen=True)
class CliJob:
    """One CLI run, correct when ``check(stdout)`` holds."""

    key: str
    cli: tuple[str, ...]
    check: object = field(compare=False)

    def args(self, spans: str | None) -> list[str]:
        if spans is None:
            return ["-m", "powersum_denoms", *self.cli]
        return ["perfbench/tracer.py", "--spans", spans, *self.cli]

    def output_ok(self, stdout: str) -> bool:
        try:
            return bool(self.check(stdout))
        except ValueError:
            return False


@dataclass
class Workload:
    inputs: dict
    jobs: list
    items: int  # output values one pass emits and the checks cover


def _strata(rng: random.Random, lo: int, hi: int, count: int, span: int) -> list[int]:
    """One start per equal stratum of [lo, hi), leaving room for ``span`` values."""
    width = (hi - lo) // count
    return [lo + k * width + rng.randrange(width - span + 1) for k in range(count)]


def _points(rng: random.Random, lo: int, hi: int, count: int) -> list[int]:
    """One n per equal stratum of [lo, hi), even in even strata and odd in odd
    ones, so that parity, like size, does not depend on the seed (the
    program's prime bounds depend on the parity of n)."""
    width = (hi - lo) // count
    return [lo + k * width + 2 * rng.randrange(width // 2) + k % 2 for k in range(count)]


def _bfile_check(expected: dict[int, int]):
    want = [f"{n} {v}" for n, v in expected.items()]
    return lambda stdout: stdout.splitlines() == want


def _epsilon_q(n: int) -> int:
    from powersum_denoms import q_n_epsilon

    return q_n_epsilon(n).value()


def _cross_checked(expected: dict[int, int], independent: dict[int, int]) -> dict[int, int]:
    """Expected values, with any index where the independent route disagrees
    set to -1 so that no output can match it."""
    return {n: (v if independent.get(n, v) == v else -1) for n, v in expected.items()}


def seq_window(seed: int, small: bool) -> Workload:
    rng = random.Random(f"seq-window/{seed}")
    lo, hi, strata, q_len, d_len = (200, 400, 2, 10, 5) if small else (9000, 11000, 4, 250, 125)
    # Each window sits in the first 2 * q_len values of its stratum, so the
    # windows never overlap and each stratum contributes the same sizes.
    q_starts = _strata(rng, lo, hi, strata, q_len)
    d_starts = _strata(rng, lo, hi, strata, q_len)
    primes = ref.sieve(hi + 2)
    jobs = []
    for kind, starts, length in (("q", q_starts, q_len), ("Dpoly", d_starts, d_len)):
        for start in starts:
            stop = start + length - 1
            if kind == "q":
                expected = {n: ref.q_value(n, primes) for n in range(start, stop + 1)}
                probe = rng.randrange(start, stop + 1)
                independent = {probe: _epsilon_q(probe)}
            else:
                expected = {n: ref.dpoly_value(n, primes) for n in range(start, stop + 1)}
                # D(B_n(x)) = lcm(denominator of B_n, q_{n-1}) for n >= 2.
                probe = rng.randrange(start, stop + 1)
                independent = {probe: lcm(ref.clausen_value(probe, primes), _epsilon_q(probe - 1))}
            cli = ("seq", "--seq", kind, "--format", "bfile", "--from", str(start), "--to", str(stop))
            check = _bfile_check(_cross_checked(expected, independent))
            jobs.append(CliJob(f"{kind}[{start}..{stop}]", cli, check))
    inputs = {"q_windows": [[s, s + q_len - 1] for s in q_starts],
              "Dpoly_windows": [[s, s + d_len - 1] for s in d_starts]}
    return Workload(inputs, jobs, strata * (q_len + d_len))


def verify_counts(max_n: int) -> dict[str, int]:
    """Checks each ``verify`` suite runs at --max-n max_n, counted from its
    definition: one per index, residue or prime it visits."""
    primes = ref.sieve(max(50, max_n + 2))
    qp = [ref.q_primes(n, primes) for n in range(max_n + 1)]
    bounds = sum(len(range(2, (m - 1 if m % 2 else m - 2) + 1, 2)) for m in range(3, max_n + 1))
    bounds += sum(2 + (n >= 1) + len(qp[n]) for n in range(max_n + 1))
    odd_q = sum(len(ps) - (2 in ps) for ps in qp)
    sharp = sum(1 for p in primes if 2 < p <= max(2, (max_n + 2) // 3))
    return {
        "agreement": max_n + 1,
        "clausen": max_n // 2,
        "hermite": sum(1 for p in primes if p <= 50) * max_n,
        "bounds": bounds,
        "witnesses": odd_q + sharp,
        "almkvist": (max_n + 1) * 21 * 10,
    }


def exact_check(seed: int, small: bool, workers: int) -> Workload:
    rng = random.Random(f"exact-check/{seed}")
    max_n, lo, hi, strata, top = (12, 20, 40, 2, 20) if small else (60, 550, 650, 4, 200)
    ns = _points(rng, lo, hi, strata)
    counts = verify_counts(max_n)
    want_verify = [f"{name}: PASS ({k} checks)" for name, k in counts.items()]
    primes = ref.sieve(top + 2)
    want_brute = [str(ref.q_value(n, primes)) for n in range(top + 1)]
    jobs = [CliJob(
        "verify",
        ("verify", "--suite", "all", "--max-n", str(max_n), "--workers", str(workers)),
        lambda out: out.splitlines() == want_verify,
    )]
    for n in ns:
        jobs.append(CliJob(
            f"poly[{n}]", ("poly", "--n", str(n), "--shifted"),
            lambda out, n=n: ref.poly_is_power_sum(out, n),
        ))
    jobs.append(CliJob(
        "brute", ("seq", "--seq", "q", "--method", "brute", "--from", "0", "--to", str(top)),
        lambda out: out.splitlines() == want_brute,
    ))
    inputs = {"verify_max_n": max_n, "workers": workers, "poly_n": ns, "brute_to": top}
    return Workload(inputs, jobs, sum(counts.values()) + len(ns) + top + 1)


def build(name: str, seed: int, small: bool, workers: int) -> Workload:
    if name == "seq-window":
        return seq_window(seed, small)
    return exact_check(seed, small, workers)
