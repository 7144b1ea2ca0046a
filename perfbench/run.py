"""Benchmark of powersum-denoms, driven from outside the program.

    python3 perfbench/run.py --workload seq-window --seed 1 --seconds 55 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  One client runs the workload's CLI jobs (fresh child processes,
see workloads.py) in a closed loop, pass after pass for ``--seconds`` (a
pass starts only if it should end in time), and checks every output outside
the timed region.  The last line of stdout is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones; with
``--trace 1`` untraced and traced passes alternate and the metrics are the
per-layer ones from the spans of the traced passes (see tracer.py), plus
the tracing overhead.  ``--workload all`` runs every workload in turn.
A line starting with ``# run record:`` before the result records the
machine, the seed, the generated inputs and the unit of every metric.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median, median_low

import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
SETUP_PER_PASS = 3  # import timings before each untraced pass, spread over the run

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "items_per_s": "1/s",
    "first_output_s": "s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}

# Functions whose calls and self time are reported.
TIMED = (
    "padic.is_prime",
    "padic.digit_sum",
    "padic.lucas_binom_mod",
    "padic.marble_witness",
    "formulas.primes_upto",
    "formulas.q_n_formula",
    "formulas.q_n_epsilon",
    "formulas.q_n_via_psets",
    "bernoulli.extend_to",
    "bernoulli.bernoulli_poly",
    "bernoulli.almkvist_meurman_check",
    "bernoulli.bernoulli_poly_denominator_formula",
    "exact_poly.eval",
    "exact_poly.mul",
    "exact_poly.poly_denominator",
    "exact_poly.content_split",
    "powersum.d_n",
    "powersum.q_n_bruteforce",
    "powersum.faulhaber_form",
)

PER_LAYER = {
    **{f"{fn}.{kind}": unit for fn in TIMED for kind, unit in (("calls", "count"), ("self_s", "s"))},
    "padic.is_prime.per_digit_sum": "ratio",
    "padic.is_prime.self_share": "ratio",
    "formulas.primes_upto.max_limit": "count",
    "formulas.q_n_formula.hit_ratio": "ratio",
    "formulas.pset.calls": "count",
    "bernoulli.table_max_n": "count",
    "bernoulli.bernoulli_poly.uncached_calls": "count",
    "bernoulli.bernoulli_poly.hit_ratio": "ratio",
    "cli.main.self_s": "s",
    "cli.stdout_bytes": "bytes",
    "cli.pool_starts": "count",
    "cli.pool_wait_s": "s",
    **{f"{layer}.self_share": "ratio" for layer in tracer.LAYERS},
    "trace.overhead_ratio": "ratio",
}

MAX_COUNTERS = ("formulas.primes_upto.max_limit", "bernoulli.table_max_n")


@dataclass
class Child:
    """One finished child process, timed from spawn."""

    returncode: int
    stdout: bytes
    stderr: str
    seconds: float
    first_line_s: float
    maxrss_kb: int


class Spawner:
    """Runs children through spawner.py, started while this process is small
    so that each child's peak RSS is its own (see spawner.py)."""

    def __init__(self, workdir: str) -> None:
        self.stderr_path = os.path.join(workdir, "stderr")
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("spawner.py"))],
            cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def run(self, args: list[str], env: dict) -> Child:
        request = {"argv": [sys.executable, *args], "env": env, "stderr": self.stderr_path}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("the spawner process died")
        r = json.loads(reply)
        with open(self.stderr_path, errors="replace") as f:
            stderr = f.read()
        return Child(r["returncode"], r["stdout"].encode("latin-1"), stderr,
                     r["seconds"], r["first_line_s"], r["maxrss_kb"])

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()


def clean_exit(child: Child) -> bool:
    """A run counts as failed on a nonzero exit or any traceback."""
    return child.returncode == 0 and "Traceback (most recent call last)" not in child.stderr


@dataclass
class Pass:
    wall_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    first_s: dict = field(default_factory=dict)  # job key -> spawn to first line
    op_s: dict = field(default_factory=dict)  # job key -> spawn to exit
    rss_kb: int = 0
    stdout_bytes: int = 0
    calls: Counter = field(default_factory=Counter)
    self_s: Counter = field(default_factory=Counter)
    counters: Counter = field(default_factory=Counter)


def run_pass(wl: workloads.Workload, spawner: Spawner, env: dict, spans: str | None) -> Pass:
    """One pass over the workload's jobs; traced when ``spans`` names a dump file."""
    result = Pass()
    for job in wl.jobs:
        child = spawner.run(job.args(spans), env)
        result.wall_s += child.seconds
        result.op_s[job.key] = child.seconds
        result.first_s[job.key] = child.first_line_s
        result.rss_kb = max(result.rss_kb, child.maxrss_kb)
        result.stdout_bytes += len(child.stdout)
        result.attempted += 1
        if not (clean_exit(child) and job.output_ok(child.stdout.decode(errors="replace"))):
            result.failed += 1
            print(f"# FAILED {job.key}: exit {child.returncode} {child.stderr[-300:]!r}", file=sys.stderr)
        if spans is not None:
            if not os.path.exists(spans + ".json"):
                continue
            calls, self_s, counters = tracer.summarize(spans)
            result.calls.update(calls)
            result.self_s.update(self_s)
            for key, value in counters.items():
                if key in MAX_COUNTERS:
                    result.counters[key] = max(result.counters[key], value)
                else:
                    result.counters[key] += value
            for suffix in (".json", ".bin"):
                os.remove(spans + suffix)
    return result


def tail(values: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it; with ten
    samples or fewer, the highest with a quarter of them (rounded down)
    beyond it, since the maximum alone moves with one unlucky sample.
    Returns (value, percentile, number of samples)."""
    xs = sorted(values)
    beyond = 10 if len(xs) > 10 else len(xs) // 4
    i = len(xs) - 1 - beyond
    return xs[i], 100.0 * (i + 1) / len(xs), len(xs)


def best_of_passes(passes: list[Pass], attr: str) -> dict[str, float]:
    """The fastest time of each job over the run's passes.

    On a shared 2-vCPU VM the speed swings by a third from one second to the
    next (a fixed 0.15 s loop took 0.137-0.231 s), and the median of a few
    passes follows those swings; the best of k does not.
    """
    keys = getattr(passes[0], attr)
    return {k: min(getattr(p, attr)[k] for p in passes if k in getattr(p, attr)) for k in keys}


def best_wall(passes: list[Pass]) -> float:
    """One pass with every operation at its best over the run."""
    return sum(best_of_passes(passes, "op_s").values())


def end_to_end(wl: workloads.Workload, passes: list[Pass], setup: list[float]) -> tuple[dict, dict]:
    """End-to-end metrics: the best pass (see best_wall), and the median and
    tail over the workload's distinct operations, each at its best."""
    wall = best_wall(passes)
    ops = list(best_of_passes(passes, "op_s").values())
    tail_s, tail_pct, tail_n = tail(ops)
    metrics = {
        "setup_s": median(setup),
        "wall_s": wall,
        "items_per_s": wl.items / wall,
        "first_output_s": median(best_of_passes(passes, "first_s").values()),
        "op_p50_ms": median(ops) * 1e3,
        "op_tail_ms": tail_s * 1e3,
        "peak_rss_mb": median(p.rss_kb for p in passes) / 1024,
    }
    return metrics, {"percentile": tail_pct, "samples": tail_n, "best_of": len(passes)}


def ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def per_layer(p: Pass) -> dict:
    calls, self_s, c = p.calls, p.self_s, p.counters
    m = {}
    for fn in TIMED:
        m[f"{fn}.calls"] = calls[fn]
        m[f"{fn}.self_s"] = self_s[fn]
    total = sum(self_s.values())
    m["padic.is_prime.per_digit_sum"] = ratio(calls["padic.is_prime"], calls["padic.digit_sum"])
    m["padic.is_prime.self_share"] = ratio(self_s["padic.is_prime"], total)
    m["formulas.primes_upto.max_limit"] = c["formulas.primes_upto.max_limit"]
    m["formulas.q_n_formula.hit_ratio"] = ratio(c["formulas.q_n_formula.kept"], c["formulas.q_n_formula.tested"])
    m["formulas.pset.calls"] = calls["formulas.pset"]
    m["bernoulli.table_max_n"] = c["bernoulli.table_max_n"]
    m["bernoulli.bernoulli_poly.uncached_calls"] = c["bernoulli.bernoulli_poly.uncached_calls"]
    m["bernoulli.bernoulli_poly.hit_ratio"] = ratio(c["bernoulli.bernoulli_poly.hits"], calls["bernoulli.bernoulli_poly"])
    m["cli.main.self_s"] = self_s["cli.main"]
    m["cli.stdout_bytes"] = p.stdout_bytes
    m["cli.pool_starts"] = c["cli.pool_starts"]
    m["cli.pool_wait_s"] = self_s[tracer.POOL_SPAN]
    for layer in tracer.LAYERS:
        m[f"{layer}.self_share"] = ratio(
            sum(v for k, v in self_s.items() if k.startswith(layer + ".")), total
        )
    return m


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        target = ROOT / ".git" / ref[5:]
        return target.read_text().strip() if target.is_file() else ref[5:]
    return ref


def run_workload(name: str, seed: int, seconds: float, trace: bool, small: bool,
                 spawner: Spawner, workdir: str) -> dict:
    nproc = len(os.sched_getaffinity(0))
    wl = workloads.build(name, seed, small, workers=min(2, nproc))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONUNBUFFERED="1")

    def set_up() -> float:
        child = spawner.run(["-c", "import powersum_denoms"], env)
        if child.returncode != 0:
            raise RuntimeError(f"cannot import powersum_denoms: {child.stderr}")
        return child.seconds

    set_up()  # fills the bytecode caches
    setup, plain, traced = [], [], []
    # Another round starts only if it should end within the run's seconds,
    # so that a run lasts about ``seconds`` whatever the length of a pass.
    t0 = time.perf_counter()
    round_s = 0.0
    while not plain or time.perf_counter() - t0 + round_s <= seconds:
        t_round = time.perf_counter()
        if not trace:
            setup += [set_up() for _ in range(SETUP_PER_PASS)]
        plain.append(run_pass(wl, spawner, env, None))
        if trace:
            traced.append(run_pass(wl, spawner, env, os.path.join(workdir, "spans")))
        round_s = time.perf_counter() - t_round

    everything = plain + traced
    record = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "small": small,
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "nproc": nproc,
        "platform": platform.platform(),
        "machine": platform.machine(),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "seconds": seconds,
        "passes": len(plain),
        "pass_wall_s": [p.wall_s for p in plain],
        "setup_samples_s": setup,
        "traced_passes": len(traced),
        "inputs": wl.inputs,
        "jobs": [" ".join(job.cli) for job in wl.jobs],
        "attempted": sum(p.attempted for p in everything),
        "failed": sum(p.failed for p in everything),
    }
    record["fail_ratio"] = ratio(record["failed"], record["attempted"])
    if trace:
        layers = [per_layer(p) for p in traced]
        metrics = {k: median_low(m[k] for m in layers) for k in layers[0]}
        metrics["trace.overhead_ratio"] = best_wall(traced) / best_wall(plain) - 1
        units = PER_LAYER
    else:
        metrics, record["op_tail"] = end_to_end(wl, plain, setup)
        units = END_TO_END
    record["units"] = units
    record["metrics"] = metrics
    return record


def report(record: dict) -> None:
    print(f"== {record['workload']}  seed {record['seed']}  trace {record['trace']}  "
          f"passes {record['passes']}  fail_ratio {record['fail_ratio']:.6g} "
          f"({record['failed']} of {record['attempted']})")
    for key, value in record["metrics"].items():
        print(f"{key:48s} {value:>16.6g} {record['units'][key]}")
    if "op_tail" in record:
        t = record["op_tail"]
        print(f"op_tail_ms is the p{t['percentile']:.4g} of {t['samples']} operations")
    print("# run record: " + json.dumps(record))


def result_line(records: list[dict]) -> dict:
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    prefix = len(records) > 1
    metrics = {
        (f"{r['workload']}/{k}" if prefix else k): {"value": v, "unit": r["units"][k]}
        for r in records
        for k, v in r["metrics"].items()
    }
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*workloads.NAMES, "all"), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=55)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true", help="tiny inputs, for the self-tests")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "powersum_denoms" / "__init__.py").is_file():
        print(f"error: no program source at {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    spawner = Spawner(workdir)
    try:
        records = []
        for name in names:
            records.append(run_workload(
                name, args.seed, args.seconds, bool(args.trace), args.small, spawner, workdir
            ))
            report(records[-1])
    finally:
        spawner.close()
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result_line(records)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
