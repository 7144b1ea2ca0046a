"""Self-tests of the benchmark: metric coverage, the output checks, the span
arithmetic and the reference values.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import reference as ref  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.NAMES)
def test_small_run_emits_every_metric_with_its_unit(workload, trace):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "5",
         "--seconds", "0", "--trace", str(trace), "--small"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    spec = _spec()["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_benchmark_json_matches_the_metric_tables():
    spec = _spec()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_missing_program_exits_nonzero_without_a_result(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for f in BENCH.glob("*.py"):
        (bench / f.name).write_text(f.read_text())
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "exact-check", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout == ""


class FakeSpawner:
    def __init__(self, children):
        self.children = iter(children)

    def run(self, args, env):
        return next(self.children)


def test_pass_counts_wrong_values_bad_exits_and_tracebacks_as_failures():
    job = workloads.CliJob("q", ("seq",), workloads._bfile_check({10: 6}))
    wl = workloads.Workload({}, [job] * 4, 4)
    children = [
        run.Child(0, b"10 6\n", "", 0.1, 0.1, 1000),
        run.Child(0, b"10 7\n", "", 0.1, 0.1, 1000),
        run.Child(1, b"10 6\n", "", 0.1, 0.1, 1000),
        run.Child(0, b"10 6\n", "Traceback (most recent call last):\n  ...", 0.1, 0.1, 1000),
    ]
    result = run.run_pass(wl, FakeSpawner(children), {}, None)
    assert (result.attempted, result.failed) == (4, 3)


def test_bfile_check_rejects_wrong_or_missing_values():
    job = workloads.CliJob("q", ("seq",), workloads._bfile_check({10: 6, 11: 2}))
    assert job.output_ok("10 6\n11 2\n")
    assert not job.output_ok("10 6\n11 3\n")
    assert not job.output_ok("10 6\n")


def test_verify_check_rejects_a_wrong_count():
    wl = workloads.exact_check(seed=1, small=True, workers=1)
    verify = wl.jobs[0]
    right = "\n".join(f"{k}: PASS ({v} checks)" for k, v in workloads.verify_counts(12).items())
    assert verify.output_ok(right)
    assert not verify.output_ok(right.replace("(13 checks)", "(12 checks)"))
    assert not wl.jobs[1].output_ok("1/2 * (x^2 + + x)")


def test_verify_counts_follow_the_suite_definitions():
    assert workloads.verify_counts(60) == {
        "agreement": 61, "clausen": 30, "hermite": 900,
        "bounds": 1235, "witnesses": 135, "almkvist": 12810,
    }


def test_poly_check_uses_literal_power_sums():
    assert ref.poly_is_power_sum("1/12 * (2x^6 + 6x^5 + 5x^4 - x^2)", 5)
    assert not ref.poly_is_power_sum("1/12 * (2x^6 + 6x^5 + 5x^4 + x^2)", 5)
    assert ref.poly_is_power_sum("1/2 * (x^2 + x)", 1)
    with pytest.raises(ValueError):
        ref.parse_poly("1/2 * (x^2 + + x)")


def test_reference_sequences_match_known_values():
    primes = ref.sieve(50)
    # q_n for n = 0..11 and the denominators of B_1(x)..B_8(x) (OEIS A195441).
    assert [ref.q_value(n, primes) for n in range(12)] == [1, 1, 2, 1, 6, 2, 6, 3, 10, 2, 6, 2]
    assert [ref.dpoly_value(n, primes) for n in range(1, 9)] == [2, 6, 2, 30, 6, 42, 6, 30]


def test_self_time_subtracts_direct_children(tmp_path):
    t = tracer.Tracer()
    outer, inner = t.name_id("a.outer"), t.name_id("b.inner")
    i = t.begin(outer)
    j = t.begin(inner)
    t.end(j)
    k = t.begin(inner)
    t.end(k)
    t.end(i)
    t.starts[i], t.ends[i] = 0.0, 10.0
    t.starts[j], t.ends[j] = 1.0, 3.0
    t.starts[k], t.ends[k] = 4.0, 5.0
    t.dump(str(tmp_path / "spans"))
    calls, self_s, _ = tracer.summarize(str(tmp_path / "spans"))
    assert calls == {"a.outer": 1, "b.inner": 2}
    assert self_s["a.outer"] == pytest.approx(7.0)
    assert self_s["b.inner"] == pytest.approx(3.0)


def test_tail_keeps_ten_samples_beyond():
    value, pct, n = run.tail([float(i) for i in range(1, 31)])
    assert (value, n) == (20.0, 30)
    assert pct == pytest.approx(100 * 20 / 30)
    assert run.tail([float(i) for i in range(8, 0, -1)]) == (6.0, 75.0, 8)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)
