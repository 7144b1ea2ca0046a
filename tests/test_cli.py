import io
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from powersum_denoms.cli import METHODS, SEQUENCES, SUITES, _format_poly, _worker_spans, main
from powersum_denoms.exact_poly import RationalPolynomial, content_split
from powersum_denoms.powersum import faulhaber_form, power_sum_oracle

Q_SEQ = [1, 1, 2, 1, 6, 2, 6, 3, 10, 2, 6, 2, 210, 30, 6, 3, 30, 10, 210, 42, 330]
D_SEQ = [1, 2, 6, 4, 30, 12, 42, 24, 90, 20, 66, 24, 2730, 420, 90, 48, 510]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_seq_q_plain(capsys):
    code, out, _ = run(capsys, "seq", "--seq", "q", "--from", "0", "--to", "20")
    assert code == 0
    assert [int(line) for line in out.splitlines()] == Q_SEQ


def test_seq_d_brute(capsys):
    code, out, _ = run(
        capsys, "seq", "--seq", "d", "--from", "0", "--to", "16", "--method", "brute"
    )
    assert code == 0
    assert [int(line) for line in out.splitlines()] == D_SEQ


def test_seq_all_methods_agree(capsys):
    outputs = set()
    for method in ("formula", "epsilon", "psets", "brute"):
        code, out, _ = run(
            capsys, "seq", "--seq", "q", "--from", "0", "--to", "40", "--method", method
        )
        assert code == 0
        outputs.add(out)
    assert len(outputs) == 1


def test_seq_dpoly(capsys):
    code, out, _ = run(capsys, "seq", "--seq", "Dpoly", "--from", "1", "--to", "12")
    assert code == 0
    values = [int(line) for line in out.splitlines()]
    assert values == [2, 6, 2, 30, 6, 42, 6, 30, 10, 66, 6, 2730]


def test_seq_dclausen(capsys):
    code, out, _ = run(capsys, "seq", "--seq", "Dclausen", "--from", "2", "--to", "12")
    assert code == 0
    assert [int(line) for line in out.splitlines()] == [6, 30, 42, 30, 66, 2730]


def test_seq_csv(capsys):
    code, out, _ = run(
        capsys,
        "seq", "--seq", "q", "--from", "19", "--to", "20", "--format", "csv",
    )
    assert code == 0
    assert out.splitlines() == ["n,value,method", "19,42,formula", "20,330,formula"]


def test_seq_bfile_round_trip(capsys):
    code, out, _ = run(
        capsys,
        "seq", "--seq", "d", "--from", "0", "--to", "16", "--format", "bfile",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "0 1"
    assert [tuple(map(int, line.split())) for line in lines] == list(enumerate(D_SEQ))


def test_seq_deterministic(capsys):
    args = ("seq", "--seq", "q", "--from", "0", "--to", "30", "--format", "csv")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


def test_seq_usage_errors(capsys):
    code, _, err = run(capsys, "seq", "--seq", "q", "--from", "5", "--to", "2")
    assert code == 2 and "error" in err
    code, _, err = run(capsys, "seq", "--seq", "Dclausen", "--from", "3", "--to", "9")
    assert code == 2
    code, _, err = run(capsys, "seq", "--seq", "Dpoly", "--from", "0", "--to", "4")
    assert code == 2
    code, _, err = run(
        capsys, "seq", "--seq", "Dpoly", "--from", "1", "--to", "4", "--method", "epsilon"
    )
    assert code == 2 and "not available" in err


def test_poly_rendering(capsys):
    code, out, _ = run(capsys, "poly", "--n", "5", "--shifted")
    assert code == 0
    assert out.strip() == "1/12 * (2x^6 + 6x^5 + 5x^4 - x^2)"

    code, out, _ = run(capsys, "poly", "--n", "0", "--shifted")
    assert code == 0
    assert out.strip() == "x"

    code, out, _ = run(capsys, "poly", "--n", "3", "--shifted")
    assert code == 0
    assert out.strip() == "1/4 * (x^4 + 2x^3 + x^2)"

    code, out, _ = run(capsys, "poly", "--n", "2")
    assert code == 0
    assert out.strip() == "1/6 * (2x^3 - 3x^2 + x)"


def test_faulhaber_form_and_poly_match_interpolation_oracle(capsys):
    # Both forms over their least common denominator, taken from Lagrange
    # interpolation of the literal sums instead of the Bernoulli cache.
    for n in range(1, 61):
        shifted = power_sum_oracle(n)
        scale, primitive = content_split(shifted)
        form = faulhaber_form(n)
        assert scale.numerator == 1
        assert (form.denominator, form.coeffs) == (scale.denominator, primitive.coeffs)
        scale, primitive = content_split(shifted - RationalPolynomial.monomial(n))
        expected = _format_poly(
            scale.denominator, [int(c) * scale.numerator for c in primitive.coeffs]
        )
        assert run(capsys, "poly", "--n", str(n)) == (0, expected + "\n", ""), f"n={n}"


def test_poly_unshifted_needs_positive_n(capsys):
    code, _, err = run(capsys, "poly", "--n", "0")
    assert code == 2
    assert "unshifted" in err


def test_witness_output(capsys):
    code, out, _ = run(capsys, "witness", "--n", "20", "--p", "11")
    assert code == 0
    assert "j = 1, b = j*(p-1) = 10" in out
    assert "mod 11 = 1" in out

    code, out, _ = run(capsys, "witness", "--n", "12", "--p", "3")
    assert code == 0
    assert "j = 2" in out
    assert "mod 3 = " in out and "mod 3 = 0" not in out


def test_witness_errors(capsys):
    code, _, err = run(capsys, "witness", "--n", "19", "--p", "5")
    assert code == 2
    assert "p is not a factor of q_n" in err

    code, _, err = run(capsys, "witness", "--n", "20", "--p", "4")
    assert code == 2
    code, _, err = run(capsys, "witness", "--n", "20", "--p", "2")
    assert code == 2


def _run_module(*argv, timeout):
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, "-m", "powersum_denoms", *argv],
        capture_output=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=timeout,
    )


def test_witness_prime_beyond_bound_returns_at_once():
    # 2^89 - 1 is prime, far past the range of the Miller-Rabin bases, and far
    # above the sharp bound (n+2)/3 = 7/3 for n = 5.
    proc = _run_module("witness", "--n", "5", "--p", str(2**89 - 1), timeout=20)
    assert proc.returncode == 2
    assert proc.stdout == b""
    assert proc.stderr == f"error: p is not a factor of q_n (n=5, p={2**89 - 1})\n".encode()


def test_worker_spans_are_capped(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    assert _worker_spans(0, 61, 1) == [(0, 61)]
    assert _worker_spans(0, 61, 2) == [(0, 31), (31, 61)]
    assert len(_worker_spans(0, 61, 10**9)) == 4
    assert _worker_spans(0, 3, 10**9) == [(0, 1), (1, 2), (2, 3)]
    assert _worker_spans(7, 8, 16) == [(7, 8)]
    assert _worker_spans(0, 10, 3) == [(0, 4), (4, 8), (8, 10)]
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert _worker_spans(0, 61, 8) == [(0, 61)]


def test_verify_single_suite(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "agreement", "--max-n", "60")
    assert code == 0
    assert out.startswith("agreement: PASS")


def test_verify_all(capsys):
    code, out, _ = run(capsys, "verify", "--max-n", "25")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 6
    assert all("PASS" in line for line in lines)


def test_verify_workers(capsys):
    code, out, _ = run(
        capsys, "verify", "--suite", "agreement", "--max-n", "50", "--workers", "2"
    )
    assert code == 0
    assert "PASS" in out


def test_verify_unknown_suite():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "nonsense"])
    assert exc.value.code == 2


def test_bench_plain(capsys):
    code, out, _ = run(
        capsys,
        "bench", "--max-n", "25", "--method", "formula", "--method", "brute",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "values agree across methods for n = 0..25"
    assert len(lines) == 3
    assert "formula" in lines[1] and "ms" in lines[1]


def test_bench_csv(capsys):
    code, out, _ = run(
        capsys, "bench", "--max-n", "10", "--method", "formula", "--format", "csv"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "method,min_ms"
    assert lines[1].startswith("formula,")


def test_bench_spot(capsys):
    code, out, _ = run(
        capsys, "bench", "--spot", "5000", "--method", "formula", "--method", "epsilon"
    )
    assert code == 0
    assert "n = 5000" in out


def test_bench_negative_spot_is_usage_error(capsys):
    code, out, err = run(capsys, "bench", "--spot", "-3")
    assert code == 2
    assert out == "" and err == "error: --spot must be nonnegative, got -3\n"


def test_seq_closed_pipe_exits_quietly():
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, PYTHONPATH=path)
    # Far more output than a pipe buffers, so the writer meets the closed pipe.
    proc = subprocess.Popen(
        [sys.executable, "-m", "powersum_denoms", "seq", "--to", "20000"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    assert proc.stdout.readline() == b"1\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 0
    assert err == b""


def test_bench_all_methods_default(capsys):
    code, out, _ = run(capsys, "bench", "--max-n", "15")
    assert code == 0
    assert len(out.splitlines()) == 5  # banner + four methods


# The CLI grammar, with values a little past every bound.  Integers stay
# small and --workers below 2, so no example starts a process pool; half the
# integers are at or below zero, where the bound checks sit.
_INT = st.one_of(st.integers(-3, 0), st.integers(1, 25)).map(str)
_WORKERS = st.sampled_from(("-1", "0", "1"))
_REQUIRED = {"--to", "--n", "--p"}
_GRAMMAR = {
    "seq": {
        "--seq": st.sampled_from(SEQUENCES),
        "--from": _INT,
        "--to": _INT,
        "--format": st.sampled_from(("plain", "csv", "bfile")),
        "--method": st.sampled_from(METHODS),
    },
    "poly": {"--n": _INT, "--shifted": None},
    "verify": {
        "--suite": st.sampled_from((*SUITES, "all")),
        "--max-n": _INT,
        "--workers": _WORKERS,
    },
    "witness": {"--n": _INT, "--p": _INT},
    "bench": {
        "--max-n": _INT,
        "--method": st.sampled_from(METHODS),
        "--spot": _INT,
        "--format": st.sampled_from(("plain", "csv", "bfile")),
        "--workers": _WORKERS,
    },
}


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(sorted(_GRAMMAR)))
    argv = [command]
    for flag, value in _GRAMMAR[command].items():
        if flag in _REQUIRED or draw(st.booleans()):
            argv += [flag] if value is None else [flag, draw(value)]
    return argv


@settings(max_examples=150, deadline=None)
@given(_argv())
def test_cli_exits_0_1_or_2_without_a_traceback(argv):
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2), argv
