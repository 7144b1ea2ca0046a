import io
import json
import os
import random
import resource
import signal
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from math import prod
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from powersum_denoms import bernoulli, cli, formulas, padic
from powersum_denoms.checks import hermite as _suite_hermite
from powersum_denoms.cli import METHODS, SEQUENCES, SUITES, main
from powersum_denoms.commands import _poly_pieces
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


def _decade_windows():
    # One seeded window per decade from 10^2 to 10^9, shorter where a single
    # index costs more.
    rng = random.Random(20170511)
    for e in range(2, 10):
        start = rng.randrange(10**e, 10 ** (e + 1))
        yield start, start + (150 if e < 7 else 12)


@pytest.mark.parametrize("start, stop", list(_decade_windows()))
def test_seq_window_routes_match_single_indices(start, stop):
    ns = range(start, stop)
    qs = [formulas.q_n_formula(n).value for n in ns]
    assert list(cli.seq_values("q", "formula", ns)) == qs
    assert list(cli.seq_values("d", "formula", ns)) == [(n + 1) * q for n, q in zip(ns, qs)]
    assert list(cli.seq_values("Dpoly", "formula", ns)) == [
        formulas.bernoulli_poly_denominator_formula(n).value for n in ns
    ]


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
        scale, primitive = content_split(shifted + RationalPolynomial([0] * n + [-1]))
        expected = "".join(
            _poly_pieces(scale.denominator, [int(c) * scale.numerator for c in primitive.coeffs])
        )
        assert run(capsys, "poly", "--n", str(n)) == (0, expected, ""), f"n={n}"


class _WriteLog(io.StringIO):
    # A stdout that records each write it is given.
    def __init__(self):
        super().__init__()
        self.writes = []

    def write(self, s):
        self.writes.append(s)
        return super().write(s)


def test_poly_writes_one_term_at_a_time(monkeypatch):
    # No write carries more than one term and its separator, so the line is
    # never held whole; the pieces still make the exact line.
    n = 649
    form = faulhaber_form(n)
    terms = [f"{c}x^{i}" for i, c in enumerate(form.coeffs) if c]
    log = _WriteLog()
    monkeypatch.setattr(sys, "stdout", log)
    assert main(["poly", "--n", str(n), "--shifted"]) == 0
    assert log.getvalue() == "".join(_poly_pieces(form.denominator, form.coeffs))
    assert len(log.writes) == len(terms) + 2
    assert max(map(len, log.writes)) <= max(map(len, terms)) + len(" + ")


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


@pytest.mark.parametrize("p", ["4", "2", "9", "1", "-3"])
def test_witness_checks_p_before_the_search(capsys, monkeypatch, p):
    # At n = 10^12 the search for q_n takes seconds; a --p that is not an odd
    # prime is refused before it starts.
    def refused(n):
        raise AssertionError("witness searched q_n for a non-prime p")

    monkeypatch.setattr(formulas, "q_n_formula", refused)
    code, out, err = run(capsys, "witness", "--n", "1000000000000", "--p", p)
    assert (code, out, err) == (2, "", f"error: --p must be an odd prime, got {p}\n")


def _checkout_env() -> dict[str, str]:
    """The environment for a fresh interpreter that imports the package
    from this checkout."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return dict(os.environ, PYTHONPATH=path)


def _python(*args, timeout, **kwargs):
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        env=_checkout_env(),
        timeout=timeout,
        **kwargs,
    )


def test_witness_prime_beyond_bound_returns_at_once():
    # 2^89 - 1 is prime, far past the range of the Miller-Rabin bases, and far
    # above the sharp bound (n+2)/3 = 7/3 for n = 5.
    argv = ("witness", "--n", "5", "--p", str(2**89 - 1))
    proc = _python("-m", "powersum_denoms", *argv, timeout=20)
    assert proc.returncode == 2
    assert proc.stdout == b""
    assert proc.stderr == f"error: p is not a factor of q_n (n=5, p={2**89 - 1})\n".encode()


def test_base_checks_refuse_a_prime_beyond_bound_at_once():
    # 2^89 - 1 is a prime past the Miller-Rabin bound, which is_prime refuses,
    # and each public base check passes the refusal on.
    script = (
        "from powersum_denoms import digit_sum, fine_count, hermite_bachmann_holds\n"
        "for f in (digit_sum, fine_count, hermite_bachmann_holds):\n"
        "    try:\n"
        "        f(5, 2**89 - 1)\n"
        "    except ValueError as e:\n"
        "        print(e)\n"
    )
    proc = _python("-c", script, timeout=20)
    assert proc.returncode == 0, proc.stderr
    message = f"base too large to test for primality: {2**89 - 1}"
    assert proc.stdout.decode().splitlines() == [message] * 3


def test_unguarded_primality_callers_refuse_past_the_bound_at_once():
    # psi_13 is the Miller-Rabin bound, 2^89 - 1 a prime past it, and the
    # von Staudt-Clausen primes of psi_13 - 1 include psi_13 itself.
    psi_13 = 3317044064679887385961981
    script = (
        "from powersum_denoms.formulas import clausen_denominator, sharpness_witnesses\n"
        "from powersum_denoms.padic import is_prime\n"
        f"for f, x in ((is_prime, {psi_13}), (sharpness_witnesses, 2**89 - 1),\n"
        f"             (clausen_denominator, {psi_13 - 1})):\n"
        "    try:\n"
        "        f(x)\n"
        "    except ValueError as e:\n"
        "        print(e)\n"
    )
    proc = _python("-c", script, timeout=20)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.decode().splitlines() == [
        f"base too large to test for primality: {x}" for x in (psi_13, 2**89 - 1, psi_13)
    ]
    argv = ("seq", "--seq", "Dclausen", "--from", str(psi_13 - 1), "--to", str(psi_13 - 1))
    proc = _python("-m", "powersum_denoms", *argv, timeout=20)
    assert proc.returncode == 2
    assert proc.stdout == b""
    assert proc.stderr == f"error: base too large to test for primality: {psi_13}\n".encode()


def test_seq_dclausen_reads_divisors_off_a_factorisation():
    # The divisors of 10^20 are the 441 numbers 2^a * 5^b with a, b <= 20;
    # scanning every d <= 10^10 for them would take minutes.
    candidates = (2**a * 5**b + 1 for a in range(21) for b in range(21))
    expected = prod(p for p in candidates if padic.is_prime(p))
    argv = ("seq", "--seq", "Dclausen", "--from", str(10**20), "--to", str(10**20))
    proc = _python("-m", "powersum_denoms", *argv, timeout=20)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"{expected}\n".encode()


def _cap_address_space():
    # Runs in the child only: 512 MiB of address space, far below the sieve
    # that an index near 10^20 asks for.
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    resource.setrlimit(resource.RLIMIT_AS, (512 * 2**20, hard))


@pytest.mark.parametrize(
    "argv",
    [
        ("seq", "--from", "99999999999999999999", "--to", "100000000000000000000"),
        ("witness", "--n", "100000000000000000000", "--p", "3"),
        # Near 10^40 the sieve's size does not fit an index-sized integer.
        ("seq", "--from", str(10**40), "--to", str(10**40)),
        ("witness", "--n", str(10**40), "--p", "3"),
    ],
)
def test_out_of_memory_is_one_error_line(argv):
    proc = _python("-m", "powersum_denoms", *argv, timeout=60, preexec_fn=_cap_address_space)
    assert proc.returncode == 2
    assert proc.stdout == b""
    assert proc.stderr == b"error: out of memory: the index is too large\n"


def test_hermite_suite_tests_no_prime_again(monkeypatch):
    # The suite's bases are sieve primes, so it takes the unchecked congruence.
    calls = []
    real = padic.is_prime

    def counted(p):
        calls.append(p)
        return real(p)

    monkeypatch.setattr(padic, "is_prime", counted)
    monkeypatch.setattr(formulas, "is_prime", counted)
    assert list(_suite_hermite(60)) == [None] * (15 * 60)
    assert calls == []


def test_verify_derives_each_clausen_prime_set_once(monkeypatch):
    # The agreement suite's prime sets and the clausen suite read the
    # von Staudt-Clausen primes of each k from one cache, so formulas tests
    # each candidate p with p - 1 | k once per k, not once per (m, k).  Only
    # the calls through formulas' binding are counted.
    formulas._clausen_primes.cache_clear()
    calls = []
    real = formulas.is_prime

    def counted(p):
        calls.append(p)
        return real(p)

    monkeypatch.setattr(formulas, "is_prime", counted)
    with redirect_stdout(io.StringIO()):
        assert main(["verify", "--suite", "all", "--max-n", "60"]) == 0
    assert len(calls) <= 600


def test_verify_reports_the_first_five_failures(capsys, monkeypatch):
    # One process: the five-message cap and the failure count, in check order.
    monkeypatch.setattr(
        bernoulli, "_almkvist_meurman_row", lambda n, k, h_max: [h >= 0 for h in range(-h_max, h_max + 1)]
    )
    code, out, _ = run(capsys, "verify", "--suite", "almkvist", "--max-n", "1")
    assert code == 1
    assert out.splitlines() == [
        "almkvist: FAIL (200 of 420 checks)",
        *(f"  k^n (B_n(h/k) - B_n) not integral at n=0, h=-10, k={k}" for k in range(1, 6)),
        "  ... and 195 more",
    ]


def _str_past_the_digit_limit(x):
    # str(x) for x past CPython's 4,300-digit default, where there is a limit.
    if not hasattr(sys, "set_int_max_str_digits"):
        return str(x)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(x)
    finally:
        sys.set_int_max_str_digits(limit)


def test_seq_prints_values_past_4300_digits():
    argv = ("seq", "--from", "100000000", "--to", "100000000")
    proc = _python("-m", "powersum_denoms", *argv, timeout=60)
    expected = _str_past_the_digit_limit(formulas.q_n_formula(10**8).value)
    assert len(expected) > 4300
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, f"{expected}\n".encode(), b"")


@pytest.mark.parametrize(
    "argv",
    [
        ("seq", "--seq", "d", "--from", "100000000", "--to", "100000000"),
        ("seq", "--seq", "Dpoly", "--from", "100000000", "--to", "100000000"),
        ("witness", "--n", "100000000", "--p", "3"),
    ],
    ids=("d", "Dpoly", "witness"),
)
def test_commands_print_values_past_4300_digits(argv):
    proc = _python("-m", "powersum_denoms", *argv, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert len(proc.stdout) > 4300


@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-str digit limit"
)
def test_input_past_4300_digits_is_still_a_usage_error():
    proc = _python("-m", "powersum_denoms", "seq", "--to", "9" * 4301, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == b""
    assert b"invalid int value" in proc.stderr


def test_witness_near_the_miller_rabin_bound_ends_at_once():
    # p is a prime just above psi_13 and within the sharp bound, so is_prime
    # would refuse it.  q_n comes first, so its sieve, far beyond the capped
    # address space, ends the run before p is tested.
    argv = ("witness", "--n", str(10**25), "--p", "3317044064679887385962123")
    proc = _python("-m", "powersum_denoms", *argv, timeout=20, preexec_fn=_cap_address_space)
    assert proc.returncode == 2
    assert proc.stdout == b""
    assert proc.stderr == b"error: out of memory: the index is too large\n"


def test_commands_load_only_the_layers_they_use():
    # The package import loads no submodule.  The argv of every benchmark
    # job (the q and Dpoly b-file windows, poly --n N --shifted, verify
    # --suite all --max-n 60 --workers 2 and seq --method brute) is parsed
    # without argparse, which only help and usage errors load.  seq by
    # formula reads the search in the prime layer _primes: near 10^4 it
    # loads nothing else, and near 10^6, where candidates pass the search's
    # sieve, padic for its primality test.  The brute routes add the
    # Bernoulli and power-sum layers but no digit-sum layer, which Dclausen
    # loads, and witness adds the handlers (a poly run alone loads neither
    # digit-sum layer, as the next test checks).  Only verify loads the
    # suites in checks.  No command loads fractions or the polynomial oracle
    # in exact_poly: only the Fraction views such as shifted_power_sum_poly
    # do.  No run loads dataclasses.
    script = (
        "import sys\n"
        "import powersum_denoms\n"
        "heavy = {'argparse', 'fractions', 'dataclasses'}\n"
        "def report():\n"
        "    names = {m[16:] for m in sys.modules if m.startswith('powersum_denoms.')}\n"
        "    print(sorted(names | (heavy & set(sys.modules))), file=sys.stderr)\n"
        "report()\n"
        "from powersum_denoms import cli\n"
        "cli.main(['seq', '--seq', 'q', '--to', '5'])\n"
        "cli.main(['seq', '--seq', 'q', '--format', 'bfile', '--from', '9000', '--to', '9249'])\n"
        "cli.main(['seq', '--seq', 'd', '--from', '9000', '--to', '9009'])\n"
        "cli.main(['seq', '--seq', 'Dpoly', '--format', 'bfile', '--from', '9000', '--to', '9124'])\n"
        "cli.main(['seq', '--seq', 'Dpoly', '--from', '1', '--to', '12'])\n"
        "report()\n"
        "cli.main(['seq', '--seq', 'q', '--format', 'bfile', '--from', '1000000', '--to', '1000009'])\n"
        "report()\n"
        "cli.main(['seq', '--seq', 'q', '--method', 'brute', '--from', '0', '--to', '20'])\n"
        "cli.main(['seq', '--seq', 'd', '--method', 'brute', '--from', '0', '--to', '20'])\n"
        "report()\n"
        "cli.main(['seq', '--seq', 'Dclausen', '--from', '2', '--to', '10'])\n"
        "report()\n"
        "cli.main(['witness', '--n', '20', '--p', '11'])\n"
        "cli.main(['poly', '--n', '4', '--shifted'])\n"
        "cli.main(['bench', '--max-n', '5'])\n"
        "report()\n"
        "cli.main(['verify', '--suite', 'hermite', '--max-n', '5'])\n"
        "cli.main(['verify', '--suite', 'all', '--max-n', '60', '--workers', '2'])\n"
        "report()\n"
        "from powersum_denoms import powersum\n"
        "powersum.shifted_power_sum_poly(3)\n"
        "report()\n"
        "import contextlib, io\n"
        "usage = io.StringIO()\n"
        "try:\n"
        "    with contextlib.redirect_stderr(usage):\n"
        "        cli.main(['seq', '--to'])\n"
        "except SystemExit as exc:\n"
        "    print(exc.code, usage.getvalue().split(' [')[0], file=sys.stderr)\n"
        "report()\n"
    )
    proc = _python("-c", script, timeout=60)
    assert proc.returncode == 0, proc.stderr
    searched = ["_primes", "cli"]
    tested = ["_primes", "_record", "cli", "padic"]
    brute = ["_primes", "_record", "bernoulli", "cli", "padic", "powersum"]
    digits = ["_primes", "_record", "bernoulli", "cli", "formulas", "padic", "powersum"]
    handlers = ["_primes", "_record", "bernoulli", "cli", "commands", "formulas", "padic",
                "powersum"]
    suites = ["_primes", "_record", "bernoulli", "checks", "cli", "commands", "formulas",
              "padic", "powersum"]
    views = ["_primes", "_record", "bernoulli", "checks", "cli", "commands", "exact_poly",
             "formulas", "fractions", "padic", "powersum"]
    assert proc.stderr.decode().splitlines() == [
        "[]",
        str(searched),
        str(tested),
        str(brute),
        str(digits),
        str(handlers),
        str(suites),
        str(views),
        "2 usage: powersum-denoms seq",
        str(sorted(["argparse", *views])),
    ]


@pytest.mark.parametrize(
    "argv, loaded",
    [
        (
            ["seq", "--seq", "q", "--format", "bfile", "--from", "9750", "--to", "9999"],
            ("_primes", "cli"),
        ),
        (["seq", "--seq", "d", "--from", "9750", "--to", "9999"], ("_primes", "cli")),
        (
            ["seq", "--seq", "Dpoly", "--format", "bfile", "--from", "9875", "--to", "9999"],
            ("_primes", "cli"),
        ),
        (
            ["seq", "--seq", "Dpoly", "--format", "bfile", "--from", "1000000", "--to", "1000009"],
            ("_primes", "_record", "cli", "padic"),
        ),
        (
            ["seq", "--seq", "q", "--method", "brute", "--from", "0", "--to", "200"],
            ("_primes", "_record", "bernoulli", "cli", "powersum"),
        ),
        (
            ["seq", "--seq", "Dclausen", "--from", "2", "--to", "10"],
            ("_primes", "_record", "cli", "formulas", "padic"),
        ),
        (
            ["verify", "--suite", "all", "--max-n", "60", "--workers", "2"],
            ("_primes", "_record", "bernoulli", "checks", "cli", "formulas", "padic", "powersum"),
        ),
        (["poly", "--n", "644", "--shifted"], ("_record", "bernoulli", "cli", "commands",
                                                "powersum")),
        (
            ["witness", "--n", "20", "--p", "11"],
            ("_primes", "_record", "cli", "commands", "formulas", "padic"),
        ),
        (
            ["bench", "--max-n", "5"],
            ("_primes", "_record", "bernoulli", "cli", "commands", "formulas", "padic",
             "powersum"),
        ),
    ],
    ids=("q-window", "d-window", "Dpoly-window", "Dpoly-10^6", "brute", "Dclausen", "verify",
         "poly", "witness", "bench"),
)
def test_each_command_loads_only_its_own_handler_module(argv, loaded):
    # Each run in a fresh interpreter, which lists every submodule it
    # loaded.  verify's handler sits beside its suites in checks, and the
    # other handlers in commands: a run loads the one module its command
    # needs, and a table-parsed argv loads no argparse.  A window by formula
    # near 10^4 loads the search's module _primes and nothing more: no
    # record type, and no primality test, since its sieve decides every
    # candidate.  Near 10^6 candidates pass the sieve and padic tests them.
    # The brute route loads neither digit-sum layer, and poly neither
    # _primes nor a digit-sum layer.
    script = (
        "import sys\n"
        "from powersum_denoms import cli\n"
        f"cli.main({argv!r})\n"
        "names = {m[16:] for m in sys.modules if m.startswith('powersum_denoms.')}\n"
        "print(sorted(names | ({'argparse'} & set(sys.modules))), file=sys.stderr)\n"
    )
    proc = _python("-c", script, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.decode().splitlines() == [str(list(loaded))]


@pytest.mark.parametrize(
    "argv, handlers",
    [
        (("poly", "--n", "4", "--shifted"), "powersum_denoms.commands"),
        (("verify", "--suite", "hermite", "--max-n", "5"), "powersum_denoms.checks"),
    ],
    ids=("poly", "verify"),
)
def test_importtime_logs_the_layers_loaded_on_first_use(argv, handlers):
    # cli loads a command's handler module when it dispatches the command;
    # python -X importtime logs it, as it does every import statement.
    proc = _python("-X", "importtime", "-m", "powersum_denoms", *argv, timeout=60)
    assert proc.returncode == 0, proc.stderr
    logged = {line.rsplit("|", 1)[-1].strip() for line in proc.stderr.decode().splitlines()}
    assert handlers in logged


def test_cli_loads_process_pool_only_when_a_pool_starts():
    # No command starts a pool: importing the CLI, a verify with --workers 2
    # and a bench leave the process machinery (about 20 ms of imports)
    # unloaded.
    script = (
        "import sys\n"
        "from powersum_denoms import cli\n"
        "names = {'multiprocessing', 'concurrent.futures.process'}\n"
        "print(sorted(names & set(sys.modules)))\n"
        "cli.main(['verify', '--suite', 'agreement', '--max-n', '20', '--workers', '2'])\n"
        "cli.main(['bench', '--max-n', '20', '--method', 'formula'])\n"
        "print(sorted(names & set(sys.modules)))\n"
        "print(cli.ProcessPoolExecutor.__module__)\n"
    )
    proc = _python("-c", script, timeout=60)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.decode().splitlines()
    assert lines[0] == lines[-2] == "[]"
    assert lines[-1] == "concurrent.futures.process"


# perfbench's span tracer wraps ``BernoulliTable.extend_to`` and the
# ``RationalPolynomial`` methods ``eval``, ``__mul__`` and ``__add__``, reads
# ``bernoulli._shared_poly.cache_info`` and rebinds ``cli.ProcessPoolExecutor``
# to count pool starts, of which there are none: no command starts a pool.
# Renaming or dropping one breaks traced benchmark runs.
_TRACER = str(Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py")


@pytest.mark.parametrize(
    "argv, expected",
    [
        (
            ("verify", "--suite", "agreement", "--max-n", "5", "--workers", "2"),
            b"agreement: PASS (6 checks)\n",
        ),
        (("seq", "--seq", "q", "--to", "5"), b"1\n1\n2\n1\n6\n2\n"),
        (("poly", "--n", "4", "--shifted"), b"1/30 * (6x^5 + 15x^4 + 10x^3 - x)\n"),
    ],
    ids=("verify", "seq", "poly"),
)
def test_tracer_runs_the_cli(tmp_path, argv, expected):
    proc = _python(_TRACER, "--spans", str(tmp_path / "s"), *argv, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, expected, b"")


def test_tracer_counts_the_pool_it_rebinds(tmp_path):
    # --workers 2 is accepted and starts no pool.
    argv = ("verify", "--suite", "agreement", "--max-n", "5", "--workers", "2")
    proc = _python(_TRACER, "--spans", str(tmp_path / "s"), *argv, timeout=60)
    assert proc.returncode == 0, proc.stderr
    counters = json.loads((tmp_path / "s.json").read_text())["counters"]
    assert counters.get("cli.pool_starts", 0) == 0


def test_tracer_reads_the_bernoulli_cache_statistics():
    # The tracer skips its cache-hit counter quietly when the cache is gone.
    assert callable(bernoulli._shared_poly.cache_info)


def test_brute_seq_keeps_one_bernoulli_polynomial(capsys):
    # Each reader of the B_n(x) cache reuses only the n it just read, so a
    # streamed brute run holds one polynomial, not every one it built.
    code, _, _ = run(capsys, "seq", "--method", "brute", "--to", "50")
    assert code == 0
    assert bernoulli._shared_poly.cache_info().currsize == 1


def test_verify_workers_reports_failures_in_index_order(capsys, monkeypatch):
    psets = cli.Q_ROUTES["psets"]
    monkeypatch.setitem(cli.Q_ROUTES, "psets", lambda n: psets(n) + (n in (3, 6)))
    code, out, _ = run(
        capsys, "verify", "--suite", "agreement", "--max-n", "8", "--workers", "2"
    )
    assert code == 1
    assert out.splitlines() == [
        "agreement: FAIL (2 of 9 checks)",
        "  q_3: formula/epsilon/psets/brute disagree: (1, 1, 2, 1)",
        "  q_6: formula/epsilon/psets/brute disagree: (6, 6, 7, 6)",
    ]


def test_bench_reports_disagreeing_routes(capsys, monkeypatch):
    psets = cli.Q_ROUTES["psets"]
    monkeypatch.setitem(cli.Q_ROUTES, "psets", lambda n: psets(n) + (n == 8))
    code, out, err = run(capsys, "bench", "--max-n", "8")
    assert code == 1
    assert out == ""
    assert err == (
        "verification failure: method 'psets' disagrees with 'formula' over n = 0..8\n"
    )


def test_verify_witnesses_reports_both_kinds_of_failure(capsys, monkeypatch):
    def no_witness(m, p):
        raise ValueError("no witness")

    def not_sharp(p):
        raise ArithmeticError("not sharp")

    monkeypatch.setattr(padic, "marble_witness", no_witness)
    monkeypatch.setattr(formulas, "sharpness_witnesses", not_sharp)
    code, out, _ = run(capsys, "verify", "--suite", "witnesses", "--max-n", "8")
    assert code == 1
    assert out.splitlines() == [
        "witnesses: FAIL (5 of 5 checks)",
        "  witness failed at n=4, p=3: no witness",
        "  witness failed at n=6, p=3: no witness",
        "  witness failed at n=7, p=3: no witness",
        "  witness failed at n=8, p=5: no witness",
        "  sharpness failed at p=3: not sharp",
    ]


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


def _seq_to(end: int) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, "-m", "powersum_denoms", "seq", "--to", str(end)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=_checkout_env(),
    )


def test_seq_closed_pipe_exits_quietly():
    # Far more output than a pipe buffers, so the writer meets the closed pipe.
    proc = _seq_to(20000)
    assert proc.stdout.readline() == b"1\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 0
    assert err == b""


@pytest.mark.parametrize(
    ("seq", "start", "head"),
    [("q", "0", b"1\n1\n2\n1\n6\n"), ("Dpoly", "1", b"2\n6\n2\n30\n6\n")],
    ids=("q", "Dpoly"),
)
def test_seq_wide_range_streams_in_a_small_sieve(seq, start, head):
    # A range to 10^18 prints its first values at once, as `seq ... | head`
    # reads them, in 512 MiB of address space: its search sieves for the
    # indices it has reached, not the 10^9 that its stop would take.
    proc = subprocess.Popen(
        [sys.executable, "-m", "powersum_denoms", "seq", "--seq", seq,
         "--from", start, "--to", str(10**18)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=_checkout_env(),
        preexec_fn=_cap_address_space,
    )
    try:
        assert b"".join(proc.stdout.readline() for _ in range(5)) == head
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 0
    finally:
        proc.kill()
        proc.wait()
    assert err == b""


def test_poly_closed_pipe_exits_quietly():
    # One line longer than a pipe buffers, written a term at a time, so the
    # writer meets the closed pipe in the middle of the line.
    proc = subprocess.Popen(
        [sys.executable, "-m", "powersum_denoms", "poly", "--n", "700"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=_checkout_env(),
    )
    assert proc.stdout.read(2) == b"1/"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 0
    assert err == b""


def test_seq_interrupt_exits_quietly():
    # A run far too long to finish; it is running once its first line is out.
    proc = _seq_to(100_000_000)
    assert proc.stdout.readline() == b"1\n"
    proc.send_signal(signal.SIGINT)
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 130
    assert b"Traceback" not in err
    assert err == b""


def test_verify_interrupt_sent_to_the_process_alone_exits_at_once():
    # SIGINT to this one process, not its group (``kill -INT <pid>``): a run
    # that takes far longer than the wait ends quietly with 130.
    proc = subprocess.Popen(
        [sys.executable, "-m", "powersum_denoms", "verify", "--suite", "agreement",
         "--max-n", "1500", "--workers", "2"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=_checkout_env(),
    )
    try:
        time.sleep(2)
        proc.send_signal(signal.SIGINT)
        _, err = proc.communicate(timeout=15)
    finally:
        proc.kill()
        proc.wait()
    assert (proc.returncode, err) == (130, b"")


def test_bench_all_methods_default(capsys):
    code, out, _ = run(capsys, "bench", "--max-n", "15")
    assert code == 0
    assert len(out.splitlines()) == 5  # banner + four methods


# The CLI grammar, with values a little past every bound.  Integers stay
# small; half of them are at or below zero, where the bound checks sit.
# --workers has no effect but its bound check, so a huge one is harmless.
_INT = st.one_of(st.integers(-3, 0), st.integers(1, 25)).map(str)
_WORKERS = st.sampled_from(("-1", "0", "1", "2", "1000000"))
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


def _argparse_parse(argv):
    # argparse's namespace for argv, or None where it prints help or a usage
    # error and exits.
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        try:
            return cli.build_parser().parse_args(argv)
        except SystemExit:
            return None


@settings(max_examples=150, deadline=None)
@given(_argv())
def test_table_parse_matches_argparse_on_the_grammar(argv):
    # Exact flags with plain values: the table parse takes every argv that
    # argparse takes, with the same namespace and handler, and no other.
    fast, slow = cli._parse(argv), _argparse_parse(argv)
    assert (fast is None) == (slow is None), argv
    if fast is not None:
        assert vars(fast) == vars(slow), argv


_FLAGS = sorted({flag for _, _, options in cli.COMMANDS.values() for flag in options})
_CHOICES = sorted({
    choice
    for _, _, options in cli.COMMANDS.values()
    for option in options.values()
    for choice in option.get("choices", ())
})
_WORDS = st.one_of(
    st.integers(-30, 30).map(str),
    st.sampled_from((
        "-", "1.5", "ten", "1_000", "9" * 4301, "", "-0", " 7", "+3", "-1_0",
        "json", "nope", *_CHOICES,
    )),
    st.sampled_from((*_FLAGS, "--fr", "--to=3", "-h", "--help", "--", "-t")),
)


@st.composite
def _noisy_argv(draw):
    # A command (or not), some of its flags with any value, then other
    # commands' flags, abbreviations, help, "--" and stray values anywhere.
    command = draw(st.sampled_from((*cli.COMMANDS, "nope", "-h", "")))
    argv = [command]
    for flag, option in cli.COMMANDS.get(command, (None, None, {}))[2].items():
        if option.get("required") or draw(st.booleans()):
            argv.append(flag)
            if option.get("action") != "store_true":
                argv.append(draw(_WORDS))
    for word in draw(st.lists(_WORDS, max_size=3)):
        argv.insert(draw(st.integers(1, len(argv))), word)
    return argv


@settings(max_examples=400, deadline=None)
@given(_noisy_argv())
def test_table_parse_is_argparse_or_none(argv):
    # Whatever the argv, the table parse either declines it or returns
    # exactly argparse's namespace, handler included.
    fast = cli._parse(argv)
    if fast is not None:
        slow = _argparse_parse(argv)
        assert slow is not None and vars(fast) == vars(slow), argv

