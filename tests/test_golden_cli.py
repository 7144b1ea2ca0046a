"""Golden transcript: stdout, stderr and exit code of the CLI for a fixed
list of argv, compared byte for byte with ``golden_cli.json``.

The list covers every command, sequence, method and format, windows near
n = 9000, and every usage error.  ``bench`` timings are masked; stdout
longer than 4096 characters is stored as its SHA-256.  To recapture, at a
commit whose output is trusted:

    PYTHONPATH=src python3 tests/test_golden_cli.py
"""

import hashlib
import io
import json
import os
import re
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from powersum_denoms.cli import main

GOLDEN = Path(__file__).with_name("golden_cli.json")
LONG = 4096


def _argv(line: str) -> list[str]:
    return line.replace("M89", str(2**89 - 1)).split()


ARGV = [
    # seq: every sequence with each of its methods, every format, and
    # windows near 9000.
    "seq --to 20",
    "seq --seq q --from 0 --to 40 --method epsilon",
    "seq --seq q --from 0 --to 40 --method psets --format bfile",
    "seq --seq q --from 0 --to 40 --method brute --format csv",
    "seq --seq d --from 0 --to 30 --format bfile",
    "seq --seq d --from 0 --to 30 --method epsilon --format csv",
    "seq --seq d --from 0 --to 30 --method psets",
    "seq --seq d --from 0 --to 30 --method brute --format bfile",
    "seq --seq Dclausen --from 2 --to 40 --format csv",
    "seq --seq Dclausen --from 2 --to 20 --format bfile",
    "seq --seq Dpoly --from 1 --to 40 --format bfile",
    "seq --seq Dpoly --from 1 --to 30 --method brute --format csv",
    "seq --seq q --from 9000 --to 9040 --format bfile",
    "seq --seq q --from 8990 --to 9010 --method epsilon --format csv",
    "seq --seq d --from 8990 --to 9010",
    "seq --seq Dpoly --from 9000 --to 9020 --format csv",
    "seq --seq Dclausen --from 9000 --to 9010",
    # poly
    "poly --n 0 --shifted",
    "poly --n 1",
    "poly --n 5 --shifted",
    "poly --n 100",
    "poly --n 100 --shifted",
    "poly --n 604",
    "poly --n 604 --shifted",
    # verify
    "verify --max-n 25 --workers 1",
    "verify --suite agreement --max-n 40 --workers 2",
    "verify --suite bounds --max-n 30",
    "verify --suite witnesses --max-n 30",
    # witness
    "witness --n 20 --p 11",
    "witness --n 12 --p 3",
    "witness --n 100 --p 17",
    "witness --n 1000 --p 251",
    # bench, timings masked
    "bench --max-n 10 --method formula --method brute",
    "bench --max-n 8 --format csv",
    "bench --spot 50 --method epsilon --method psets --workers 2",
    "bench --max-n 10 --method formula --workers 2",
    "bench --max-n -1 --spot 3 --method psets",
    # usage errors: the program's own checks
    "seq --from 5 --to 2",
    "seq --from -1 --to 2",
    "seq --seq Dclausen --from 3 --to 9",
    "seq --seq Dclausen --from 0 --to 8",
    "seq --seq Dpoly --from 0 --to 4",
    "seq --seq Dpoly --from 1 --to 4 --method epsilon",
    "seq --seq Dclausen --from 2 --to 4 --method brute",
    "poly --n -1",
    "poly --n 0",
    "verify --max-n -1",
    "verify --workers 0",
    "verify --workers 0 --max-n -1",
    "witness --n -1 --p 3",
    "witness --n 19 --p 5",
    "witness --n 20 --p 4",
    "witness --n 20 --p 2",
    "witness --n 100 --p 37",
    "witness --n 5 --p M89",
    "bench --spot -3",
    "bench --max-n -1",
    "bench --workers 0 --spot -3",
    # usage errors: argparse's
    "",
    "seq",
    "seq --seq x --to 3",
    "seq --to 3 --format json",
    "verify --suite nonsense",
    "witness --n 3",
    "bench --format bfile",
    "bench --method nope",
    "bench --max-n ten",
]


def run(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    stdout = out.getvalue()
    if argv[:1] == ["bench"]:
        stdout = re.sub(r"\s*\d+\.\d{3}", " <ms>", stdout)
    record = {"argv": argv, "code": code, "stderr": err.getvalue()}
    if len(stdout) > LONG:
        record["stdout_sha256"] = hashlib.sha256(stdout.encode()).hexdigest()
    else:
        record["stdout"] = stdout
    return record


@pytest.fixture(scope="module")
def golden():
    return {tuple(r["argv"]): r for r in json.loads(GOLDEN.read_text())}


@pytest.mark.parametrize("line", ARGV)
def test_golden(line, golden, monkeypatch):
    # argparse wraps its usage lines to the terminal width.
    monkeypatch.setenv("COLUMNS", "80")
    argv = _argv(line)
    assert run(argv) == golden[tuple(argv)]


if __name__ == "__main__":
    os.environ["COLUMNS"] = "80"
    records = [run(_argv(line)) for line in ARGV]
    GOLDEN.write_text(json.dumps(records, indent=1) + "\n")
    print(f"wrote {len(records)} records to {GOLDEN}", file=sys.stderr)
