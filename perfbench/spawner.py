"""Starts and times the benchmark's child processes from a small process.

The peak RSS that ``wait4`` reports for a child includes the high-water RSS
of the process that spawned it (the child's address space is the parent's
until ``exec``).  So run.py starts this process before it builds any
reference data, and sends every job through it; a child's peak RSS then has
a floor of this interpreter's own, about 10 MB.

Protocol, one JSON object per line: requests on stdin carry ``argv``, ``env``
and a ``stderr`` file path; replies on stdout carry ``returncode``,
``stdout`` (bytes as latin-1 text), ``seconds`` and ``first_line_s`` (from
spawn) and ``maxrss_kb``.  The spawner exits at the end of its input.
"""

import json
import os
import sys
import time


def run(argv: list[str], env: dict, stderr_path: str) -> dict:
    r, w = os.pipe()
    err = os.open(stderr_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o600)
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_DUP2, w, 1),
        (os.POSIX_SPAWN_DUP2, err, 2),
    ]
    t0 = time.perf_counter()
    try:
        pid = os.posix_spawn(argv[0], argv, env, file_actions=actions)
    finally:
        os.close(w)
        os.close(err)
    with os.fdopen(r, "rb") as out:
        first = out.readline()
        t_first = time.perf_counter() - t0
        rest = out.read()
    _, status, usage = os.wait4(pid, 0)
    seconds = time.perf_counter() - t0
    return {
        "returncode": os.waitstatus_to_exitcode(status),
        "stdout": (first + rest).decode("latin-1"),
        "seconds": seconds,
        "first_line_s": t_first if first else seconds,
        "maxrss_kb": usage.ru_maxrss,
    }


def main() -> None:
    for line in sys.stdin:
        req = json.loads(line)
        sys.stdout.write(json.dumps(run(req["argv"], req["env"], req["stderr"])) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
