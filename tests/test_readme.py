import doctest
import io
import re
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from powersum_denoms.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"

# Each ```sh block that starts with a ``$ powersum-denoms`` line: the
# command and the output printed under it.  ``bench`` prints timings, which
# vary from run to run, so its example is left out.
_EXAMPLES = [
    (command, output)
    for command, output in re.findall(
        r"^```sh\n\$ powersum-denoms ([^\n]*)\n(.*?)^```$", README.read_text(), re.M | re.S
    )
    if not command.startswith("bench")
]


def test_readme_quick_start():
    result = doctest.testfile(str(README), module_relative=False)
    assert result == (0, 6)


def test_readme_has_every_cli_example():
    assert [c.split()[0] for c, _ in _EXAMPLES] == ["seq", "seq", "poly", "verify", "witness"]


@pytest.mark.parametrize("command, output", _EXAMPLES, ids=[c for c, _ in _EXAMPLES])
def test_readme_cli_example(command, output):
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(command.split())
    assert (code, out.getvalue()) == (0, output)
