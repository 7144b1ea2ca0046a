import doctest
import io
import re
from contextlib import redirect_stdout
from importlib import import_module
from pathlib import Path

import pytest

import powersum_denoms
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


def test_lazy_exports_resolve_to_their_modules():
    for name in powersum_denoms.__all__:
        value = getattr(powersum_denoms, name)
        module = import_module(f"powersum_denoms.{powersum_denoms._MODULE_OF[name]}")
        assert value is getattr(module, name)
        assert value.__module__ == module.__name__, name


def test_readme_entry_points_import_from_their_modules():
    # The bulleted list under "The main entry points, by module:", one
    # bullet per module, the module first and then the names it exports.
    block = README.read_text().split("The main entry points, by module:\n\n")[1]
    bullets = block.split("\n\n")[0].split("\n- ")
    assert len(bullets) == 5
    for bullet in bullets:
        module, *names = re.findall(r"`(\w+)`", bullet)
        for name in names:
            assert name in powersum_denoms.__all__, name
            assert getattr(import_module(f"powersum_denoms.{module}"), name)


@pytest.mark.parametrize(
    "name", ["Rational", "denom", "power_sum_poly", "binomial_valuation", "bernoulli_poly"]
)
def test_deleted_names_are_not_exported(name):
    assert name not in powersum_denoms.__all__
    with pytest.raises(AttributeError):
        getattr(powersum_denoms, name)


def test_readme_has_every_cli_example():
    assert [c.split()[0] for c, _ in _EXAMPLES] == ["seq", "seq", "poly", "verify", "witness"]


@pytest.mark.parametrize("command, output", _EXAMPLES, ids=[c for c, _ in _EXAMPLES])
def test_readme_cli_example(command, output):
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(command.split())
    assert (code, out.getvalue()) == (0, output)
