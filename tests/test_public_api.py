"""The package exports every public name of its library modules."""

import inspect
import subprocess
import sys
from pathlib import Path

import pytest

import congruential_euler
from congruential_euler import analytic, congruences, engine, exact, scanner


@pytest.mark.parametrize("module", [analytic, congruences, engine, exact, scanner], ids=lambda m: m.__name__)
def test_every_public_function_and_class_is_exported(module):
    public = [
        name for name, value in vars(module).items()
        if not name.startswith("_")
        and (inspect.isfunction(value) or inspect.isclass(value))
        and value.__module__ == module.__name__
    ]
    assert public
    assert [name for name in public if name not in module.__all__] == []
    assert [name for name in module.__all__ if not hasattr(congruential_euler, name)] == []
    assert set(module.__all__) <= set(congruential_euler.__all__)


def test_cli_stays_out_of_the_package_import():
    code = "import sys, congruential_euler; print('congruential_euler.cli' in sys.modules)"
    src = Path(congruential_euler.__file__).resolve().parents[1]
    run = subprocess.run([sys.executable, "-c", code], cwd=src, capture_output=True, text=True, check=True)
    assert run.stdout.strip() == "False"
