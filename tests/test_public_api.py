"""The package exports every public name of its library modules, and loads each on first use."""

import inspect
import json
import subprocess
import sys
from pathlib import Path

import pytest

import congruential_euler
from congruential_euler import analytic, congruences, engine, exact, scanner

SRC = Path(congruential_euler.__file__).resolve().parents[1]


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
    assert [name for name in module.__all__
            if getattr(congruential_euler, name) is not getattr(module, name)] == []
    assert set(module.__all__) <= set(congruential_euler.__all__)


def test_the_namespace_lists_binds_and_refuses_names():
    assert set(congruential_euler.__all__) <= set(dir(congruential_euler))
    namespace = {}
    exec("from congruential_euler import *", namespace)
    assert [name for name in congruential_euler.__all__ if name not in namespace] == []
    with pytest.raises(AttributeError, match="'no_such_name'"):
        congruential_euler.no_such_name


def _loaded(code: str, cache_dir: Path) -> list[str]:
    """Run code in a fresh interpreter; return the package modules it loaded."""
    probe = (f"import sys\nCACHE = {str(cache_dir)!r}\n{code}\n"
             "print(*sorted(name for name in sys.modules if name.startswith('congruential_euler')))")
    run = subprocess.run([sys.executable, "-c", probe], cwd=SRC, capture_output=True, text=True,
                         check=True, timeout=60)
    return run.stdout.splitlines()[-1].split()


@pytest.mark.parametrize("code, modules", [
    ("import congruential_euler", []),
    ("import sys, congruential_euler\n"
     "before = set(sys.modules)\n"
     "assert not hasattr(congruential_euler, '__wrapped__')\n"
     "assert set(sys.modules) == before", []),
    ("import congruential_euler\ncongruential_euler.SeqParams", ["engine", "exact"]),
    # a cold run fills the cache, so the second run is warm
    ("from congruential_euler import cli\n"
     "for _ in range(2):\n"
     "    assert cli.main(['--cache-dir', CACHE, 'compute', '--N', '4', '--j', '2']) == 0",
     ["cli", "engine", "exact"]),
    # the records of scan and verify need no dataclasses
    ("from congruential_euler import cli\n"
     "cli.main(['--cache-dir', CACHE, 'scan', '--appendix-b'])\n"  # 1: the published errata
     "assert not {'dataclasses', 'inspect'} & set(sys.modules)",
     ["cli", "engine", "exact", "scanner"]),
    ("from congruential_euler import cli\n"
     "assert cli.main(['--cache-dir', CACHE, 'verify', 'main', '--p', '3', '--j', '0',\n"
     "                 '--r', '1']) == 0\n"
     "assert not {'dataclasses', 'inspect'} & set(sys.modules)",
     ["cli", "congruences", "engine", "exact"]),
    ("from congruential_euler import cli\n"
     "assert cli.main(['--cache-dir', CACHE, 'identities', 'zeta']) == 0",
     ["analytic", "cli", "engine", "exact"]),
    # the float zero search needs neither the engine nor dataclasses
    ("from congruential_euler import analytic\n"
     "assert len(analytic.find_zeros_in_disk(4, 2, 10.0)) == 9\n"
     "assert not {'dataclasses', 'inspect'} & set(sys.modules)",
     ["analytic", "exact"]),
], ids=["import", "dunder-probe", "one-name", "warm-compute", "scan-appendix-b", "verify",
        "identities-zeta", "zero-search"])
def test_cli_stays_out_of_the_package_import(tmp_path, code, modules):
    # and each use loads only the library modules it runs
    expected = ["congruential_euler", *(f"congruential_euler.{module}" for module in modules)]
    assert _loaded(code, tmp_path) == expected


def test_a_text_compute_loads_neither_dataclasses_nor_json(tmp_path):
    # a text table needs no JSON, and the engine's value classes need no dataclasses
    probe = ("import sys\nfrom congruential_euler import cli\n"
             "args = ['--cache-dir', sys.argv[1], 'compute', '--N', '4', '--j', '2',\n"
             "        '--n-max', '3']\n"
             "for _ in range(2):  # cold, then warm\n"
             "    assert cli.main(args) == 0\n"
             "print('loaded:', *sorted({'dataclasses', 'inspect', 'json'} & set(sys.modules)))\n"
             "assert cli.main(['--format', 'json', *args]) == 0\n")
    run = subprocess.run([sys.executable, "-c", probe, str(tmp_path)], cwd=SRC,
                         capture_output=True, text=True, check=True, timeout=60)
    lines = run.stdout.splitlines()
    assert lines[:8] == 2 * ["0 2/1", "1 -2/15", *lines[2:4]]
    assert lines[8] == "loaded:"
    assert [json.loads(line) for line in lines[9:]] == [
        {"n": n, "value": text.split()[1]} for n, text in enumerate(lines[:4])
    ]


def test_a_text_scan_loads_neither_dataclasses_nor_json(tmp_path):
    # a text scan writes no JSON, and the scanner's records need no dataclasses
    probe = ("import sys\nfrom congruential_euler import cli\n"
             "args = ['--cache-dir', sys.argv[1], 'scan', '--p', '3', '--m', '2', '--j', '3',\n"
             "        '--r', '2']\n"
             "assert cli.main(args) == 0\n"
             "print('loaded:', *sorted({'dataclasses', 'inspect', 'json'} & set(sys.modules)))\n"
             "assert cli.main(['--format', 'json', *args]) == 0\n")
    run = subprocess.run([sys.executable, "-c", probe, str(tmp_path)], cwd=SRC,
                         capture_output=True, text=True, check=True, timeout=60)
    lines = run.stdout.splitlines()
    assert lines[:3] == ["Parameters\tp\tr\tn0\tperiod\tcycle",
                         "(mp,j)=(6,3)\t3\t2\t1\t18\tcycle=[7,1,4]", "loaded:"]
    assert json.loads(lines[3])["cycle"] == [7, 1, 4]


def test_a_text_verify_loads_no_json(tmp_path):
    # only the TSV row of a report holds JSON (its witnesses)
    probe = ("import sys\nfrom congruential_euler import cli\n"
             "args = ['--cache-dir', sys.argv[1], 'verify', 'main', '--p', '3', '--j', '0',\n"
             "        '--r', '1']\n"
             "assert cli.main(args) == 0\n"
             "print('loaded:', *sorted({'dataclasses', 'inspect', 'json'} & set(sys.modules)))\n"
             "assert cli.main(['--format', 'tsv', *args]) == 0\n")
    run = subprocess.run([sys.executable, "-c", probe, str(tmp_path)], cwd=SRC,
                         capture_output=True, text=True, check=True, timeout=60)
    assert run.stdout.splitlines() == ["main_theorem [p=3 j=0 r=1]: PASS (21 instances)", "loaded:",
                                       "main_theorem\tp=3 j=0 r=1\t21\tpass\t[]"]
