"""Golden CLI outputs: the exact stdout and exit status of a fixed command list.

``cli_golden.json`` holds, for every command below in the ``text``, ``tsv``
and ``json`` formats, the stdout and the exit status the CLI gave when the
file was recorded.  Each command runs in-process against a fresh cache
directory, after its set-up commands.  ``identities zeros`` and
``identities radius`` print floats and are left out.

After a deliberate change of output, record the file again with

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from congruential_euler.cli import main

GOLDEN = Path(__file__).with_name("cli_golden.json")
GRID = [{"p": 3, "m": 2, "j": 1, "r": 1}, {"p": 3, "m": 2, "j": 3, "r": 2}]
FILL_CACHE = [
    ["compute", "--N", "2", "--j", "0", "--n-max", "3"],
    ["compute", "--N", "4", "--j", "2", "--n-max", "5"],
]

# (argv after the global options, set-up commands); "{grid}" names a file
# holding GRID.
COMMANDS = [
    (["compute", "--N", "4", "--j", "2", "--n-max", "5"], []),
    (["compute", "--N", "3", "--j", "0", "--n-max", "4", "--no-cache"], []),
    (["compute", "--N", "0", "--j", "0", "--n-max", "2"], []),
    (["verify", "main", "--p", "3", "--j", "0", "--r", "2", "--n", "0..10"], []),
    (["verify", "komatsu-liu", "--k", "1", "--pairs", "0,6", "1,7"], []),
    (["verify", "gessel", "--p", "2", "--m", "1", "--k", "2", "--n", "0..5"], []),
    (["verify", "prime-power", "--p", "3", "--k", "1", "--r", "2", "--n", "0..5"], []),
    (["verify", "special-40", "--r", "2", "--n", "0..5"], []),
    (["verify", "special-60", "--r", "1", "--n-max", "10"], []),
    (["verify", "special-60", "--r", "1", "--n-max", "0"], []),
    (["verify", "lemma-xm", "--p", "3", "--m", "1", "--order", "30"], []),
    (["verify", "lemma-series", "--n-max", "3"], []),
    (["scan", "--p", "3", "--m", "2", "--j", "3", "--r", "2"], []),
    (["scan", "--p", "5", "--m", "1", "--j", "2", "--r", "1"], []),
    (["scan", "--p", "3", "--m", "1", "--j", "0", "--r", "2", "--n-max", "12"], []),
    (["scan", "--grid", "{grid}"], []),
    (["scan", "--appendix-b"], []),
    (["identities", "zeta", "--n-max", "2"], []),
    (["identities", "bernoulli", "--n-max", "2"], []),
    (["identities", "special-values", "--k-max", "1"], []),
    (["cache", "inspect"], FILL_CACHE),
]


def run_command(argv: list[str], setup: list[list[str]], directory: Path) -> tuple[str, int]:
    """Run the set-up commands, then argv, in-process; return (stdout, exit status)."""
    grid = directory / "grid.json"
    grid.write_text(json.dumps(GRID))
    prefix = ["--cache-dir", str(directory / "cache")]
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(io.StringIO()):
        for command in setup:
            main(prefix + command)
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(prefix + [str(grid) if arg == "{grid}" else arg for arg in argv])
    return out.getvalue(), code


CASES = json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", CASES, ids=[" ".join(case["argv"]) for case in CASES])
def test_cli_output_is_unchanged(case, tmp_path):
    stdout, code = run_command(case["argv"], case["setup"], tmp_path)
    assert stdout == case["stdout"]
    assert code == case["exit"]


def _record() -> None:
    import tempfile

    cases = []
    for fmt in ("text", "tsv", "json"):
        for argv, setup in COMMANDS:
            full = ["--format", fmt] + argv
            with tempfile.TemporaryDirectory() as directory:
                stdout, code = run_command(full, setup, Path(directory))
            cases.append({"argv": full, "setup": setup, "stdout": stdout, "exit": code})
    GOLDEN.write_text(json.dumps(cases, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    _record()
