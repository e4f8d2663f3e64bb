"""End-to-end tests for the command-line interface and its exit codes."""

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from congruential_euler import analytic, cli, congruences, scanner
from congruential_euler.cli import main
from congruential_euler.engine import SeqParams, compute_table


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCompute:
    def test_basic_table(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "--cache-dir", str(tmp_path), "compute", "--N", "3", "--j", "0",
            "--n-max", "2",
        )
        assert code == 0
        assert out == "0 1/1\n1 -1/1\n2 19/1\n"

    def test_j_factorial_seed(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "--cache-dir", str(tmp_path), "compute", "--N", "6", "--j", "3",
            "--n-max", "0",
        )
        assert code == 0
        assert out == "0 6/1\n"

    def test_invalid_params_exit_2(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "--cache-dir", str(tmp_path), "compute", "--N", "0", "--j", "0",
            "--n-max", "2",
        )
        assert code == 2
        assert "error" in err

    def test_json_lines(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "--format", "json", "--cache-dir", str(tmp_path), "compute",
            "--N", "4", "--j", "2", "--n-max", "2",
        )
        assert code == 0
        rows = [json.loads(line) for line in out.splitlines()]
        assert rows[1] == {"n": 1, "value": "-2/15"}

    def test_determinism_warm_vs_cold_cache(self, capsys, tmp_path):
        args = ("--cache-dir", str(tmp_path), "compute", "--N", "5", "--j", "3",
                "--n-max", "6")
        _, cold, _ = run(capsys, *args)
        _, warm, _ = run(capsys, *args)
        assert cold == warm

    def test_entries_beyond_the_int_str_digit_limit(self, capsys, tmp_path, default_digit_limit):
        args = ("--cache-dir", str(tmp_path), "compute", "--N", "42", "--j", "9",
                "--n-max", "70")
        code, cold, _ = run(capsys, *args)
        assert code == 0
        assert len(cold.splitlines()) == 71
        assert max(len(line) for line in cold.splitlines()) > 4300
        code, warm, _ = run(capsys, *args)
        assert code == 0
        assert warm == cold
        assert len((tmp_path / "euler_N42_j9.txt").read_text().splitlines()) == 72

    def test_corrupt_cache_warns_and_is_rewritten(self, capsys, tmp_path):
        path = tmp_path / "euler_N3_j0.txt"
        path.write_text("garbage\n")
        code, out, err = run(capsys, "--cache-dir", str(tmp_path), "compute", "--N", "3",
                             "--j", "0", "--n-max", "2")
        assert code == 0
        assert out == "0 1/1\n1 -1/1\n2 19/1\n"
        assert "euler_N3_j0.txt" in err
        assert "bad header 'garbage'" in err
        assert path.read_text().splitlines()[0] == "congruential-euler-cache v1 N=3 j=0"

    @pytest.mark.parametrize("below", ["", "sub"], ids=["file", "below-a-file"])
    def test_a_cache_that_cannot_be_written_warns_and_prints_the_table(self, capsys, tmp_path,
                                                                       below):
        blocker = tmp_path / "not-a-directory"
        blocker.write_text("kept\n")
        args = ("compute", "--N", "3", "--j", "0", "--n-max", "4")
        _, expected, _ = run(capsys, "--cache-dir", str(tmp_path), *args, "--no-cache")
        code, out, err = run(capsys, "--cache-dir", str(blocker / below), *args)
        assert (code, out) == (0, expected)
        assert err.startswith("warning: cannot write cache file euler_N3_j0.txt: ")
        assert blocker.read_text() == "kept\n"
        assert sorted(path.name for path in tmp_path.iterdir()) == ["not-a-directory"]

    def test_a_directory_at_the_cache_path_warns_and_prints_the_table(self, capsys, tmp_path):
        (tmp_path / "euler_N4_j2.txt").mkdir()
        args = ("compute", "--N", "4", "--j", "2", "--n-max", "4")
        _, expected, _ = run(capsys, "--cache-dir", str(tmp_path), *args, "--no-cache")
        code, out, err = run(capsys, "--cache-dir", str(tmp_path), *args)
        assert (code, out) == (0, expected)
        warnings = err.splitlines()
        assert len(warnings) == 2
        assert warnings[0].startswith("warning: cache file euler_N4_j2.txt is unreadable, ")
        assert warnings[1].startswith("warning: cannot write cache file euler_N4_j2.txt: ")
        assert [path.name for path in tmp_path.iterdir()] == ["euler_N4_j2.txt"]
        assert (tmp_path / "euler_N4_j2.txt").is_dir()

    def test_populates_cache(self, capsys, tmp_path):
        run(capsys, "--cache-dir", str(tmp_path), "compute", "--N", "3", "--j", "0",
            "--n-max", "4")
        files = list(tmp_path.glob("euler_N3_j0.txt"))
        assert len(files) == 1
        assert files[0].read_text().splitlines()[0] == "congruential-euler-cache v1 N=3 j=0"


class TestWarmCache:
    """A valid cache file seeds the memo; the file is rewritten only when the table grows.

    Each test drops its table from the in-process memo before a run, as a
    new process would start without it.
    """

    PARAMS = SeqParams(4, 2)

    def compute(self, capsys, tmp_path, n_max, *extra):
        return run(capsys, "--cache-dir", str(tmp_path), "compute", "--N", "4", "--j", "2",
                   "--n-max", str(n_max), *extra)

    def test_warm_run_does_not_rewrite_the_file(self, capsys, tmp_path, forget_tables):
        path = tmp_path / "euler_N4_j2.txt"
        forget_tables(self.PARAMS)
        _, cold, _ = self.compute(capsys, tmp_path, 8)
        before = path.stat()
        forget_tables(self.PARAMS)
        code, warm, err = self.compute(capsys, tmp_path, 8)
        after = path.stat()
        assert (code, warm, err) == (0, cold, "")
        assert (after.st_ino, after.st_mtime_ns) == (before.st_ino, before.st_mtime_ns)

    def test_short_file_is_extended_from_its_prefix(
        self, capsys, tmp_path, forget_tables, count_rows
    ):
        path = tmp_path / "euler_N4_j2.txt"
        forget_tables(self.PARAMS)
        _, expected, _ = self.compute(capsys, tmp_path, 9, "--no-cache")
        forget_tables(self.PARAMS)
        self.compute(capsys, tmp_path, 4)
        assert len(path.read_text().splitlines()) == 1 + 5
        forget_tables(self.PARAMS)
        count_rows.clear()
        code, out, _ = self.compute(capsys, tmp_path, 9)
        assert (code, out) == (0, expected)
        assert len(count_rows) == 5
        assert path.read_text().splitlines()[1:] == expected.splitlines()

    def test_longer_file_is_left_as_it_is(self, capsys, tmp_path, forget_tables, count_rows):
        path = tmp_path / "euler_N4_j2.txt"
        forget_tables(self.PARAMS)
        _, long, _ = self.compute(capsys, tmp_path, 9)
        before, text = path.stat(), path.read_bytes()
        forget_tables(self.PARAMS)
        count_rows.clear()
        code, out, _ = self.compute(capsys, tmp_path, 4)
        after = path.stat()
        assert (code, out) == (0, "".join(long.splitlines(keepends=True)[:5]))
        assert count_rows == []
        assert path.read_bytes() == text
        assert (after.st_ino, after.st_mtime_ns) == (before.st_ino, before.st_mtime_ns)

    def test_wrong_entry_is_never_printed(self, capsys, tmp_path, forget_tables):
        path = tmp_path / "euler_N4_j2.txt"
        forget_tables(self.PARAMS)
        _, expected, _ = self.compute(capsys, tmp_path, 5)
        good = path.read_text()
        path.write_text(good.replace("3 -8018/455\n", "3 -8017/455\n"))
        forget_tables(self.PARAMS)
        code, out, err = self.compute(capsys, tmp_path, 5)
        assert (code, out) == (0, expected)
        assert "-8017" not in out
        assert err.startswith("warning: cache file euler_N4_j2.txt is unreadable, rewriting it")
        assert "line 5: entry 3 disagrees with the recurrence" in err
        assert path.read_text() == good

    def test_file_never_grows_to_the_memo_length(self, capsys, tmp_path, forget_tables):
        path = tmp_path / "euler_N4_j2.txt"
        forget_tables(self.PARAMS)
        compute_table(self.PARAMS, 20)
        self.compute(capsys, tmp_path, 5)
        assert len(path.read_text().splitlines()) == 1 + 6
        self.compute(capsys, tmp_path, 3)
        assert len(path.read_text().splitlines()) == 1 + 6


class TestVerify:
    def test_main_passes(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "--cache-dir", str(tmp_path), "verify", "main", "--p", "3",
            "--j", "0", "--r", "2", "--n", "0..20",
        )
        assert code == 0
        assert "PASS" in out

    def test_gessel_passes(self, capsys, tmp_path):
        code, _, _ = run(
            capsys, "--cache-dir", str(tmp_path), "verify", "gessel", "--p", "2",
            "--m", "1", "--k", "2", "--n", "0..10",
        )
        assert code == 0

    def test_non_prime_exit_2(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "--cache-dir", str(tmp_path), "verify", "main", "--p", "4",
            "--j", "0", "--r", "1",
        )
        assert code == 2
        assert "odd prime" in err

    def test_json_report(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "--format", "json", "--cache-dir", str(tmp_path), "verify",
            "special-40", "--r", "2", "--n", "0..5",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["theorem_id"] == "special_40"
        assert payload["status"] == "pass"

    def test_komatsu_liu_pairs(self, capsys, tmp_path):
        code, _, _ = run(
            capsys, "--cache-dir", str(tmp_path), "verify", "komatsu-liu", "--k", "1",
            "--pairs", "0,6", "1,7",
        )
        assert code == 0

    def test_komatsu_liu_bad_pair_exit_2_naming_the_option(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["--cache-dir", str(tmp_path), "verify", "komatsu-liu", "--k", "1",
                  "--pairs", "0,6", "3"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "argument --pairs: expected two integers a,b, got '3'" in err

    @pytest.mark.parametrize("theorem,args", [
        ("main", ["--p", "3", "--j", "0", "--r", "1"]),
        ("gessel", ["--p", "3", "--m", "1", "--k", "1"]),
        ("prime-power", ["--p", "3", "--k", "1", "--r", "1"]),
        ("special-40", ["--r", "1"]),
    ])
    @pytest.mark.parametrize("text,message", [
        ("x", "expected an integer a or a range a..b, got 'x'"),
        ("0..x", "expected an integer a or a range a..b, got '0..x'"),
        ("5..2", "empty range '5..2': expected a..b with a <= b"),
    ])
    def test_bad_range_exit_2_naming_the_option(self, capsys, tmp_path, theorem, args, text,
                                                message):
        with pytest.raises(SystemExit) as excinfo:
            main(["--cache-dir", str(tmp_path), "verify", theorem, *args, "--n", text])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"argument --n: {message}" in captured.err

    def test_lemma_xm(self, capsys, tmp_path):
        code, _, _ = run(
            capsys, "--cache-dir", str(tmp_path), "verify", "lemma-xm", "--p", "3",
            "--m", "1", "--order", "30",
        )
        assert code == 0

    def test_negative_index_exit_2(self, capsys, tmp_path):
        code, out, err = run(
            capsys, "--cache-dir", str(tmp_path), "verify", "main", "--p", "3", "--j", "0",
            "--r", "1", "--n=-2..3",
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "negative" in err

    def test_inconclusive_check_exit_1(self, capsys, tmp_path):
        # a window too short to witness stabilization is not a pass
        code, out, _ = run(
            capsys, "--cache-dir", str(tmp_path), "verify", "special-60", "--r", "1",
            "--n-max", "0",
        )
        assert code == 1
        assert "INCONCLUSIVE" in out

    def test_check_failure_exit_1(self, capsys, tmp_path, monkeypatch):
        # residue_table stops one short, as it does at an entry with p in its denominator
        monkeypatch.setattr(congruences, "residue_table", lambda params, p, e, top: [0] * top)
        code, out, err = run(
            capsys, "--cache-dir", str(tmp_path), "verify", "main", "--p", "3", "--j", "0",
            "--r", "1", "--n", "0..2",
        )
        assert (code, out) == (1, "")
        assert err == "check failed: E^(3,0) at table index n=3 has p=3 in its denominator\n"

    # seven witnesses, of which the report keeps the first five
    WITNESSES = [{"params": f"p=3 j=0 r=1 n={n}", "lhs": 1, "rhs": 2} for n in range(7)]
    KEPT = ", ".join(f'{{"lhs": 1, "params": "p=3 j=0 r=1 n={n}", "rhs": 2}}' for n in range(5))

    @pytest.mark.parametrize("fmt, expected", [
        ("text", "main_theorem [p=3 j=0 r=1]: FAIL (9 instances)\n" + "".join(
            f"  witness {{'params': 'p=3 j=0 r=1 n={n}', 'lhs': 1, 'rhs': 2}}\n" for n in range(5)
        )),
        ("tsv", f"main_theorem\tp=3 j=0 r=1\t9\tfail\t[{KEPT}]\n"),
        ("json", f'{{"failures": [{KEPT}], "instances_checked": 9, "params": "p=3 j=0 r=1", '
                 '"status": "fail", "theorem_id": "main_theorem"}\n'),
    ])
    def test_a_failing_report_in_each_format(self, capsys, tmp_path, monkeypatch, fmt, expected):
        monkeypatch.setattr(congruences, "check_main_theorem", lambda p, j, r, n: (
            congruences.CongruenceReport("main_theorem", f"p={p} j={j} r={r}", len(n),
                                         self.WITNESSES)
        ))
        code, out, err = run(
            capsys, "--format", fmt, "--cache-dir", str(tmp_path), "verify", "main", "--p", "3",
            "--j", "0", "--r", "1", "--n", "0..8",
        )
        assert (code, out, err) == (1, expected, "")


class TestScan:
    def test_single_scan(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "--cache-dir", str(tmp_path), "scan", "--p", "3", "--m", "2",
            "--j", "3", "--r", "2",
        )
        assert code == 0
        assert "cycle=[7,1,4]" in out

    def test_constraint_violation_exit_2(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "--cache-dir", str(tmp_path), "scan", "--p", "5", "--m", "3",
            "--j", "0", "--r", "1",
        )
        assert code == 2
        assert "divide" in err

    def test_missing_args_exit_2(self, capsys, tmp_path):
        code, _, _ = run(capsys, "--cache-dir", str(tmp_path), "scan", "--p", "3")
        assert code == 2

    def test_grid_file(self, capsys, tmp_path):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps([
            {"p": 3, "m": 2, "j": 1, "r": 1},
            {"p": 3, "m": 2, "j": 3, "r": 1},
        ]))
        code, out, _ = run(
            capsys, "--format", "json", "--cache-dir", str(tmp_path), "scan",
            "--grid", str(grid),
        )
        assert code == 0
        rows = [json.loads(line) for line in out.splitlines()]
        assert len(rows) == 2
        assert all(row["status"] == "ok" for row in rows)

    @pytest.mark.parametrize("spec,message", [
        ([{"p": 3, "m": 2, "j": 1, "r": 1}, {"p": 3, "m": 2, "j": 1}], "grid row 1: missing key 'r'"),
        ([{"p": 3, "m": 2, "j": 1, "r": 1}, [3, 2, 1, 1]], "grid row 1: expected an object"),
        ([{"p": 3, "m": 2, "j": 1, "r": "1"}], "grid row 0: key 'r' must be an integer"),
        ([{"p": 3, "m": 2, "j": 3, "r": 2, "nmax": 12}], "grid row 0: unknown key 'nmax'"),
    ])
    def test_malformed_grid_row_exit_2(self, capsys, tmp_path, spec, message):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps(spec))
        code, out, err = run(capsys, "--cache-dir", str(tmp_path), "scan", "--grid", str(grid))
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {message}")
        assert len(err.splitlines()) == 1

    def test_grid_that_is_not_json_exit_2_naming_the_file(self, capsys, tmp_path):
        grid = tmp_path / "grid.json"
        grid.write_text("[{p: 3}]")
        code, out, err = run(capsys, "--cache-dir", str(tmp_path), "scan", "--grid", str(grid))
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: grid {grid}: not valid JSON: ")
        assert len(err.splitlines()) == 1

    def test_grid_that_is_not_a_list_exit_2(self, capsys, tmp_path):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"p": 3, "m": 2, "j": 3, "r": 2}))
        code, out, err = run(capsys, "--cache-dir", str(tmp_path), "scan", "--grid", str(grid))
        assert (code, out) == (2, "")
        assert err == "error: grid: expected a JSON list of scans\n"

    @pytest.mark.parametrize("fmt", ["text", "tsv", "json"])
    def test_an_empty_grid_exit_2_before_any_output(self, capsys, tmp_path, monkeypatch, fmt):
        monkeypatch.setattr(scanner, "scan_conjecture", None)  # no scan may run
        grid = tmp_path / "grid.json"
        grid.write_text("[]")
        code, out, err = run(
            capsys, "--format", fmt, "--cache-dir", str(tmp_path), "scan", "--grid", str(grid)
        )
        assert (code, out) == (2, "")
        assert err == "error: grid: expected at least one scan\n"

    @pytest.mark.parametrize("args, message", [
        (["--grid", "{grid}", "--n-max", "5"], "--n-max does not apply with --grid"),
        (["--grid", "{grid}", "--p", "3", "--m", "2", "--j", "3", "--r", "2"],
         "--p does not apply with --grid"),
        (["--appendix-b", "--j", "3", "--r", "2", "--n-max", "5"],
         "--j does not apply with --appendix-b"),
        (["--appendix-b", "--n-max", "5"], "--n-max does not apply with --appendix-b"),
        (["--appendix-b", "--grid", "{grid}"], "--grid does not apply with --appendix-b"),
    ])
    def test_options_outside_the_chosen_mode_exit_2(self, capsys, tmp_path, monkeypatch, args,
                                                     message):
        monkeypatch.setattr(scanner, "scan_conjecture", None)  # no scan may run
        monkeypatch.setattr(scanner, "run_reference_scan", None)
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps([{"p": 3, "m": 2, "j": 3, "r": 2}]))
        argv = [str(grid) if arg == "{grid}" else arg for arg in args]
        code, out, err = run(capsys, "--cache-dir", str(tmp_path), "scan", *argv)
        assert (code, out) == (2, "")
        assert err == f"error: scan: {message}\n"


class TestIdentities:
    def test_zeta_all_equal(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "--format", "json", "--cache-dir", str(tmp_path), "identities",
            "zeta", "--n-max", "2",
        )
        assert code == 0
        rows = [json.loads(line) for line in out.splitlines()]
        assert len(rows) == 16
        assert all(row["equal"] for row in rows)

    def test_bernoulli_all_equal(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "--format", "json", "--cache-dir", str(tmp_path), "identities",
            "bernoulli", "--n-max", "2",
        )
        assert code == 0
        assert all(json.loads(line)["equal"] for line in out.splitlines())

    @pytest.mark.parametrize("argv, message", [
        (["zeta", "--n-max", "0"], "identities zeta: --n-max must be at least 1"),
        (["special-values", "--k-max", "0"], "identities special-values: --k-max must be at least 1"),
        (["bernoulli", "--n-max", "-1"], "identities bernoulli: --n-max must be at least 0"),
        (["radius", "--N", "4", "--j", "2", "--n-max", "5"],
         "identities radius: --n-max must be at least 10"),
    ])
    def test_empty_range_exit_2_naming_the_option(self, capsys, tmp_path, argv, message):
        code, out, err = run(capsys, "--cache-dir", str(tmp_path), "identities", *argv)
        assert (code, out) == (2, "")
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("fmt", ("text", "tsv", "json"))
    @pytest.mark.parametrize("family", analytic.ZERO_FAMILIES, ids=lambda f: f"{f[0]},{f[1]}")
    def test_zeros(self, capsys, tmp_path, family, fmt):
        code, out, err = run(
            capsys, "--format", fmt, "--cache-dir", str(tmp_path), "identities",
            "zeros", "--family", f"{family[0]},{family[1]}", "--count", "3",
        )
        assert code == 0 and err == ""
        lines = out.splitlines()
        assert len(lines) == 3
        if fmt == "json":
            rows = [json.loads(line) for line in lines]
            assert all(row["ok"] and row["residual"] < 1e-10 for row in rows)
        elif fmt == "tsv":  # columns in key order: distance, family, k, l, ok, residual, zero
            assert all(line.split("\t")[4] == "True" for line in lines)
        else:
            assert all("residual=" in line for line in lines)

    def test_zeros_bad_family_shows_the_expected_form(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["--cache-dir", str(tmp_path), "identities", "zeros", "--family", "x"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "argument --family: expected two integers a,b, got 'x'" in err
        assert "_family" not in err

    @pytest.mark.parametrize("family", ("0,0", "3,0", "-4,0"))
    def test_zeros_unknown_family_exit_2(self, capsys, tmp_path, monkeypatch, family):
        monkeypatch.setattr(analytic, "find_zeros_in_disk", None)  # no search may run
        code, out, err = run(
            capsys, "--cache-dir", str(tmp_path), "identities", "zeros", f"--family={family}"
        )
        assert (code, out) == (2, "")
        assert err == "error: identities zeros: --family must be one of 4,0 4,2 6,3\n"

    @pytest.mark.parametrize("count", ("0", "-3"))
    def test_zeros_rejects_a_count_below_one(self, capsys, tmp_path, count):
        code, out, err = run(
            capsys, "--cache-dir", str(tmp_path), "identities", "zeros", "--family", "4,0",
            "--count", count,
        )
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "--count" in err

    def test_zeros_past_the_search_reach_exit_2_naming_the_count(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(analytic, "find_zeros_in_disk", None)  # no search may run
        code, out, err = run(
            capsys, "--cache-dir", str(tmp_path), "identities", "zeros", "--family", "4,2",
            "--count", "629",
        )
        assert code == 2 and out == ""
        assert err == ("error: identities zeros: --count 629 needs the certified search "
                       "out to |z| = 704.2, past eval_H's exp range of 700.0\n")

    def test_zeros_fails_on_a_certified_zero_off_the_lattice(self, capsys, tmp_path, monkeypatch):
        search = analytic.find_zeros_in_disk
        monkeypatch.setattr(
            analytic, "find_zeros_in_disk", lambda *args: search(*args) + [1.0 + 2.0j]
        )
        code, out, err = run(
            capsys, "--format", "json", "--cache-dir", str(tmp_path), "identities",
            "zeros", "--family", "4,0", "--count", "3",
        )
        assert code == 1
        assert all(json.loads(line)["ok"] for line in out.splitlines())
        assert "off the lattice" in err and "1+2j" in err

    def test_zeros_without_a_match_are_not_ok(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(analytic, "find_zeros_in_disk", lambda *args: [])
        code, out, err = run(
            capsys, "--format", "json", "--cache-dir", str(tmp_path), "identities",
            "zeros", "--family", "6,3", "--count", "2",
        )
        assert code == 1
        assert "k=1 l=0, k=1 l=1, k=1 l=2" in err  # the rest of ring 1 is searched too
        rows = [json.loads(line) for line in out.splitlines()]
        assert [row["ok"] for row in rows] == [False, False]
        assert all(row["zero"] is None and row["residual"] is None for row in rows)

    def test_zeros_with_a_missing_and_a_stray_zero_print_every_row_then_both_failures(
            self, capsys, tmp_path, monkeypatch):
        search = analytic.find_zeros_in_disk
        dropped = analytic.predicted_zero((4, 0), 1, 1)

        def perturbed(*args):
            found = search(*args)
            kept = [z for z in found if abs(z - dropped) > 1e-6]
            assert len(kept) == len(found) - 1
            return kept + [1.0 + 2.0j]

        monkeypatch.setattr(analytic, "find_zeros_in_disk", perturbed)
        code, out, err = run(
            capsys, "--format", "json", "--cache-dir", str(tmp_path), "identities",
            "zeros", "--family", "4,0", "--count", "3",
        )
        assert code == 1
        rows = [json.loads(line) for line in out.splitlines()]
        assert [(row["k"], row["l"], row["ok"]) for row in rows] == [
            (1, 0, True), (1, 1, False), (1, 2, True)]
        assert err == ("check failed: H_(4,0) has no certified zero at the lattice points k=1 l=1\n"
                       "check failed: H_(4,0) has certified zeros off the lattice: 1+2j\n")

    def test_zeros_past_modulus_18(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "--format", "json", "--cache-dir", str(tmp_path), "identities",
            "zeros", "--family", "6,3", "--count", "13",
        )
        assert code == 0
        rows = [json.loads(line) for line in out.splitlines()]
        assert len(rows) == 13 and all(row["ok"] for row in rows)
        assert rows[-1]["k"] == 3

    def test_radius(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "--format", "json", "--cache-dir", str(tmp_path), "identities",
            "radius", "--N", "4", "--j", "2", "--n-max", "20",
        )
        assert code == 0
        payload = json.loads(out)
        assert abs(payload["radius_over_pi"] - 2**0.5) < 0.05

    def test_radius_past_the_float_range(self, capsys, tmp_path):
        # the ratio at N = 200 is about 2^1246, past the largest float
        code, out, err = run(
            capsys, "--cache-dir", str(tmp_path), "identities", "radius", "--N", "200",
            "--j", "0", "--n-max", "10",
        )
        assert (code, out, err) == (0, "radius/pi estimate for (200,0): 23.841554607\n", "")

    def test_special_values(self, capsys, tmp_path):
        code, _, _ = run(
            capsys, "--cache-dir", str(tmp_path), "identities", "special-values",
            "--k-max", "1",
        )
        assert code == 0

    def test_special_values_past_the_exp_range(self, capsys, tmp_path):
        args = ("--cache-dir", str(tmp_path), "identities", "special-values", "--k-max")
        code, out, err = run(capsys, *args, "112")  # 2 * 112 * pi > 700: H is scaled there
        assert (code, err) == (0, "") and len(out.splitlines()) == 112 * 6
        assert out.splitlines()[-1] == "special values k=112 l=5: True"


class TestCache:
    @pytest.mark.parametrize("action", ("inspect", "clear"))
    def test_a_missing_directory_is_not_created(self, capsys, tmp_path, action):
        missing = tmp_path / "missing"
        code, out, _ = run(capsys, "--cache-dir", str(missing), "cache", action)
        assert (code, out) == (0, "")
        assert not missing.exists()

    def test_inspect_and_clear(self, capsys, tmp_path):
        run(capsys, "--cache-dir", str(tmp_path), "compute", "--N", "2", "--j", "0",
            "--n-max", "3")
        code, out, _ = run(capsys, "--cache-dir", str(tmp_path), "cache", "inspect")
        assert code == 0
        assert "euler_N2_j0.txt" in out
        code, _, err = run(capsys, "--cache-dir", str(tmp_path), "cache", "clear")
        assert code == 0
        assert not list(tmp_path.glob("*.txt"))

    def test_clear_removes_only_files_that_inspect_reads(self, capsys, tmp_path):
        run(capsys, "--cache-dir", str(tmp_path), "compute", "--N", "2", "--j", "0",
            "--n-max", "3")
        stray = tmp_path / "euler_Nnotes_jx.txt"
        stray.write_text("my notes\n")
        code, _, err = run(capsys, "--cache-dir", str(tmp_path), "cache", "clear")
        assert code == 0
        assert err == "removed 1 cache file(s)\n"
        assert [path.name for path in tmp_path.iterdir()] == [stray.name]

    def test_clear_skips_a_directory_and_removes_the_rest(self, capsys, tmp_path):
        for name in ("euler_N2_j0.txt", "euler_N4_j2.txt"):
            (tmp_path / name).write_text("")
        (tmp_path / "euler_N3_j0.txt").mkdir()  # sorted between the two files
        code, out, err = run(capsys, "--cache-dir", str(tmp_path), "cache", "clear")
        assert (code, out, err) == (0, "", "removed 2 cache file(s)\n")
        assert [path.name for path in tmp_path.iterdir()] == ["euler_N3_j0.txt"]
        assert (tmp_path / "euler_N3_j0.txt").is_dir()

    def test_inspect_skips_a_directory_and_lists_the_rest(self, capsys, tmp_path):
        for N, j in ((2, 0), (4, 2)):
            run(capsys, "--cache-dir", str(tmp_path), "compute", "--N", str(N), "--j", str(j),
                "--n-max", "3")
        (tmp_path / "euler_N3_j0.txt").mkdir()  # sorted between the two files
        code, out, err = run(capsys, "--cache-dir", str(tmp_path), "cache", "inspect")
        assert (code, err) == (0, "")
        assert out == ("euler_N2_j0.txt: congruential-euler-cache v1 N=2 j=0 (4 entries)\n"
                       "euler_N4_j2.txt: congruential-euler-cache v1 N=4 j=2 (4 entries)\n")

    @pytest.mark.parametrize("variable, cache", [
        ("", "home/.cache/congruential-euler"),  # an empty variable counts as unset
        ("chosen", "chosen"),
    ])
    def test_clear_in_the_directory_the_variable_names(self, tmp_path, variable, cache):
        work, cache = tmp_path / "work", tmp_path / cache
        for directory in (work, cache):
            directory.mkdir(parents=True)
            (directory / "euler_N2_j0.txt").write_text("")
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src, "HOME": str(tmp_path / "home"),
               "CEULER_CACHE_DIR": variable and str(tmp_path / variable)}
        clear = subprocess.run([sys.executable, "-m", "congruential_euler.cli", "cache", "clear"],
                               cwd=work, env=env, capture_output=True, text=True, timeout=60)
        assert (clear.returncode, clear.stderr) == (0, "removed 1 cache file(s)\n")
        assert [path.name for path in work.iterdir()] == ["euler_N2_j0.txt"]
        assert list(cache.iterdir()) == []

    def test_inspect_json(self, capsys, tmp_path):
        run(capsys, "--cache-dir", str(tmp_path), "compute", "--N", "2", "--j", "0",
            "--n-max", "3")
        code, out, _ = run(
            capsys, "--format", "json", "--cache-dir", str(tmp_path), "cache", "inspect"
        )
        assert code == 0
        payload = json.loads(out.splitlines()[0])
        assert payload["entries"] == 4

    def test_inspect_reports_corrupt_files(self, capsys, tmp_path):
        run(capsys, "--cache-dir", str(tmp_path), "compute", "--N", "2", "--j", "0",
            "--n-max", "3")
        (tmp_path / "euler_N3_j0.txt").write_text("garbage\n")
        (tmp_path / "euler_N4_j2.txt").write_text("congruential-euler-cache v1 N=4 j=1\n0 1/1\n")
        code, out, err = run(capsys, "--cache-dir", str(tmp_path), "cache", "inspect")
        assert code == 2
        assert out == "euler_N2_j0.txt: congruential-euler-cache v1 N=2 j=0 (4 entries)\n"
        errors = err.splitlines()
        assert len(errors) == 2
        assert errors[0].startswith("error: ") and "euler_N3_j0.txt" in errors[0]
        assert "bad header 'garbage'" in errors[0]
        assert "euler_N4_j2.txt" in errors[1] and "requested N=4 j=2" in errors[1]

    def test_inspect_rejects_a_name_with_a_leading_zero(self, capsys, tmp_path):
        run(capsys, "--cache-dir", str(tmp_path), "compute", "--N", "1", "--j", "0",
            "--n-max", "3")
        (tmp_path / "euler_N1_j0.txt").rename(tmp_path / "euler_N01_j0.txt")
        code, out, err = run(capsys, "--cache-dir", str(tmp_path), "cache", "inspect")
        assert (code, out) == (2, "")
        assert err == (f"error: {tmp_path / 'euler_N01_j0.txt'}: "
                       "file name does not give N >= 1 and j\n")

    def test_inspect_rejects_a_j_with_a_leading_zero(self, capsys, tmp_path):
        run(capsys, "--cache-dir", str(tmp_path), "compute", "--N", "4", "--j", "2",
            "--n-max", "3")
        (tmp_path / "euler_N4_j2.txt").rename(tmp_path / "euler_N4_j02.txt")
        code, out, err = run(capsys, "--cache-dir", str(tmp_path), "cache", "inspect")
        assert (code, out) == (2, "")
        assert err == (f"error: {tmp_path / 'euler_N4_j02.txt'}: "
                       "file name does not give N >= 1 and j\n")

    def test_inspect_reports_wrong_values(self, capsys, tmp_path):
        for N, j, n_max in ((2, 0, 3), (4, 2, 5)):
            run(capsys, "--cache-dir", str(tmp_path), "compute", "--N", str(N), "--j", str(j),
                "--n-max", str(n_max))
        path = tmp_path / "euler_N4_j2.txt"
        path.write_text(path.read_text().replace("4 302258/153\n", "4 302257/153\n"))
        code, out, err = run(capsys, "--cache-dir", str(tmp_path), "cache", "inspect")
        assert code == 2
        assert out == "euler_N2_j0.txt: congruential-euler-cache v1 N=2 j=0 (4 entries)\n"
        assert err.startswith("error: ") and "euler_N4_j2.txt: line 6: entry 4" in err


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as excinfo:
        main(["bogus-subcommand"])
    assert excinfo.value.code == 2


@pytest.mark.parametrize("n_max, lines_read", [
    ("400", 1),  # 341 KB of rows, far past a pipe buffer: the writes after the first line fail
    ("3", 0),  # closed before anything is written: the final flush fails
])
def test_a_closed_stdout_exits_141_without_a_message(n_max, lines_read):
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    env.pop("PYTHONUNBUFFERED", None)  # a block-buffered stdout, as in a plain shell
    argv = [sys.executable, "-m", "congruential_euler.cli", "--format", "json", "compute",
            "--N", "2", "--j", "0", "--n-max", n_max, "--no-cache"]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        lines = [proc.stdout.readline() for _ in range(lines_read)]
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=60)
    assert lines == [b'{"n": 0, "value": "1/1"}\n'][:lines_read]
    assert (code, err) == (141, b"")


def test_a_closed_in_process_stdout_without_a_descriptor_exits_141(monkeypatch, tmp_path):
    class ClosedPipe(io.StringIO):  # fileno() raises io.UnsupportedOperation
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    assert main(["--cache-dir", str(tmp_path), "compute", "--N", "2", "--j", "0",
                 "--n-max", "3", "--no-cache"]) == 141
