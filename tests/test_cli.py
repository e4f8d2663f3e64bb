"""End-to-end tests for the command-line interface and its exit codes."""

import json
import sys

import pytest

from congruential_euler.cli import main
from congruential_euler.engine import SeqParams, compute_table


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def default_digit_limit():
    """Run with Python's default int/str digit limit, restoring the old one after."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this Python has no int/str digit limit")
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(old)


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
    ])
    def test_malformed_grid_row_exit_2(self, capsys, tmp_path, spec, message):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps(spec))
        code, out, err = run(capsys, "--cache-dir", str(tmp_path), "scan", "--grid", str(grid))
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {message}")
        assert len(err.splitlines()) == 1


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

    def test_zeros(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "--format", "json", "--cache-dir", str(tmp_path), "identities",
            "zeros", "--family", "4,0", "--count", "3",
        )
        assert code == 0
        rows = [json.loads(line) for line in out.splitlines()]
        assert len(rows) == 3
        assert all(row["residual"] < 1e-10 for row in rows)

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

    def test_special_values(self, capsys, tmp_path):
        code, _, _ = run(
            capsys, "--cache-dir", str(tmp_path), "identities", "special-values",
            "--k-max", "1",
        )
        assert code == 0


class TestCache:
    def test_inspect_and_clear(self, capsys, tmp_path):
        run(capsys, "--cache-dir", str(tmp_path), "compute", "--N", "2", "--j", "0",
            "--n-max", "3")
        code, out, _ = run(capsys, "--cache-dir", str(tmp_path), "cache", "inspect")
        assert code == 0
        assert "euler_N2_j0.txt" in out
        code, _, err = run(capsys, "--cache-dir", str(tmp_path), "cache", "clear")
        assert code == 0
        assert not list(tmp_path.glob("*.txt"))

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
