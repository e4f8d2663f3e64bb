"""Tests for the table engine, its series oracle, and the disk cache."""

import resource
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from congruential_euler import engine
from congruential_euler.engine import (
    CACHE_CHECK_PRIME,
    CacheFormatError,
    SeqParams,
    SeqTable,
    cache_load,
    cache_store,
    compute_table,
    euler_number,
    oracle_table,
    residue_table,
    seed_memo,
)
from congruential_euler.exact import residue_mod_prime_power


class TestRecurrence:
    def test_euler_numbers(self):
        assert compute_table(SeqParams(2, 0), 3).values == [1, -1, 5, -61]

    def test_lehmer_numbers(self):
        assert compute_table(SeqParams(3, 0), 2).values == [1, -1, 19]

    def test_seed_is_j_factorial(self):
        assert euler_number(SeqParams(6, 3), 0) == 6
        assert compute_table(SeqParams(6, 3), 0).values == [6]

    def test_rational_case(self):
        assert euler_number(SeqParams(4, 2), 1) == Fraction(-2, 15)

    def test_bernoulli_case(self):
        assert euler_number(SeqParams(1, 1), 2) == Fraction(1, 6)

    def test_recurrence_invariant(self):
        from math import comb

        for params in (SeqParams(4, 2), SeqParams(5, 3)):
            table = compute_table(params, 8)
            N, j = params.N, params.j
            for n in range(1, 9):
                total = sum(
                    comb(N * n + j, N * m) * table.values[m] for m in range(n + 1)
                )
                assert total == 0

    def test_memo_returns_prefix(self):
        long = compute_table(SeqParams(5, 1), 9).values
        short = compute_table(SeqParams(5, 1), 4).values
        assert short == long[:5]

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            SeqParams(0, 0)
        with pytest.raises(ValueError):
            SeqParams(2, -1)
        with pytest.raises(ValueError):
            euler_number(SeqParams(2, 0), -1)


ORACLE_PARAMS = [
    (2, 0), (3, 0), (4, 0), (4, 2),
    (5, 0), (5, 1), (5, 2), (5, 3), (5, 4),
    (6, 0), (6, 3), (1, 1), (10, 5),
    (3, 5), (20, 13), (42, 9),
]


@pytest.mark.parametrize("N,j", ORACLE_PARAMS)
def test_oracle_agrees_with_recurrence(N, j):
    params = SeqParams(N, j)
    assert compute_table(params, 12).values == oracle_table(params, 12).values


def test_oracle_bernoulli_odd_indices_vanish():
    values = oracle_table(SeqParams(1, 1), 12).values
    assert values[1] == Fraction(-1, 2)
    assert all(values[n] == 0 for n in range(3, 13, 2))


class TestResidueTable:
    @settings(max_examples=150, deadline=None)
    @given(
        N=st.integers(1, 12),
        j=st.integers(0, 12),
        p=st.sampled_from((2, 3, 5, 7, 11)),
        r=st.integers(1, 4),
        n_max=st.integers(0, 20),
    )
    def test_matches_exact_residues(self, N, j, p, r, n_max):
        expected = []
        for value in compute_table(SeqParams(N, j), n_max).values:
            if value.denominator % p == 0:
                break  # the residue table stops at the first non-integral entry
            expected.append(residue_mod_prime_power(value, p, r))
        assert residue_table(SeqParams(N, j), p, r, n_max) == expected

    def test_bernoulli_stops_at_b1_for_p_2(self):
        # B_1 = -1/2
        assert len(residue_table(SeqParams(1, 1), 2, 3, 6)) == 1

    def test_bernoulli_stops_at_b2_for_p_3(self):
        # B_1 = -1/2 = 13 mod 27, then B_2 = 1/6
        assert residue_table(SeqParams(1, 1), 3, 3, 6) == [1, 13]

    def test_six_three_cycle_mod_9(self):
        values = residue_table(SeqParams(6, 3), 3, 2, 10)
        assert values[:2] == [6, 7]
        assert values[1:10] == [7, 1, 4] * 3

    def test_precision_beyond_the_target(self):
        # j >= p: each division by C(6n+3, 3) costs v_3(2n+1) digits of precision
        params = SeqParams(6, 3)
        exact = oracle_table(params, 60).values
        assert residue_table(params, 3, 5, 60) == [
            residue_mod_prime_power(value, 3, 5) for value in exact
        ]

    @pytest.mark.parametrize("p,r,n_max", [(4, 1, 5), (3, 0, 5), (3, 1, -1)])
    def test_invalid_arguments(self, p, r, n_max):
        with pytest.raises(ValueError):
            residue_table(SeqParams(2, 0), p, r, n_max)


class TestIntegrality:
    @pytest.mark.parametrize("N", range(2, 9))
    def test_offset_zero_tables_are_integral(self, N):
        for value in compute_table(SeqParams(N, 0), 20).values:
            assert value.denominator == 1

    @pytest.mark.parametrize("p", (3, 5, 7))
    def test_prime_step_tables_are_p_integral(self, p):
        for j in range(p):
            for value in compute_table(SeqParams(p, j), 20).values:
                assert value.denominator % p != 0


def test_euler_bernoulli_bridge():
    # E_{2n} = sum_{k=1}^{n} C(2n, 2k-1) (2^{2k} - 4^{2k})/(2k) B_{2k} + 1
    from math import comb

    euler = compute_table(SeqParams(2, 0), 8).values
    bernoulli = compute_table(SeqParams(1, 1), 16).values
    for n in range(1, 9):
        total = sum(
            comb(2 * n, 2 * k - 1)
            * Fraction(2 ** (2 * k) - 4 ** (2 * k), 2 * k)
            * bernoulli[2 * k]
            for k in range(1, n + 1)
        )
        assert euler[n] == total + 1


class TestCache:
    def test_round_trip(self, tmp_path):
        table = compute_table(SeqParams(2, 0), 4)
        path = tmp_path / "euler.txt"
        cache_store(table, path)
        loaded = cache_load(SeqParams(2, 0), path)
        assert loaded.params == table.params
        assert loaded.values == table.values

    def test_round_trip_rationals(self, tmp_path):
        table = compute_table(SeqParams(4, 2), 6)
        path = tmp_path / "euler.txt"
        cache_store(table, path)
        assert cache_load(SeqParams(4, 2), path).values == table.values

    def test_params_mismatch(self, tmp_path):
        path = tmp_path / "euler.txt"
        cache_store(compute_table(SeqParams(2, 0), 3), path)
        with pytest.raises(CacheFormatError, match="line 1"):
            cache_load(SeqParams(3, 0), path)

    def test_truncated_entry_names_line(self, tmp_path):
        path = tmp_path / "euler.txt"
        cache_store(compute_table(SeqParams(2, 0), 3), path)
        text = path.read_text().splitlines()
        text[2] = "1 -1/"
        path.write_text("\n".join(text) + "\n")
        with pytest.raises(CacheFormatError, match="line 3"):
            cache_load(SeqParams(2, 0), path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "euler.txt"
        path.write_text("not a cache\n")
        with pytest.raises(CacheFormatError, match="line 1"):
            cache_load(SeqParams(2, 0), path)

    def test_index_gap_rejected(self, tmp_path):
        path = tmp_path / "euler.txt"
        cache_store(compute_table(SeqParams(2, 0), 3), path)
        text = path.read_text().splitlines()
        del text[2]
        path.write_text("\n".join(text) + "\n")
        with pytest.raises(CacheFormatError, match="line 3"):
            cache_load(SeqParams(2, 0), path)

    def test_unreduced_fraction_rejected(self, tmp_path):
        path = tmp_path / "euler.txt"
        path.write_text("congruential-euler-cache v1 N=2 j=0\n0 2/4\n")
        with pytest.raises(CacheFormatError, match="line 2"):
            cache_load(SeqParams(2, 0), path)

    def test_wrong_reduced_entry_names_line(self, tmp_path):
        path = tmp_path / "euler.txt"
        cache_store(compute_table(SeqParams(4, 2), 5), path)
        text = path.read_text().splitlines()
        assert text[4] == "3 -8018/455"
        text[4] = "3 -8017/455"  # well formed and reduced, but not E_12
        path.write_text("\n".join(text) + "\n")
        with pytest.raises(CacheFormatError, match=f"line 5: entry 3 .* mod {CACHE_CHECK_PRIME}"):
            cache_load(SeqParams(4, 2), path)

    def test_every_single_digit_numerator_edit_is_rejected(self, tmp_path):
        path = tmp_path / "euler.txt"
        cache_store(compute_table(SeqParams(4, 2), 5), path)
        lines = path.read_text().splitlines()
        edits = 0
        for row in range(1, len(lines)):
            index, fraction = lines[row].split(" ")
            numerator, denominator = fraction.split("/")
            for position, old in enumerate(numerator):
                if not old.isdigit():
                    continue
                for new in "0123456789".replace(old, ""):
                    edited = numerator[:position] + new + numerator[position + 1:]
                    changed = lines[:row] + [f"{index} {edited}/{denominator}"] + lines[row + 1:]
                    path.write_text("\n".join(changed) + "\n")
                    with pytest.raises(CacheFormatError, match=f"line {row + 1}:"):
                        cache_load(SeqParams(4, 2), path)
                    edits += 1
        assert edits == 9 * len("22268018302258680948762")

    def test_table_too_long_for_the_check_prime(self, tmp_path, monkeypatch):
        # a small stand-in for q: (4,2) entry n needs q > 4n + 2
        monkeypatch.setattr(engine, "CACHE_CHECK_PRIME", 11)
        path = tmp_path / "euler.txt"
        cache_store(compute_table(SeqParams(4, 2), 2), path)
        assert cache_load(SeqParams(4, 2), path).max_index == 2
        cache_store(compute_table(SeqParams(4, 2), 3), path)
        with pytest.raises(CacheFormatError, match="line 5: too many entries to check mod 11"):
            cache_load(SeqParams(4, 2), path)

    def test_store_format_is_stable(self, tmp_path):
        path = tmp_path / "euler.txt"
        cache_store(SeqTable(SeqParams(4, 2), [Fraction(2), Fraction(-2, 15)]), path)
        assert path.read_text() == (
            "congruential-euler-cache v1 N=4 j=2\n0 2/1\n1 -2/15\n"
        )

    def test_failed_write_leaves_the_old_file(self, tmp_path):
        path = tmp_path / "euler.txt"
        cache_store(compute_table(SeqParams(2, 0), 3), path)
        before = path.read_bytes()
        # a file-size limit on this process makes the write fail part-way
        # (EFBIG), as a full disk would
        soft, hard = resource.getrlimit(resource.RLIMIT_FSIZE)
        resource.setrlimit(resource.RLIMIT_FSIZE, (64, hard))
        try:
            with pytest.raises(OSError):
                cache_store(compute_table(SeqParams(2, 0), 30), path)
        finally:
            resource.setrlimit(resource.RLIMIT_FSIZE, (soft, hard))
        assert path.read_bytes() == before
        assert [entry.name for entry in tmp_path.iterdir()] == ["euler.txt"]


class TestSeedMemo:
    def test_extends_only_past_the_seeded_prefix(self, forget_tables, count_rows):
        params = SeqParams(4, 2)
        expected = oracle_table(params, 9).values
        forget_tables(params)
        seed_memo(SeqTable(params, expected[:5]))
        assert compute_table(params, 9).values == expected
        assert len(count_rows) == 5

    def test_keeps_the_entries_the_memo_holds(self, forget_tables):
        params = SeqParams(4, 2)
        forget_tables(params)
        expected = compute_table(params, 6).values
        seed_memo(SeqTable(params, [Fraction(7)] * 3))
        assert engine._TABLES[params] == expected
        seed_memo(SeqTable(params, expected + [Fraction(7)]))
        assert engine._TABLES[params] == expected + [Fraction(7)]

    def test_empty_table_leaves_a_working_memo(self, forget_tables):
        params = SeqParams(4, 2)
        forget_tables(params)
        seed_memo(SeqTable(params, []))
        assert compute_table(params, 1).values == [2, Fraction(-2, 15)]
