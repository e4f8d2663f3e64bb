"""Tests for the table engine, its series oracle, and the disk cache."""

import copy
import pickle
import resource
import sys
import tracemalloc
from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import example, given, settings
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
        with pytest.raises(ValueError, match="SeqParams: N must be a positive integer"):
            SeqParams(0, 0)
        with pytest.raises(ValueError, match="SeqParams: j must be nonnegative"):
            SeqParams(2, -1)
        with pytest.raises(ValueError):
            euler_number(SeqParams(2, 0), -1)


class TestValueClasses:
    """SeqParams is an immutable, hashable value; SeqTable is a mutable record."""

    def test_params_equality_and_hash(self):
        params = SeqParams(4, 2)
        assert params == SeqParams(N=4, j=2) and not params != SeqParams(4, 2)
        assert params != SeqParams(4, 1) and params != SeqParams(3, 2)
        assert params != (4, 2) and not params == (4, 2)
        assert hash(params) == hash(SeqParams(4, 2))
        assert {params: "kept"}[SeqParams(4, 2)] == "kept"
        assert len({params, SeqParams(4, 2), SeqParams(2, 4)}) == 2

    def test_params_repr(self):
        assert repr(SeqParams(4, 2)) == "SeqParams(N=4, j=2)"

    def test_params_are_immutable(self):
        params = SeqParams(4, 2)
        with pytest.raises(AttributeError):
            params.N = 5
        with pytest.raises(AttributeError):
            params.other = 5
        with pytest.raises(AttributeError):
            del params.j
        assert (params.N, params.j) == (4, 2)

    def test_table_equality_and_repr(self):
        table = SeqTable(SeqParams(2, 0), [Fraction(1), Fraction(-1)])
        assert table == compute_table(SeqParams(2, 0), 1)
        assert table == SeqTable(params=SeqParams(2, 0), values=[1, -1])
        assert not table != SeqTable(SeqParams(2, 0), [1, -1])
        assert table != SeqTable(SeqParams(2, 1), [1, -1])
        assert table != SeqTable(SeqParams(2, 0), [1])
        assert table != (SeqParams(2, 0), [1, -1])
        assert repr(table) == (
            "SeqTable(params=SeqParams(N=2, j=0), values=[Fraction(1, 1), Fraction(-1, 1)])"
        )

    def test_table_fields_bind_by_position_or_keyword(self):
        params = SeqParams(2, 0)
        assert SeqTable(params, values=[1]) == SeqTable(values=[1], params=params)
        # a missing field, one value too many, an unknown field, a field given twice
        for args, kwargs in [((params,), {}), ((params, [1], None), {}),
                             ((params, [1]), {"other": 1}), ((params, [1]), {"params": params})]:
            with pytest.raises(TypeError, match=r"SeqTable\(\) takes the fields \(params, values\)"):
                SeqTable(*args, **kwargs)

    def test_table_is_mutable_and_unhashable(self):
        table = SeqTable(SeqParams(2, 0), [Fraction(1)])
        table.values = [Fraction(1), Fraction(-1)]
        assert table == compute_table(SeqParams(2, 0), 1)
        with pytest.raises(TypeError):
            hash(table)

    def test_copies_are_equal(self):
        for value in (SeqParams(4, 2), compute_table(SeqParams(4, 2), 3)):
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
                assert pickle.loads(pickle.dumps(value, protocol)) == value
            assert copy.copy(value) == value and copy.deepcopy(value) == value


def plain_recurrence(N: int, j: int, n_max: int) -> list[Fraction]:
    """Reference: the recurrence with one reduced Fraction operation per term."""
    values = [Fraction(factorial(j))]
    for n in range(1, n_max + 1):
        total = sum((comb(N * n + j, N * m) * values[m] for m in range(n)), Fraction(0))
        values.append(-total / comb(N * n + j, N * n))
    return values


class TestScaledRecurrence:
    @settings(max_examples=120, deadline=None)
    @given(N=st.integers(1, 8), j=st.integers(0, 12), n_max=st.integers(0, 25),
           first=st.integers(0, 25))
    @example(N=1, j=1, n_max=25, first=0)
    @example(N=3, j=7, n_max=25, first=9)
    # the lcm of the denominators grows in 43 (6, 3) and 59 (3, 5) of these
    # 60 rows, so grow rescales every lifted entry again and again
    @example(N=6, j=3, n_max=60, first=0)
    @example(N=3, j=5, n_max=60, first=0)
    def test_matches_plain_fraction_recurrence(self, N, j, n_max, first):
        params = SeqParams(N, j)
        engine._TABLES.pop(params, None)
        try:
            compute_table(params, min(first, n_max))  # then extend a memo prefix
            assert compute_table(params, n_max).values == plain_recurrence(N, j, n_max)
        finally:
            engine._TABLES.pop(params, None)

    @pytest.mark.parametrize("N,j", [(1, 1), (4, 2), (5, 0), (6, 3), (3, 5)])
    def test_extending_in_steps_equals_one_shot(self, forget_tables, N, j):
        params = SeqParams(N, j)
        forget_tables(params)
        for n_max in (5, 17, 40):
            stepped = compute_table(params, n_max).values
        forget_tables(params)
        assert stepped == compute_table(params, 40).values

    @pytest.mark.parametrize("N,j", [(1, 1), (3, 5)])
    def test_growing_one_row_per_call_equals_one_shot(self, forget_tables, N, j):
        # one euler_number call per row, as analytic.bernoulli makes them:
        # each call takes a new top and lifts the whole memo again
        params = SeqParams(N, j)
        forget_tables(params)
        grown = [euler_number(params, n) for n in range(41)]
        forget_tables(params)
        assert grown == compute_table(params, 40).values

    def test_extending_a_seeded_rational_prefix_equals_the_oracle(self, forget_tables, count_rows):
        params = SeqParams(4, 2)
        forget_tables(params)
        seed_memo(oracle_table(params, 10))
        assert compute_table(params, 40).values == oracle_table(params, 40).values
        assert count_rows == [4 * n + 2 for n in range(11, 41)]



def split_top(top: int) -> tuple[int, int]:
    """(shift, odd) with top = 2^shift * odd."""
    shift = (top & -top).bit_length() - 1
    return shift, top >> shift


# 0! and 1! have no factor 2, 2! has odd part 1, and (N(n_max-1))! for
# (4, 2) n <= 300 is a top the recurrence uses
TOPS = [factorial(0), factorial(1), factorial(2), factorial(12), factorial(4 * 299)]


class TestExactQuotient:
    @pytest.mark.parametrize("top", TOPS)
    @pytest.mark.parametrize("k", [0, 1, -1, 2**300 + 1, -(2**300 + 1)])
    def test_matches_floor_division(self, top, k):
        assert engine._exact_quotient(k * top, *split_top(top), 1, 1)[0] == k * top // top == k

    @settings(deadline=None)
    @given(top=st.sampled_from(TOPS), k=st.integers(-(2**2000), 2**2000))
    def test_random_multiples_match_floor_division(self, top, k):
        assert engine._exact_quotient(k * top, *split_top(top), 1, 1)[0] == k

    def test_lifts_and_keeps_the_inverse(self):
        top = factorial(300)
        shift, odd = split_top(top)
        k = -(3**700)  # 1110 bits: the inverse doubles from 1 bit to 2048
        q, inv, bits = engine._exact_quotient(k * top, shift, odd, 1, 1)
        assert q == k and bits == 2048 and odd * inv % 2**bits == 1
        # a narrower row masks the kept inverse instead of lifting it again
        assert engine._exact_quotient(5 * top, shift, odd, inv, bits) == (5, inv, bits)

    @pytest.mark.parametrize("N,j", [(5, 0), (3, 5)])
    def test_every_row_matches_plain_fraction_recurrence(self, forget_tables, N, j):
        forget_tables(SeqParams(N, j))
        assert compute_table(SeqParams(N, j), 100).values == plain_recurrence(N, j, 100)


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


@pytest.mark.parametrize("N,j,n_max", [(6, 3, 81), (20, 13, 40)])
def test_oracle_agrees_with_recurrence_on_long_sums(N, j, n_max):
    # entry n of the oracle sums n terms, so these sums reach 81 and 40
    # terms and leave an odd node over at several levels of the pairwise tree
    params = SeqParams(N, j)
    assert compute_table(params, n_max).values == oracle_table(params, n_max).values


def test_oracle_bernoulli_odd_indices_vanish():
    values = oracle_table(SeqParams(1, 1), 12).values
    assert values[1] == Fraction(-1, 2)
    assert all(values[n] == 0 for n in range(3, 13, 2))


def exact_residues(N: int, j: int, p: int, r: int, n_max: int) -> list[int]:
    """Reference: the exact table mod p^r, up to its first entry that is not p-integral."""
    residues = []
    for value in compute_table(SeqParams(N, j), n_max).values:
        if value.denominator % p == 0:
            break  # the residue table stops at the first non-integral entry
        residues.append(residue_mod_prime_power(value, p, r))
    return residues


class TestResidueTable:
    @settings(max_examples=150, deadline=None)
    @given(
        N=st.integers(1, 12),
        j=st.integers(0, 12),
        p=st.sampled_from((2, 3, 5, 7, 11)),
        r=st.integers(1, 4),
        n_max=st.integers(0, 20),
    )
    @example(N=2, j=7, p=3, r=2, n_max=12)  # j >= 2N
    @example(N=3, j=6, p=2, r=3, n_max=12)  # j = 0 mod N, j > 0
    @example(N=1, j=0, p=5, r=2, n_max=20)  # N = 1
    @example(N=1, j=4, p=2, r=3, n_max=20)
    @example(N=6, j=3, p=3, r=3, n_max=20)  # nonzero drops v_n
    @example(N=42, j=9, p=7, r=2, n_max=12)
    def test_matches_exact_residues(self, N, j, p, r, n_max):
        assert residue_table(SeqParams(N, j), p, r, n_max) == exact_residues(N, j, p, r, n_max)

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

    @pytest.mark.parametrize("N,j,p,r,n_max,carry_free,length", [
        (4, 0, 101, 2, 40, 26, 41),  # rows n <= 25 have 4n < 101
        (3, 1, 29, 3, 30, 10, 19),  # rows n <= 9 have 3n + 1 < 29; entry 19 is not 29-integral
    ])
    def test_carry_free_rows_then_carry_rows(self, N, j, p, r, n_max, carry_free, length):
        assert sum(N * n + j < p for n in range(n_max + 1)) == carry_free
        expected = exact_residues(N, j, p, r, n_max)
        assert len(expected) == length
        assert residue_table(SeqParams(N, j), p, r, n_max) == expected

    @pytest.mark.parametrize("p,r,n_max", [(4, 1, 5), (3, 0, 5), (3, 1, -1)])
    def test_invalid_arguments(self, p, r, n_max):
        with pytest.raises(ValueError):
            residue_table(SeqParams(2, 0), p, r, n_max)

    def test_state_does_not_grow_with_the_factorial_range(self):
        # one entry, but u(k) runs up to k = 20000: only O(n_max) values are kept
        tracemalloc.start()
        try:
            values = residue_table(SeqParams(1, 20000), CACHE_CHECK_PRIME, 1, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert values == [factorial(20000) % CACHE_CHECK_PRIME]
        assert peak < 100_000


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

    def test_blank_line_between_entries_rejected(self, tmp_path):
        path = tmp_path / "euler.txt"
        cache_store(compute_table(SeqParams(2, 0), 3), path)
        text = path.read_text().splitlines()
        text.insert(3, "")
        path.write_text("\n".join(text) + "\n")
        with pytest.raises(CacheFormatError, match="line 4: bad entry ''"):
            cache_load(SeqParams(2, 0), path)

    @pytest.mark.parametrize("content, message", [
        (b"", "line 1: empty cache file"),
        (b"congruential-euler-cache v1 N=2 j=0\n", "line 2: no entries"),
        (b"congruential-euler-cache v1 N=2 j=0\n0 1/0\n", "line 2: bad entry '0 1/0'"),
        (b"congruential-euler-cache v1 N=2 j=0\n0 1/1\xc3\xa9\n", "not ASCII text"),
        # forms that cache_store never writes, though each reads as the right value
        (b"congruential-euler-cache v1 N=02 j=0\n0 1/1\n", "line 1: bad header"),
        (b"congruential-euler-cache v1 N=2 j=0\n00 1/1\n", "line 2: bad entry '00 1/1'"),
        (b"congruential-euler-cache v1 N=2 j=0\n0 1/01\n", "line 2: bad entry '0 1/01'"),
        (b"congruential-euler-cache v1 N=2 j=0\n0 01/1\n", "line 2: bad entry '0 01/1'"),
    ], ids=["empty", "header_only", "zero_denominator", "non_ascii", "padded_header",
            "padded_index", "padded_denominator", "padded_numerator"])
    def test_malformed_file_rejected(self, tmp_path, content, message):
        path = tmp_path / "euler.txt"
        path.write_bytes(content)
        with pytest.raises(CacheFormatError, match=message):
            cache_load(SeqParams(2, 0), path)

    def test_negative_zero_rejected(self, tmp_path):
        # B_3 = 0 is the entry of (1, 1) at n = 3, and "-0/1" reads as 0
        path = tmp_path / "euler.txt"
        cache_store(compute_table(SeqParams(1, 1), 3), path)
        text = path.read_text().splitlines()
        assert text[4] == "3 0/1"
        text[4] = "3 -0/1"
        path.write_text("\n".join(text) + "\n")
        with pytest.raises(CacheFormatError, match="line 5: bad entry '3 -0/1'"):
            cache_load(SeqParams(1, 1), path)

    def test_round_trip_beyond_the_int_str_digit_limit(self, tmp_path, default_digit_limit):
        table = compute_table(SeqParams(42, 9), 70)
        assert abs(table.values[-1].numerator) > 10**4300
        path = tmp_path / "euler.txt"
        cache_store(table, path)
        assert cache_load(SeqParams(42, 9), path).values == table.values
        assert sys.get_int_max_str_digits() == 4300

    def test_round_trip_on_a_python_without_the_digit_limit(self, tmp_path, monkeypatch):
        # Pythons before 3.10.7 have no sys.set_int_max_str_digits, and no limit to lift
        monkeypatch.delattr(sys, "set_int_max_str_digits", raising=False)
        table = compute_table(SeqParams(4, 2), 6)
        path = tmp_path / "euler.txt"
        cache_store(table, path)
        assert cache_load(SeqParams(4, 2), path).values == table.values

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
        assert len(cache_load(SeqParams(4, 2), path).values) == 3
        cache_store(compute_table(SeqParams(4, 2), 3), path)
        with pytest.raises(CacheFormatError, match="line 5: too many entries to check mod 11"):
            cache_load(SeqParams(4, 2), path)

    def test_checking_a_hand_made_file_with_a_huge_N_keeps_memory_small(self, tmp_path):
        path = tmp_path / "euler_N20000_j0.txt"
        path.write_text("congruential-euler-cache v1 N=20000 j=0\n0 1/1\n1 -1/1\n")
        tracemalloc.start()
        try:
            table = cache_load(SeqParams(20000, 0), path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert table.values == [1, -1]
        assert peak < 100_000

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


@pytest.mark.parametrize("table", [compute_table, oracle_table], ids=lambda f: f.__name__)
def test_negative_n_max_rejected(table):
    with pytest.raises(ValueError, match=f"{table.__name__}: n_max must be nonnegative"):
        table(SeqParams(2, 0), -1)
