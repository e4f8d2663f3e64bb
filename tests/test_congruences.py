"""Tests for the congruence verifier."""

import json
from fractions import Fraction

import pytest

from congruential_euler import congruences
from congruential_euler.congruences import (
    CongruenceReport,
    DeltaExponent,
    check_gessel,
    check_komatsu_liu,
    check_main_theorem,
    check_prime_power,
    check_special_40,
    check_special_60,
    verify_lemma_series,
    verify_lemma_Xm,
)
from congruential_euler.engine import SeqParams, euler_number
from congruential_euler.exact import exp_section, series_derivative, series_multiply, vp


def test_delta_exponent():
    assert DeltaExponent(0).delta == 1
    assert all(DeltaExponent(j).delta == 0 for j in range(1, 5))


class TestMainTheorem:
    def test_lehmer_w0_plus_w3(self):
        # W_0 + W_3 = 1 + (-1) = 0: infinite valuation, passes for any r
        assert euler_number(SeqParams(3, 0), 0) + euler_number(SeqParams(3, 0), 1) == 0
        assert check_main_theorem(3, 0, 1, [0]).passed

    def test_lehmer_w3_plus_w6(self):
        total = euler_number(SeqParams(3, 0), 1) + euler_number(SeqParams(3, 0), 2)
        assert total == 18 and vp(total, 3) == 2
        assert check_main_theorem(3, 0, 1, [1]).passed

    def test_offset_one_case(self):
        assert euler_number(SeqParams(3, 1), 1) == Fraction(-1, 4)
        # E_0 + E_3 = 3/4 has valuation exactly 1 = r + delta(1)
        assert check_main_theorem(3, 1, 1, [0]).passed

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            check_main_theorem(4, 0, 1, [0])
        with pytest.raises(ValueError):
            check_main_theorem(2, 0, 1, [0])
        with pytest.raises(ValueError):
            check_main_theorem(5, 5, 1, [0])
        with pytest.raises(ValueError):
            check_main_theorem(5, 0, 0, [0])

    def test_small_grid_passes(self):
        for p in (3, 5):
            for j in range(p):
                for r in (1, 2):
                    assert check_main_theorem(p, j, r, range(0, 11)).passed

    def test_delta_bound_is_sharp_for_lehmer(self):
        # r = 1, j = 0 requires valuation >= 2; some n <= 20 attains exactly 2
        params = SeqParams(3, 0)
        attained = []
        for n in range(21):
            total = euler_number(params, n) + euler_number(params, n + 1)
            if total != 0:
                attained.append(vp(total, 3))
        assert min(attained) == 2

    def test_report_shape(self):
        report = check_main_theorem(3, 0, 1, range(0, 5))
        payload = json.loads(report.to_json())
        assert payload["theorem_id"] == "main_theorem"
        assert payload["status"] == "pass"
        assert payload["instances_checked"] == 5
        assert payload["failures"] == []


class TestKomatsuLiu:
    def test_examples(self):
        assert check_komatsu_liu(1, [(0, 6)]).passed
        assert check_komatsu_liu(1, [(1, 7)]).passed

    def test_hypothesis_violation_is_an_error(self):
        with pytest.raises(ValueError, match="hypothesis"):
            check_komatsu_liu(1, [(0, 1)])

    def test_k2_window(self):
        pairs = [(n, n + 6) for n in range(0, 8)]
        assert check_komatsu_liu(2, pairs).passed


class TestGessel:
    def test_lehmer_vs_alternating(self):
        # E_n^{(1,0)} = (-1)^n, so W_{3n} == (-1)^n mod 9
        assert euler_number(SeqParams(1, 0), 5) == -1
        assert check_gessel(3, 1, 1, [1]).passed
        assert check_gessel(3, 1, 1, [2]).passed

    def test_power_of_two(self):
        assert check_gessel(2, 1, 2, range(0, 11)).passed

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            check_gessel(6, 1, 1, [0])
        with pytest.raises(ValueError):
            check_gessel(3, 0, 1, [0])


class TestPrimePower:
    def test_examples(self):
        assert check_prime_power(3, 2, 1, [0]).passed
        assert check_prime_power(5, 2, 2, range(0, 4)).passed

    def test_r_range_rule(self):
        with pytest.raises(ValueError, match="<= 4"):
            check_prime_power(3, 1, 5, [0])
        # r = 5 is fine for p = 5
        assert check_prime_power(5, 1, 5, [0]).passed

    def test_rejects_even_prime(self):
        with pytest.raises(ValueError):
            check_prime_power(2, 1, 1, [0])


class TestSpecial40:
    def test_first_values(self):
        params = SeqParams(4, 0)
        assert euler_number(params, 1) == -1
        assert euler_number(params, 2) == 69
        assert check_special_40(1, [0]).passed
        assert check_special_40(1, [1]).passed

    def test_r3_window(self):
        assert check_special_40(3, range(0, 11)).passed


class TestSpecial60:
    def test_stabilizes(self):
        n0, report = check_special_60(1, 20)
        assert report.passed
        assert n0 is not None and 0 <= n0 <= 20
        # the tail really holds from n0
        params = SeqParams(6, 0)
        for n in range(n0, 21):
            diff = euler_number(params, n + 1) - euler_number(params, n)
            assert diff % 3 == 0

    def test_r2_stabilizes(self):
        n0, report = check_special_60(2, 30)
        assert report.passed and n0 is not None

    def test_degenerate_window_is_inconclusive(self):
        n0, report = check_special_60(1, 0)
        assert n0 is None
        assert report.status == "inconclusive"
        assert not report.failures


class TestLemmaXm:
    def test_odd_case_mod_3(self):
        # X_1 == T - 1 mod 3: the verifier's closed form reduces to this
        assert verify_lemma_Xm(3, 1, 30).passed

    def test_odd_case_mod_2(self):
        assert verify_lemma_Xm(2, 1, 30).passed

    def test_even_case_mod_3(self):
        assert verify_lemma_Xm(3, 2, 30).passed

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            verify_lemma_Xm(5, 1, 60)
        with pytest.raises(ValueError):
            verify_lemma_Xm(3, 1, 12)


class TestLemmaSeries:
    def test_difference_coefficient_n1(self):
        # coefficient of z^6/6! in (H''')^2 - H^2 equals 18
        h = exp_section(6, 0, 9)
        h3 = series_derivative(h, 3)
        diff = series_multiply(h3, h3) - series_multiply(h, h)
        assert diff[6] == 18

    def test_cubic_constant_and_valuation(self):
        report = verify_lemma_series(4)
        assert report.passed

    def test_rejects_tiny_window(self):
        with pytest.raises(ValueError):
            verify_lemma_series(1)


def test_report_validation():
    with pytest.raises(ValueError):
        CongruenceReport("nonsense", "x", 1)
    with pytest.raises(ValueError):
        CongruenceReport("gessel", "x", 0)
    with pytest.raises(ValueError):
        CongruenceReport("gessel", "x", 1, failures=[{"params": "x", "lhs": 0, "rhs": 1}])


def test_reports_are_deterministic():
    a = check_main_theorem(3, 0, 1, range(0, 10)).to_json()
    b = check_main_theorem(3, 0, 1, range(0, 10)).to_json()
    assert a == b


@pytest.mark.parametrize(
    "check, index",
    [
        (lambda: check_komatsu_liu(1, [(0, 6)]), 0),
        (lambda: check_gessel(2, 1, 1, [0]), 0),
        (lambda: check_special_40(1, [0]), 1),  # the shifted side is read first
    ],
    ids=["komatsu_liu", "gessel", "special_40"],
)
def test_non_integer_value_is_an_arithmetic_fault(check, index, monkeypatch):
    monkeypatch.setattr(congruences, "euler_number", lambda params, n: Fraction(1, 2))
    with pytest.raises(ArithmeticError, match=f"table index n={index} is not an integer"):
        check()
