"""Tests for period detection and conjecture scanning."""

import copy
import json
import pickle

import pytest

from congruential_euler.scanner import (
    REFERENCE_ROWS,
    PeriodDetection,
    PeriodScanResult,
    ReferenceOutcome,
    ReferenceRow,
    _reference_outcome,
    detect_eventual_period,
    emit_table,
    scan_conjecture,
)


class TestDetect:
    def test_preperiod_then_cycle(self):
        found = detect_eventual_period([5, 7, 1, 4, 7, 1, 4, 7, 1, 4], 3)
        assert (found.status, found.n0, found.period) == ("found", 1, 3)

    def test_constant_sequence(self):
        found = detect_eventual_period([9] * 12, 4)
        assert (found.status, found.n0, found.period) == ("found", 0, 1)

    def test_injective_window_has_no_period(self):
        found = detect_eventual_period(list(range(30)), 5)
        assert found.status == "no_period"

    def test_short_window_is_inconclusive(self):
        found = detect_eventual_period([1, 2, 1, 2], 3)
        assert found.status == "inconclusive"

    def test_requires_two_full_periods_in_tail(self):
        # period 3 fits from n0=4 but the tail is too short; period 4 fails too
        seq = [0, 1, 2, 3, 9, 5, 6, 5]
        found = detect_eventual_period(seq, 2)
        assert found.status == "no_period"

    def test_least_preperiod_beats_a_later_valid_witness(self):
        # (n0+1, P) = (3, 3) is a valid witness, as in the printed rows with
        # a non-minimal preperiod; the detector must report (2, 3)
        seq = [8, 9, 1, 2, 3, 1, 2, 3, 1, 2, 3, 1]
        assert all(seq[n] == seq[n + 3] for n in range(3, len(seq) - 3))
        assert seq[1] != seq[4]
        found = detect_eventual_period(seq, 3)
        assert (found.status, found.n0, found.period) == ("found", 2, 3)

    def test_smallest_period_wins(self):
        # both 2 and 4 are periods; 2 must be reported
        found = detect_eventual_period([1, 2] * 8, 4)
        assert (found.n0, found.period) == (0, 2)

    def test_rejects_bad_max_period(self):
        with pytest.raises(ValueError):
            detect_eventual_period([1, 2, 3], 0)


class TestScan:
    def test_mod_9_cycle(self):
        result = scan_conjecture(3, 2, 3, 2)
        assert result.status == "ok"
        assert result.n0 == 1
        assert result.cycle == [7, 1, 4]
        assert result.period_index == 18
        assert result.conjecture_period == 18
        assert result.divides_conjecture

    def test_mod_27_cycle(self):
        result = scan_conjecture(3, 2, 3, 3)
        assert result.n0 == 2
        assert result.cycle == [10, 13, 16, 19, 22, 25, 1, 4, 7]
        assert result.period_index == 54

    def test_mod_5_twenty_thirteen(self):
        result = scan_conjecture(5, 4, 13, 1)
        assert (result.n0, result.period_index) == (0, 20)

    def test_mod_3_six_one(self):
        result = scan_conjecture(3, 2, 1, 1)
        assert (result.n0, result.period_index) == (1, 6)

    def test_minimal_period_beats_conjectured(self):
        # (21,16) at r=1: the observed period 21 strictly divides q*p = 42
        result = scan_conjecture(7, 3, 16, 1)
        assert result.period_index == 21
        assert result.conjecture_period == 42
        assert result.divides_conjecture

    def test_parameter_validation(self):
        with pytest.raises(ValueError, match="divide"):
            scan_conjecture(5, 3, 0, 1)
        with pytest.raises(ValueError):
            scan_conjecture(4, 1, 0, 1)
        with pytest.raises(ValueError):
            scan_conjecture(3, 2, 6, 1)
        with pytest.raises(ValueError):
            scan_conjecture(3, 2, 0, 0)

    def test_m2_always_admitted(self):
        # p = 2 admits m = 2 although 2 does not divide p - 1 = 1
        result = scan_conjecture(2, 2, 0, 1)
        assert result.status == "ok"
        assert result.conjecture_period == 4

    def test_short_window_inconclusive(self):
        result = scan_conjecture(3, 2, 3, 2, n_max=5)
        assert result.status == "inconclusive"

    def test_short_residue_table_is_an_integrality_failure(self, monkeypatch):
        # a residue table of length L <= n_max means entry L is not p-integral
        from congruential_euler import scanner

        monkeypatch.setattr(scanner, "residue_table", lambda params, p, r, n_max: [6, 7, 1])
        result = scan_conjecture(3, 2, 3, 2, n_max=30)
        assert result.status == "integrality_failed"
        assert result.note == "denominator of entry n=3 is divisible by 3"
        assert result.cycle == [] and result.n0 is None

    def test_minimality_certified_over_divisors(self):
        # no proper divisor of the detected period is itself a period
        result = scan_conjecture(3, 2, 3, 3)
        table_period = result.period_index // 6
        assert table_period == 9
        from congruential_euler.engine import SeqParams, compute_table

        values = compute_table(SeqParams(6, 3), result.n_max).values
        seq = [int(v.numerator * pow(v.denominator, -1, 27)) % 27 for v in values]
        for divisor in (1, 3):
            assert any(
                seq[n] != seq[n + divisor]
                for n in range(result.n0, len(seq) - divisor)
            )

    @pytest.mark.parametrize("p,r", [(2, 1), (2, 2), (3, 1), (3, 2)])
    def test_half_step_offset_zero_period_divides_2pr(self, p, r):
        # scans of (2p, 0) must be consistent with the proved sign
        # anti-periodicity of the (p, 0) family: period divides 2*p^r
        result = scan_conjecture(p, 2, 0, r)
        assert result.status == "ok"
        assert (2 * p**r) % result.period_index == 0


class TestReferenceOutcome:
    # (mp, j) = (6, 3) at p = 3 scans to (n0, period) = (1, 6) at r = 1 and
    # (1, 18) at r = 2; the companion (m, j, r) = (2, 3, 2) is the r = 2 scan.
    def test_own_match_keeps_the_row_scan(self):
        outcome = _reference_outcome(ReferenceRow(6, 3, 3, 1, 1, 6, companion=(2, 3, 2)))
        assert outcome.matches and outcome.result.r == 1
        assert [c.r for c in outcome.companions] == [2]
        assert "companion scan (mp,j)=(6,3) r=2: n0=1 period=18" in outcome.result.note
        assert "matched by" not in outcome.result.note

    def test_companion_match_swaps_the_scans(self):
        outcome = _reference_outcome(ReferenceRow(6, 3, 3, 1, 1, 18, companion=(2, 3, 2)))
        assert outcome.matches and outcome.result.r == 2
        assert [c.r for c in outcome.companions] == [1]
        assert outcome.result.note.endswith("; matched by r=2 scan")

    def test_both_matching_keeps_the_row_scan(self):
        outcome = _reference_outcome(ReferenceRow(6, 3, 3, 1, 1, 6, companion=(2, 3, 1)))
        assert outcome.matches and outcome.result.r == 1
        assert "matched by" not in outcome.result.note

    def test_no_match_keeps_the_row_scan(self):
        outcome = _reference_outcome(ReferenceRow(6, 3, 3, 1, 0, 54, companion=(2, 3, 2)))
        assert not outcome.matches and outcome.result.r == 1
        assert [c.r for c in outcome.companions] == [2]
        assert "published (n0=0, period=54) vs computed (n0=1, period=6)" in outcome.result.note
        assert "matched by" not in outcome.result.note

    def test_row_without_companion(self):
        outcome = _reference_outcome(ReferenceRow(6, 3, 3, 1, 1, 6))
        assert outcome.matches and outcome.companions == []
        assert outcome.result.note == "reproduced"


class TestValueClasses:
    """PeriodDetection and ReferenceRow are immutable, hashable values; the others are mutable."""

    def test_detection(self):
        found = PeriodDetection("found", 1, 3)
        assert found == PeriodDetection(status="found", n0=1, period=3)
        assert found == detect_eventual_period([5, 0, 1, 2, 0, 1, 2, 0, 1, 2], 3)
        assert found != PeriodDetection("found", 0, 3) and found != ("found", 1, 3)
        assert hash(found) == hash(PeriodDetection("found", 1, 3))
        assert repr(found) == "PeriodDetection(status='found', n0=1, period=3)"
        assert repr(PeriodDetection("no_period")) == (
            "PeriodDetection(status='no_period', n0=None, period=None)"
        )

    def test_reference_row(self):
        row = REFERENCE_ROWS[9]
        same = ReferenceRow(mp=10, j=7, p=5, r=3, published_n0=2, published_period=500,
                            note="printed among rows otherwise labeled (10,4)", companion=(2, 4, 3))
        assert row == same and hash(row) == hash(same) and len(set(REFERENCE_ROWS)) == 20
        assert ReferenceRow(6, 1, 3, 1, 1, 6) == REFERENCE_ROWS[0] != ReferenceRow(6, 1, 3, 1, 1, 7)
        assert row != (10, 7, 5, 3, 2, 500, row.note, (2, 4, 3))
        assert repr(row) == (
            "ReferenceRow(mp=10, j=7, p=5, r=3, published_n0=2, published_period=500, "
            "note='printed among rows otherwise labeled (10,4)', companion=(2, 4, 3))"
        )

    @pytest.mark.parametrize("value", [PeriodDetection("found", 1, 3), REFERENCE_ROWS[9]],
                             ids=["detection", "row"])
    def test_values_are_immutable(self, value):
        with pytest.raises(AttributeError, match="is immutable"):
            value.status = "other"
        with pytest.raises(AttributeError, match="is immutable"):
            del value.p
        with pytest.raises(AttributeError):
            value.other = 1

    def test_scan_result(self):
        result = scan_conjecture(3, 2, 3, 2)
        fields = {"p": 3, "m": 2, "j": 3, "r": 2, "n_max": 30, "status": "ok", "n0": 1,
                  "period_index": 18, "cycle": [7, 1, 4], "conjecture_period": 18,
                  "divides_conjecture": True, "note": ""}
        assert result == PeriodScanResult(**fields) == scan_conjecture(3, 2, 3, 2)
        assert result != PeriodScanResult(**{**fields, "cycle": [7, 1]})
        assert result != tuple(fields.values())
        assert result._asdict() == fields and list(result._asdict()) == list(fields)
        assert repr(result) == (
            "PeriodScanResult(p=3, m=2, j=3, r=2, n_max=30, status='ok', n0=1, period_index=18, "
            "cycle=[7, 1, 4], conjecture_period=18, divides_conjecture=True, note='')"
        )
        assert scan_conjecture(3, 2, 3, 2, n_max=4)._asdict() == {
            **fields, "n_max": 4, "status": "inconclusive", "n0": None, "period_index": None,
            "cycle": [], "divides_conjecture": None,
        }
        result.note = "kept"  # _reference_outcome writes its note
        assert result.note == "kept"
        with pytest.raises(TypeError):
            hash(result)

    def test_reference_outcome(self):
        row = ReferenceRow(6, 3, 3, 1, 1, 6)
        outcome = _reference_outcome(row)
        assert outcome == ReferenceOutcome(row=row, result=outcome.result, matches=True,
                                           companions=[])
        assert outcome != ReferenceOutcome(row, outcome.result, False, [])
        assert repr(outcome).startswith(
            "ReferenceOutcome(row=ReferenceRow(mp=6, j=3, p=3, r=1, published_n0=1, "
            "published_period=6, note='', companion=None), result=PeriodScanResult(p=3, "
        )
        assert repr(outcome).endswith("note='reproduced'), matches=True, companions=[])")
        with pytest.raises(TypeError):
            hash(outcome)

    def test_fields_are_checked(self):
        row, result = ReferenceRow(6, 3, 3, 1, 1, 6), scan_conjecture(3, 2, 3, 1)
        outcome = ReferenceOutcome(row, result, True, companions=[])
        assert outcome == ReferenceOutcome(companions=[], matches=True, result=result, row=row)
        calls = [
            ((row, result, True), {}),  # a missing field
            ((row, result, True, [], None), {}),  # one value too many
            ((row, result, True, []), {"other": 1}),  # an unknown field
            ((row, result, True, []), {"row": row}),  # a field given twice
        ]
        for args, kwargs in calls:
            with pytest.raises(TypeError, match=r"ReferenceOutcome\(\) takes the fields"):
                ReferenceOutcome(*args, **kwargs)

    def test_copies_are_equal(self):
        values = [PeriodDetection("found", 1, 3), REFERENCE_ROWS[9], scan_conjecture(3, 2, 3, 2),
                  _reference_outcome(REFERENCE_ROWS[9])]
        for value in values:
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
                assert pickle.loads(pickle.dumps(value, protocol)) == value
            assert copy.copy(value) == value and copy.deepcopy(value) == value


class TestEmit:
    def setup_method(self):
        self.result = scan_conjecture(3, 2, 3, 2)

    def test_text_contains_cycle(self):
        text = emit_table([self.result], "text")
        assert "cycle=[7,1,4]" in text
        assert "(mp,j)=(6,3)" in text

    def test_empty_is_header_only(self):
        assert emit_table([], "text") == "Parameters\tp\tr\tn0\tperiod\tcycle"

    def test_json_round_trips(self):
        lines = emit_table([self.result], "json").splitlines()
        assert len(lines) == 1
        payload = json.loads(lines[0])
        assert payload["cycle"] == [7, 1, 4]
        assert payload["period_index"] == 18

    def test_tsv_has_all_fields(self):
        lines = emit_table([self.result], "tsv").splitlines()
        assert lines[0].startswith("p\tm\tj\tr")
        assert lines[1].split("\t")[:4] == ["3", "2", "3", "2"]

    def test_results_sorted_before_emission(self):
        a = scan_conjecture(3, 2, 3, 1)
        b = scan_conjecture(3, 2, 1, 1)
        text1 = emit_table([a, b], "text")
        text2 = emit_table([b, a], "text")
        assert text1 == text2
        assert text1.splitlines()[1].startswith("(mp,j)=(6,1)")

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            emit_table([], "yaml")


def test_scan_results_are_deterministic():
    a = emit_table([scan_conjecture(3, 2, 3, 2)], "json")
    b = emit_table([scan_conjecture(3, 2, 3, 2)], "json")
    assert a == b
