"""Tests for the congruence verifier."""

import copy
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from congruential_euler import congruences
from congruential_euler.congruences import (
    CongruenceReport,
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


def exact_residue(params, n, p, e):
    """E_{Nn}^{(N,j)} mod p^e from the exact table (the value must be p-integral)."""
    value = euler_number(params, n)
    modulus = p**e
    return value.numerator * pow(value.denominator, -1, modulus) % modulus


def exact_antiperiodic(params, p, e, shift, ns, summary):
    """Witnesses of v_p(E_n + E_{n+shift}) < e, from exact sums."""
    failures = []
    for n in ns:
        total = euler_number(params, n) + euler_number(params, n + shift)
        if total != 0 and vp(total, p) < e:
            failures.append({"params": f"{summary} n={n}", "lhs": vp(total, p), "rhs": e})
    return failures


def exact_unequal(lhs, rhs, p, e, pairs):
    """(a, b, lhs residue, rhs residue) for each pair whose exact residues mod p^e differ."""
    residues = [(a, b, exact_residue(lhs, a, p, e), exact_residue(rhs, b, p, e)) for a, b in pairs]
    return [(a, b, x, y) for a, b, x, y in residues if x != y]


def exact_special_60_n0(r, n_max):
    params = SeqParams(6, 0)
    shift = 3 ** (r - 1)
    for n in range(n_max, -1, -1):
        if (euler_number(params, n + shift) - euler_number(params, n)) % 3**r != 0:
            return n + 1
    return 0


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
        payload = report.to_dict()
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
        CongruenceReport("gessel", "x", 0)


WITNESS = {"params": "x", "lhs": 0, "rhs": 1}


@pytest.mark.parametrize("failures, given, status", [
    ([WITNESS], None, "fail"),
    ([], None, "pass"),
    ([WITNESS], "pass", "fail"),
    ([], "fail", "pass"),
    ([], "inconclusive", "inconclusive"),
])
def test_report_sets_its_status(failures, given, status):
    extra = {} if given is None else {"status": given}
    report = CongruenceReport("gessel", "x", 1, failures, **extra)
    assert (report.status, report.passed) == (status, status == "pass")


def test_report_keeps_the_first_witnesses():
    kept = congruences.MAX_WITNESSES
    witnesses = [{"params": f"n={n}", "lhs": 0, "rhs": 1} for n in range(kept + 2)]
    report = CongruenceReport("gessel", "x", 9, witnesses)
    assert report.failures == witnesses[:kept]
    assert report.to_dict() == {
        "theorem_id": "gessel", "params": "x", "instances_checked": 9,
        "failures": witnesses[:kept], "status": "fail",
    }


class TestValueClasses:
    """CongruenceReport is a mutable record whose to_dict shares nothing with it."""

    WITNESSES = [{"params": "n=0", "lhs": Fraction(1, 3), "rhs": 1},
                 {"params": "n=1", "lhs": 0, "rhs": 1}]

    def test_equality_and_repr(self):
        report = CongruenceReport("gessel", "x", 9, self.WITNESSES[:1])
        assert report == CongruenceReport(theorem_id="gessel", params="x", instances_checked=9,
                                          failures=self.WITNESSES[:1], status="fail")
        assert report != CongruenceReport("gessel", "x", 9) and report != CongruenceReport(
            "gessel", "x", 9, self.WITNESSES[1:])
        assert report != ("gessel", "x", 9, self.WITNESSES[:1], "fail")
        assert repr(report) == (
            "CongruenceReport(theorem_id='gessel', params='x', instances_checked=9, "
            "failures=[{'params': 'n=0', 'lhs': Fraction(1, 3), 'rhs': 1}], status='fail')"
        )
        with pytest.raises(TypeError):
            hash(report)

    def test_to_dict_shares_no_list_or_dict(self):
        report = CongruenceReport("lemma_Xm", "p=2", 4, self.WITNESSES)
        payload = report.to_dict()
        assert payload == {  # what dataclasses.asdict gave
            "theorem_id": "lemma_Xm", "params": "p=2", "instances_checked": 4,
            "failures": self.WITNESSES, "status": "fail",
        }
        assert list(payload) == ["theorem_id", "params", "instances_checked", "failures", "status"]
        assert payload["failures"] is not report.failures
        assert all(a is not b for a, b in zip(payload["failures"], report.failures))
        payload["failures"][0]["lhs"] = 7
        payload["failures"].append({})
        assert report.failures == self.WITNESSES and report.failures is not self.WITNESSES

    @pytest.mark.parametrize("report", [
        CongruenceReport("gessel", "x", 9, WITNESSES),
        CongruenceReport("special_60", "r=1", 3, status="inconclusive"),
        CongruenceReport("gessel", "x", 9, 3 * WITNESSES),
    ], ids=["fail", "inconclusive", "cut"])
    def test_copies_are_equal(self, report):
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.loads(pickle.dumps(report, protocol)) == report
        assert copy.copy(report) == report and copy.deepcopy(report) == report


def test_reports_are_deterministic():
    a = check_main_theorem(3, 0, 1, range(0, 10)).to_dict()
    b = check_main_theorem(3, 0, 1, range(0, 10)).to_dict()
    assert a == b


WINDOWED_IDS = ["main_theorem", "komatsu_liu", "gessel", "prime_power", "special_40", "special_60"]


@pytest.mark.parametrize(
    "check, index, p",
    [
        (lambda: check_main_theorem(3, 0, 1, [0]), 1, 3),  # the shifted side is the top
        (lambda: check_komatsu_liu(1, [(0, 6)]), 6, 3),
        (lambda: check_gessel(2, 1, 1, [0]), 0, 2),
        (lambda: check_prime_power(3, 1, 1, [0]), 1, 3),
        (lambda: check_special_40(1, [0]), 1, 2),
        (lambda: check_special_60(1, 0), 1, 3),
    ],
    ids=WINDOWED_IDS,
)
def test_non_integer_value_is_an_arithmetic_fault(check, index, p, monkeypatch):
    # residue_table stops one short: its entry at the top index has p in its denominator
    monkeypatch.setattr(congruences, "residue_table", lambda params, p, e, top: [0] * top)
    message = f"table index n={index} has p={p} in its denominator"
    with pytest.raises(ArithmeticError, match=message):
        check()


@pytest.mark.parametrize(
    "check, witness",
    [
        (lambda: check_main_theorem(3, 1, 1, [0]),
         {"params": "p=3 j=1 r=1 n=0", "lhs": 0, "rhs": 1}),
        (lambda: check_komatsu_liu(1, [(0, 6)]), {"params": "k=1 n=0 m=6", "lhs": 3, "rhs": 0}),
        (lambda: check_gessel(2, 1, 1, [0]), {"params": "p=2 m=1 k=1 n=0", "lhs": 2, "rhs": 1}),
        (lambda: check_special_40(1, [0]), {"params": "r=1 n=0", "lhs": 1, "rhs": 0}),
    ],
    ids=WINDOWED_IDS[:3] + WINDOWED_IDS[4:5],
)
def test_windowed_witnesses(check, witness, monkeypatch):
    def made_up_table(params, p, e, top):  # E_{Nn} = N + n mod p^e breaks each check at n = 0
        return [(params.N + n) % p**e for n in range(top + 1)]

    monkeypatch.setattr(congruences, "residue_table", made_up_table)
    report = check()
    assert (report.status, report.failures) == ("fail", [witness])


@pytest.mark.parametrize(
    "check",
    [
        lambda: check_main_theorem(3, 0, 1, [-1]),  # its shifted partner n = 0 is valid
        lambda: check_komatsu_liu(1, [(-6, 0)]),
        lambda: check_gessel(3, 1, 1, [2, -1]),
        lambda: check_prime_power(3, 1, 2, [-3]),
        lambda: check_special_40(2, [0, -2]),
        lambda: check_special_60(1, -1),
    ],
    ids=WINDOWED_IDS,
)
def test_negative_index_is_rejected(check):
    with pytest.raises(ValueError, match="negative"):
        check()


@pytest.mark.parametrize(
    "check, message",
    [
        (lambda: check_main_theorem(3, 0, 1, []), "at least one instance"),
        (lambda: check_komatsu_liu(1, []), "no pairs supplied"),
        (lambda: check_gessel(3, 1, 1, range(4, 4)), "at least one instance"),
        (lambda: check_prime_power(3, 1, 1, []), "at least one instance"),
        (lambda: check_special_40(1, iter([])), "at least one instance"),
    ],
    ids=WINDOWED_IDS[:5],
)
def test_empty_window_is_rejected(check, message):
    with pytest.raises(ValueError, match=message):
        check()


@settings(max_examples=60, deadline=None)
@given(
    p=st.sampled_from((3, 5, 7)),
    j=st.integers(0, 6),
    r=st.integers(1, 2),
    extra=st.integers(1, 3),
    lo=st.integers(0, 24),
    size=st.integers(1, 25),
)
def test_antiperiodic_witnesses_match_exact_sums(p, j, r, extra, lo, size):
    # exponents above the proved r + delta(j), so that witnesses occur
    j %= p
    ns = list(range(lo, min(lo + size, 25)))
    e = r + (j == 0) + extra
    args = (SeqParams(p, j), p, e, p ** (r - 1), ns, "s")
    assert congruences._antiperiodic(*args) == exact_antiperiodic(*args)


EQUAL_FAMILIES = [  # (lhs, rhs, p, proved exponent, table shift)
    (SeqParams(3, 0), SeqParams(3, 0), 3, 2, 2),  # Komatsu-Liu, k = 1
    (SeqParams(3, 0), SeqParams(3, 0), 3, 3, 6),  # Komatsu-Liu, k = 2
    (SeqParams(2, 0), SeqParams(1, 0), 2, 2, 0),  # Gessel p = 2, m = 1, k = 1
    (SeqParams(3, 0), SeqParams(1, 0), 3, 2, 0),  # Gessel p = 3, m = 1, k = 1
    (SeqParams(10, 0), SeqParams(2, 0), 5, 3, 0),  # Gessel p = 5, m = 2, k = 1
    (SeqParams(4, 0), SeqParams(4, 0), 2, 2, 2),  # special-40, r = 2
    (SeqParams(6, 0), SeqParams(6, 0), 3, 2, 3),  # special-60, r = 2
]


@settings(max_examples=60, deadline=None)
@given(
    family=st.sampled_from(EQUAL_FAMILIES),
    extra=st.integers(1, 3),
    lo=st.integers(0, 24),
    size=st.integers(1, 25),
)
def test_unequal_residues_match_exact_residues(family, extra, lo, size):
    lhs, rhs, p, proved, shift = family
    pairs = [(n + shift, n) for n in range(lo, min(lo + size, 25))]
    args = (lhs, rhs, p, proved + extra, pairs)
    assert congruences._unequal(*args) == exact_unequal(*args)


def test_raised_exponents_produce_witnesses():
    # the comparisons above would agree vacuously if no witness ever occurred
    ns = list(range(21))
    assert exact_antiperiodic(SeqParams(3, 0), 3, 3, 1, ns, "s")
    assert exact_unequal(SeqParams(4, 0), SeqParams(4, 0), 2, 4, [(n + 2, n) for n in ns])


@settings(max_examples=25, deadline=None)
@given(
    p=st.sampled_from((3, 5, 7)),
    j=st.integers(0, 6),
    r=st.integers(1, 2),
    lo=st.integers(0, 12),
    size=st.integers(1, 8),
)
def test_public_checks_match_exact_reference(p, j, r, lo, size):
    j %= p
    ns = range(lo, lo + size)

    def agrees(report, expected):
        return (
            report.instances_checked == size
            and report.failures == expected[:5]
            and report.passed == (not expected)
        )

    def witnesses(summary, mismatches, label):
        return [
            {"params": f"{summary} {label(a, b)}", "lhs": x, "rhs": y} for a, b, x, y in mismatches
        ]

    main_params, main_e = SeqParams(p, j), r + (j == 0)
    expected = exact_antiperiodic(main_params, p, main_e, p ** (r - 1), ns, f"p={p} j={j} r={r}")
    assert agrees(check_main_theorem(p, j, r, ns), expected)
    expected = exact_antiperiodic(SeqParams(p, 0), p, r + 1, p ** (r - 1), ns, f"p={p} k=1 r={r}")
    assert agrees(check_prime_power(p, 1, r, ns), expected)
    eps = 1 if p == 3 else 0
    same = [(n, n) for n in ns]
    mismatches = exact_unequal(SeqParams(p, 0), SeqParams(1, 0), p, 3 - eps, same)
    expected = witnesses(f"p={p} m=1 k=1", mismatches, lambda a, b: f"n={a}")
    assert agrees(check_gessel(p, 1, 1, ns), expected)
    pairs = [(n, n + 2 * 3 ** (r - 1)) for n in ns]
    mismatches = exact_unequal(SeqParams(3, 0), SeqParams(3, 0), 3, r + 1, pairs)
    expected = witnesses(f"k={r}", mismatches, lambda a, b: f"n={a} m={b}")
    assert agrees(check_komatsu_liu(r, pairs), expected)
    pairs = [(n + 2 ** (r - 1), n) for n in ns]
    mismatches = exact_unequal(SeqParams(4, 0), SeqParams(4, 0), 2, r, pairs)
    expected = witnesses(f"r={r}", mismatches, lambda a, b: f"n={b}")
    assert agrees(check_special_40(r, ns), expected)
    n_max = lo + size - 1
    expected_n0 = exact_special_60_n0(r, n_max)
    assert check_special_60(r, n_max)[0] == (None if expected_n0 > n_max else expected_n0)


def _derivative_one_short(series, k):
    """A wrong series_derivative: the (k-1)-th derivative for k > 1."""
    return series_derivative(series, k - 1 if k > 1 else k)


LEMMA_SERIES_WITNESSES = {
    # H''' replaced by H: the diff rows and the c and d rows fail, with no support row
    "identity": (lambda series, k: series, [
        {"params": "diff n=0", "lhs": "0", "rhs": "-1"},
        {"params": "diff n=1", "lhs": "0", "rhs": "18"},
        {"params": "diff n=2", "lhs": "0", "rhs": "-486"},
        {"params": "c n=0", "lhs": "4", "rhs": "1"},
        {"params": "v3(c_1)", "lhs": "1", "rhs": "2"},
        {"params": "v3(c_2)", "lhs": "1", "rhs": "5"},
        {"params": "v3(d_1)", "lhs": "1", "rhs": ">= 2"},
        {"params": "v3(d_2)", "lhs": "1", "rhs": ">= 4"},
    ]),
    # H''' replaced by H'': a support row fails between the diff and the c rows
    "one_short": (_derivative_one_short, [
        {"params": "diff n=1", "lhs": "-2", "rhs": "18"},
        {"params": "diff n=2", "lhs": "-926", "rhs": "-486"},
        {"params": "diff support i=8", "lhs": "70", "rhs": "0"},
        {"params": "v3(c_1)", "lhs": "1", "rhs": "2"},
        {"params": "v3(c_2)", "lhs": "1", "rhs": "5"},
        {"params": "v3(d_1)", "lhs": "1", "rhs": ">= 2"},
        {"params": "v3(d_2)", "lhs": "1", "rhs": ">= 4"},
    ]),
}


def _sections_3_0_and_6_1(step, offset, order):
    """A wrong H: the sections of exp(z) at 3n and at 6n + 1."""
    return exp_section(3, 0, order) + exp_section(6, 1, order)


# H[3] = 1 gives H'''[0] = 1: the support rows fail, and so does c n=0 right after them
LEMMA_SERIES_SECTIONS_WITNESSES = [
    {"params": "diff n=0", "lhs": "0", "rhs": "-1"},
    {"params": "diff n=1", "lhs": "0", "rhs": "18"},
    {"params": "diff n=2", "lhs": "0", "rhs": "-486"},
    {"params": "diff support i=1", "lhs": "-2", "rhs": "0"},
    {"params": "diff support i=2", "lhs": "-2", "rhs": "0"},
    {"params": "diff support i=4", "lhs": "-6", "rhs": "0"},
    {"params": "diff support i=7", "lhs": "54", "rhs": "0"},
    {"params": "diff support i=8", "lhs": "54", "rhs": "0"},
    {"params": "diff support i=10", "lhs": "162", "rhs": "0"},
    {"params": "c n=0", "lhs": "4", "rhs": "1"},
]


@pytest.mark.parametrize("patch, witnesses", [
    *((("series_derivative", derivative), witnesses)
      for derivative, witnesses in LEMMA_SERIES_WITNESSES.values()),
    (("exp_section", _sections_3_0_and_6_1), LEMMA_SERIES_SECTIONS_WITNESSES),
], ids=[*LEMMA_SERIES_WITNESSES, "sections"])
def test_lemma_series_witnesses(patch, witnesses, monkeypatch):
    monkeypatch.setattr(congruences, "MAX_WITNESSES", 100)
    monkeypatch.setattr(congruences, *patch)
    report = verify_lemma_series(2)
    # support rows are not instances: n_max + 1 diff, n_max + 1 c and n_max d rows
    assert (report.status, report.instances_checked) == ("fail", 3 * 2 + 2)
    assert report.failures == witnesses


def test_lemma_Xm_witnesses(monkeypatch):
    monkeypatch.setattr(congruences, "MAX_WITNESSES", 100)
    monkeypatch.setattr(congruences, "series_derivative", _derivative_one_short)
    report = verify_lemma_Xm(2, 1, 20)
    assert (report.status, report.instances_checked) == ("fail", 21)
    assert report.failures == [
        {"params": "p=2 m=1 coeff n=2", "lhs": 0, "rhs": 1},
        {"params": "p=2 m=1 coeff n=3", "lhs": 1, "rhs": 0},
    ]


@pytest.mark.parametrize("call, message", [
    (lambda: check_komatsu_liu(0, [(0, 2)]), "check_komatsu_liu: k must be positive"),
    (lambda: check_prime_power(3, 0, 1, range(3)), "check_prime_power: k must be positive"),
    (lambda: check_special_40(0, range(3)), "check_special_40: r must be positive"),
    (lambda: check_special_60(0, 5), "check_special_60: r must be positive"),
    (lambda: verify_lemma_Xm(2, 0, 60), "verify_lemma_Xm: m must be positive"),
], ids=["komatsu_liu", "prime_power", "special_40", "special_60", "lemma_Xm"])
def test_validation_errors(call, message):
    with pytest.raises(ValueError, match=message):
        call()
