"""Tests for the exact identity checks and the floating zero machinery."""

import cmath
import copy
import itertools
import math
import pickle
import random
from fractions import Fraction

import pytest

from congruential_euler import analytic, engine
from congruential_euler.analytic import (
    BERNOULLI_DISPLAYS,
    ZERO_FAMILIES,
    BernoulliDisplay,
    BernoulliFormulaId,
    PiPolynomial,
    ZetaFormulaId,
    bernoulli,
    bernoulli_formula_value,
    check_bernoulli_identity,
    check_special_values,
    check_zeta_identity,
    eval_H,
    extraneous_zeros,
    family_zeros,
    find_zeros_in_disk,
    formula_reference,
    formula_value,
    lambda_even,
    lattice_zeros,
    locate_zero,
    predicted_zero,
    ratio_radius,
    rounding_floor,
    zeta_even,
)
from congruential_euler.analytic import (
    _box_sides,
    _count,
    _edge_phase,
    _evaluate,
    _split,
    _taylor_bound,
)
from congruential_euler.engine import SeqParams, compute_table


class TestBernoulli:
    def test_first_values(self):
        assert bernoulli(0) == 1
        assert bernoulli(1) == Fraction(-1, 2)
        assert bernoulli(4) == Fraction(-1, 30)
        assert bernoulli(12) == Fraction(-691, 2730)

    def test_odd_values_vanish(self):
        assert all(bernoulli(n) == 0 for n in (3, 5, 7, 9, 11))


class TestZetaLambda:
    def test_zeta_values(self):
        assert zeta_even(2) == PiPolynomial(2, Fraction(1, 6))
        assert zeta_even(4) == PiPolynomial(4, Fraction(1, 90))
        assert zeta_even(6) == PiPolynomial(6, Fraction(1, 945))

    def test_lambda_values(self):
        assert lambda_even(2) == PiPolynomial(2, Fraction(1, 8))
        assert lambda_even(4) == PiPolynomial(4, Fraction(1, 96))

    def test_reject_odd(self):
        with pytest.raises(ValueError):
            zeta_even(3)
        with pytest.raises(ValueError):
            lambda_even(5)

    def test_pi_polynomial_validation(self):
        with pytest.raises(ValueError):
            PiPolynomial(3, Fraction(1))
        with pytest.raises(ValueError):
            PiPolynomial(0, Fraction(1))

    def test_float_value(self):
        for k in (4, 6, 8):  # the series' tail past 10^4 is below 1e-12
            value = zeta_even(k)
            series = math.fsum(m ** -float(k) for m in range(1, 10**4))
            assert math.isclose(float(value.coefficient) * math.pi**value.degree, series, rel_tol=1e-9)


class TestZetaDisplays:
    def test_spot_value_via_42(self):
        value = formula_value(ZetaFormulaId.zeta_4n_via_42, 1)
        assert value == PiPolynomial(4, Fraction(1, 90))

    def test_spot_value_lambda_via_40(self):
        value = formula_value(ZetaFormulaId.lambda_4n_via_40, 1)
        assert value == PiPolynomial(4, Fraction(1, 96))

    def test_spot_value_via_63(self):
        value = formula_value(ZetaFormulaId.zeta_6n_via_63, 1)
        assert value == PiPolynomial(6, Fraction(1, 945))

    @pytest.mark.parametrize("formula", list(ZetaFormulaId))
    def test_identities_to_n3(self, formula):
        for n in range(1, 4):
            assert check_zeta_identity(formula, n)

    @pytest.mark.parametrize("formula", list(ZetaFormulaId))
    def test_display_is_euler_times_its_bernoulli_display(self, formula):
        # zeta_4n_via_40 multiplies the sum of b4n_via_40, lambda_4n2_via_40 that of b4n2_via_40, ...
        source = BernoulliFormulaId("b" + formula.value.split("_", 1)[1])
        for n in range(1, 13):
            value = formula_value(formula, n)
            k = value.degree
            euler = Fraction((-1) ** (k // 2 + 1) * 2 ** (k - 1), math.factorial(k))
            if formula.value.startswith("lambda"):
                euler *= 1 - Fraction(1, 2**k)
            assert value.coefficient == euler * bernoulli_formula_value(source, n)

    def test_cross_formula_consistency(self):
        for n in range(1, 4):
            assert formula_value(ZetaFormulaId.zeta_4n_via_40, n) == formula_value(
                ZetaFormulaId.zeta_4n_via_42, n
            )

    def test_rejects_nonpositive_n(self):
        with pytest.raises(ValueError):
            formula_value(ZetaFormulaId.zeta_4n_via_40, 0)


class TestValueClasses:
    """PiPolynomial and BernoulliDisplay are immutable, hashable values."""

    def test_pi_polynomial(self):
        value = PiPolynomial(4, Fraction(1, 90))
        assert value == PiPolynomial(degree=4, coefficient=Fraction(1, 90))
        assert value != PiPolynomial(6, Fraction(1, 90)) and value != (4, Fraction(1, 90))
        assert hash(value) == hash(zeta_even(4))
        assert repr(value) == "PiPolynomial(degree=4, coefficient=Fraction(1, 90))"
        with pytest.raises(AttributeError):
            value.degree = 6
        with pytest.raises(AttributeError):
            del value.coefficient
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.loads(pickle.dumps(value, protocol)) == value
        assert copy.copy(value) == value and copy.deepcopy(value) == value

    def test_bernoulli_display(self):
        display = BERNOULLI_DISPLAYS[BernoulliFormulaId.b4n_via_42]
        same = BernoulliDisplay(params=(4, 2), offset=0, prefactor=display.prefactor)
        assert display == same and hash(display) == hash(same)
        assert display != BernoulliDisplay((4, 2), 2, display.prefactor)
        assert repr(display).startswith("BernoulliDisplay(params=(4, 2), offset=0, prefactor=<function ")
        with pytest.raises(AttributeError):
            display.offset = 1
        with pytest.raises(AttributeError):
            display.other = 1
        assert copy.copy(display) == display and copy.deepcopy(display) == display
        # the printed prefactors are lambdas, which pickle cannot name; a named one pickles
        named = BernoulliDisplay((4, 2), 0, Fraction)
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.loads(pickle.dumps(named, protocol)) == named


class TestBernoulliDisplays:
    def test_b0_lines_at_n0(self):
        assert bernoulli_formula_value(BernoulliFormulaId.b4n_via_42, 0) == 1
        assert bernoulli_formula_value(BernoulliFormulaId.b6n_via_63, 0) == 1

    def test_b4_via_42(self):
        assert bernoulli_formula_value(BernoulliFormulaId.b4n_via_42, 1) == Fraction(-1, 30)

    @pytest.mark.parametrize("formula", list(BernoulliFormulaId))
    def test_identities_to_n3(self, formula):
        start = 0 if formula in (BernoulliFormulaId.b4n_via_42, BernoulliFormulaId.b6n_via_63) else 1
        for n in range(start, 4):
            assert check_bernoulli_identity(formula, n)

    def test_range_validation(self):
        with pytest.raises(ValueError, match="at least 1"):
            bernoulli_formula_value(BernoulliFormulaId.b4n_via_40, 0)

    def test_display_grows_its_table_in_one_call(self, forget_tables, monkeypatch):
        forget_tables(SeqParams(6, 3))
        calls = []
        extend = engine._extend

        def counting_extend(params, n_max):
            calls.append((params, n_max))
            return extend(params, n_max)

        monkeypatch.setattr(engine, "_extend", counting_extend)
        value = bernoulli_formula_value(BernoulliFormulaId.b6n_via_63, 20)
        assert calls == [(SeqParams(6, 3), 20)]  # E_0..E_20 of (6, 3): 6 * 20 <= 120 + 3 - 1
        assert value == bernoulli(120)

    def test_least_n_from_the_shared_sum(self):
        # the least n with index(n) >= 0 and a binomial top index(n) + j - 1 >= 0
        assert [BERNOULLI_DISPLAYS[f].min_n for f in BernoulliFormulaId] == [1, 1, 0, 1, 0, 1]
        assert [BERNOULLI_DISPLAYS[f].index(2) for f in BernoulliFormulaId] == [8, 6, 8, 6, 12, 8]


class TestEvalH:
    def test_value_at_origin(self):
        assert abs(eval_H(2, 0, 0) - 1) < 1e-15
        assert abs(eval_H(6, 3, 0)) < 1e-15

    def test_cosh(self):
        z = 0.7 + 0.3j
        assert abs(eval_H(2, 0, z) - cmath.cosh(z)) < 1e-12

    def test_first_zero_of_40(self):
        z = predicted_zero((4, 0), 1, 0)
        assert z == (1 + 1j) * math.pi / 2
        assert abs(eval_H(4, 0, z)) < 1e-9

    def test_quadratic_leading_term(self):
        for x in (0.01, 0.02):
            assert abs(eval_H(4, 2, x) - x**2 / 2) < x**3

    def test_rejects_bad_offset(self):
        with pytest.raises(ValueError):
            eval_H(4, 4, 0)

    def test_rejects_huge_argument(self):
        with pytest.raises(ValueError):
            eval_H(2, 0, 800)

    def test_cached_roots_give_the_same_doubles(self):
        # The rounding bound of eval_H is proved for roots of unity built by
        # cmath.rect at every term; the cached ones must be those very doubles.
        def reference(N, j, z):
            total, majorant = 0j, 0.0
            for k in range(N):
                root = cmath.rect(1.0, 2.0 * math.pi * k / N)
                total += cmath.rect(1.0, -2.0 * math.pi * k * j / N) * cmath.exp(root * z)
                majorant += math.exp((root * z).real)  # left to right, as sum() did before 3.12
            return total / N, majorant / N

        rng = random.Random(20261019)
        for _ in range(300):
            N = rng.randint(1, 12)
            j = rng.randrange(N)
            z = cmath.rect(rng.uniform(0.0, 60.0), rng.uniform(-math.pi, math.pi))
            value, majorant = reference(N, j, z)
            assert eval_H(N, j, z) == value
            assert _evaluate(N, j, z) == (value, majorant, 0.0)

    def test_scaled_past_the_exp_limit(self):
        # Below 709.78 exp still fits a double, so e^s times the scaled
        # values can be checked against an unscaled sum.
        for N, j, z in ((2, 0, 705.0), (4, 1, 702 - 30j), (1, 0, 500 - 600j), (6, 3, 706j)):
            value, majorant, s = _evaluate(N, j, z)
            roots = [cmath.rect(1.0, 2.0 * math.pi * k / N) for k in range(N)]
            assert s == max((root * z).real for root in roots) - 700.0 != 0.0
            expected = sum(cmath.rect(1.0, -2.0 * math.pi * k * j / N) * cmath.exp(root * z)
                           for k, root in enumerate(roots)) / N
            assert abs(value * math.exp(s) - expected) <= 1e-12 * abs(expected)
            assert majorant * math.exp(s) == pytest.approx(sum(math.exp((r * z).real) for r in roots) / N)

    def test_raises_where_doubles_cannot_resolve_H(self):
        # the rounding bound of eval_H is proved for N + |z| + 2 < 2^44
        value, majorant, s = _evaluate(4, 0, 2.0**44 - 8.0)
        assert s > 0 and rounding_floor(4, 2.0**44 - 8.0, majorant) < majorant / 4
        with pytest.raises(ArithmeticError, match=r"H_\(4,0\) cannot be resolved in doubles"):
            _evaluate(4, 0, 2.0**44 - 6.0)


class TestZeros:
    def test_newton_from_second_zero_guess(self):
        target = predicted_zero((4, 0), 2, 0)
        z = locate_zero(4, 0, target + 0.05 + 0.02j)
        assert abs(z - target) < 1e-9

    def test_newton_63_family(self):
        target = predicted_zero((6, 3), 1, 0)
        z = locate_zero(6, 3, target + 0.1)
        assert abs(z - target) < 1e-9

    def test_trivial_zero_of_42(self):
        z = locate_zero(4, 2, 0.1)
        assert abs(z) < 1e-6  # converges to the trivial zero at the origin

    def test_no_tolerance_option(self):
        # the rounding floor is the only acceptance test
        with pytest.raises(TypeError):
            locate_zero(4, 0, 1 + 1j, tol=1e-12)

    def test_family_zeros_ordering(self):
        zeros = family_zeros((4, 0), 6)
        assert [(k, l) for k, l, _ in zeros] == [(1, 0), (1, 1), (1, 2), (1, 3), (2, 0), (2, 1)]
        moduli = [abs(z) for _, _, z in zeros]
        assert moduli == sorted(moduli)
        assert abs(moduli[0] - math.sqrt(2) * math.pi / 2) < 1e-12

    def test_all_predicted_zeros_vanish(self):
        for family in ((4, 0), (4, 2), (6, 3)):
            N, j = family
            for k in (1, 2):
                for l in range(N):
                    z = predicted_zero(family, k, l)
                    scale = max(1.0, abs(cmath.exp(abs(z))))
                    assert abs(eval_H(N, j, z)) / scale < 1e-12

    @pytest.mark.parametrize("family,k,l", [((0, 0), 1, 0), ((5, 0), 1, 7), ((), 1, 0)])
    def test_unknown_family_is_named(self, family, k, l):
        with pytest.raises(ValueError, match=r"unknown family"):
            predicted_zero(family, k, l)

    def test_non_convergence_raises(self, monkeypatch):
        monkeypatch.setattr(analytic, "_NEWTON_STEPS", 2)
        with pytest.raises(ArithmeticError):
            locate_zero(4, 0, 100 + 100j)

    @pytest.mark.parametrize("steps, converges", [(5, True), (4, False)])
    def test_returns_the_step_after_the_first_settled_iterate(self, monkeypatch, steps, converges):
        # from this guess iterate 4 is the first below the rounding floor, so
        # step 5, taken from it, is the first that may return
        monkeypatch.setattr(analytic, "_NEWTON_STEPS", steps)
        target = predicted_zero((4, 0), 2, 0)
        if converges:
            assert abs(locate_zero(4, 0, target + 0.1 + 0.05j) - target) < 1e-13 * abs(target)
        else:
            with pytest.raises(ArithmeticError, match="no convergence"):
                locate_zero(4, 0, target + 0.1 + 0.05j)

    @pytest.mark.parametrize("family", [(0, 0), (5, 0), (1, 0)])
    def test_unknown_family_refused_before_any_evaluation(self, monkeypatch, family):
        calls = []
        monkeypatch.setattr(analytic, "_evaluate", lambda *args: calls.append(args))
        with pytest.raises(ValueError, match=r"^lattice_zeros: unknown family"):
            lattice_zeros(family, 100.0)
        with pytest.raises(ValueError, match=r"^family_zeros: unknown family"):
            family_zeros(family, 0)
        assert calls == []

    def test_zero_derivative_raises(self, monkeypatch):
        evaluate = analytic._evaluate
        monkeypatch.setattr(analytic, "_evaluate",  # H_{4,3} = H_{4,0}' is zero, H_{4,0} is not
                            lambda N, j, z: (0j, 1.0, 0.0) if j == 3 else evaluate(N, j, z))
        with pytest.raises(ArithmeticError, match=r"zero derivative at \(1\+1j\)"):
            locate_zero(4, 0, 1 + 1j)

    def test_step_out_of_exp_range_raises_arithmetic_error(self):
        # H_{2,0}' = sinh evaluates to a rounding residue of about 6e-17 at 0,
        # so the first Newton step lands near |z| = 1.6e16, where doubles
        # cannot resolve H
        with pytest.raises(ArithmeticError, match=r"H_\(2,0\) cannot be resolved in doubles"):
            locate_zero(2, 0, 0j)

    @pytest.mark.parametrize("family,k", [((4, 0), 5), ((4, 2), 5), ((6, 3), 3)])
    def test_zeros_past_modulus_18(self, family, k):
        # The rounding of eval_H alone exceeds 1e-10 here, so only the
        # floor-scaled acceptance can converge.
        N, j = family
        for l in range(N):
            target = predicted_zero(family, k, l)
            z = locate_zero(N, j, target + 0.1 + 0.05j)
            assert abs(z - target) < 1e-13 * abs(target)
            assert abs(eval_H(N, j, z)) < rounding_floor(N, z, _evaluate(N, j, z)[1])


class TestSpecialValues:
    def test_ratio_is_minus_i(self):
        z = predicted_zero((4, 0), 1, 0)
        ratio = eval_H(4, 1, z) / eval_H(4, 3, z)
        assert abs(ratio - (-1j)) < 1e-10

    def test_explicit_63_value(self):
        z = predicted_zero((6, 3), 1, 1)
        expected = (1 + math.cosh(math.sqrt(3) * math.pi)) / 3
        assert abs(eval_H(6, 2, z) - expected) < 1e-8 * expected
        assert abs(eval_H(6, 4, z) - expected) < 1e-8 * expected

    def test_check_function(self):
        assert check_special_values(1, 0)
        assert check_special_values(1, 1)
        assert check_special_values(2, 3)
        assert check_special_values(1, 5)

    def test_every_zero_in_the_exp_range(self):
        assert all(check_special_values(k, l) for k in range(1, 112) for l in range(6))

    def test_every_zero_past_the_exp_range_too(self):
        # from k = 112 on some zeros lie past |z| = 700, where H is scaled
        assert all(check_special_values(k, l) for k in range(1, 400) for l in range(6))

    @pytest.mark.parametrize("row", range(3))
    def test_a_negated_factor_fails(self, monkeypatch, row):
        rows = list(analytic._SPECIAL_VALUES)
        family, a, b, factor = rows[row]
        rows[row] = (family, a, b, lambda l: -factor(l))
        monkeypatch.setattr(analytic, "_SPECIAL_VALUES", tuple(rows))
        assert not check_special_values(1, 0)
        assert not check_special_values(111, family[0] - 1)
        assert not check_special_values(1000, family[0] - 1)

    def test_range_errors(self):
        with pytest.raises(ValueError):
            check_special_values(0, 0)
        with pytest.raises(ValueError):
            check_special_values(1, 6)
        with pytest.raises(ArithmeticError, match="cannot be resolved in doubles"):
            check_special_values(10**14, 0)


def _winding_on_circle(N, j, radius):
    """Zeros inside |z| = radius by sampled phases, refined until every step is below pi/4."""
    samples = 256
    while True:
        values = [eval_H(N, j, cmath.rect(radius, 2 * math.pi * k / samples)) for k in range(samples)]
        steps = [cmath.phase(values[(k + 1) % samples] / values[k]) for k in range(samples)]
        if max(abs(step) for step in steps) < math.pi / 4:
            return round(math.fsum(steps) / (2 * math.pi))
        samples *= 2


class TestZeroSearch:
    def test_42_family_small_disk(self):
        stray = extraneous_zeros((4, 2), 1.5 * math.pi)
        assert stray == []

    @pytest.mark.parametrize("family", ZERO_FAMILIES)
    def test_lattice_and_the_origin_once(self, family):
        N, j = family
        radius = 5 * math.pi
        lattice = [z for _, _, z in family_zeros(family, 8 * N) if abs(z) <= radius]
        found = find_zeros_in_disk(N, j, radius)
        assert found.count(0j) == (1 if j > 0 else 0)
        rest = [z for z in found if z != 0]
        assert len(rest) == len(lattice)
        assert all(min(abs(z - w) for z in rest) < 1e-13 for w in lattice)
        rows, strays = lattice_zeros(family, radius)
        assert [w for _, _, w, _ in rows] == lattice and strays == []
        assert all(zero is not None for *_, zero in rows)

    def test_no_polish_runs_out_of_steps(self, monkeypatch):
        # a polish makes one evaluation at the guess and two per step
        calls, spent, evaluate = [0], [], analytic._evaluate

        def counted(N, j, z):
            calls[0] += 1
            return evaluate(N, j, z)

        def polish(*args):
            before = calls[0]
            try:
                return locate_zero(*args)
            finally:
                spent.append(calls[0] - before)

        monkeypatch.setattr(analytic, "_evaluate", counted)
        monkeypatch.setattr(analytic, "locate_zero", polish)
        assert len(find_zeros_in_disk(6, 3, 5 * math.pi)) == 13
        assert len(spent) == 23 and max(spent) < 2 * analytic._NEWTON_STEPS + 1

    @pytest.mark.parametrize("family", ZERO_FAMILIES)
    def test_polished_to_the_closed_form_bits(self, family):
        # predicted_zero rounds within 23u|w|, about 2.6e-15 |w|; the worst
        # polished zero out to radius 60 is 9.75e-16 |w| from its point
        rows, strays = lattice_zeros(family, 60.0)
        assert len(rows) > 50 and strays == []
        assert all(abs(zero - w) <= 4e-15 * abs(w) for _, _, w, zero in rows)

    def test_cosh_and_sinh_on_the_imaginary_axis(self):
        radius = 5.25 * math.pi
        cosh = find_zeros_in_disk(2, 0, radius)
        sinh = find_zeros_in_disk(2, 1, radius)
        for found, expected in (
            (cosh, [s * 1j * (k + 0.5) * math.pi for k in range(5) for s in (1, -1)]),
            (sinh, [s * 1j * k * math.pi for k in range(1, 6) for s in (1, -1)]),
        ):
            rest = [z for z in found if z != 0]
            assert len(rest) == len(expected)
            assert all(min(abs(z - w) for z in rest) < 1e-13 for w in expected)
        assert 0j not in cosh and sinh.count(0j) == 1

    @pytest.mark.parametrize("family", [(3, 0), (5, 2), (9, 8)])
    def test_general_families_match_an_independent_count(self, family):
        N, j = family
        radius = 5.3 * math.pi
        found = find_zeros_in_disk(N, j, radius)
        assert len(found) - (1 if j > 0 else 0) + j == _winding_on_circle(N, j, radius)
        assert all(abs(eval_H(N, j, z)) < rounding_floor(N, z, _evaluate(N, j, z)[1]) for z in found)

    def test_box_edge_through_a_zero_raises(self):
        # The top edge runs through the cosh zero at i pi/2.
        with pytest.raises(ArithmeticError):
            _box_sides(2, 0, (-1.0, 1.0, -0.5, math.pi / 2))

    def test_box_counts(self):
        assert _count(_box_sides(2, 0, (-1.0, 1.0, 1.0, 2.0))) == 1
        assert _count(_box_sides(6, 3, (-1.0, 1.0, -1.0, 1.0))) == 3

    @pytest.mark.parametrize("family, box, count", [
        ((6, 3), (-1.0, 6.0, -1.0, 8.0), 5),  # the origin (order 3), 2 pi i and (sqrt 3 + i) pi
        ((4, 2), (-1.0, 4.0, -1.0, 4.0), 3),  # the origin (order 2) and (1 + i) pi
        ((2, 0), (-1.0, 1.0, 1.0, 2.0), 1),  # i pi / 2
    ])
    def test_halves_counted_with_the_parents_edges(self, monkeypatch, family, box, count):
        N, j = family
        x0, x1, y0, y1 = box
        fraction = analytic._SPLIT_FRACTIONS[0]
        if x1 - x0 >= y1 - y0:
            cut = x0 + fraction * (x1 - x0)
            halves = [(x0, cut, y0, y1), (cut, x1, y0, y1)]
        else:
            cut = y0 + fraction * (y1 - y0)
            halves = [(x0, x1, y0, cut), (x0, x1, cut, y1)]
        fresh = [_box_sides(N, j, half) for half in halves]
        walks = []
        monkeypatch.setattr(
            analytic, "_edge_phase",
            lambda *args, **kwargs: walks.append(args) or _edge_phase(*args, **kwargs),
        )
        sides = _box_sides(N, j, box)
        assert _count(sides) == count
        split = _split(N, j, box, count, sides)
        assert [half for half, _, _ in split] == halves
        counts = [_count(s) for s in fresh]
        assert [n for _, n, _ in split] == [_count(s) for _, _, s in split] == counts
        assert sum(counts) == count
        # the halves' outer sides lie on the box's sides and are read from
        # their walks; the cut is walked once, and the second half holds it
        # backwards: 4 + 1 walks, not 12
        assert len(walks) == 5
        for (_, _, read), afresh in zip(split, fresh):
            assert all(abs((end - start) - phase) < 1e-9
                       for (_, start, end), (_, _, phase) in zip(read, afresh))

    @pytest.mark.parametrize("family, radius", [
        ((4, 0), 5 * math.pi), ((4, 2), 5 * math.pi), ((6, 3), 5 * math.pi), ((5, 0), 20.0),
    ])
    def test_no_two_walks_overlap_on_a_line(self, monkeypatch, family, radius):
        N, j = family

        def split_with_fresh_walks(N, j, box, count, sides):
            # the same cuts as _split, but each half counted from four fresh walks
            x0, x1, y0, y1 = box
            for fraction in analytic._SPLIT_FRACTIONS:
                if x1 - x0 >= y1 - y0:
                    cut = x0 + fraction * (x1 - x0)
                    low, high = (x0, cut, y0, y1), (cut, x1, y0, y1)
                else:
                    cut = y0 + fraction * (y1 - y0)
                    low, high = (x0, x1, y0, cut), (x0, x1, cut, y1)
                try:
                    low_count = _count(_box_sides(N, j, low))
                except ArithmeticError:
                    continue
                return [(low, low_count, None), (high, count - low_count, None)]
            raise ArithmeticError("no split")

        with monkeypatch.context() as patch:
            patch.setattr(analytic, "_split", split_with_fresh_walks)
            expected = find_zeros_in_disk(N, j, radius)
        walks = []
        monkeypatch.setattr(
            analytic, "_edge_phase",
            lambda N, j, a, b, **kwargs: walks.append((a, b)) or _edge_phase(N, j, a, b, **kwargs),
        )
        assert find_zeros_in_disk(N, j, radius) == expected  # the same zeros, bit for bit
        spans = {}
        for a, b in walks:
            if a.imag == b.imag:
                line, u, v = (True, a.imag), a.real, b.real
            else:
                line, u, v = (False, a.real), a.imag, b.imag
            spans.setdefault(line, []).append(sorted((u, v)))
        for on_line in spans.values():
            on_line.sort()
            assert all(low[1] <= high[0] for low, high in zip(on_line, on_line[1:]))

    @pytest.mark.parametrize("family", [(4, 0), (4, 2), (6, 3), (5, 2)])
    def test_readings_agree_with_fresh_walks(self, monkeypatch, family):
        # walk the lines of a grid once, then read boxes of the grid and
        # random stretches of the lines: no walk, the counts and phases of
        # fresh walks
        N, j = family
        rng = random.Random(N * 10 + j)
        x0, x1, y0, y1 = -1.3, 9.7, -0.9, 10.1  # the origin and several lattice zeros
        xs = sorted([x0, x1, *(rng.uniform(x0, x1) for _ in range(3))])
        ys = sorted([y0, y1, *(rng.uniform(y0, y1) for _ in range(3))])
        lines = [(complex(x, y0), complex(x, y1)) for x in xs]
        lines += [(complex(x1, y), complex(x0, y)) for y in ys]  # leftwards
        segments = {}  # (horizontal, level) -> the segment walked on that line
        for a, b in lines:
            line = (True, a.imag) if a.imag == b.imag else (False, a.real)
            segments[line] = analytic._walk(N, j, a, b)[0][0]

        def side(a, b):  # the edge (a, b) of a grid line, read off its segment
            horizontal = a.imag == b.imag
            segment = segments[(True, a.imag) if horizontal else (False, a.real)]
            return (segment, *(analytic._reading(segment, z.real if horizontal else z.imag,
                                                 _evaluate(N, j, z)[0]) for z in (a, b)))

        boxes = []
        for _ in range(12):
            (a, b), (c, d) = sorted(rng.sample(xs, 2)), sorted(rng.sample(ys, 2))
            boxes.append((a, b, c, d))
        fresh = [_count(_box_sides(N, j, box)) for box in boxes]
        assert sum(fresh) > 0
        stretches = []
        for a, b in lines:
            s, t = rng.random(), rng.random()
            stretches.append((a + s * (b - a), a + t * (b - a)))
        walks = []
        monkeypatch.setattr(analytic, "_edge_phase", lambda *args, **kwargs: walks.append(args))
        counts = []
        for box in boxes:
            x0, x1, y0, y1 = box
            corners = (complex(x0, y0), complex(x1, y0), complex(x1, y1), complex(x0, y1))
            edges = list(zip(corners, corners[1:] + corners[:1]))
            counts.append(_count([side(a, b) for a, b in edges]))
            stretches += edges
        assert counts == fresh
        read = [end - start for _, start, end in (side(a, b) for a, b in stretches)]
        assert walks == []
        monkeypatch.undo()
        assert all(abs(phase - _edge_phase(N, j, a, b, [])) < 1e-9
                   for phase, (a, b) in zip(read, stretches))

    @pytest.mark.parametrize("family, radius", [
        ((4, 0), 5 * math.pi), ((4, 2), 5 * math.pi), ((6, 3), 5 * math.pi), ((5, 0), 60.0),
    ])
    def test_readings_evaluate_nothing(self, monkeypatch, family, radius):
        # every evaluation of a search happens in a walk or a Newton polish:
        # the sides a split reads take Hc from the walk of its cut
        depth, strays, calls = [0], [], []

        def within(function):
            def entered(*args, **kwargs):
                depth[0] += 1
                try:
                    return function(*args, **kwargs)
                finally:
                    depth[0] -= 1
            return entered

        evaluate = analytic._evaluate

        def recorded(N, j, z):
            calls.append(z)
            if depth[0] == 0:
                strays.append(z)
            return evaluate(N, j, z)

        monkeypatch.setattr(analytic, "_evaluate", recorded)
        monkeypatch.setattr(analytic, "_edge_phase", within(_edge_phase))
        monkeypatch.setattr(analytic, "locate_zero", within(locate_zero))
        assert len(find_zeros_in_disk(*family, radius)) > 10
        assert len(calls) > 1000 and strays == []

    # H_{2,1} = sinh: the first cut of this box, at y0 + 0.5137 * 2, runs through pi i
    SINH_BOX = (-0.6, 0.6, math.pi - 1.0274, math.pi + 0.9726)

    def test_split_retries_at_the_second_fraction(self):
        x0, x1, y0, y1 = self.SINH_BOX
        with pytest.raises(ArithmeticError):
            _box_sides(2, 1, (x0, x1, y0, y0 + 0.5137 * (y1 - y0)))
        cut = y0 + 0.4629 * (y1 - y0)
        split = _split(2, 1, self.SINH_BOX, 1, _box_sides(2, 1, self.SINH_BOX))
        assert [(half, count) for half, count, _ in split] == [
            ((x0, x1, y0, cut), 0), ((x0, x1, cut, y1), 1)
        ]
        assert [_count(sides) for _, _, sides in split] == [0, 1]

    def test_split_raises_when_every_cut_meets_a_zero(self, monkeypatch):
        monkeypatch.setattr(analytic, "_SPLIT_FRACTIONS", (0.5137, 0.5137))
        with pytest.raises(ArithmeticError, match=r"no split of .* avoids the zeros of H_\(2,1\)"):
            _split(2, 1, self.SINH_BOX, 1, _box_sides(2, 1, self.SINH_BOX))

    @pytest.mark.parametrize("N, j, a, b", [
        (4, 2, complex(-1.0, -1.0), complex(4.0, 3.0)),
        (6, 3, complex(-2.5, 7.0), complex(6.0, 0.5)),
        (9, 8, complex(17.0, 0.3), complex(-2.0, -16.0)),
    ])
    def test_an_edge_walked_back_undoes_its_change_of_arg(self, N, j, a, b):
        forward = _edge_phase(N, j, a, b, [])
        assert abs(forward) > 0.1
        assert abs(forward + _edge_phase(N, j, b, a, [])) < 1e-9

    def test_searches_share_no_walked_edges(self, monkeypatch):
        walks = []  # one list of _edge_phase calls per search
        monkeypatch.setattr(
            analytic, "_edge_phase",
            lambda *args, **kwargs: walks[-1].append(args) or _edge_phase(*args, **kwargs),
        )
        radius = 2.5 * math.pi
        half = radius + analytic._ROOT_MARGIN
        x0, x1 = analytic._ROOT_CENTRE.real - half, analytic._ROOT_CENTRE.real + half
        y0, y1 = analytic._ROOT_CENTRE.imag - half, analytic._ROOT_CENTRE.imag + half
        corners = (complex(x0, y0), complex(x1, y0), complex(x1, y1), complex(x0, y1))
        root_edges = set(zip(corners, corners[1:] + corners[:1]))
        families, found = ((4, 0), (4, 2), (4, 0)), []
        for family in families:
            walks.append([])
            found.append(find_zeros_in_disk(*family, radius))
        assert [len(zeros) for zeros in found] == [8, 5, 8] and found[2] == found[0]
        for family, search in zip(families, walks):
            assert {(N, j) for N, j, *_ in search} == {family}
            edges = [(a, b) for *_, a, b in search]
            assert root_edges <= set(edges)  # the root box is walked afresh
            assert len(set(edges) | {(b, a) for a, b in edges}) == 2 * len(edges)  # none twice

    def test_majorant_bound_first_takes_the_same_decisions(self):
        # _edge_phase tries h M(p) e^h before the Taylor bound; a piece must
        # be accepted exactly when h times the smaller of the two bounds fits.
        def smaller_bound_first(N, j, a, b):
            m = (j - 1) % N
            length = abs(b - a)
            direction = (b - a) / length
            done, total = 0.0, 0.0
            value, majorant, _ = _evaluate(N, j, a)
            while done < length:
                point = a + done * direction
                room = abs(value) - rounding_floor(N, point, majorant)
                h = min(length - done, 0.5)
                while h * min(majorant * math.exp(h), _taylor_bound(m, abs(point) + h)) >= room:
                    h /= 2.0
                    if h < 1e-9 * max(1.0, abs(point)):
                        raise ArithmeticError("no certified piece")
                done = length if h == length - done else done + h
                end = b if done >= length else a + done * direction
                following, majorant, _ = _evaluate(N, j, end)
                total += cmath.phase(following / value)
                value = following
            return total

        def outcome(walk, *args):
            try:
                return walk(*args)
            except ArithmeticError:
                return "raises"

        rng = random.Random(17)
        segments = []
        for _ in range(500):
            N = rng.randint(1, 12)
            a = cmath.rect(rng.uniform(0.0, 60.0), rng.uniform(-math.pi, math.pi))
            b = a + cmath.rect(rng.uniform(0.1, 8.0), rng.uniform(-math.pi, math.pi))
            segments.append((N, rng.randrange(N), a, b, False))
        for family, k, l in itertools.product(ZERO_FAMILIES, (1, 2), range(4)):
            # a segment across a closed-form zero: no piece can be certified
            zero, step = predicted_zero(family, k, l), cmath.rect(rng.uniform(0.1, 4.0), l + k)
            segments.append((*family, zero - step, zero + step, True))
        for N, j, a, b, through_a_zero in segments:
            expected = outcome(smaller_bound_first, N, j, a, b)
            assert outcome(_edge_phase, N, j, a, b, []) == expected
            assert expected == "raises" or not through_a_zero

    def test_lattice_out_to_700(self):
        # the root box reaches |z| of about 990, where H is scaled
        rows, strays = lattice_zeros((4, 2), 700.0)
        assert len(rows) == 628 and strays == []
        assert all(zero is not None for *_, zero in rows)

    def test_exp_has_no_zeros_past_the_exp_limit(self):
        # H_{1,0} = e^z: its one term would underflow at Re z < -745 unscaled
        assert find_zeros_in_disk(1, 0, 800.0) == []

    def test_past_what_doubles_resolve_raises(self):
        with pytest.raises(ArithmeticError, match="cannot be resolved in doubles"):
            find_zeros_in_disk(4, 0, 1e14)

    def test_radius_beyond_exp_range(self):
        with pytest.raises(ValueError, match="radius >= 0"):
            find_zeros_in_disk(4, 0, -1.0)

    @pytest.mark.parametrize("N, j", [(0, 0), (-1, 0), (3, 3), (3, -1)])
    def test_no_kernel_raises_value_error(self, N, j):
        # checked on entry, before (j - 1) % N could raise ZeroDivisionError,
        # an ArithmeticError like a zero on a box edge
        with pytest.raises(ValueError, match=r"^find_zeros_in_disk: need N >= 1 and 0 <= j < N$"):
            find_zeros_in_disk(N, j, 3.0)
        with pytest.raises(ValueError, match=r"^locate_zero: need N >= 1 and 0 <= j < N$"):
            locate_zero(N, j, 1j)


class TestRatioRadius:
    def test_classical_sech(self):
        estimate = ratio_radius(SeqParams(2, 0), 30)
        assert abs(estimate - 0.5) < 0.005

    def test_sqrt2_family(self):
        estimate = ratio_radius(SeqParams(4, 2), 30)
        assert abs(estimate - math.sqrt(2)) < 0.014

    def test_rejects_small_window(self):
        with pytest.raises(ValueError):
            ratio_radius(SeqParams(2, 0), 5)

    @pytest.mark.parametrize("family", [(3, 0), (4, 2), (5, 0), (7, 3)])
    def test_matches_the_nearest_ring_of_certified_zeros(self, family):
        N, j = family
        found = [z for z in find_zeros_in_disk(N, j, 3 * math.pi) if z != 0]
        nearest = min(abs(z) for z in found)
        ring = [abs(z) / math.pi for z in found if abs(z) < nearest * (1 + 1e-9)]
        assert len(ring) == N
        estimate = ratio_radius(SeqParams(N, j), 40)
        assert all(abs(modulus - estimate) <= 1e-12 * estimate for modulus in ring)

    @staticmethod
    def exact_ratio(N, j, n_max):
        values = compute_table(SeqParams(N, j), n_max + 1).values
        return abs(values[n_max] / values[n_max + 1]) * math.perm(N * (n_max + 1), N)

    # (167, 4) and (150, 1) lie inside the float range, at 1023 and 880 bits
    @pytest.mark.parametrize("N, j, n_max", [(2, 0, 30), (4, 2, 20), (7, 3, 12), (150, 1, 10),
                                             (167, 4, 10)])
    def test_in_the_float_range_the_root_of_the_float_ratio(self, N, j, n_max):
        ratio = self.exact_ratio(N, j, n_max)
        assert ratio_radius(SeqParams(N, j), n_max) == float(ratio) ** (1.0 / N) / math.pi

    @pytest.mark.parametrize("N, j, expected", [(168, 3, 21.78), (200, 0, 23.84), (400, 3, 49.26)])
    def test_past_the_float_range_a_finite_root(self, N, j, expected):
        ratio = self.exact_ratio(N, j, 10)
        with pytest.raises(OverflowError):
            float(ratio)
        by_logs = math.exp((math.log(ratio.numerator) - math.log(ratio.denominator)) / N) / math.pi
        estimate = ratio_radius(SeqParams(N, j), 10)
        assert abs(estimate - by_logs) <= 1e-12 * by_logs
        assert round(estimate, 2) == expected


@pytest.mark.parametrize("call, message", [
    (lambda: bernoulli(-1), "bernoulli: n must be nonnegative"),
    (lambda: formula_reference(ZetaFormulaId.zeta_4n_via_40, 0),
     "formula_reference: n must be positive"),
    (lambda: predicted_zero((4, 0), 0, 0), "predicted_zero: k must be positive"),
    (lambda: predicted_zero((4, 0), 1, 4), "predicted_zero: need 0 <= l < 4"),
    (lambda: ratio_radius(SeqParams(1, 1), 11), "ratio_radius: zero sequence value"),  # B_11 = 0
], ids=["bernoulli", "formula_reference", "predicted_zero-k", "predicted_zero-l", "ratio_radius"])
def test_validation_errors(call, message):
    with pytest.raises(ValueError, match=message):
        call()
