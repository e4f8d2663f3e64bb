"""Tests for the exact arithmetic substrate."""

import copy
import pickle
from fractions import Fraction
from itertools import takewhile
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from congruential_euler.exact import (
    EgfSeries,
    Rational,
    binomial_row,
    exp_section,
    is_prime,
    residue_mod_prime_power,
    series_derivative,
    series_invert,
    series_multiply,
    series_shift_down,
    vp,
)

SMALL_PRIMES = (2, 3, 5, 7)


class TestPrimality:
    def test_small_values(self):
        primes = [p for p in range(60) if is_prime(p)]
        assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]

    def test_square_of_prime(self):
        assert not is_prime(49)

    def test_matches_trial_division_below_1e5(self):
        primes = []
        for n in range(2, 10**5):
            if all(n % d for d in takewhile(lambda d: d * d <= n, primes)):
                primes.append(n)
        assert [n for n in range(10**5) if is_prime(n)] == primes

    @pytest.mark.parametrize("n,prime", [
        (561, False),  # Carmichael number
        (3215031751, False),  # strong pseudoprime to bases 2, 3, 5 and 7
        (318665857834031151167461, False),  # strong pseudoprime to bases 2..37
        (2**31 - 1, True),
        (2**61 - 1, True),
    ])
    def test_hard_cases(self, n, prime):
        assert is_prime(n) is prime

    def test_rejects_beyond_the_bound(self):
        with pytest.raises(ValueError, match="deterministic bound"):
            is_prime(3317044064679887385961981)


@st.composite
def row_indices(draw):
    """A row n <= 400 and increasing ks: scattered (wide gaps), a consecutive
    run, and k = 0 and k = n each in about half the draws."""
    n = draw(st.integers(0, 400))
    ks = set(draw(st.lists(st.integers(0, n), max_size=20)))
    start = draw(st.integers(0, n))
    ks.update(range(start, min(n, start + draw(st.integers(0, 6))) + 1))
    if draw(st.booleans()):
        ks.add(0)
    if draw(st.booleans()):
        ks.add(n)
    return n, sorted(ks)


class TestBinomialRow:
    @given(row_indices())
    def test_matches_comb(self, row):
        n, ks = row
        assert list(binomial_row(n, ks)) == [comb(n, k) for k in ks]

    def test_whole_rows(self):
        for n in (0, 1, 2, 7, 64, 255):
            assert list(binomial_row(n, range(n + 1))) == [comb(n, k) for k in range(n + 1)]

    def test_single_jump_and_repeats(self):
        assert list(binomial_row(1461, [726])) == [comb(1461, 726)]
        assert list(binomial_row(9, [0, 0, 4, 4, 9])) == [1, 1, 126, 126, 1]
        assert list(binomial_row(5, [])) == []

    @pytest.mark.parametrize("n,ks", [(5, [3, 2]), (5, [6]), (5, [-1]), (-1, [0])])
    def test_rejects_bad_indices(self, n, ks):
        with pytest.raises(ValueError, match="binomial_row"):
            list(binomial_row(n, ks))


class TestValuation:
    def test_integer(self):
        assert vp(18, 3) == 2

    def test_rational(self):
        assert vp(Fraction(3, 4), 3) == 1
        assert vp(Fraction(3, 4), 2) == -2

    def test_unit(self):
        assert vp(1, 5) == 0

    def test_zero_rejected(self):
        with pytest.raises(ValueError, match="zero"):
            vp(0, 3)

    def test_composite_modulus_rejected(self):
        with pytest.raises(ValueError):
            vp(12, 4)

    @given(
        st.integers(1, 2000),
        st.integers(1, 2000),
        st.sampled_from(SMALL_PRIMES),
    )
    def test_binomial_valuation_lower_bound(self, n, m, p):
        # vp(C(n, m)) >= vp(n) - vp(m) for 1 <= m <= n
        if m > n:
            n, m = m, n
        assert vp(comb(n, m), p) >= vp(n, p) - vp(m, p)

    @pytest.mark.parametrize("p", SMALL_PRIMES)
    @pytest.mark.parametrize("r", range(1, 6))
    def test_prime_power_binomial_valuation_exact(self, p, r):
        # vp(C(p^r, m)) == r - vp(m) for all 0 < m < p^r; sampled once the
        # row gets large, exhaustive below that.
        q = p**r
        if q <= 400:
            ms = range(1, q)
        else:
            ms = sorted({1 + (k * 7919) % (q - 1) for k in range(150)})
        for m in ms:
            assert vp(comb(q, m), p) == r - vp(m, p)


class TestResidue:
    def test_integer(self):
        assert residue_mod_prime_power(19, 3, 2) == 1

    def test_negative_rational(self):
        assert residue_mod_prime_power(Fraction(-1, 4), 3, 2) == 2

    def test_denominator_divisible_by_p(self):
        with pytest.raises(ValueError, match="p-adic"):
            residue_mod_prime_power(Fraction(1, 3), 3, 1)

    @given(
        st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**4),
        st.sampled_from(SMALL_PRIMES),
        st.integers(1, 4),
    )
    def test_residue_is_congruent(self, x, p, r):
        if x.denominator % p == 0:
            return
        res = residue_mod_prime_power(x, p, r)
        assert 0 <= res < p**r
        # x - res has positive valuation at p^r, i.e. numerator divisible by p^r
        diff = x - res
        assert diff == 0 or vp(diff, p) >= r


rationals = st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**4)


class TestRationalExactness:
    def test_rational_admits_int_and_fraction(self):
        assert isinstance(3, Rational) and isinstance(Fraction(1, 3), Rational)
        assert not isinstance(0.5, Rational)

    @given(rationals, rationals)
    def test_add_sub_roundtrip(self, a, b):
        assert (a + b) - b == a

    @given(rationals, rationals.filter(lambda x: x != 0))
    def test_mul_div_roundtrip(self, a, b):
        assert (a * b) / b == a


def exp_series(order: int) -> EgfSeries:
    return EgfSeries([1] * (order + 1))


class TestSeriesMultiply:
    def test_exp_squared(self):
        product = series_multiply(exp_series(10), exp_series(10))
        assert [product[n] for n in range(11)] == [2**n for n in range(11)]

    def test_cosh_squared(self):
        cosh = exp_section(2, 0, 12)
        square = series_multiply(cosh, cosh)
        # cosh^2 = (1 + cosh 2z)/2: constant 1, then 2^(2n-1) at even indices
        assert square[0] == 1
        for n in range(1, 7):
            assert square[2 * n] == 2 ** (2 * n - 1)
            assert square[2 * n - 1] == 0

    def test_one_is_identity(self):
        a = EgfSeries([3, Fraction(1, 2), -7, 11])
        one = EgfSeries((1, 0, 0, 0))
        assert series_multiply(a, one) == a

    def test_truncates_to_min_order(self):
        a = exp_series(10)
        b = exp_series(4)
        assert series_multiply(a, b).order == 4


class TestSeriesInvert:
    def test_exp_inverse(self):
        inv = series_invert(exp_series(9))
        assert [inv[n] for n in range(10)] == [(-1) ** n for n in range(10)]

    def test_classical_euler_numbers(self):
        inv = series_invert(exp_section(2, 0, 6))
        assert [inv[2 * n] for n in range(4)] == [1, -1, 5, -61]
        assert all(inv[2 * n + 1] == 0 for n in range(3))

    def test_involution(self):
        a = EgfSeries([2, Fraction(1, 3), -1, 5, Fraction(7, 2)])
        assert series_invert(series_invert(a)) == a

    def test_two_sided_inverse(self):
        a = EgfSeries([Fraction(3, 2), 1, 4, -2, 9, Fraction(-1, 7)])
        product = series_multiply(a, series_invert(a))
        assert product[0] == 1
        assert all(product[n] == 0 for n in range(1, product.order + 1))

    def test_zero_constant_term_rejected(self):
        with pytest.raises(ValueError, match="non-invertible"):
            series_invert(EgfSeries([0, 1, 1]))

    @given(
        st.lists(
            st.fractions(min_value=-100, max_value=100, max_denominator=20),
            min_size=2,
            max_size=8,
        ).filter(lambda cs: cs[0] != 0)
    )
    def test_inverse_property_random(self, coeffs):
        a = EgfSeries(coeffs)
        product = series_multiply(a, series_invert(a))
        assert product[0] == 1
        assert all(product[n] == 0 for n in range(1, product.order + 1))


def dense_multiply(a: list, b: list) -> list:
    """Reference EGF product: every index, one math.comb per term."""
    order = min(len(a), len(b)) - 1
    return [
        sum((comb(n, m) * a[m] * b[n - m] for m in range(n + 1)), Fraction(0))
        for n in range(order + 1)
    ]


def dense_invert(a: list) -> list:
    """Reference EGF inverse: every index, one math.comb per term."""
    out = [1 / Fraction(a[0])]
    for n in range(1, len(a)):
        acc = sum((comb(n, m) * a[m] * out[n - m] for m in range(1, n + 1)), Fraction(0))
        out.append(-out[0] * acc)
    return out


@st.composite
def sparse_coeffs(draw, constant_term: bool = False):
    """Up to 40 coefficients, at least half of them zero; with ``constant_term``
    the first one is nonzero."""
    low = 1 if constant_term else 0
    size = draw(st.integers(1 + low, 40))
    places = draw(st.sets(st.integers(low, size - 1), max_size=size // 2 - low))
    if constant_term:
        places.add(0)
    values = [Fraction(0)] * size
    nonzero = st.fractions(min_value=-50, max_value=50, max_denominator=12).filter(bool)
    for i in places:
        values[i] = draw(nonzero)
    return values


sections = st.tuples(st.integers(1, 20), st.integers(0, 25))

# zeros, integers and big numerators over unrelated denominators, so that the
# terms of one coefficient rarely share a denominator
mixed_rationals = st.one_of(
    st.just(Fraction(0)),
    st.integers(-9, 9).map(Fraction),
    st.builds(Fraction, st.integers(-(2**70), 2**70), st.integers(1, 10**9)),
)


class TestSparseSeries:
    @settings(deadline=None)
    @given(sparse_coeffs(), sparse_coeffs())
    def test_multiply_matches_dense(self, a, b):
        product = series_multiply(EgfSeries(a), EgfSeries(b))
        assert list(product.coeffs) == dense_multiply(a, b)

    @settings(deadline=None)
    @given(sparse_coeffs(constant_term=True))
    def test_invert_matches_dense(self, a):
        assert list(series_invert(EgfSeries(a)).coeffs) == dense_invert(a)

    @settings(deadline=None)
    @given(st.integers(2, 7), sparse_coeffs(constant_term=True))
    def test_invert_on_a_support_lattice_matches_dense(self, g, draws):
        # spread the drawn coefficients onto the multiples of g, so the
        # support's gcd is a multiple of g
        a = [Fraction(0)] * (g * (len(draws) - 1) + 1)
        a[::g] = draws
        inverse = list(series_invert(EgfSeries(a)).coeffs)
        assert inverse == dense_invert(a)
        assert not any(c for n, c in enumerate(inverse) if n % g)

    @pytest.mark.parametrize("order", [1, 2, 9])
    def test_invert_constant_series(self, order):
        inverse = series_invert(EgfSeries([Fraction(-3, 4)] + [0] * order))
        assert inverse.coeffs == (Fraction(-4, 3),) + (Fraction(0),) * order

    def test_invert_support_with_gcd_one_stays_dense(self):
        # support {2, 3}: no coefficient at 1, yet every index past 1 is reachable
        a = [1, 0, Fraction(1, 2), 5] + [0] * 9
        inverse = list(series_invert(EgfSeries(a)).coeffs)
        assert inverse == dense_invert(a)
        assert inverse[1] == 0 and all(inverse[2:])

    @settings(deadline=None)
    @given(st.lists(mixed_rationals, min_size=1, max_size=25),
           st.lists(mixed_rationals, min_size=1, max_size=25))
    def test_mixed_denominators_match_dense(self, a, b):
        product = series_multiply(EgfSeries(a), EgfSeries(b))
        assert list(product.coeffs) == dense_multiply(a, b)
        if b[0]:
            assert list(series_invert(EgfSeries(b)).coeffs) == dense_invert(b)

    @settings(deadline=None)
    @given(sections, sections, st.integers(0, 60))
    def test_multiply_sections_matches_dense(self, left, right, order):
        a, b = exp_section(*left, order), exp_section(*right, order)
        assert list(series_multiply(a, b).coeffs) == dense_multiply(list(a.coeffs), list(b.coeffs))

    @settings(deadline=None)
    @given(sections, st.integers(0, 60))
    def test_invert_kernel_matches_dense(self, section, extra):
        step, offset = section
        kernel = series_shift_down(exp_section(step, offset, offset + extra), offset)
        assert list(series_invert(kernel).coeffs) == dense_invert(list(kernel.coeffs))


def primes(count: int) -> list[int]:
    found = []
    candidate = 2
    while len(found) < count:
        if is_prime(candidate):
            found.append(candidate)
        candidate += 1
    return found


class TestPairwiseSum:
    @pytest.mark.parametrize("terms", [1, 2, 3, 5, 8, 9, 17, 33])
    def test_multiply_matches_dense_over_coprime_denominators(self, terms):
        # coefficient n sums n + 1 terms; each term's denominator is the
        # product of two primes used nowhere else, so no two terms share a
        # factor and every merge of the tree has gcd 1
        ps = primes(2 * terms)
        a = [Fraction((-1) ** m * (m + 2), ps[m]) for m in range(terms)]
        b = [Fraction(3 * i + 1, ps[terms + i]) for i in range(terms)]
        product = series_multiply(EgfSeries(a), EgfSeries(b))
        assert list(product.coeffs) == dense_multiply(a, b)

    @pytest.mark.parametrize("x,y", [
        (Fraction(2, 3), Fraction(-2, 3)),   # every coefficient past the first cancels to 0
        (Fraction(3, 7), Fraction(-4, 5)),   # mixed signs summing to -13/35 at odd n
    ])
    def test_exponentials_multiply_to_the_exponential_of_the_sum(self, x, y):
        # exp(xz) exp(yz) = exp((x + y)z): coefficient n is (x + y)^n
        order = 33
        left = EgfSeries([x**n for n in range(order + 1)])
        right = EgfSeries([y**n for n in range(order + 1)])
        product = series_multiply(left, right)
        assert list(product.coeffs) == [(x + y) ** n for n in range(order + 1)]

    def test_terms_that_cancel_give_fraction_zero(self):
        # 1/3 * (-3/35) + 1/5 * 1/7 = 0 over coprime denominators
        a = EgfSeries([Fraction(1, 3), Fraction(1, 5)])
        b = EgfSeries([Fraction(1, 7), Fraction(-3, 35)])
        total = series_multiply(a, b)[1]
        assert type(total) is Fraction and total == 0 and total.denominator == 1

    def test_negative_sum(self):
        # 1/2 * (-1) + 1/3 * 1 = -1/6
        a = EgfSeries([Fraction(1, 2), Fraction(1, 3)])
        b = EgfSeries([1, -1])
        assert series_multiply(a, b)[1] == Fraction(-1, 6)


class TestExactCoefficients:
    def test_int_coefficients_become_fractions(self):
        a = EgfSeries((0, 3, 4))
        assert all(type(c) is Fraction for c in a.coeffs)
        shifted = series_shift_down(a, 1)
        assert shifted.coeffs == (Fraction(3), Fraction(2))
        assert all(type(c) is Fraction for c in shifted.coeffs)

    def test_int_series_inverts(self):
        inverse = series_invert(EgfSeries((1, 1, 1)))
        assert inverse.coeffs == (Fraction(1), Fraction(-1), Fraction(1))
        assert all(type(c) is Fraction for c in inverse.coeffs)

    @pytest.mark.parametrize("bad", [0.5, 1.0, "1/2", None])
    def test_other_coefficients_rejected(self, bad):
        with pytest.raises(TypeError, match="not an int or a Fraction"):
            EgfSeries((Fraction(1), bad))


class TestSeriesValue:
    """An EgfSeries is an immutable, hashable value, equal to a series of the same coefficients."""

    def test_equality_and_hash(self):
        a = EgfSeries((1, Fraction(1, 2)))
        assert a == EgfSeries(coeffs=[Fraction(1), Fraction(1, 2)])
        assert not a != EgfSeries((1, Fraction(1, 2)))
        assert a != EgfSeries((1, Fraction(1, 3))) and a != EgfSeries((1,))
        assert a != (Fraction(1), Fraction(1, 2)) and not a == (Fraction(1), Fraction(1, 2))
        assert hash(a) == hash(EgfSeries((1, Fraction(1, 2))))
        assert {a: "kept"}[EgfSeries((1, Fraction(1, 2)))] == "kept"

    def test_repr(self):
        assert repr(EgfSeries((1, Fraction(1, 2)))) == (
            "EgfSeries(coeffs=(Fraction(1, 1), Fraction(1, 2)))"
        )

    def test_immutable(self):
        a = EgfSeries((1, 2))
        with pytest.raises(AttributeError):
            a.coeffs = (Fraction(3),)
        with pytest.raises(AttributeError):
            a.other = 1
        with pytest.raises(AttributeError):
            del a.coeffs
        assert a.coeffs == (Fraction(1), Fraction(2))

    def test_copies_are_equal(self):
        a = EgfSeries((1, Fraction(1, 2)))
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.loads(pickle.dumps(a, protocol)) == a
        assert copy.copy(a) == a and copy.deepcopy(a) == a


class TestSeriesArithmetic:
    """The operand shapes of the series lemmas: a scalar acts as a constant series."""

    s = EgfSeries((1, 2, Fraction(1, 2), -3))
    t = EgfSeries((Fraction(1, 3), 0, 5))  # lower order: sums truncate to it

    @pytest.mark.parametrize(
        "expr, expected",
        [
            (lambda s, t: 1 - s, (0, -2, Fraction(-1, 2), 3)),
            (lambda s, t: s - 1, (0, 2, Fraction(1, 2), -3)),
            (lambda s, t: 1 + s, (2, 2, Fraction(1, 2), -3)),
            (lambda s, t: 3 * s, (3, 6, Fraction(3, 2), -9)),
            (lambda s, t: s + t, (Fraction(4, 3), 2, Fraction(11, 2))),
            (lambda s, t: s - t, (Fraction(2, 3), 2, Fraction(-9, 2))),
            (lambda s, t: -s, (-1, -2, Fraction(-1, 2), 3)),
            (lambda s, t: Fraction(1, 3) - s, (Fraction(-2, 3), -2, Fraction(-1, 2), 3)),
        ],
        ids=["1-s", "s-1", "1+s", "3*s", "s+t", "s-t", "-s", "1/3-s"],
    )
    def test_operands(self, expr, expected):
        result = expr(self.s, self.t)
        assert isinstance(result, EgfSeries)
        assert result.coeffs == tuple(map(Fraction, expected))
        assert all(type(c) is Fraction for c in result.coeffs)

    @pytest.mark.parametrize(
        "expr",
        [
            lambda s: s + 0.5,
            lambda s: 0.5 - s,
            lambda s: s * s,
            lambda s: s * 0.5,
            lambda s: s - "x",
        ],
        ids=["s+0.5", "0.5-s", "s*s", "s*0.5", "s-str"],
    )
    def test_unsupported_operands_raise(self, expr):
        with pytest.raises(TypeError):
            expr(self.s)


class TestSeriesDerivative:
    def test_is_shift(self):
        a = EgfSeries([1, 2, 3, 4, 5])
        d = series_derivative(a, 2)
        assert d == EgfSeries([3, 4, 5])

    def test_zero_derivative_is_identity(self):
        a = EgfSeries([1, 2, 3])
        assert series_derivative(a, 0) is a

    def test_kernel_series_periodicity(self):
        # the 6th derivative of sum z^{6n}/(6n)! is itself (to reduced order)
        h = exp_section(6, 0, 30)
        d = series_derivative(h, 6)
        assert d.coeffs == h.coeffs[6:]
        assert all(d[i] == h[i] for i in range(d.order + 1))

    def test_offset_shift_rule(self):
        # one derivative of the offset-3 section is the offset-2 section
        h63 = exp_section(6, 3, 30)
        h62 = exp_section(6, 2, 29)
        assert series_derivative(h63, 1) == h62

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            series_derivative(EgfSeries([1, 2]), 5)


class TestShiftDown:
    def test_exact_division(self):
        # (e^z - 1)/z has EGF coefficients 1/(n+1)
        h = exp_section(1, 1, 8)
        g = series_shift_down(h, 1)
        assert [g[n] for n in range(8)] == [Fraction(1, n + 1) for n in range(8)]

    def test_rejects_nonzero_low_coefficients(self):
        with pytest.raises(ValueError, match="divisible"):
            series_shift_down(EgfSeries([1, 1, 1]), 1)

    def test_zero_shift_is_identity(self):
        a = EgfSeries([1, 2])
        assert series_shift_down(a, 0) is a


@pytest.mark.parametrize("call, message", [
    (lambda: residue_mod_prime_power(1, 4, 1), "residue_mod_prime_power: 4 is not prime"),
    (lambda: residue_mod_prime_power(1, 3, 0), "residue_mod_prime_power: r must be positive"),
    (lambda: EgfSeries(()), "EgfSeries needs at least the constant coefficient"),
    (lambda: exp_section(0, 0, 3), "exp_section: need step >= 1 and offset >= 0"),
    (lambda: exp_section(1, -1, 3), "exp_section: need step >= 1 and offset >= 0"),
    (lambda: series_shift_down(EgfSeries((0, 1, 1)), -1),
     "series_shift_down: need 0 <= j <= truncation order"),
    (lambda: series_shift_down(EgfSeries((0, 1, 1)), 3),
     "series_shift_down: need 0 <= j <= truncation order"),
], ids=["residue-p", "residue-r", "empty-series", "exp_section-step", "exp_section-offset",
        "shift_down-negative", "shift_down-past-order"])
def test_validation_errors(call, message):
    with pytest.raises(ValueError, match=message):
        call()
