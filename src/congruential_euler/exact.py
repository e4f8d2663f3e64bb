"""Exact arithmetic substrate: valuations, binomials, and truncated EGF series.

Everything here is pure and exact.  Rationals are ``fractions.Fraction``
(always reduced, positive denominator), integers are Python ints.  An
:class:`EgfSeries` stores the coefficients a_n of sum a_n z^n/n! up to a
truncation order, so products convolve with binomial weights.

Loops that need many binomials from one row C(n, .) take them from
:func:`binomial_row`, which steps from each value to the next with one
big-by-small multiplication and division instead of building every
C(n, k) from scratch.  The series product and inverse walk only the
nonzero coefficients of their left operand and skip a term whose partner
coefficient is zero, so an N-sparse kernel costs about 1/N of a dense one.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from math import lcm, perm
from typing import Iterable, Iterator, Sequence, Union

Rational = Union[int, Fraction]

__all__ = [
    "Rational",
    "is_prime",
    "binomial_row",
    "vp",
    "residue_mod_prime_power",
    "EgfSeries",
    "exp_section",
    "series_multiply",
    "series_invert",
    "series_derivative",
    "series_shift_down",
]


# Miller-Rabin to the first 13 prime bases is exact below psi_13, the least
# strong pseudoprime to all of them (Sorenson and Webster, Math. Comp. 86,
# 2017).  The first 12 bases alone are fooled by
# psi_12 = 318665857834031151167461.
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_LIMIT = 3317044064679887385961981  # psi_13, about 3.3e24


def is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin test; exact for p below about 3.3e24.

    Raises ValueError for p >= _PRIME_LIMIT, where these bases no longer
    decide primality.
    """
    if p < 2:
        return False
    if p >= _PRIME_LIMIT:
        raise ValueError(f"is_prime: {p} is beyond the deterministic bound {_PRIME_LIMIT}")
    for a in _PRIME_BASES:
        if p % a == 0:
            return p == a
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _PRIME_BASES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def binomial_row(n: int, ks: Iterable[int]) -> Iterator[int]:
    """Yield C(n, k) for each k of a nondecreasing sequence in [0, n].

    Each value comes from the one before by the exact step

        C(n, k') = C(n, k) * perm(n - k, k' - k) // perm(k', k' - k),

    starting from C(n, 0) = 1: both sides equal n! / (k'! (n - k')!), so
    the division leaves no remainder.  A step multiplies and divides a
    big number by small ones where ``math.comb(n, k')`` would rebuild it.
    """
    if n < 0:
        raise ValueError("binomial_row: n must be nonnegative")
    value, k = 1, 0
    for k_next in ks:
        if not k <= k_next <= n:
            raise ValueError(f"binomial_row: need nondecreasing indices in [0, {n}]")
        gap = k_next - k
        value = value * perm(n - k, gap) // perm(k_next, gap)
        k = k_next
        yield value


def _int_valuation(n: int, p: int) -> int:
    # n != 0; exact multiplicities are small here, so repeated division wins.
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def vp(x: Rational, p: int) -> int:
    """p-adic valuation of a nonzero rational: vp(num) - vp(den)."""
    if not is_prime(p):
        raise ValueError(f"vp: {p} is not prime")
    x = Fraction(x)
    if x == 0:
        raise ValueError("valuation of zero undefined")
    return _int_valuation(x.numerator, p) - _int_valuation(x.denominator, p)


def residue_mod_prime_power(x: Rational, p: int, r: int) -> int:
    """Least nonnegative residue of a p-integral rational modulo p^r.

    The denominator must be coprime to p, so x maps into Z/p^r via the
    modular inverse of its denominator.
    """
    if not is_prime(p):
        raise ValueError(f"residue_mod_prime_power: {p} is not prime")
    if r < 1:
        raise ValueError("residue_mod_prime_power: r must be positive")
    x = Fraction(x)
    if x.denominator % p == 0:
        raise ValueError("not a p-adic integer")
    modulus = p**r
    return (x.numerator % modulus) * pow(x.denominator % modulus, -1, modulus) % modulus


@dataclass(frozen=True)
class EgfSeries:
    """Truncated exponential generating function sum a_n z^n/n!.

    ``coeffs[n]`` is a_n; the truncation order is ``len(coeffs) - 1``.
    Instances are immutable; binary operations truncate to the smaller
    order of the two operands.
    """

    coeffs: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if not self.coeffs:
            raise ValueError("EgfSeries needs at least the constant coefficient")

    @staticmethod
    def from_coeffs(values: Sequence[Rational]) -> "EgfSeries":
        return EgfSeries(tuple(v if isinstance(v, Fraction) else Fraction(v) for v in values))

    @staticmethod
    def constant(value: Rational, order: int) -> "EgfSeries":
        return EgfSeries((Fraction(value),) + (Fraction(0),) * order)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, n: int) -> Fraction:
        return self.coeffs[n]

    def _as_series(self, other: object) -> "EgfSeries | None":
        if isinstance(other, EgfSeries):
            return other
        if isinstance(other, (int, Fraction)):
            return EgfSeries.constant(other, self.order)
        return None

    def __add__(self, other: object) -> "EgfSeries":
        rhs = self._as_series(other)
        if rhs is None:
            return NotImplemented
        order = min(self.order, rhs.order)
        return EgfSeries(tuple(self.coeffs[n] + rhs.coeffs[n] for n in range(order + 1)))

    __radd__ = __add__

    def __neg__(self) -> "EgfSeries":
        return EgfSeries(tuple(-c for c in self.coeffs))

    def __sub__(self, other: object) -> "EgfSeries":
        rhs = self._as_series(other)
        if rhs is None:
            return NotImplemented
        return self + (-rhs)

    def __rsub__(self, other: object) -> "EgfSeries":
        lhs = self._as_series(other)
        if lhs is None:
            return NotImplemented
        return lhs + (-self)

    def __mul__(self, other: object) -> "EgfSeries":
        """Scalar multiple; the product of two series is :func:`series_multiply`."""
        if isinstance(other, (int, Fraction)):
            return EgfSeries(tuple(c * other for c in self.coeffs))
        return NotImplemented

    __rmul__ = __mul__


def exp_section(step: int, offset: int, order: int) -> EgfSeries:
    """The section of exp(z) supported on exponents offset, offset+step, ...

    Returns sum_{n>=0} z^{step*n + offset}/(step*n + offset)! truncated at
    ``order``; for step = N, offset = j this is the kernel series whose
    EGF inverse (after dividing out z^j) generates the congruential Euler
    numbers of type (N, j).
    """
    if step < 1 or offset < 0:
        raise ValueError("exp_section: need step >= 1 and offset >= 0")
    coeffs = [Fraction(0)] * (order + 1)
    for i in range(offset, order + 1, step):
        coeffs[i] = Fraction(1)
    return EgfSeries(tuple(coeffs))


def _convolve(n: int, support: list[int], partner: list[bool], ca, cb) -> Fraction:
    """sum of C(n, m) ca[m] cb[n - m] over m in ``support`` with m <= n and partner[n - m].

    The sum is reduced once: each term is an integer over the lcm D of the
    terms' denominators den(ca[m]) * den(cb[n - m]), the integers are
    added, and one ``Fraction`` is built from the total and D.  In a term
    the small factors (the binomial, ca[m]'s numerator, D's cofactor) are
    multiplied before the numerator of cb[n - m], the big one in the
    series inverse.
    """
    ms = [m for m in support[: bisect_right(support, n)] if partner[n - m]]
    dens = [ca[m].denominator * cb[n - m].denominator for m in ms]
    common = lcm(*dens)
    total = sum(
        weight * ca[m].numerator * (common // den) * cb[n - m].numerator
        for m, weight, den in zip(ms, binomial_row(n, ms), dens)
    )
    return Fraction(total, common)


def series_multiply(a: EgfSeries, b: EgfSeries) -> EgfSeries:
    """EGF product: c_n = sum_m C(n, m) a_m b_{n-m}, truncated to min order."""
    order = min(a.order, b.order)
    ca, cb = a.coeffs, b.coeffs
    support = [m for m in range(order + 1) if ca[m]]
    partner = [bool(c) for c in cb[: order + 1]]
    return EgfSeries(tuple(_convolve(n, support, partner, ca, cb) for n in range(order + 1)))


def series_invert(a: EgfSeries) -> EgfSeries:
    """Multiplicative inverse to truncation order; requires a_0 != 0."""
    ca = a.coeffs
    if ca[0] == 0:
        raise ValueError("non-invertible series")
    inv0 = 1 / ca[0]
    out = [inv0]
    support = [m for m in range(1, a.order + 1) if ca[m]]
    partner = [True]  # partner[i]: out[i] != 0
    for n in range(1, a.order + 1):
        out.append(-inv0 * _convolve(n, support, partner, ca, out))
        partner.append(bool(out[n]))
    return EgfSeries(tuple(out))


def series_derivative(a: EgfSeries, k: int) -> EgfSeries:
    """k-th derivative, which for an EGF is the index shift a_{n+k}."""
    if k < 0 or k > a.order:
        raise ValueError("series_derivative: need 0 <= k <= truncation order")
    if k == 0:
        return a
    return EgfSeries(a.coeffs[k:])


def series_shift_down(a: EgfSeries, j: int) -> EgfSeries:
    """Exact division by z^j: requires the first j coefficients to vanish.

    If a = sum a_n z^n/n! then a/z^j = sum b_n z^n/n! with
    b_n = a_{n+j} * n!/(n+j)!.
    """
    if j < 0 or j > a.order:
        raise ValueError("series_shift_down: need 0 <= j <= truncation order")
    if any(a.coeffs[i] for i in range(j)):
        raise ValueError("series_shift_down: series is not divisible by z^j")
    if j == 0:
        return a
    out = tuple(a.coeffs[n + j] / perm(n + j, j) for n in range(a.order - j + 1))
    return EgfSeries(out)
