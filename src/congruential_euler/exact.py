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
The inverse also computes only the coefficients at multiples of the gcd
of its operand's support past the constant term; the others are 0.
Each coefficient's terms are added pairwise in a balanced tree, adjacent
fractions meeting over the lcm of their two denominators, and the root is
reduced once (binary splitting; Haible and Papanikolaou, "Fast
multiprecision evaluation of series of rational numbers", ANTS 1998).  A
flat sum over the lcm of all the denominators would multiply every term by
a cofactor as large as that whole lcm; in the tree a term meets only the
cofactors of its partners, and only the few nodes near the root are large.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from math import gcd, perm
from typing import Iterable, Iterator, Union

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


def _exact_coefficient(c: Rational) -> Fraction:
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    raise TypeError(f"EgfSeries: coefficient {c!r} is not an int or a Fraction")


class _Record:
    """A record of the fields named by its class's ``__slots__``.

    ``__init__`` binds each value, positional or keyword, to its field in
    ``__slots__`` order; a class with defaults or checks calls it from its
    own.  A record is equal only to an instance of its own class whose
    fields are equal, and its repr is ``Name(field=value, ...)``.  Defining
    ``__eq__`` leaves it unhashable.  Pickle, with any protocol, and copy
    rebuild it by calling ``__init__`` with its fields.
    """

    __slots__ = ()

    def __init__(self, *args: object, **kwargs: object) -> None:
        names = self.__slots__
        if len(args) > len(names) or kwargs.keys() != set(names[len(args):]):
            raise TypeError(f"{self.__class__.__name__}() takes the fields ({', '.join(names)}); "
                            f"got {len(args)} positional and the keywords {sorted(kwargs)}")
        for name, value in [*zip(names, args), *kwargs.items()]:
            object.__setattr__(self, name, value)  # a _Value refuses setattr

    def _state(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def _asdict(self) -> dict:
        """The fields by name, in ``__slots__`` order; the values are not copied."""
        return dict(zip(self.__slots__, self._state()))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._state() == other._state()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__name__}({fields})"

    def __reduce__(self):  # __slots__ alone pickle with protocol 2 and up only
        return self.__class__, self._state()


class _Value(_Record):
    """An immutable, hashable _Record, whose fields only ``_Record.__init__`` sets."""

    __slots__ = ()

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"{self.__class__.__name__} is immutable: cannot set or delete {name!r}")

    __delattr__ = __setattr__

    def __hash__(self) -> int:
        return hash(self._state())


class EgfSeries(_Value):
    """Truncated exponential generating function sum a_n z^n/n!.

    ``coeffs[n]`` is a_n; the truncation order is ``len(coeffs) - 1``.
    The constructor takes any sequence of ints and Fractions, turns the
    ints into ``Fraction`` and rejects any other type, floats included, so
    that every coefficient is exact.  Instances are immutable and hashable;
    sums and differences truncate to the smaller order of the two operands,
    and an int or Fraction operand acts as the constant series of the
    other's order.  ``*`` takes only such a scalar.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Rational]) -> None:
        coeffs = tuple(map(_exact_coefficient, coeffs))
        if not coeffs:
            raise ValueError("EgfSeries needs at least the constant coefficient")
        super().__init__(coeffs)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, n: int) -> Fraction:
        return self.coeffs[n]

    def __add__(self, other: object) -> "EgfSeries":
        if isinstance(other, (int, Fraction)):
            other = EgfSeries((other,) + (0,) * self.order)
        elif not isinstance(other, EgfSeries):
            return NotImplemented
        return EgfSeries(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    __radd__ = __add__

    def __neg__(self) -> "EgfSeries":
        return EgfSeries(tuple(-c for c in self.coeffs))

    def __sub__(self, other: object) -> "EgfSeries":
        return self + -other

    def __rsub__(self, other: object) -> "EgfSeries":
        return other + -self

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

    The terms are added pairwise, in a balanced tree over their order in m,
    and the sum is reduced once.  A leaf is the pair (a, b) with
    a = C(n, m) num(ca[m]) num(cb[n - m]) and b = den(ca[m]) den(cb[n - m]) > 0.
    Two adjacent nodes merge by

        a/b + c/d = (a (d/g) + c (b/g)) / ((b/g) d),    g = gcd(b, d),

    an odd node left over at a level moves up unchanged, and one
    ``Fraction`` is built from the root.

    Exactness: a/b = a (d/g) / (b d/g) and c/d = c (b/g) / (b d/g), and
    (b/g) d = b d/g, so each merge is an exact identity, and by induction
    each node's a/b equals the sum of its leaves.  Its denominator
    b d/gcd(b, d) = lcm(b, d) is positive, so the root is the sum over the
    lcm of all the leaves' denominators and ``Fraction`` reduces it to the
    same value a flat sum over that lcm gives.

    Cost: a flat sum multiplies every term by its share of the lcm of all
    the denominators; here a term is multiplied only by the cofactors of
    the nodes it merges with, which are large only near the root.  In a
    leaf the small factors are multiplied before the numerator of
    cb[n - m], the big one in the series inverse.
    """
    ms = [m for m in support[: bisect_right(support, n)] if partner[n - m]]
    nodes = [
        (weight * ca[m].numerator * cb[n - m].numerator, ca[m].denominator * cb[n - m].denominator)
        for m, weight in zip(ms, binomial_row(n, ms))
    ] or [(0, 1)]
    while len(nodes) > 1:
        merged = []
        for (a, b), (c, d) in zip(nodes[::2], nodes[1::2]):
            g = gcd(b, d)
            merged.append((a * (d // g) + c * (b // g), b // g * d))
        if len(nodes) % 2:
            merged.append(nodes[-1])
        nodes = merged
    num, den = nodes[0]
    return Fraction(num, den)


def series_multiply(a: EgfSeries, b: EgfSeries) -> EgfSeries:
    """EGF product: c_n = sum_m C(n, m) a_m b_{n-m}, truncated to min order."""
    order = min(a.order, b.order)
    ca, cb = a.coeffs, b.coeffs
    support = [m for m in range(order + 1) if ca[m]]
    partner = [bool(c) for c in cb[: order + 1]]
    return EgfSeries(tuple(_convolve(n, support, partner, ca, cb) for n in range(order + 1)))


def series_invert(a: EgfSeries) -> EgfSeries:
    """Multiplicative inverse to truncation order; requires a_0 != 0.

    The inverse c is c_0 = 1/a_0 and c_n = -c_0 sum_{m in S} C(n, m) a_m c_{n-m}
    for n >= 1, where S is the support of a past its constant term.  Only
    indices n that are multiples of g = gcd(S) are computed; every other
    c_n is exactly 0, by induction on n: if g does not divide n, it divides
    no n - m with m in S, so every c_{n-m} in the sum is 0.  An empty S
    gives the stride order + 1, and c is the constant 1/a_0.
    """
    ca = a.coeffs
    if ca[0] == 0:
        raise ValueError("non-invertible series")
    inv0 = 1 / ca[0]
    out = [inv0] + [Fraction(0)] * a.order
    support = [m for m in range(1, a.order + 1) if ca[m]]
    partner = [True] + [False] * a.order  # partner[i]: out[i] != 0
    stride = gcd(*support) or a.order + 1  # gcd() of no numbers is 0
    for n in range(stride, a.order + 1, stride):
        out[n] = -inv0 * _convolve(n, support, partner, ca, out)
        partner[n] = bool(out[n])
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
