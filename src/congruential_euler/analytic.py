"""Even zeta values from congruential Euler numbers, and zero geometry of H.

The eight zeta/lambda displays and the six Bernoulli displays are checked
as exact rational identities: both sides of each display are rational
multiples of the same power of pi, captured by :class:`PiPolynomial`, so
equality is decidable with zero tolerance.  Floating point (plain complex
doubles) appears only in the zero-location and radius-estimate helpers
and is confined to this module.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
import sys
from bisect import bisect_right
from enum import Enum
from fractions import Fraction
from math import factorial, perm
from operator import mul

from .exact import _Value, binomial_row

__all__ = [
    "PiPolynomial",
    "ZetaFormulaId",
    "BernoulliFormulaId",
    "bernoulli",
    "zeta_even",
    "lambda_even",
    "formula_value",
    "formula_reference",
    "check_zeta_identity",
    "check_bernoulli_identity",
    "bernoulli_formula_value",
    "BernoulliDisplay",
    "BERNOULLI_DISPLAYS",
    "eval_H",
    "predicted_zero",
    "family_zeros",
    "locate_zero",
    "rounding_floor",
    "check_special_values",
    "find_zeros_in_disk",
    "lattice_zeros",
    "extraneous_zeros",
    "ratio_radius",
    "ZERO_FAMILIES",
]


class PiPolynomial(_Value):
    """An exact rational multiple of a fixed even power of pi: coefficient * pi^degree."""

    __slots__ = ("degree", "coefficient")

    def __init__(self, degree: int, coefficient: Fraction) -> None:
        if degree < 2 or degree % 2 != 0:
            raise ValueError("PiPolynomial: degree must be even and at least 2")
        super().__init__(degree, coefficient)


class ZetaFormulaId(Enum):
    """The eight displayed zeta/lambda evaluations, keyed by source sequence."""

    lambda_4n_via_40 = "lambda_4n_via_40"
    lambda_4n2_via_40 = "lambda_4n2_via_40"
    zeta_4n_via_40 = "zeta_4n_via_40"
    zeta_4n2_via_40 = "zeta_4n2_via_40"
    zeta_4n_via_42 = "zeta_4n_via_42"
    zeta_4n2_via_42 = "zeta_4n2_via_42"
    zeta_6n_via_63 = "zeta_6n_via_63"
    zeta_6n4_via_63 = "zeta_6n4_via_63"


class BernoulliFormulaId(Enum):
    """The six Bernoulli displays; ``BernoulliDisplay.min_n`` marks the (n >= 0) lines."""

    b4n_via_40 = "b4n_via_40"
    b4n2_via_40 = "b4n2_via_40"
    b4n_via_42 = "b4n_via_42"
    b4n2_via_42 = "b4n2_via_42"
    b6n_via_63 = "b6n_via_63"
    b6n4_via_63 = "b6n4_via_63"


def bernoulli(n: int) -> Fraction:
    """Bernoulli number B_n, read off the (N, j) = (1, 1) sequence."""
    from .engine import SeqParams, euler_number

    if n < 0:
        raise ValueError("bernoulli: n must be nonnegative")
    return euler_number(SeqParams(1, 1), n)


def zeta_even(k: int) -> PiPolynomial:
    """zeta(k) for even k >= 2 as an exact multiple of pi^k (Euler's formula)."""
    if k % 2 != 0 or k < 2:
        raise ValueError("zeta_even: k must be even and at least 2")
    half = k // 2
    coefficient = Fraction((-1) ** (half + 1) * 2**k, 2 * factorial(k)) * bernoulli(k)
    return PiPolynomial(k, coefficient)


def lambda_even(k: int) -> PiPolynomial:
    """The odd-denominator zeta sum lambda(k) = (1 - 2^{-k}) zeta(k), exact."""
    if k % 2 != 0 or k < 2:
        raise ValueError("lambda_even: k must be even and at least 2")
    base = zeta_even(k)
    return PiPolynomial(k, base.coefficient * (1 - Fraction(1, 2**k)))


class _ZetaDisplay(_Value):
    """One zeta/lambda display: (-1)^{n+1} prefactor(n) times a Bernoulli display's sum.

    ``bernoulli`` names the Bernoulli display whose sum it multiplies, and
    the power of pi is that display's index; ``is_lambda`` marks a
    left-hand side lambda(k) rather than zeta(k).  The prefactor is
    transcribed from the print, not derived from Euler's formula, so the
    check still tests the printed display.  The sqrt(2) powers are even, so
    every prefactor is an exact rational.
    """

    __slots__ = ("bernoulli", "prefactor", "is_lambda")


_ZETA_DISPLAYS = {
    ZetaFormulaId.lambda_4n_via_40: _ZetaDisplay(
        BernoulliFormulaId.b4n_via_40,
        lambda n: Fraction(1, 2 ** (2 * n) * 4 * factorial(4 * n - 1)),
        True,
    ),
    ZetaFormulaId.lambda_4n2_via_40: _ZetaDisplay(
        BernoulliFormulaId.b4n2_via_40,
        lambda n: Fraction(1, 2 ** (2 * n - 1) * 4 * factorial(4 * n - 3)),
        True,
    ),
    ZetaFormulaId.zeta_4n_via_40: _ZetaDisplay(
        BernoulliFormulaId.b4n_via_40,
        lambda n: Fraction(2 ** (2 * n), 4 * factorial(4 * n - 1) * (2 ** (4 * n) - 1)),
        False,
    ),
    ZetaFormulaId.zeta_4n2_via_40: _ZetaDisplay(
        BernoulliFormulaId.b4n2_via_40,
        lambda n: Fraction(2 ** (2 * n - 1), 4 * factorial(4 * n - 3) * (2 ** (4 * n - 2) - 1)),
        False,
    ),
    ZetaFormulaId.zeta_4n_via_42: _ZetaDisplay(
        BernoulliFormulaId.b4n_via_42,
        lambda n: Fraction(2 ** (2 * n), 4 * factorial(4 * n + 1)),
        False,
    ),
    ZetaFormulaId.zeta_4n2_via_42: _ZetaDisplay(
        BernoulliFormulaId.b4n2_via_42,
        lambda n: Fraction(2 ** (2 * n - 1), 4 * factorial(4 * n - 1)),
        False,
    ),
    ZetaFormulaId.zeta_6n_via_63: _ZetaDisplay(
        BernoulliFormulaId.b6n_via_63,
        lambda n: Fraction(2 ** (6 * n), 6 * factorial(6 * n + 2)),
        False,
    ),
    ZetaFormulaId.zeta_6n4_via_63: _ZetaDisplay(
        BernoulliFormulaId.b6n4_via_63,
        lambda n: Fraction(2 ** (6 * n - 4), 6 * factorial(6 * n - 2)),
        False,
    ),
}


def formula_value(formula: ZetaFormulaId, n: int) -> PiPolynomial:
    """Right-hand side of one zeta/lambda display, as an exact pi-multiple."""
    if n < 1:
        raise ValueError("formula_value: n must be positive")
    display = _ZETA_DISPLAYS[formula]
    source = BERNOULLI_DISPLAYS[display.bernoulli]
    coefficient = (-1) ** (n + 1) * display.prefactor(n) * _display_sum(source, n)
    return PiPolynomial(source.index(n), coefficient)


def formula_reference(formula: ZetaFormulaId, n: int) -> PiPolynomial:
    """Left-hand side of the display: the actual zeta or lambda value."""
    if n < 1:
        raise ValueError("formula_reference: n must be positive")
    display = _ZETA_DISPLAYS[formula]
    degree = BERNOULLI_DISPLAYS[display.bernoulli].index(n)
    return lambda_even(degree) if display.is_lambda else zeta_even(degree)


def check_zeta_identity(formula: ZetaFormulaId, n: int) -> bool:
    """Exact equality of one display at index n (no tolerance)."""
    return formula_value(formula, n) == formula_reference(formula, n)


class BernoulliDisplay(_Value):
    """One Bernoulli display B_{index(n)} = prefactor(n) * _display_sum(display, n).

    Every display of the paper has the subscript index(n) = N n - offset
    and sums over t = index(n) + j - 1 (see _display_sum), so ``params``
    = (N, j) and the offset fix the whole display but its prefactor.  The
    prefactor is transcribed from the print, so the check still tests the
    printed display.  The display holds for n >= min_n, the least n >= 0
    with index(n) >= 0 and t >= 0.
    """

    __slots__ = ("params", "offset", "prefactor")

    def index(self, n: int) -> int:
        """Subscript of the Bernoulli number the display gives at n."""
        return self.params[0] * n - self.offset

    @property
    def min_n(self) -> int:
        """The least n >= 0 with N n >= offset and N n >= offset + 1 - j."""
        N, j = self.params
        return -(-(self.offset + max(0, 1 - j)) // N)


def _display_sum(display: BernoulliDisplay, n: int) -> Fraction:
    """The sum every display multiplies: sum_{Nm <= t} C(t, Nm) E_{Nm}, t = index(n) + j - 1."""
    from .engine import SeqParams, compute_table

    params = SeqParams(*display.params)
    top = display.index(n) + params.j - 1
    weights = binomial_row(top, range(0, top + 1, params.N))
    return sum(map(mul, weights, compute_table(params, top // params.N).values))


BERNOULLI_DISPLAYS = {
    BernoulliFormulaId.b4n_via_40: BernoulliDisplay(
        (4, 0), 0, lambda n: Fraction((-1) ** n * 2 * n, 2 ** (2 * n) * (2 ** (4 * n) - 1))
    ),
    BernoulliFormulaId.b4n2_via_40: BernoulliDisplay(
        (4, 0), 2,
        lambda n: Fraction((-1) ** (n + 1) * (4 * n - 2), 2 ** (2 * n) * (2 ** (4 * n - 2) - 1)),
    ),
    BernoulliFormulaId.b4n_via_42: BernoulliDisplay(
        (4, 2), 0, lambda n: Fraction((-1) ** n, 2 ** (2 * n + 1) * (4 * n + 1))
    ),
    BernoulliFormulaId.b4n2_via_42: BernoulliDisplay(
        (4, 2), 2, lambda n: Fraction((-1) ** (n + 1), 2 ** (2 * n) * (4 * n - 1))
    ),
    BernoulliFormulaId.b6n_via_63: BernoulliDisplay(
        (6, 3), 0, lambda n: Fraction(1, 3 * (6 * n + 1) * (6 * n + 2))
    ),
    BernoulliFormulaId.b6n4_via_63: BernoulliDisplay(
        (6, 3), 4, lambda n: Fraction(1, 3 * (6 * n - 2) * (6 * n - 3))
    ),
}


def bernoulli_formula_value(formula: BernoulliFormulaId, n: int) -> Fraction:
    """Right-hand side of one Bernoulli display, as an exact rational."""
    display = BERNOULLI_DISPLAYS[formula]
    if n < display.min_n:
        raise ValueError(f"{formula.value}: n must be at least {display.min_n}")
    return display.prefactor(n) * _display_sum(display, n)


def check_bernoulli_identity(formula: BernoulliFormulaId, n: int) -> bool:
    """Exact equality of one Bernoulli display at index n."""
    index = BERNOULLI_DISPLAYS[formula].index(n)
    return bernoulli_formula_value(formula, n) == bernoulli(index)


# --- floating-point zero geometry ------------------------------------------

# The closed-form zero lattice of each family: z_{k,0} = direction * (k - offset) * pi.
_LATTICE = {
    (4, 0): (1 + 1j, 0.5),
    (4, 2): (1 + 1j, 0.0),
    (6, 3): (complex(math.sqrt(3.0), 1.0), 0.0),
}
ZERO_FAMILIES = tuple(_LATTICE)
_MATCH_TOL = 1e-9  # a certified zero this close to a lattice point is that point's zero

_EXP_LIMIT = 700.0  # beyond this, exp overflows doubles
_NEWTON_STEPS = 50  # locate_zero gives up after this many Newton steps


def _check_kernel(name: str, N: int, j: int) -> None:
    """Raise ValueError, naming the caller, unless H_{N,j} is a kernel: N >= 1 and 0 <= j < N."""
    if N < 1 or not 0 <= j < N:
        raise ValueError(f"{name}: need N >= 1 and 0 <= j < N")


@functools.lru_cache(maxsize=64)
def _unit_roots(N: int, j: int) -> tuple[tuple[complex, complex], ...]:
    """The pairs (zeta_N^k, zeta_N^{-kj}), k = 0..N-1, that every evaluation reads."""
    _check_kernel("eval_H", N, j)
    return tuple(
        (cmath.rect(1.0, 2.0 * math.pi * k / N), cmath.rect(1.0, -2.0 * math.pi * k * j / N))
        for k in range(N)
    )


def _evaluate(N: int, j: int, z: complex) -> tuple[complex, float, float]:
    """(e^-s H_{N,j}(z), e^-s M(z), s) from one pass over the roots, M as in eval_H.

    For |z| <= _EXP_LIMIT, s is exactly 0.0 and the pass is unscaled.
    Beyond, s = max_k Re(zeta_N^k z) - _EXP_LIMIT, so the largest term has
    modulus e^_EXP_LIMIT: no exp overflows, and no sum underflows (s < 0
    for H_{1,0} = e^z at Re z < -_EXP_LIMIT).  Raises ArithmeticError where
    rounding_floor(N, z, 1.0) >= 1/4, at N + |z| + 2 >= 2^44: the rounding
    bound of eval_H is proved only below that (see there), and by then no
    computed value is more than four times its rounding floor anyway.
    """
    roots = _unit_roots(N, j)
    shift = 0.0
    if abs(z) > _EXP_LIMIT:
        if rounding_floor(N, z, 1.0) >= 0.25:
            raise ArithmeticError(f"H_({N},{j}) cannot be resolved in doubles at |z| = {abs(z):.4g}")
        shift = max((root * z).real for root, _ in roots) - _EXP_LIMIT
    total = 0j
    majorant = 0.0
    for root, twist in roots:
        exponent = root * z - shift
        total += twist * cmath.exp(exponent)
        majorant += math.exp(exponent.real)
    return total / N, majorant / N, shift


def eval_H(N: int, j: int, z: complex) -> complex:
    """Evaluate H_{N,j}(z) = (1/N) sum_k zeta_N^{-kj} exp(zeta_N^k z).

    The roots of unity zeta_N^k = rect(1, 2 pi k/N) and the phase factors
    zeta_N^{-kj} = rect(1, -2 pi k j/N) are built once per (N, j) and
    cached; the same expressions give the same doubles as building them
    afresh at every call, so the bound below covers the cached values.

    Rounding bound: for a libm whose exp, sin and cos are correct to one
    ulp, the returned value differs from H_{N,j}(z) by at most
    16 (N + |z| + 1) eps M(z), where eps is the double epsilon and
    M(z) = (1/N) sum_k exp(Re(zeta_N^k z)) = (1/N) sum_k |kth term| (so
    |H_{N,m}(z)| <= M(z) for every m).  The same bound holds for the scaled
    value e^-s H_{N,j}(z) that _evaluate returns at any |z| it accepts
    (N + |z| + 2 < 2^44), with e^-s M(z) for M(z).  With u = eps/2: each
    root of unity comes from an angle below 2 pi with relative error 3u, so
    it is off by at most 22u, and the product with z by at most 25u |z|.
    Subtracting s != 0 rounds by at most u |Re(zeta^k z) - s| <= 2u |z|,
    as -|z| - s <= Re(zeta^k z) - s <= _EXP_LIMIT < |z| and s < |z|.  So
    each exponent is off by at most d = 27u |z| < 0.053, which exp turns
    into a relative error of the term below d e^d < 28.5u |z|, plus about
    5u for exp, sin and cos themselves.  The phase factor's angle is below
    2 pi N, which gives 25uN + 3u more, and the product 3u.  So each term
    carries a relative error below (28.5|z| + 25N + 11)u, plus products of
    these errors, below 1.4u (N + 1); summing N terms adds 1.42 (N-1) u
    sum |terms| and the division u.  The bound is about eps |z| M(z) for
    large |z|, not a fixed multiple of eps M(z), because the roots of unity
    are rounded.  Raises ValueError past |z| = _EXP_LIMIT, where H itself
    may leave the double range.
    """
    if abs(z) > _EXP_LIMIT:
        raise ValueError("eval_H: |z| out of double-precision exp range")
    return _evaluate(N, j, z)[0]


def rounding_floor(N: int, z: complex, majorant: float) -> float:
    """64 (N + |z| + 2) eps M(z), four times the rounding bound of eval_H.

    A computed |H_{N,j}(z)| below this floor cannot be told apart from
    zero.  It exceeds the rounding of eval_H at z plus that at a point up
    to 1/2 away plus the rounding of the derivative bound (see
    _edge_phase).  ``majorant`` is M(z), read from the evaluation at z
    that the caller has made: _evaluate returns it next to H, both scaled
    by the same e^-s, and M does not depend on j.
    """
    return 64.0 * (N + abs(z) + 2.0) * sys.float_info.epsilon * majorant


def predicted_zero(family: tuple[int, int], k: int, l: int) -> complex:
    """Closed-form nontrivial zero z_{k,l} of H_{N,j} for the three families.

    The (4, 0) zeros sit at (1+i)(k - 1/2) pi, the (4, 2) zeros at
    (1+i) k pi, and the (6, 3) zeros at (sqrt(3)+i) k pi (see _LATTICE),
    each rotated by the N-th roots of unity (index l).
    """
    if family not in _LATTICE:
        raise ValueError(f"predicted_zero: unknown family {family}")
    if k < 1:
        raise ValueError("predicted_zero: k must be positive")
    N = family[0]
    if not 0 <= l < N:
        raise ValueError(f"predicted_zero: need 0 <= l < {N}")
    direction, offset = _LATTICE[family]
    return direction * (k - offset) * math.pi * cmath.rect(1.0, 2.0 * math.pi * l / N)


def _rings(name: str, family: tuple[int, int]):
    """The closed-form lattice ring by ring: (k, [z_{k,0}, ..., z_{k,N-1}]) for k = 1, 2, ...

    Checks the family at the call, not at the first ring, and raises
    ValueError naming ``name`` for one outside _LATTICE.
    """
    if family not in _LATTICE:
        raise ValueError(f"{name}: unknown family {family}")
    return ((k, [predicted_zero(family, k, l) for l in range(family[0])]) for k in itertools.count(1))


def family_zeros(family: tuple[int, int], count: int) -> list[tuple[int, int, complex]]:
    """The first ``count`` nontrivial zeros, ordered by modulus then rotation.

    Returns (k, l, zero) triples; within one modulus ring the rotation
    index l runs from 0.  Raises ValueError for a family outside
    ZERO_FAMILIES, whatever ``count``.
    """
    points = ((k, l, z) for k, ring in _rings("family_zeros", family) for l, z in enumerate(ring))
    return list(itertools.islice(points, max(count, 0)))


def locate_zero(N: int, j: int, guess: complex) -> complex:
    """Newton iteration z <- z - H(z)/H'(z) from a nearby guess.

    The derivative uses the index-shift rule H_{N,j}' = H_{N,j-1} (with
    j = 0 wrapping to N-1).  H, M and H' come from _evaluate, scaled by the
    same e^-s at each iterate, so value / derivative is the Newton step of
    H itself.  The residual of an iterate is its scaled |e^-s H(z)| (|H(z)|
    itself for |z| <= _EXP_LIMIT, where s = 0), and it is settled when the
    residual is below rounding_floor(N, z, e^-s M(z)): beyond |z| of about
    18 the rounding of eval_H alone exceeds any fixed tolerance.  One rule
    returns: a step from a settled iterate that lands on a settled iterate
    returns where it lands.  H at the iterate it started from could not be
    told apart from zero, so that step is itself rounding noise, which is
    what a test on the step's size would try to detect, with no tolerance
    to set by hand; the guess is never returned unstepped.  Gives up after
    _NEWTON_STEPS steps.  Raises ArithmeticError, naming the last iterate,
    on a zero derivative and if no step is accepted; and from _evaluate at
    an iterate where doubles cannot resolve H (as after a step from a
    guess where H' is only a rounding residue).  Raises ValueError unless
    N >= 1 and 0 <= j < N.
    """
    _check_kernel("locate_zero", N, j)
    z = complex(guess)
    j_prime = (j - 1) % N
    value, majorant, _ = _evaluate(N, j, z)
    for _ in range(_NEWTON_STEPS):
        settled = abs(value) < rounding_floor(N, z, majorant)
        derivative = _evaluate(N, j_prime, z)[0]
        if derivative == 0:
            raise ArithmeticError(f"locate_zero: zero derivative at {z}")
        z -= value / derivative
        value, majorant, _ = _evaluate(N, j, z)
        if settled and abs(value) < rounding_floor(N, z, majorant):
            return z
    raise ArithmeticError(f"locate_zero: no convergence, last iterate {z} (|H|={abs(value):.3e})")


# At every zero z_{k,l} of ``family``, 0 <= l < N: H_{N,a}(z) = factor(l) * H_{N,b}(z).
_SPECIAL_VALUES = (
    ((4, 0), 1, 3, lambda l: cmath.rect(1.0, math.pi * (2 * l + 3) / 2.0)),  # i^(2l+3)
    ((4, 2), 3, 1, lambda l: cmath.rect(1.0, math.pi * (2 * l + 3) / 2.0)),  # i^(2l+3)
    ((6, 3), 4, 2, lambda l: cmath.rect(1.0, 2.0 * math.pi * (l - 1) / 3.0)),  # zeta_6^(2(l-1))
)


def check_special_values(k: int, l: int) -> bool:
    """Cross-relations of H values at the closed-form zeros: each row of _SPECIAL_VALUES.

    At z_{k,l} of the (4,0) family, H_{4,1} = i^{2l+3} H_{4,3}; at z_{k,l}
    of the (4,2) family, H_{4,3} = i^{2l+3} H_{4,1}; at z_{k,l} of the
    (6,3) family, H_{6,4} = zeta_6^{2(l-1)} H_{6,2}.  Each row is checked
    when l < N.  A relation H_a = f H_b holds when the computed
    |H_a - f H_b| at the computed zero z is below F = rounding_floor(N, z,
    M), with H_a, H_b and M = M(z) from _evaluate, all three scaled by the
    same e^-s (which changes no side of the test but the units).

    F covers every error of a true relation.  In units of eps M (eps the
    double epsilon, u = eps/2, N + |z| + 2 < 2^44, where _evaluate
    accepts z; the rounding bound of eval_H then holds for the scaled
    values, and |H_b| <= M (1 + 16 (N + |z| + 1) eps) <= 1.07 M):

    1. The zero.  predicted_zero rounds sqrt(3) (0.87u relative), the
       product with k - offset (u), the product with math.pi (1.35u), the
       root of unity (its angle below 2 pi carries 2.35u relative error,
       cos and sin 2u more: 16.8u) and one complex product (sqrt(5) u), so
       the computed z lies within |dz| <= 23u |z| < 0.045 of the true zero.
       There H_a - f H_b vanishes, and its derivative H_{a-1} - f H_{b-1}
       is at most 2 M(w) <= 2 M e^{|dz|} on the segment: 24.1 |z|.
    2. The two evaluations: 16 (N + |z| + 1) each, by the rounding bound
       of eval_H; 32 (N + |z| + 1) in all.
    3. The factor: its angle is below 9 pi/2 with relative error 2.35u,
       and cos and sin add 2u, so it is off by at most 22u = 11 eps;
       times |H_b|: 11.8.
    4. The product (sqrt(5) u), the difference and abs round by at most
       9u of 2.14 M: 9.7.

    The sum, 32 N + 56.1 |z| + 53.5, is below 0.94 times 64 (N + |z| + 2).
    That leaves room for the rounding of F and of M itself: each exponent
    is off by at most d = 27u |z| < 0.053 (see eval_H), so the computed M
    is at least e^-d > 0.948 of the true one.  So a true relation always
    passes, and a false one fails wherever |H_a| or |f H_b| is far above
    F.  _evaluate raises ArithmeticError from 2 k pi of about 2^44 on.
    """
    if k < 1 or not 0 <= l < 6:
        raise ValueError("check_special_values: need k >= 1 and 0 <= l < 6")
    for family, a, b, factor in _SPECIAL_VALUES:
        N = family[0]
        if l < N:
            z = predicted_zero(family, k, l)
            value, majorant, _ = _evaluate(N, a, z)
            if not abs(value - factor(l) * _evaluate(N, b, z)[0]) < rounding_floor(N, z, majorant):
                return False
    return True


def _taylor_bound(m: int, r: float) -> float:
    """r^m/m! e^r >= sum_{k>=m} r^k/k!, so it bounds |H_{N,m}(w)| for |w| <= r."""
    bound = math.exp(r)
    for i in range(1, m + 1):
        bound *= r / i
    return bound


def _edge_phase(N: int, j: int, a: complex, b: complex, pieces: list) -> float:
    """Change of arg H_{N,j} along the segment from a to b, certified.

    The segment is walked in pieces [p, p + h] with h <= 1/2.  The
    derivative H_{N,j}' = H_{N,m}, m = (j-1) mod N, is bounded on the disk
    |w - p| <= h in two ways: Re(zeta^k w) <= Re(zeta^k p) + h gives
    |H'(w)| <= M(p) e^h, with M the majorant of eval_H, read off the
    evaluation of H at p that the walk has already made (_evaluate returns
    both); and the Taylor series sum_n w^(Nn+m)/(Nn+m)! gives |H'(w)| <=
    r^m/m! e^r with r = |p| + h (_taylor_bound), which is far smaller near
    the origin, where H has a zero of order j.
    With B either bound, |H(w) - H(p)| <= h B on the disk.  A piece is
    accepted when the computed value Hc(p) satisfies |Hc(p)| > h B + F(p),
    F = rounding_floor, first with the majorant bound and, only if that
    fails and r < m, with the Taylor bound; otherwise it is halved.  For
    r >= m, r^m/m! >= m^m/m! >= 1, so the Taylor bound is at least e^r >=
    M(p) e^h and never the smaller; as h > 0 and rounding is monotone, the
    test accepts exactly when h times the smaller bound would.  As h <= 1/2,
    M(p + h) <= 1.65 M(p), and by the rounding bound of eval_H, F(p)
    exceeds the rounding error at p plus that at the piece's end plus the
    rounding of h B itself.  Hence:

    1. |H(w)| >= |H(p)| - h B > 0 on the closed disk of radius h about p:
       H has no zero on or near the piece.
    2. The path from Hc(p) straight to H(p), then along H over the piece,
       then straight to the computed value at the piece's end, stays within
       distance h B + (both rounding errors) < |Hc(p)| of Hc(p).  That disk
       misses 0, and on it arg differs from arg Hc(p) by less than pi/2, so
       the principal phase of (computed end / Hc(p)) is exactly the change
       of arg along the path.
    3. The straight connectors cancel between consecutive pieces, so the
       phases summed around a closed polygon are 2 pi times the number of
       zeros of H inside it (argument principle), up to the rounding of a
       sum of a few thousand phases, far below pi.
    4. Every point c of the piece lies in the disk of step 1, and F(p)
       covers the rounding at c as at the piece's end, so the principal
       phase of (computed value at c / Hc(p)) is exactly the change of arg
       along the path of step 2 stopped at c.  A box's side that is part
       of a walked segment is read this way (_reading): its change of arg
       is the difference of the readings at its ends.  Each corner of a
       box is an end of a walk, and the reading there divides the value
       that walk computed, so the connectors at the corners still cancel.

    Past |z| = _EXP_LIMIT, _evaluate returns e^-s H and e^-s M, with s
    depending on the point.  None of the above changes when the values at
    each point are multiplied by a positive factor.  The test at p reads
    Hc(p), M(p) and F(p), which is linear in M(p), so all its terms carry
    the factor of p; read in units of that factor, steps 1 and 2 hold as
    stated, with the computed value at the piece's end multiplied by a
    positive number.  Every phase, in the walk and in _reading alike, is
    the principal phase of a ratio of two computed values, which no
    positive factor on either changes.  Only the Taylor bound carries no
    factor, so it is tried only where s = 0; there, with r < m, r stays
    below 701 (as max_k Re(zeta_N^k p) >= |p| cos(pi/N)), so its exp does
    not overflow.

    A piece that cannot be accepted before h < 1e-9 max(1, |p|) means a
    zero on or within about that distance of the segment: ArithmeticError
    is raised rather than a count guessed.  The walk appends to ``pieces``
    (p, Hc(p), change of arg from a to p) for the start p of every
    accepted piece, and last (b, Hc(b), the total).
    """
    m = (j - 1) % N
    length = abs(b - a)
    direction = (b - a) / length
    done = 0.0
    value, majorant, shift = _evaluate(N, j, a)  # H, M and s at the start of each piece
    total = 0.0
    pieces.append((a, value, 0.0))
    while done < length:
        point = a + done * direction
        room = abs(value) - rounding_floor(N, point, majorant)
        h = min(length - done, 0.5)
        while True:
            r = abs(point) + h
            if (h * (majorant * math.exp(h)) < room
                    or shift == 0 and r < m and h * _taylor_bound(m, r) < room):
                break
            h /= 2.0
            if h < 1e-9 * max(1.0, abs(point)):
                raise ArithmeticError(
                    f"H_({N},{j}) cannot be certified zero-free near {point} on the "
                    f"segment {a} -> {b}"
                )
        done = length if h == length - done else done + h
        end = b if done >= length else a + done * direction
        following, majorant, shift = _evaluate(N, j, end)
        total += cmath.phase(following / value)
        value = following
        pieces.append((end, value, total))
    return total


def _walk(N: int, j: int, a: complex, b: complex):
    """Walk the edge (a, b) afresh: its side (segment, 0.0, change of arg), Hc(a) and Hc(b).

    A segment is (sign, keys, pieces): keys[k] is sign times the place of
    the walk's point p_k on its line, ascending in k, and pieces[k] is
    (p_k, Hc(p_k), change of arg from a to p_k), as _edge_phase lists
    them.  A box holds each of its sides as (segment, reading at the
    side's counterclockwise start, reading at its end), read off the
    segment that holds the side (see _reading and _split).
    """
    pieces: list[tuple[complex, complex, float]] = []
    total = _edge_phase(N, j, a, b, pieces=pieces)
    place = (lambda p: p.real) if a.imag == b.imag else (lambda p: p.imag)
    sign = 1.0 if place(a) < place(b) else -1.0
    keys = [sign * place(p) for p, _, _ in pieces]
    return ((sign, keys, pieces), 0.0, total), pieces[0][1], pieces[-1][1]


def _reading(segment, place: float, value: complex) -> float:
    """Certified change of arg of H from a segment's start to its point at ``place``, of Hc ``value``."""
    sign, keys, pieces = segment
    key = sign * place
    k = bisect_right(keys, key) - 1  # the point lies in the piece from p_k
    _, start, phase = pieces[k]
    return phase if keys[k] == key else phase + cmath.phase(value / start)  # step 4 of _edge_phase


def _count(sides) -> int:
    """Zeros of H inside a box, with multiplicity, from its four sides (see _walk)."""
    return round(sum(end - start for _, start, end in sides) / (2.0 * math.pi))


def _box_sides(N: int, j: int, box: tuple[float, float, float, float]) -> list:
    """Walk the box (x0, x1, y0, y1) counterclockwise: its bottom, right, top and left sides."""
    x0, x1, y0, y1 = box
    corners = (complex(x0, y0), complex(x1, y0), complex(x1, y1), complex(x0, y1))
    return [_walk(N, j, a, b)[0] for a, b in zip(corners, corners[1:] + corners[:1])]


_ROOT_MARGIN = 0.25  # the root box's half side exceeds the radius by this
_ROOT_CENTRE = complex(0.0713, 0.0419)  # 0 strictly inside; split lines miss the axes, where zeros often lie
_SPLIT_FRACTIONS = (0.5137, 0.4629)  # off-centre, the second used when the first meets a zero


def _split(
    N: int, j: int, box: tuple[float, float, float, float], count: int, sides: list
) -> list[tuple[tuple[float, float, float, float], int, list]]:
    """Halve the box across its longer side; count one half, subtract for the other.

    The cut is walked once, upward or from x1 to x0, and the two sides it
    meets are read where it meets them, with the Hc that its walk computed
    there.  Each half gets the cut and pieces of the box's sides: returns
    [(low, its count, its sides), (high, count - low's count, its sides)].
    """
    x0, x1, y0, y1 = box
    wide = x1 - x0 >= y1 - y0
    turn = 0 if wide else 1  # sides turned so that the cut runs from side 0 to side 2
    (s0, a0, b0), s1, (s2, a2, b2), s3 = sides[turn:] + sides[:turn]
    for fraction in _SPLIT_FRACTIONS:
        if wide:
            cut = x0 + fraction * (x1 - x0)
            low, high = (x0, cut, y0, y1), (cut, x1, y0, y1)
        else:
            cut = y0 + fraction * (y1 - y0)
            low, high = (x0, x1, y0, cut), (x0, x1, cut, y1)
        a, b = (complex(cut, y0), complex(cut, y1)) if wide else (complex(x1, cut), complex(x0, cut))
        try:
            (segment, _, total), start, end = _walk(N, j, a, b)
        except ArithmeticError:
            continue
        m0, m2 = _reading(s0, cut, start), _reading(s2, cut, end)
        halves = ([(s0, a0, m0), (segment, 0.0, total), (s2, m2, b2), s3],
                  [(s0, m0, b0), s1, (s2, a2, m2), (segment, total, 0.0)])
        low_sides, high_sides = (half[4 - turn:] + half[:4 - turn] for half in halves)  # turned back
        low_count = _count(low_sides)
        return [(low, low_count, low_sides), (high, count - low_count, high_sides)]
    raise ArithmeticError(f"find_zeros_in_disk: no split of {box} avoids the zeros of H_({N},{j})")


def find_zeros_in_disk(N: int, j: int, radius: float) -> list[complex]:
    """Every zero of H_{N,j} with |z| <= radius, each once, by certified box counts.

    A box around the disk is split until each piece is resolved, after
    Delves and Lyness (Math. Comp. 21, 1967) and Kravanja and Van Barel
    (LNM 1727, 2000).  Counts come from _edge_phase, so they are exact.
    Each line segment is walked at most once per search: only the root
    box's sides and the cuts are walked.  Each box on the search's stack
    holds its four sides, each as the walked segment that holds it with
    the readings at the side's two ends (see _walk); a split reads the two
    sides its cut meets and hands the cut and pieces of those sides to the
    halves (see _split).  A segment lives only while a pending box holds
    it, so searches of different (N, j) never share one.
    A box with count 0, or one missing the disk, is dropped.  For j > 0
    the origin is a zero of multiplicity exactly j (H_{N,j}(z) = z^j/j! +
    ...), so a box around it with count j holds nothing else, and the
    origin is returned once as exactly 0j.  A count-1 box is polished by
    locate_zero from its centre until a step from an iterate below the
    rounding floor lands below it too; the result is kept only if it lies
    in the box (it is then that box's zero), and otherwise the box is
    split again.
    Zeros are sorted by modulus, then phase.  Raises ValueError unless
    N >= 1 and 0 <= j < N, or for a negative radius; and ArithmeticError
    if a zero sits on a box edge that no split can avoid or if the root
    box reaches where doubles cannot resolve H (see _evaluate; a radius
    of about 1.2e13).
    """
    _check_kernel("find_zeros_in_disk", N, j)
    if not radius >= 0:
        raise ValueError("find_zeros_in_disk: need radius >= 0")
    half = radius + _ROOT_MARGIN
    root = (
        _ROOT_CENTRE.real - half, _ROOT_CENTRE.real + half,
        _ROOT_CENTRE.imag - half, _ROOT_CENTRE.imag + half,
    )
    sides = _box_sides(N, j, root)
    zeros: list[complex] = []
    pending = [(root, _count(sides), sides)]
    while pending:
        box, count, sides = pending.pop()
        x0, x1, y0, y1 = box
        if count == 0 or math.hypot(max(x0, -x1, 0.0), max(y0, -y1, 0.0)) > radius:
            continue
        if j > 0 and count == j and x0 < 0 < x1 and y0 < 0 < y1:
            zeros.append(0j)
            continue
        if count == 1:
            try:
                z = locate_zero(N, j, complex((x0 + x1) / 2, (y0 + y1) / 2))
            except ArithmeticError:
                z = None
            if z is not None and x0 <= z.real <= x1 and y0 <= z.imag <= y1:
                zeros.append(z)
                continue
        pending.extend(_split(N, j, box, count, sides))
    return sorted((z for z in zeros if abs(z) <= radius), key=lambda z: (abs(z), cmath.phase(z)))


def lattice_zeros(
    family: tuple[int, int], radius: float
) -> tuple[list[tuple[int, int, complex, complex | None]], list[complex]]:
    """Match the certified zeros in |z| <= radius against the closed-form lattice.

    Runs find_zeros_in_disk once.  Returns (rows, strays): one row
    (k, l, predicted, zero) per lattice point with |z_{k,l}| <= radius, in
    family_zeros order, where zero is the certified zero within _MATCH_TOL
    of it, or None; and the certified zeros that match no lattice point.
    For j > 0 the search returns the trivial zero at the origin as exactly
    0j, which is not a stray.  As the search counts exactly, every row
    matched with no strays means that the disk holds the lattice points
    and the origin's j zeros, and nothing else.  Choose a radius between
    two rings: a zero on the circle may fall on either side of it.
    Raises ValueError for a family outside ZERO_FAMILIES before it searches.
    """
    rings = _rings("lattice_zeros", family)
    N, j = family
    found = [z for z in find_zeros_in_disk(N, j, radius) if z != 0]  # H_{N,0}(0) = 1
    rows = []
    for k, ring in rings:
        inside = [(l, w) for l, w in enumerate(ring) if abs(w) <= radius]
        if not inside:
            break
        for l, w in inside:
            rows.append((k, l, w, next((z for z in found if abs(z - w) <= _MATCH_TOL), None)))
    matched = {zero for *_, zero in rows}
    return rows, [z for z in found if z not in matched]


def extraneous_zeros(family: tuple[int, int], radius: float) -> list[complex]:
    """Zeros found by the certified search that sit off the closed-form lattice."""
    return lattice_zeros(family, radius)[1]


def ratio_radius(params: SeqParams, n_max: int) -> float:
    """Nearest-zero radius estimate, in units of pi, from successive ratios.

    Computes (|E_{N n}/( N n)!| / |E_{N(n+1)}/(N(n+1))!|)^{1/N} / pi at
    n = n_max with exact rationals, converting to floating point only at
    the end.  By the ratio test this tends to (distance from the origin to
    the closest nontrivial zero of the kernel) / pi.
    """
    from .engine import compute_table

    if n_max < 10:
        raise ValueError("ratio_radius: n_max must be at least 10")
    table = compute_table(params, n_max + 1)
    N = params.N
    numerator = table.values[n_max]
    denominator = table.values[n_max + 1]
    if numerator == 0 or denominator == 0:
        raise ValueError("ratio_radius: zero sequence value encountered")
    ratio = abs(numerator / denominator) * perm(N * (n_max + 1), N)  # (N(n+1))! / (Nn)!
    try:
        root = float(ratio) ** (1.0 / N)
    except OverflowError:  # ratio is about (radius pi)^N: root ratio / 2^s, times 2^(s/N)
        s = ratio.numerator.bit_length() - ratio.denominator.bit_length() - 1000
        root = float(ratio / 2**s) ** (1.0 / N) * 2.0 ** (s / N)
    return root / math.pi
