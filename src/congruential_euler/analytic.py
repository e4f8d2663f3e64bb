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
import math
import sys
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import factorial
from typing import Callable

from .engine import SeqParams, compute_table, euler_number
from .exact import binomial_row

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
    "extraneous_zeros",
    "ratio_radius",
    "ZERO_FAMILIES",
]


@dataclass(frozen=True)
class PiPolynomial:
    """An exact rational multiple of a fixed even power of pi."""

    degree: int
    coefficient: Fraction

    def __post_init__(self) -> None:
        if self.degree < 2 or self.degree % 2 != 0:
            raise ValueError("PiPolynomial: degree must be even and at least 2")

    def __float__(self) -> float:
        return float(self.coefficient) * math.pi**self.degree


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
    """The six displayed Bernoulli evaluations; min_n marks the (n >= 0) lines."""

    b4n_via_40 = "b4n_via_40"
    b4n2_via_40 = "b4n2_via_40"
    b4n_via_42 = "b4n_via_42"
    b4n2_via_42 = "b4n2_via_42"
    b6n_via_63 = "b6n_via_63"
    b6n4_via_63 = "b6n4_via_63"


def bernoulli(n: int) -> Fraction:
    """Bernoulli number B_n, read off the (N, j) = (1, 1) sequence."""
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


def _weighted_sum(params: SeqParams, top: int, upper: int) -> Fraction:
    total = Fraction(0)
    weights = binomial_row(top, range(0, params.N * upper + 1, params.N))
    for m, weight in enumerate(weights):
        total += weight * euler_number(params, m)
    return total


@dataclass(frozen=True)
class _ZetaDisplay:
    """One zeta/lambda display; every field but params is a function of n.

    The sqrt(2) powers are even, so every prefactor is an exact rational.
    """

    params: tuple[int, int]
    degree: Callable[[int], int]  # power of pi
    two_power: Callable[[int], Fraction]  # power of 2 in the prefactor
    denominator: Callable[[int], int]  # extra integer denominator
    top: Callable[[int], int]  # binomial top index
    upper: Callable[[int], int]  # inclusive upper summation bound


_ZETA_DISPLAYS = {
    ZetaFormulaId.lambda_4n_via_40: _ZetaDisplay(
        (4, 0),
        lambda n: 4 * n,
        lambda n: Fraction(1, 2 ** (2 * n)),
        lambda n: 4 * factorial(4 * n - 1),
        lambda n: 4 * n - 1,
        lambda n: n - 1,
    ),
    ZetaFormulaId.lambda_4n2_via_40: _ZetaDisplay(
        (4, 0),
        lambda n: 4 * n - 2,
        lambda n: Fraction(1, 2 ** (2 * n - 1)),
        lambda n: 4 * factorial(4 * n - 3),
        lambda n: 4 * n - 3,
        lambda n: n - 1,
    ),
    ZetaFormulaId.zeta_4n_via_40: _ZetaDisplay(
        (4, 0),
        lambda n: 4 * n,
        lambda n: Fraction(2 ** (2 * n)),
        lambda n: 4 * factorial(4 * n - 1) * (2 ** (4 * n) - 1),
        lambda n: 4 * n - 1,
        lambda n: n - 1,
    ),
    ZetaFormulaId.zeta_4n2_via_40: _ZetaDisplay(
        (4, 0),
        lambda n: 4 * n - 2,
        lambda n: Fraction(2 ** (2 * n - 1)),
        lambda n: 4 * factorial(4 * n - 3) * (2 ** (4 * n - 2) - 1),
        lambda n: 4 * n - 3,
        lambda n: n - 1,
    ),
    ZetaFormulaId.zeta_4n_via_42: _ZetaDisplay(
        (4, 2),
        lambda n: 4 * n,
        lambda n: Fraction(2 ** (2 * n)),
        lambda n: 4 * factorial(4 * n + 1),
        lambda n: 4 * n + 1,
        lambda n: n,
    ),
    ZetaFormulaId.zeta_4n2_via_42: _ZetaDisplay(
        (4, 2),
        lambda n: 4 * n - 2,
        lambda n: Fraction(2 ** (2 * n - 1)),
        lambda n: 4 * factorial(4 * n - 1),
        lambda n: 4 * n - 1,
        lambda n: n - 1,
    ),
    ZetaFormulaId.zeta_6n_via_63: _ZetaDisplay(
        (6, 3),
        lambda n: 6 * n,
        lambda n: Fraction(2 ** (6 * n)),
        lambda n: 6 * factorial(6 * n + 2),
        lambda n: 6 * n + 2,
        lambda n: n,
    ),
    ZetaFormulaId.zeta_6n4_via_63: _ZetaDisplay(
        (6, 3),
        lambda n: 6 * n - 4,
        lambda n: Fraction(2 ** (6 * n - 4)),
        lambda n: 6 * factorial(6 * n - 2),
        lambda n: 6 * n - 2,
        lambda n: n - 1,
    ),
}


def formula_value(formula: ZetaFormulaId, n: int) -> PiPolynomial:
    """Right-hand side of one zeta/lambda display, as an exact pi-multiple."""
    if n < 1:
        raise ValueError("formula_value: n must be positive")
    display = _ZETA_DISPLAYS[formula]
    total = _weighted_sum(SeqParams(*display.params), display.top(n), display.upper(n))
    coefficient = Fraction((-1) ** (n + 1)) * display.two_power(n) / display.denominator(n) * total
    return PiPolynomial(display.degree(n), coefficient)


def formula_reference(formula: ZetaFormulaId, n: int) -> PiPolynomial:
    """Left-hand side of the display: the actual zeta or lambda value."""
    if n < 1:
        raise ValueError("formula_reference: n must be positive")
    degree = _ZETA_DISPLAYS[formula].degree(n)
    if formula.value.startswith("lambda"):
        return lambda_even(degree)
    return zeta_even(degree)


def check_zeta_identity(formula: ZetaFormulaId, n: int) -> bool:
    """Exact equality of one display at index n (no tolerance)."""
    return formula_value(formula, n) == formula_reference(formula, n)


@dataclass(frozen=True)
class BernoulliDisplay:
    """One Bernoulli display B_{index(n)} = prefactor(n) * sum; valid for n >= min_n."""

    params: tuple[int, int]
    index: Callable[[int], int]  # subscript of the Bernoulli number
    prefactor: Callable[[int], Fraction]
    top: Callable[[int], int]  # binomial top index
    upper: Callable[[int], int]  # inclusive upper summation bound
    min_n: int


BERNOULLI_DISPLAYS = {
    BernoulliFormulaId.b4n_via_40: BernoulliDisplay(
        (4, 0),
        lambda n: 4 * n,
        lambda n: Fraction((-1) ** n * 2 * n, 2 ** (2 * n) * (2 ** (4 * n) - 1)),
        lambda n: 4 * n - 1,
        lambda n: n - 1,
        1,
    ),
    BernoulliFormulaId.b4n2_via_40: BernoulliDisplay(
        (4, 0),
        lambda n: 4 * n - 2,
        lambda n: Fraction((-1) ** (n + 1) * (4 * n - 2), 2 ** (2 * n) * (2 ** (4 * n - 2) - 1)),
        lambda n: 4 * n - 3,
        lambda n: n - 1,
        1,
    ),
    BernoulliFormulaId.b4n_via_42: BernoulliDisplay(
        (4, 2),
        lambda n: 4 * n,
        lambda n: Fraction((-1) ** n, 2 ** (2 * n + 1) * (4 * n + 1)),
        lambda n: 4 * n + 1,
        lambda n: n,
        0,
    ),
    BernoulliFormulaId.b4n2_via_42: BernoulliDisplay(
        (4, 2),
        lambda n: 4 * n - 2,
        lambda n: Fraction((-1) ** (n + 1), 2 ** (2 * n) * (4 * n - 1)),
        lambda n: 4 * n - 1,
        lambda n: n - 1,
        1,
    ),
    BernoulliFormulaId.b6n_via_63: BernoulliDisplay(
        (6, 3),
        lambda n: 6 * n,
        lambda n: Fraction(1, 3 * (6 * n + 1) * (6 * n + 2)),
        lambda n: 6 * n + 2,
        lambda n: n,
        0,
    ),
    BernoulliFormulaId.b6n4_via_63: BernoulliDisplay(
        (6, 3),
        lambda n: 6 * n - 4,
        lambda n: Fraction(1, 3 * (6 * n - 2) * (6 * n - 3)),
        lambda n: 6 * n - 2,
        lambda n: n - 1,
        1,
    ),
}


def bernoulli_formula_value(formula: BernoulliFormulaId, n: int) -> Fraction:
    """Right-hand side of one Bernoulli display, as an exact rational."""
    display = BERNOULLI_DISPLAYS[formula]
    if n < display.min_n:
        raise ValueError(f"{formula.value}: n must be at least {display.min_n}")
    total = _weighted_sum(SeqParams(*display.params), display.top(n), display.upper(n))
    return display.prefactor(n) * total


def check_bernoulli_identity(formula: BernoulliFormulaId, n: int) -> bool:
    """Exact equality of one Bernoulli display at index n."""
    index = BERNOULLI_DISPLAYS[formula].index(n)
    return bernoulli_formula_value(formula, n) == bernoulli(index)


# --- floating-point zero geometry ------------------------------------------

ZERO_FAMILIES = ((4, 0), (4, 2), (6, 3))

_EXP_LIMIT = 700.0  # beyond this, exp overflows doubles


def eval_H(N: int, j: int, z: complex) -> complex:
    """Evaluate H_{N,j}(z) = (1/N) sum_k zeta_N^{-kj} exp(zeta_N^k z).

    Rounding bound: for |z| <= 700 and a libm whose exp, sin and cos are
    correct to one ulp, the returned value differs from H_{N,j}(z) by at
    most 16 (N + |z| + 1) eps M(z), where eps is the double epsilon and
    M(z) = (1/N) sum_k exp(Re(zeta_N^k z)) = (1/N) sum_k |kth term| (so
    |H_{N,m}(z)| <= M(z) for every m).  With u = eps/2: each root of unity
    comes from an angle below 2 pi with relative error 3u, so it is off by
    at most 22u, and the product with z by at most 25u |z|.  exp turns that
    absolute error in the exponent into a relative error of the term, plus
    about 5u for exp, sin and cos themselves.  The phase factor's angle is
    below 2 pi N, which gives 25uN + 3u more, and the product 3u.  So each
    term carries a relative error below (25|z| + 25N + 11)u; summing N terms
    adds 1.42 (N-1) u sum |terms| and the division u.  The bound is about
    eps |z| M(z) for large |z|, not a fixed multiple of eps M(z), because
    the roots of unity are rounded.
    """
    if N < 1 or not 0 <= j < N:
        raise ValueError("eval_H: need N >= 1 and 0 <= j < N")
    if abs(z) > _EXP_LIMIT:
        raise ValueError("eval_H: |z| out of double-precision exp range")
    total = 0j
    for k in range(N):
        root = cmath.rect(1.0, 2.0 * math.pi * k / N)
        total += cmath.rect(1.0, -2.0 * math.pi * k * j / N) * cmath.exp(root * z)
    return total / N


def _majorant(N: int, z: complex) -> float:
    """M(z) = (1/N) sum_k exp(Re(zeta_N^k z)), which bounds every |H_{N,m}(z)|."""
    return sum(math.exp((cmath.rect(1.0, 2.0 * math.pi * k / N) * z).real) for k in range(N)) / N


def rounding_floor(N: int, z: complex, majorant: float | None = None) -> float:
    """64 (N + |z| + 2) eps M(z), four times the rounding bound of eval_H.

    A computed |H_{N,j}(z)| below this floor cannot be told apart from
    zero.  It exceeds the rounding of eval_H at z plus that at a point up
    to 1/2 away plus the rounding of the derivative bound (see
    _edge_phase).  Pass ``majorant`` when M(z) is already known.
    """
    if majorant is None:
        majorant = _majorant(N, z)
    return 64.0 * (N + abs(z) + 2.0) * sys.float_info.epsilon * majorant


def predicted_zero(family: tuple[int, int], k: int, l: int) -> complex:
    """Closed-form nontrivial zero z_{k,l} of H_{N,j} for the three families.

    The (4, 0) zeros sit at (1+i)(k - 1/2) pi, the (4, 2) zeros at
    (1+i) k pi, and the (6, 3) zeros at (sqrt(3)+i) k pi, each rotated by
    the N-th roots of unity (index l).
    """
    if k < 1:
        raise ValueError("predicted_zero: k must be positive")
    N = family[0]
    if not 0 <= l < N:
        raise ValueError(f"predicted_zero: need 0 <= l < {N}")
    rotation = cmath.rect(1.0, 2.0 * math.pi * l / N)
    if family == (4, 0):
        return (1 + 1j) * (k - 0.5) * math.pi * rotation
    if family == (4, 2):
        return (1 + 1j) * k * math.pi * rotation
    if family == (6, 3):
        return complex(math.sqrt(3.0), 1.0) * k * math.pi * rotation
    raise ValueError(f"predicted_zero: unknown family {family}")


def family_zeros(family: tuple[int, int], count: int) -> list[tuple[int, int, complex]]:
    """The first ``count`` nontrivial zeros, ordered by modulus then rotation.

    Returns (k, l, zero) triples; within one modulus ring the rotation
    index l runs from 0.
    """
    N = family[0]
    out = []
    k = 1
    while len(out) < count:
        for l in range(N):
            out.append((k, l, predicted_zero(family, k, l)))
            if len(out) == count:
                break
        k += 1
    return out


def locate_zero(
    N: int, j: int, guess: complex, tol: float = 1e-12, max_steps: int = 50
) -> complex:
    """Newton iteration z <- z - H(z)/H'(z) from a nearby guess.

    The derivative uses the index-shift rule H_{N,j}' = H_{N,j-1} (with
    j = 0 wrapping to N-1).  The iterate is returned once its residual is
    below ``tol``, or once the step has stalled and the residual is below
    max(tol, rounding_floor(N, z)): beyond |z| of about 18 the rounding of
    eval_H alone exceeds any fixed tolerance.  Raises on non-convergence,
    reporting the last iterate.
    """
    z = complex(guess)
    j_prime = (j - 1) % N
    value = eval_H(N, j, z)
    residual = abs(value)
    for _ in range(max_steps):
        if residual < tol:
            return z
        derivative = eval_H(N, j_prime, z)
        if derivative == 0:
            raise ArithmeticError(f"locate_zero: zero derivative at {z}")
        step = value / derivative
        z -= step
        value = eval_H(N, j, z)
        residual = abs(value)
        if abs(step) < 1e-15 * max(1.0, abs(z)) and residual < max(tol, rounding_floor(N, z)):
            return z
    if residual < max(tol, rounding_floor(N, z)):
        return z
    raise ArithmeticError(f"locate_zero: no convergence, last iterate {z} (|H|={residual:.3e})")


def check_special_values(k: int, l: int, rel_tol: float = 1e-8) -> bool:
    """Cross-relations of H values at the closed-form zeros.

    At z_{k,l} of the (4,0) family, H_{4,1} = i^{2l+3} H_{4,3}; at z_{k,l}
    of the (4,2) family, H_{4,3} = i^{2l+3} H_{4,1}; at z_{k,l} of the
    (6,3) family (0 <= l < 6), H_{6,4} = zeta_6^{2(l-1)} H_{6,2}.  Checks
    every relation whose l-range admits l, to relative tolerance.
    """
    if k < 1 or l < 0:
        raise ValueError("check_special_values: need k >= 1 and l >= 0")
    if l >= 6:
        raise ValueError("check_special_values: l out of range for every family")
    if math.sqrt(2.0) * k * math.pi > _EXP_LIMIT or 2.0 * k * math.pi > _EXP_LIMIT:
        raise ValueError("check_special_values: k out of double-precision range")
    checks = []
    if l < 4:
        z = predicted_zero((4, 0), k, l)
        factor = cmath.rect(1.0, math.pi * (2 * l + 3) / 2.0)  # i^(2l+3)
        checks.append((eval_H(4, 1, z), factor * eval_H(4, 3, z)))
        z = predicted_zero((4, 2), k, l)
        checks.append((eval_H(4, 3, z), factor * eval_H(4, 1, z)))
    z = predicted_zero((6, 3), k, l)
    factor = cmath.rect(1.0, 2.0 * math.pi * (l - 1) / 3.0)  # zeta_6^(2(l-1))
    checks.append((eval_H(6, 4, z), factor * eval_H(6, 2, z)))
    for lhs, rhs in checks:
        scale = max(abs(lhs), abs(rhs), 1e-300)
        if abs(lhs - rhs) > rel_tol * scale:
            return False
    return True


def _taylor_bound(m: int, r: float) -> float:
    """r^m/m! e^r >= sum_{k>=m} r^k/k!, so it bounds |H_{N,m}(w)| for |w| <= r."""
    bound = math.exp(r)
    for i in range(1, m + 1):
        bound *= r / i
    return bound


def _edge_phase(N: int, j: int, a: complex, b: complex) -> float:
    """Change of arg H_{N,j} along the segment from a to b, certified.

    The segment is walked in pieces [p, p + h] with h <= 1/2.  The
    derivative H_{N,j}' = H_{N,m}, m = (j-1) mod N, is bounded on the disk
    |w - p| <= h in two ways: Re(zeta^k w) <= Re(zeta^k p) + h gives
    |H'(w)| <= M(p) e^h, with M = _majorant; and the Taylor series
    sum_n w^(Nn+m)/(Nn+m)! gives |H'(w)| <= r^m/m! e^r with r = |p| + h
    (_taylor_bound), which is far smaller near the origin, where H has a
    zero of order j.
    With B the smaller bound, |H(w) - H(p)| <= h B on the disk.  A piece is
    accepted when the computed value Hc(p) satisfies |Hc(p)| > h B + F(p),
    F = rounding_floor; otherwise it is halved.  As h <= 1/2, M(p + h) <=
    1.65 M(p), and by the rounding bound of eval_H, F(p) exceeds the
    rounding error at p plus that at the piece's end plus the rounding of
    h B itself.  Hence:

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

    A piece that cannot be accepted before h < 1e-9 max(1, |p|) means a
    zero on or within about that distance of the segment: ArithmeticError
    is raised rather than a count guessed.
    """
    m = (j - 1) % N
    length = abs(b - a)
    direction = (b - a) / length
    done = 0.0
    value = eval_H(N, j, a)
    total = 0.0
    while done < length:
        point = a + done * direction
        majorant = _majorant(N, point)
        room = abs(value) - rounding_floor(N, point, majorant)
        h = min(length - done, 0.5)
        while True:
            bound = min(majorant * math.exp(h), _taylor_bound(m, abs(point) + h))
            if h * bound < room:
                break
            h /= 2.0
            if h < 1e-9 * max(1.0, abs(point)):
                raise ArithmeticError(
                    f"H_({N},{j}) cannot be certified zero-free near {point} on the "
                    f"segment {a} -> {b}"
                )
        done = length if h == length - done else done + h
        end = b if done >= length else a + done * direction
        following = eval_H(N, j, end)
        total += cmath.phase(following / value)
        value = following
    return total


def _box_count(N: int, j: int, box: tuple[float, float, float, float]) -> int:
    """Zeros of H_{N,j} inside the box (x0, x1, y0, y1), with multiplicity."""
    x0, x1, y0, y1 = box
    corners = (complex(x0, y0), complex(x1, y0), complex(x1, y1), complex(x0, y1))
    total = sum(_edge_phase(N, j, corners[i], corners[(i + 1) % 4]) for i in range(4))
    return round(total / (2.0 * math.pi))


_ROOT_MARGIN = 0.25  # the root box's half side exceeds the radius by this
_ROOT_CENTRE = complex(0.0713, 0.0419)  # 0 strictly inside; split lines miss the axes, where zeros often lie
_SPLIT_FRACTIONS = (0.5137, 0.4629)  # off-centre, the second used when the first meets a zero


def _split(
    N: int, j: int, box: tuple[float, float, float, float], count: int
) -> list[tuple[tuple[float, float, float, float], int]]:
    """Halve the box across its longer side; count one half, subtract for the other."""
    x0, x1, y0, y1 = box
    for fraction in _SPLIT_FRACTIONS:
        if x1 - x0 >= y1 - y0:
            cut = x0 + fraction * (x1 - x0)
            low, high = (x0, cut, y0, y1), (cut, x1, y0, y1)
        else:
            cut = y0 + fraction * (y1 - y0)
            low, high = (x0, x1, y0, cut), (x0, x1, cut, y1)
        try:
            low_count = _box_count(N, j, low)
        except ArithmeticError:
            continue
        return [(low, low_count), (high, count - low_count)]
    raise ArithmeticError(f"find_zeros_in_disk: no split of {box} avoids the zeros of H_({N},{j})")


def find_zeros_in_disk(N: int, j: int, radius: float) -> list[complex]:
    """Every zero of H_{N,j} with |z| <= radius, each once, by certified box counts.

    A box around the disk is split until each piece is resolved, after
    Delves and Lyness (Math. Comp. 21, 1967) and Kravanja and Van Barel
    (LNM 1727, 2000).  Counts come from _edge_phase, so they are exact.
    A box with count 0, or one missing the disk, is dropped.  For j > 0
    the origin is a zero of multiplicity exactly j (H_{N,j}(z) = z^j/j! +
    ...), so a box around it with count j holds nothing else, and the
    origin is returned once as exactly 0j.  A count-1 box is polished by
    locate_zero from its centre down to the rounding floor (tol=0); the
    result is kept only if it lies in the box (it is then that box's
    zero), and otherwise the box is split again.
    Zeros are sorted by modulus, then phase.  Raises ValueError if the
    search box leaves the exp range of eval_H, and ArithmeticError if a
    zero sits on a box edge that no split can avoid.
    """
    half = radius + _ROOT_MARGIN
    if not radius >= 0 or abs(_ROOT_CENTRE) + math.sqrt(2.0) * half > _EXP_LIMIT:
        raise ValueError("find_zeros_in_disk: need radius >= 0 with the search box in exp range")
    root = (
        _ROOT_CENTRE.real - half, _ROOT_CENTRE.real + half,
        _ROOT_CENTRE.imag - half, _ROOT_CENTRE.imag + half,
    )
    zeros: list[complex] = []
    pending = [(root, _box_count(N, j, root))]
    while pending:
        box, count = pending.pop()
        x0, x1, y0, y1 = box
        if count == 0 or math.hypot(max(x0, -x1, 0.0), max(y0, -y1, 0.0)) > radius:
            continue
        if j > 0 and count == j and x0 < 0 < x1 and y0 < 0 < y1:
            zeros.append(0j)
            continue
        if count == 1:
            try:
                z = locate_zero(N, j, complex((x0 + x1) / 2, (y0 + y1) / 2), tol=0.0)
            except (ArithmeticError, ValueError):
                z = None
            if z is not None and x0 <= z.real <= x1 and y0 <= z.imag <= y1:
                zeros.append(z)
                continue
        pending.extend(_split(N, j, box, count))
    return sorted((z for z in zeros if abs(z) <= radius), key=lambda z: (abs(z), cmath.phase(z)))


def extraneous_zeros(
    family: tuple[int, int], radius: float, match_tol: float = 1e-6
) -> list[complex]:
    """Zeros found by the certified search that sit off the closed-form lattice.

    The lattice is generated out past the radius.  For j > 0 the search
    returns the trivial zero at the origin as exactly 0j, which is not a
    stray.
    """
    N, j = family
    lattice = []
    k = 1
    while True:
        ring = [predicted_zero(family, k, l) for l in range(N)]
        if min(abs(z) for z in ring) > radius + 1.0:
            break
        lattice.extend(ring)
        k += 1
    found = find_zeros_in_disk(N, j, radius)
    stray = []
    for z in found:
        if j > 0 and z == 0:
            continue
        if all(abs(z - w) > match_tol for w in lattice):
            stray.append(z)
    return stray


def ratio_radius(params: SeqParams, n_max: int) -> float:
    """Nearest-zero radius estimate, in units of pi, from successive ratios.

    Computes (|E_{N n}/( N n)!| / |E_{N(n+1)}/(N(n+1))!|)^{1/N} / pi at
    n = n_max with exact rationals, converting to floating point only at
    the end.  By the ratio test this tends to (distance from the origin to
    the closest nontrivial zero of the kernel) / pi.
    """
    if n_max < 10:
        raise ValueError("ratio_radius: n_max must be at least 10")
    table = compute_table(params, n_max + 1)
    N = params.N
    numerator = table.values[n_max]
    denominator = table.values[n_max + 1]
    if numerator == 0 or denominator == 0:
        raise ValueError("ratio_radius: zero sequence value encountered")
    ratio = abs(numerator / denominator) * Fraction(
        factorial(N * (n_max + 1)), factorial(N * n_max)
    )
    return float(ratio) ** (1.0 / N) / math.pi
