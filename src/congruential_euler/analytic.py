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
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import comb, factorial
from typing import Callable

from .engine import SeqParams, compute_table, euler_number

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
    for m in range(upper + 1):
        total += comb(top, params.N * m) * euler_number(params, m)
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
    """Evaluate H_{N,j}(z) = (1/N) sum_k zeta_N^{-kj} exp(zeta_N^k z)."""
    if N < 1 or not 0 <= j < N:
        raise ValueError("eval_H: need N >= 1 and 0 <= j < N")
    if abs(z) > _EXP_LIMIT:
        raise ValueError("eval_H: |z| out of double-precision exp range")
    total = 0j
    for k in range(N):
        root = cmath.rect(1.0, 2.0 * math.pi * k / N)
        total += cmath.rect(1.0, -2.0 * math.pi * k * j / N) * cmath.exp(root * z)
    return total / N


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
    j = 0 wrapping to N-1).  Raises on non-convergence, reporting the
    last iterate.
    """
    z = complex(guess)
    j_prime = (j - 1) % N
    residual = abs(eval_H(N, j, z))
    for _ in range(max_steps):
        if residual < tol:
            return z
        derivative = eval_H(N, j_prime, z)
        if derivative == 0:
            raise ArithmeticError(f"locate_zero: zero derivative at {z}")
        step = eval_H(N, j, z) / derivative
        z -= step
        residual = abs(eval_H(N, j, z))
        if abs(step) < 1e-15 * max(1.0, abs(z)) and residual < max(tol, 1e-10):
            return z
    if residual < tol:
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


def find_zeros_in_disk(
    N: int, j: int, radius: float, grid_step: float = 0.35
) -> list[complex]:
    """Newton-polish every grid start in the disk and dedupe the zeros found.

    Returns zeros with |z| <= radius (including a zero at the origin when
    present), clustered so that each zero appears once.
    """
    zeros: list[complex] = []
    steps = int(radius / grid_step) + 1
    for a in range(-steps, steps + 1):
        for b in range(-steps, steps + 1):
            start = complex(a * grid_step, b * grid_step)
            if abs(start) > radius + grid_step:
                continue
            try:
                z = locate_zero(N, j, start, tol=1e-9, max_steps=60)
            except (ArithmeticError, ValueError):
                continue
            if abs(z) > radius:
                continue
            if all(abs(z - seen) > 1e-4 for seen in zeros):
                zeros.append(z)
    return sorted(zeros, key=lambda z: (abs(z), cmath.phase(z)))


def extraneous_zeros(
    family: tuple[int, int], radius: float, match_tol: float = 1e-6,
    origin_snap: float = 1e-2,
) -> list[complex]:
    """Zeros found by grid search that sit off the closed-form lattice.

    The lattice is generated out past the radius.  For j > 0 the origin is
    an exact zero of multiplicity j, where Newton converges only linearly
    and stalls around (j! * tol)^(1/j) away; points inside ``origin_snap``
    are therefore matched to the trivial zero rather than held to
    ``match_tol`` (the nearest nontrivial zero is more than pi away, so
    the wider ball masks nothing).
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
        if j > 0 and abs(z) <= origin_snap:
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
