"""Congruential Euler number tables: recurrence engine, oracle, and disk cache.

The numbers E_{Nn}^{(N,j)} are the EGF coefficients of the inverse of
sum_n z^{Nn}/(Nn+j)!; coefficients at indices that are not multiples of N
vanish identically, so a table stores only values[n] = E_{Nn}^{(N,j)}.
Tables are filled by the lower-triangular recurrence

    sum_{m=0}^{n} C(Nn+j, Nm) E_{Nm} = (j! if n = 0 else 0)

and can be cross-checked against an independent series-inversion oracle.
The binomials of row n, C(Nn+j, Nm) for m = 0..n, are stepped along the
row by :func:`exact.binomial_row`; the last of them, C(Nn+j, Nn) =
C(Nn+j, j), is the divisor.  The oracle stays an independent route: its
series inverse weighs terms by C(n, m), not by C(Nn+j, Nm).
:func:`residue_table` runs the same recurrence in Z/p^R and returns the
values mod p^r without building the exact rationals.
"""

from __future__ import annotations

import os
import re
import threading
from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from pathlib import Path
from typing import Union

from .exact import binomial_row, exp_section, is_prime, series_invert, series_shift_down

__all__ = [
    "SeqParams",
    "SeqTable",
    "euler_number",
    "compute_table",
    "oracle_table",
    "residue_table",
    "cache_header",
    "cache_store",
    "cache_load",
    "seed_memo",
    "CacheFormatError",
]

CACHE_HEADER_VERSION = "congruential-euler-cache v1"
CACHE_CHECK_PRIME = 2**31 - 1  # cache_load checks every entry mod this prime


@dataclass(frozen=True)
class SeqParams:
    """Type (N, j) of a congruential Euler number sequence.

    N >= 1 is the support step; j >= 0 shifts the factorials in the kernel
    series (values beyond j = N-1 are meaningful too, e.g. (1, 1) yields
    the Bernoulli numbers).
    """

    N: int
    j: int

    def __post_init__(self) -> None:
        if self.N < 1:
            raise ValueError("SeqParams: N must be a positive integer")
        if self.j < 0:
            raise ValueError("SeqParams: j must be nonnegative")


@dataclass
class SeqTable:
    """Values E_{Nn}^{(N,j)} for n = 0..max_index (table-index convention)."""

    params: SeqParams
    values: list[Fraction]

    @property
    def max_index(self) -> int:
        return len(self.values) - 1


# Append-only memo, one list per (N, j).  The recurrence is strictly
# lower-triangular, so entries never change once computed; one lock is held
# across look-up and extension, so callers on several threads may share it.
_TABLES: dict[SeqParams, list[Fraction]] = {}
_LOCK = threading.Lock()


def _extend(params: SeqParams, n_max: int) -> list[Fraction]:
    N, j = params.N, params.j
    with _LOCK:
        values = _TABLES.get(params)
        if values is None:
            values = _TABLES[params] = [Fraction(factorial(j))]
        for n in range(len(values), n_max + 1):
            *weights, divisor = binomial_row(N * n + j, range(0, N * n + 1, N))
            acc = Fraction(0)
            for weight, value in zip(weights, values):
                acc += weight * value
            values.append(-acc / divisor)
    return values


def seed_memo(table: SeqTable) -> None:
    """Add the entries of a checked table past the memo's end to the memo.

    :func:`compute_table` then extends only past them.  Entries the memo
    already holds stay as they are; an absent memo starts from E_0 = j!.
    """
    with _LOCK:
        values = _TABLES.setdefault(table.params, [Fraction(factorial(table.params.j))])
        values += table.values[len(values):]


def euler_number(params: SeqParams, n: int) -> Fraction:
    """E_{Nn}^{(N,j)} (note: n is the table index, the subscript is N*n)."""
    if n < 0:
        raise ValueError("euler_number: index must be nonnegative")
    return _extend(params, n)[n]


def compute_table(params: SeqParams, n_max: int) -> SeqTable:
    """Table for n = 0..n_max via the recurrence, reusing any memoized prefix."""
    if n_max < 0:
        raise ValueError("compute_table: n_max must be nonnegative")
    values = _extend(params, n_max)
    return SeqTable(params, values[: n_max + 1])


def oracle_table(params: SeqParams, n_max: int) -> SeqTable:
    """Independent route: build the kernel series, divide by z^j, and invert.

    Must agree with :func:`compute_table` exactly; used as the oracle the
    recurrence engine is validated against.
    """
    if n_max < 0:
        raise ValueError("oracle_table: n_max must be nonnegative")
    N, j = params.N, params.j
    order = N * n_max + j
    kernel = series_shift_down(exp_section(N, j, order), j)
    inverse = series_invert(kernel)
    values = [inverse[N * n] for n in range(n_max + 1)]
    return SeqTable(params, values)


def residue_table(params: SeqParams, p: int, r: int, n_max: int) -> list[int]:
    """Residues mod p^r of E_{Nn}^{(N,j)} for n = 0..n_max, by the recurrence in Z/p^R.

    The list stops at the first entry that is not p-integral: a result of
    length L <= n_max means entry L has p in its denominator, while entries
    0..L-1 do not.

    Write C(Nn+j, j) = p^{v_n} * (a unit) and S_n = sum_{m<n} C(Nn+j, Nm) E_m,
    so that E_0 = j! and E_n = -S_n / C(Nn+j, j) for n >= 1.  Everything is
    computed modulo p^R with R = r + v_1 + ... + v_{n_max}.  Binomials come
    from the Legendre exponents e(k) = v_p(k!) and the p-free factorials
    u(k) = k! / p^{e(k)} mod p^R:

        C(a, b) = p^{e(a)-e(b)-e(a-b)} * u(a) * u(b)^-1 * u(a-b)^-1,

    where the exponent is Kummer's carry count (a term whose exponent
    reaches R vanishes mod p^R).  The loop keeps E_m * u(Nm)^-1 and divides
    S_n by the unit u(Nn+j); unit factors change neither a valuation nor
    the precision below.

    Precision, by induction on n while E_0..E_{n-1} are p-integral: the
    computed E_n agrees with the exact one mod p^{P_n}, P_n = r + sum_{k>n} v_k.
    For n = 0, E_0 = j! is exact and P_0 = R.  For n >= 1 the binomials are
    exact mod p^R and P_m >= P_{n-1} for m < n, so S_n is right mod
    p^{P_{n-1}} = p^{v_n + P_n}.  That decides whether p^{v_n} divides S_n,
    which holds exactly when E_n is p-integral; if it does, S_n / p^{v_n},
    and with it E_n, is right mod p^{P_n}.  Every P_n >= r, so each
    returned residue is exact mod p^r.
    """
    if not is_prime(p):
        raise ValueError(f"residue_table: {p} is not prime")
    if r < 1:
        raise ValueError("residue_table: r must be positive")
    if n_max < 0:
        raise ValueError("residue_table: n_max must be nonnegative")
    N, j = params.N, params.j
    top = N * n_max + j
    legendre = [0] * (top + 1)  # e(k) = v_p(k!)
    units = [1] * (top + 1)  # k with every factor p removed
    for k in range(1, top + 1):
        unit, v = k, 0
        while unit % p == 0:
            unit //= p
            v += 1
        legendre[k] = legendre[k - 1] + v
        units[k] = unit
    seed_exp = [legendre[N * n + j] for n in range(n_max + 1)]  # e(Nn+j)
    step_exp = [legendre[N * n] for n in range(n_max + 1)]  # e(Nn)
    drops = [seed_exp[n] - seed_exp[0] - step_exp[n] for n in range(n_max + 1)]  # v_n
    R = r + sum(drops)
    modulus = p**R
    factorials = [1] * (top + 1)  # u(k) mod p^R
    for k in range(1, top + 1):
        factorials[k] = factorials[k - 1] * units[k] % modulus
    inverses = [1] * (top + 1)  # u(k)^-1 mod p^R
    inverses[top] = pow(factorials[top], -1, modulus)
    for k in range(top, 0, -1):
        inverses[k - 1] = inverses[k] * units[k] % modulus
    powers = [p**k if k < R else 0 for k in range(legendre[top] + 1)]
    seed_inv = [inverses[N * n + j] for n in range(n_max + 1)]
    target = p**r
    scaled = [factorial(j) % modulus]  # E_m * u(Nm)^-1
    residues = [scaled[0] % target]
    for n in range(1, n_max + 1):
        total = sum(
            powers[seed_exp[n] - step_exp[m] - seed_exp[n - m]] * scaled[m] * seed_inv[n - m]
            for m in range(n)
        ) % modulus  # S_n * u(Nn+j)^-1
        if total % p ** drops[n]:
            break
        scaled.append(-(total // p ** drops[n]) * factorials[j] % modulus)
        residues.append(scaled[n] * factorials[N * n] % target)
    return residues


class CacheFormatError(ValueError):
    """Raised when a cache file is malformed; the message names the line."""


def cache_header(params: SeqParams) -> str:
    """First line of the cache file for ``params``."""
    return f"{CACHE_HEADER_VERSION} N={params.N} j={params.j}"


def cache_store(table: SeqTable, path: Union[str, Path]) -> None:
    """Write a table as decimal text, one `<n> <num>/<den>` entry per line.

    The text goes to a temporary file in the same directory, which then
    replaces ``path`` in one step: a failed write leaves any earlier file
    as it was and no temporary file behind.  The file holds exactly
    ``table``; ``ceuler compute`` calls this only when its table is longer
    than the valid file it found, so a warm run writes nothing.
    """
    path = Path(path)
    lines = [cache_header(table.params)]
    for n, value in enumerate(table.values):
        lines.append(f"{n} {value.numerator}/{value.denominator}")
    # one writer per process and thread owns this name; the file gets the
    # usual permissions, which mkstemp's private mode would not give
    temp = path.with_name(f".{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
    try:
        with open(temp, "w", encoding="ascii") as handle:
            handle.write("\n".join(lines) + "\n")
        os.replace(temp, path)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise


_HEADER_RE = re.compile(rf"^{re.escape(CACHE_HEADER_VERSION)} N=(\d+) j=(\d+)$")
_ENTRY_RE = re.compile(r"^(\d+) (-?\d+)/(\d+)$")


def cache_load(params: SeqParams, path: Union[str, Path]) -> SeqTable:
    """Load a table back and check it, raising CacheFormatError on a bad file.

    The file must have the header for ``params`` and entries ``<n> <a>/<b>``
    for n = 0, 1, 2, ... in order, each fraction reduced with b > 0.  Then
    every entry is checked against the recurrence mod the prime
    q = CACHE_CHECK_PRIME = 2^31 - 1: with rho_n = ``residue_table(params,
    q, 1, n_max)[n]``, entry n is accepted only if a = rho_n * b (mod q).
    The error message names the line of the first entry that fails.

    Guarantee: an accepted entry agrees with the true E_n mod q.  Proof.
    The check requires q > N*n_max + j, so q divides no k! with
    k <= Nn + j.  In :func:`residue_table` every Legendre exponent is then
    0, so every v_n is 0, the working precision is R = r = 1, no entry stops
    the list, and each rho_n = E_n (mod q) exactly.  Let a/b be accepted
    for index n.  If q divided b, then a = rho_n * b = 0 (mod q), and a/b
    would not be reduced; so b is a unit mod q and a/b = rho_n = E_n (mod q).

    Consequence: changing one digit of a correct numerator a is always
    rejected.  The new numerator is a' = a +- d * 10^k with 1 <= d <= 9, and
    a' = rho_n * b = a (mod q) would need q to divide d * 10^k, which no
    prime q > 10 does.  The check guards against corruption, not against a
    file forged to agree mod q; the exact recurrence stays the oracle.
    """
    path = Path(path)
    try:
        lines = path.read_text(encoding="ascii").splitlines()
    except UnicodeDecodeError as exc:
        raise CacheFormatError(f"{path}: not ASCII text: {exc}") from None
    if not lines:
        raise CacheFormatError(f"{path}: line 1: empty cache file")
    header = _HEADER_RE.match(lines[0])
    if header is None:
        raise CacheFormatError(f"{path}: line 1: bad header {lines[0]!r}")
    if (int(header.group(1)), int(header.group(2))) != (params.N, params.j):
        raise CacheFormatError(
            f"{path}: line 1: cache holds N={header.group(1)} j={header.group(2)}, "
            f"requested N={params.N} j={params.j}"
        )
    values: list[Fraction] = []
    linenos: list[int] = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        entry = _ENTRY_RE.match(line)
        if entry is None:
            raise CacheFormatError(f"{path}: line {lineno}: bad entry {line!r}")
        n, num, den = int(entry.group(1)), int(entry.group(2)), int(entry.group(3))
        if n != len(values):
            raise CacheFormatError(
                f"{path}: line {lineno}: expected index {len(values)}, found {n}"
            )
        if den < 1:
            raise CacheFormatError(f"{path}: line {lineno}: denominator must be positive")
        value = Fraction(num, den)
        if (value.numerator, value.denominator) != (num, den):
            raise CacheFormatError(f"{path}: line {lineno}: fraction {line!r} not reduced")
        values.append(value)
        linenos.append(lineno)
    if not values:
        raise CacheFormatError(f"{path}: line 2: no entries")
    q = CACHE_CHECK_PRIME
    if params.N * (len(values) - 1) + params.j >= q:
        raise CacheFormatError(f"{path}: line {linenos[-1]}: too many entries to check mod {q}")
    residues = residue_table(params, q, 1, len(values) - 1)
    for n, (value, residue, lineno) in enumerate(zip(values, residues, linenos)):
        if (value.numerator - residue * value.denominator) % q:
            raise CacheFormatError(
                f"{path}: line {lineno}: entry {n} disagrees with the recurrence mod {q}"
            )
    return SeqTable(params, values)
