"""Congruential Euler number tables: recurrence engine, oracle, and disk cache.

The numbers E_{Nn}^{(N,j)} are the EGF coefficients of the inverse of
sum_n z^{Nn}/(Nn+j)!; coefficients at indices that are not multiples of N
vanish identically, so a table stores only values[n] = E_{Nn}^{(N,j)}.
Tables are filled by the lower-triangular recurrence

    sum_{m=0}^{n} C(Nn+j, Nm) E_{Nm} = (j! if n = 0 else 0)

and can be cross-checked against an independent series-inversion oracle.
"""

from __future__ import annotations

import re
import threading
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial
from pathlib import Path
from typing import Optional, Union

from .exact import exp_section, series_invert, series_shift_down

__all__ = [
    "SeqParams",
    "SeqTable",
    "euler_number",
    "compute_table",
    "oracle_table",
    "cache_store",
    "cache_load",
    "CacheFormatError",
]

CACHE_HEADER_VERSION = "congruential-euler-cache v1"


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
            top = N * n + j
            acc = Fraction(0)
            for m in range(n):
                acc += comb(top, N * m) * values[m]
            values.append(-acc / comb(top, j))
    return values


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


class CacheFormatError(ValueError):
    """Raised when a cache file is malformed; the message names the line."""


def cache_store(table: SeqTable, path: Union[str, Path]) -> None:
    """Write a table as decimal text, one `<n> <num>/<den>` entry per line."""
    path = Path(path)
    lines = [f"{CACHE_HEADER_VERSION} N={table.params.N} j={table.params.j}"]
    for n, value in enumerate(table.values):
        lines.append(f"{n} {value.numerator}/{value.denominator}")
    path.write_text("\n".join(lines) + "\n", encoding="ascii")


_HEADER_RE = re.compile(r"^congruential-euler-cache v1 N=(\d+) j=(\d+)$")
_ENTRY_RE = re.compile(r"^(\d+) (-?\d+)/(\d+)$")


def cache_load(
    params: SeqParams, path: Union[str, Path], n_max: Optional[int] = None
) -> SeqTable:
    """Load a table back; a file longer than requested returns the prefix."""
    path = Path(path)
    lines = path.read_text(encoding="ascii").splitlines()
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
    if n_max is not None:
        if n_max >= len(values):
            raise CacheFormatError(
                f"{path}: cache holds {len(values)} entries, requested index {n_max}"
            )
        values = values[: n_max + 1]
    if not values:
        raise CacheFormatError(f"{path}: line 2: no entries")
    return SeqTable(params, values)
