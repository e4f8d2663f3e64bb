"""Empirical residue-period scans for congruential Euler number sequences.

For a prime p, a factor m with m | p-1 or m = 2, and 0 <= j < mp, the
sequence E_{mpn}^{(mp,j)} reduced mod p^r is expected to be eventually
periodic with period dividing q*p^r (q = lcm(2, p-1), period measured in
absolute subscript units).  The scanner runs the recurrence directly in
Z/p^R through :func:`engine.residue_table`, whose precision bound makes
every residue exact mod p^r, stops at the first entry that is not
p-integral, detects the minimal eventual period of the residue sequence,
and reproduces the published numerical tables.
"""

from __future__ import annotations

import sys
from collections.abc import Iterable
from functools import partial
from math import lcm

from .engine import SeqParams, residue_table
from .exact import _Record, _Value, is_prime

__all__ = [
    "PeriodDetection",
    "detect_eventual_period",
    "PeriodScanResult",
    "scan_conjecture",
    "emit_table",
    "ReferenceRow",
    "REFERENCE_ROWS",
    "ReferenceOutcome",
    "run_reference_scan",
]


class PeriodDetection(_Value):
    """Outcome of a period search: found / no_period / inconclusive.

    ``n0`` and ``period`` are None unless the status is found.
    """

    __slots__ = ("status", "n0", "period")

    def __init__(self, status: str, n0: int | None = None,
                 period: int | None = None) -> None:
        super().__init__(status, n0, period)


def detect_eventual_period(seq: list[int], max_period: int) -> PeriodDetection:
    """Least (period, n0), lexicographically, of an eventually periodic list.

    A candidate (n0, period) is accepted when seq[n] == seq[n + period]
    for every n0 <= n <= len(seq) - period - 1 with n0 minimal, and the
    tail seq[n0:] covers at least two full periods.  A window shorter
    than 3 * max_period is inconclusive, which is distinct from "no
    period up to max_period fits".
    """
    if max_period < 1:
        raise ValueError("detect_eventual_period: max_period must be positive")
    if len(seq) < 3 * max_period:
        return PeriodDetection("inconclusive")
    for period in range(1, max_period + 1):
        n0 = 0
        for n in range(len(seq) - period - 1, -1, -1):
            if seq[n] != seq[n + period]:
                n0 = n + 1
                break
        if len(seq) - n0 >= 2 * period:
            return PeriodDetection("found", n0, period)
    return PeriodDetection("no_period")


class PeriodScanResult(_Record):
    """One scanned parameter tuple (p, m, j, r) and its detected cycle.

    status is ok, integrality_failed, no_period or inconclusive.  n0 is
    the preperiod in table-index units; period_index is the minimal
    observed period in absolute subscript units (a multiple of mp when a
    period is found); cycle lists the repeating residues starting at n0.
    n0, period_index and divides_conjecture (whether period_index divides
    conjecture_period) are None and cycle is empty unless the status is ok.
    """

    __slots__ = ("p", "m", "j", "r", "n_max", "status", "n0", "period_index", "cycle",
                 "conjecture_period", "divides_conjecture", "note")

    @property
    def mp(self) -> int:
        return self.m * self.p


def scan_conjecture(
    p: int, m: int, j: int, r: int, n_max: int | None = None
) -> PeriodScanResult:
    """Scan residues of E_{mpn}^{(mp,j)} mod p^r for an eventual period.

    Residues come from :func:`engine.residue_table`, which never builds the
    exact rationals; a p in any denominator is itself reportable evidence
    and yields an ``integrality_failed`` result naming the first such
    entry.  The detected period is converted to absolute subscript units
    and compared against the conjectured bound q*p^r.  Findings are
    empirical, never proofs.
    """
    if not is_prime(p):
        raise ValueError("scan_conjecture: p must be prime")
    if m < 1 or ((p - 1) % m != 0 and m != 2):
        raise ValueError("scan_conjecture: m must divide p-1 or equal 2")
    mp = m * p
    if not 0 <= j < mp:
        raise ValueError("scan_conjecture: need 0 <= j < m*p")
    if r < 1:
        raise ValueError("scan_conjecture: r must be positive")

    conjecture_period = lcm(2, p - 1) * p**r
    max_period_table = conjecture_period // mp  # exact: m | lcm(2, p-1) and p | p^r
    if n_max is None:
        n_max = max(3 * max_period_table, 30)  # long enough for the two-full-periods rule
    result = partial(PeriodScanResult, p, m, j, r, n_max)

    residues = residue_table(SeqParams(mp, j), p, r, n_max)
    if len(residues) <= n_max:
        note = f"denominator of entry n={len(residues)} is divisible by {p}"
        return result("integrality_failed", None, None, [], conjecture_period, None, note)

    found = detect_eventual_period(residues, max_period_table)
    if found.status != "found":
        return result(found.status, None, None, [], conjecture_period, None, "")
    period_index = found.period * mp
    cycle = residues[found.n0 : found.n0 + found.period]
    return result("ok", found.n0, period_index, cycle, conjecture_period,
                  conjecture_period % period_index == 0, "")


def emit_table(results: Iterable[PeriodScanResult], format: str) -> str:
    """Render scan results sorted by (p, mp, j, r): text (published-table columns), TSV, JSON lines."""
    rows = sorted(results, key=lambda s: (s.p, s.mp, s.j, s.r))
    if format == "json":
        import json

        return "\n".join(json.dumps(r._asdict(), sort_keys=True) for r in rows)
    if format == "tsv":
        header = "p\tm\tj\tr\tn0\tperiod\tconjecture_period\tdivides_conjecture\tstatus\tcycle"
        lines = [header]
        for r in rows:
            cycle = ",".join(str(c) for c in r.cycle)
            lines.append(
                f"{r.p}\t{r.m}\t{r.j}\t{r.r}\t{_dash(r.n0)}\t{_dash(r.period_index)}\t"
                f"{r.conjecture_period}\t{_dash(r.divides_conjecture)}\t{r.status}\t{cycle}"
            )
        return "\n".join(lines)
    if format == "text":
        lines = ["Parameters\tp\tr\tn0\tperiod\tcycle"]
        for r in rows:
            cycle = "cycle=[" + ",".join(str(c) for c in r.cycle) + "]"
            line = (
                f"(mp,j)=({r.mp},{r.j})\t{r.p}\t{r.r}\t{_dash(r.n0)}\t"
                f"{_dash(r.period_index)}\t{cycle}"
            )
            if r.status != "ok":
                line += f"\t[{r.status}]"
            if r.note:
                line += f"\t# {r.note}"
            lines.append(line)
        return "\n".join(lines)
    raise ValueError(f"emit_table: unknown format {format!r}")


def _dash(value) -> str:
    return "-" if value is None else str(value)


class ReferenceRow(_Value):
    """One row of the published residue-period table, for reproduction runs.

    ``companion`` is None or an (m, j, r) scan at the same p, run next to
    the row's own scan and reported with it.
    """

    __slots__ = ("mp", "j", "p", "r", "published_n0", "published_period", "note", "companion")

    def __init__(self, mp: int, j: int, p: int, r: int, published_n0: int, published_period: int,
                 note: str = "", companion: tuple[int, int, int] | None = None) -> None:
        super().__init__(mp, j, p, r, published_n0, published_period, note, companion)


# The published evidence table, in its printed order.  The final row was
# printed with r = 2 although 2058 = 6 * 7^3 is the conjectured period for
# r = 3; its ``companion`` is the r = 3 scan, and whichever of the two
# reproduces the print is reported.  The (10,7) row's companion is the
# (10,4) scan at the same r, which it was printed among.
# The (42,9)/r=1, (20,13)/r=3 and (6,3)/r=5 rows are kept as printed although
# exact recomputation contradicts them; the README section "Known
# discrepancies in the published period table" gives the corrected values.
REFERENCE_ROWS: tuple[ReferenceRow, ...] = (
    ReferenceRow(6, 1, 3, 1, 1, 6),
    ReferenceRow(6, 1, 3, 2, 1, 18),
    ReferenceRow(6, 3, 3, 1, 1, 6),
    ReferenceRow(6, 3, 3, 2, 1, 18),
    ReferenceRow(6, 3, 3, 3, 2, 54),
    ReferenceRow(6, 3, 3, 4, 2, 162),
    ReferenceRow(6, 3, 3, 5, 3, 486),
    ReferenceRow(10, 4, 5, 1, 1, 20),
    ReferenceRow(10, 4, 5, 2, 1, 100),
    ReferenceRow(10, 7, 5, 3, 2, 500, note="printed among rows otherwise labeled (10,4)",
                 companion=(2, 4, 3)),
    ReferenceRow(20, 13, 5, 1, 0, 20),
    ReferenceRow(20, 13, 5, 2, 1, 100),
    ReferenceRow(20, 13, 5, 3, 2, 500),
    ReferenceRow(21, 8, 7, 1, 1, 42),
    ReferenceRow(21, 8, 7, 2, 1, 294),
    ReferenceRow(21, 16, 7, 1, 0, 21),
    ReferenceRow(21, 16, 7, 2, 1, 294),
    ReferenceRow(42, 9, 7, 1, 1, 21),
    ReferenceRow(42, 9, 7, 2, 1, 294),
    ReferenceRow(42, 9, 7, 2, 1, 2058, note="printed r=2; 2058 = 6*7^3 suggests r=3",
                 companion=(6, 9, 3)),
)


class ReferenceOutcome(_Record):
    """A published row next to what the scanner actually observes.

    ``result`` is the reported scan, ``matches`` whether it reproduces the
    printed (n0, period), and ``companions`` the other scans, if any.
    """

    __slots__ = ("row", "result", "matches", "companions")


def _reference_outcome(row: ReferenceRow) -> ReferenceOutcome:
    """Scan the row and its companion; swap them only if the companion alone matches.

    Each scan is compared with the printed (n0, period) once; the outcome
    matches when either scan does, since a lone companion match is swapped
    in.  The reported scan's note joins the row's note, the comparison and
    one line per companion scan.
    """
    printed = (row.published_n0, row.published_period)
    scans = [scan_conjecture(row.p, row.mp // row.p, row.j, row.r)]
    scans += [] if row.companion is None else [scan_conjecture(row.p, *row.companion)]
    hits = [(scan.n0, scan.period_index) == printed for scan in scans]
    swap = hits == [False, True]
    result, *companions = scans[::-1] if swap else scans
    parts = [row.note] if row.note else []
    if any(hits):
        parts.append("reproduced")
    else:
        parts.append(f"published (n0={row.published_n0}, period={row.published_period}) "
                     f"vs computed (n0={result.n0}, period={result.period_index})")
    parts += [f"companion scan (mp,j)=({extra.mp},{extra.j}) r={extra.r}: "
              f"n0={extra.n0} period={extra.period_index}" for extra in companions]
    result.note = "; ".join(parts) + (f"; matched by r={result.r} scan" if swap else "")
    return ReferenceOutcome(row, result, any(hits), companions)


def run_reference_scan() -> list[ReferenceOutcome]:
    """Scan every published row (plus the disambiguation companions).

    Returns outcomes in the printed row order; progress goes to stderr only.
    """
    outcomes = []
    for row in REFERENCE_ROWS:
        print(
            f"scanning (mp,j)=({row.mp},{row.j}) p={row.p} r={row.r} ...",
            file=sys.stderr,
            flush=True,
        )
        outcomes.append(_reference_outcome(row))
    return outcomes
