"""Output checks for the benchmark, made apart from the program.

Every reference here is computed in this file's own arithmetic or copied
from the paper: Euler numbers by the Seidel boustrophedon, Bernoulli numbers
by the Akiyama-Tanigawa algorithm, zeta values by direct sums with a tail
bound, kernel zeros from their closed-form lattice, zero counts by an
argument-principle winding count of the kernel's power series, and table
entries by their defining identity.  Nothing is compared against a saved
copy of an earlier run.

Each ``check_*`` function returns ``(attempted, failures)`` where failures
is a list of ``(operation, message)`` pairs, one per failed operation.
"""

from __future__ import annotations

import cmath
import json
import math
from fractions import Fraction
from math import comb, factorial, lcm

# --- the published period table (appendix B), as printed ---------------------

# (mp, j, p, r, n0, period) in printed order.  The last row was printed with
# r = 2; its period 2058 = 6 * 7^3 is only reached by the r = 3 scan.
PRINTED_ROWS = (
    (6, 1, 3, 1, 1, 6),
    (6, 1, 3, 2, 1, 18),
    (6, 3, 3, 1, 1, 6),
    (6, 3, 3, 2, 1, 18),
    (6, 3, 3, 3, 2, 54),
    (6, 3, 3, 4, 2, 162),
    (6, 3, 3, 5, 3, 486),
    (10, 4, 5, 1, 1, 20),
    (10, 4, 5, 2, 1, 100),
    (10, 7, 5, 3, 2, 500),
    (20, 13, 5, 1, 0, 20),
    (20, 13, 5, 2, 1, 100),
    (20, 13, 5, 3, 2, 500),
    (21, 8, 7, 1, 1, 42),
    (21, 8, 7, 2, 1, 294),
    (21, 16, 7, 1, 0, 21),
    (21, 16, 7, 2, 1, 294),
    (42, 9, 7, 1, 1, 21),
    (42, 9, 7, 2, 1, 294),
    (42, 9, 7, 2, 1, 2058),
)

# Printed rows that exact arithmetic contradicts, with the corrected
# minimal (n0, period).
ERRATA = {
    (42, 9, 7, 1): (1, 42),
    (20, 13, 5, 3): (1, 500),
    (6, 3, 3, 5): (2, 486),
}

# The paper's (6,3) residue cycles mod 3^r: r -> (n0, cycle).
CYCLES_63 = {
    1: (1, [1]),
    2: (1, [7, 1, 4]),
    3: (2, [10, 13, 16, 19, 22, 25, 1, 4, 7]),
    4: (2, [37, 13, 16, 46, 22, 25, 55, 31, 34, 64, 40, 43, 73, 49, 52,
            1, 58, 61, 10, 67, 70, 19, 76, 79, 28, 4, 7]),
}


def _scan_key(row: tuple) -> tuple[int, int, int, int]:
    """(p, m, j, r) of the scan that reproduces a printed row."""
    mp, j, p, r, _, period = row
    if period == 2058:
        r = 3
    return p, mp // p, j, r


def residue(value: Fraction, p: int, r: int) -> int:
    """Least nonnegative residue of a p-integral rational mod p^r."""
    modulus = p**r
    if value.denominator % p == 0:
        raise ValueError(f"{value} is not {p}-integral")
    return value.numerator * pow(value.denominator, -1, modulus) % modulus


def refute_printed_row(row: tuple, values: list[Fraction]) -> str | None:
    """Show from residues of ``values`` that a printed erratum row is wrong.

    ``values`` are E_{mp n}^{(mp,j)} for n = 0..n_max from an independent
    route.  Returns None when the printed claim is refuted and the corrected
    (n0, period) holds, else a message.
    """
    mp, j, p, r, printed_n0, printed_period = row
    n0, period = ERRATA[(mp, j, p, r)]
    s = [residue(v, p, r) for v in values]
    if printed_period != period:
        # The series is in z^mp, so E_k = 0 unless mp | k; a period that mp
        # does not divide would force s[n] == 0 from the printed n0 on.
        if printed_period % mp == 0:
            return f"printed period {printed_period} is a multiple of mp={mp}"
        if all(s[n] == 0 for n in range(printed_n0, len(s))):
            return f"residues vanish from n={printed_n0}: printed period not refuted"
        return None
    P = period // mp
    late = [n for n in range(n0, len(s) - P) if s[n] != s[n + P]]
    if late:
        return f"s[n] != s[n+{P}] at n={late[:3]} past the corrected n0={n0}"
    if s[n0 - 1] == s[n0 - 1 + P]:
        return f"s[n] == s[n+{P}] already at n={n0 - 1}: corrected n0 not minimal"
    return None


def check_appendix_b(
    returncode: int, stdout: str, refutations: dict[tuple, str | None]
) -> tuple[int, list[tuple[str, str]]]:
    """Check ``ceuler --format json scan --appendix-b``: one operation per printed row.

    ``refutations`` maps each erratum key (mp, j, p, r) to the result of
    :func:`refute_printed_row` on oracle values.  The command exits 1 by
    design, because three printed rows are contradicted.
    """
    labels = [f"row ({mp},{j}) p={p} r={r} period={P}" for mp, j, p, r, _, P in PRINTED_ROWS]
    if returncode != 1:
        return len(labels), [(label, f"exit status {returncode}, expected 1") for label in labels]
    try:
        rows = [json.loads(line) for line in stdout.splitlines() if line.strip()]
        by_key = {(d["p"], d["m"], d["j"], d["r"]): d for d in rows}
    except (ValueError, KeyError, TypeError) as exc:
        return len(labels), [(label, f"unreadable output: {exc}") for label in labels]
    failures = []
    for label, printed in zip(labels, PRINTED_ROWS):
        problem = _row_problem(printed, by_key.get(_scan_key(printed)), refutations)
        if problem:
            failures.append((label, problem))
    if len(rows) != len(PRINTED_ROWS) and not failures:
        failures.append((labels[0], f"{len(rows)} rows printed, expected {len(PRINTED_ROWS)}"))
    return len(labels), failures


def _row_problem(printed: tuple, row: dict | None, refutations: dict) -> str | None:
    mp, j, p, r, n0, period = printed
    if row is None:
        return f"no scan row for (p,m,j,r)={_scan_key(printed)}"
    if row.get("status") != "ok":
        return f"status {row.get('status')!r}"
    got = (row["n0"], row["period_index"])
    key = (mp, j, p, r)
    if key in ERRATA:
        if got != ERRATA[key]:
            return f"computed {got}, documented erratum {ERRATA[key]}"
        if refutations.get(key, "not refuted") is not None:
            return f"printed {(n0, period)} not refuted: {refutations.get(key, 'no oracle run')}"
    elif got != (n0, period):
        return f"computed {got}, printed {(n0, period)}"
    scan_r = row["r"]
    if (lcm(2, p - 1) * p**scan_r) % got[1] != 0:
        return f"period {got[1]} does not divide q*p^r"
    if got[0] > scan_r:
        return f"n0={got[0]} exceeds r={scan_r}"
    if len(row["cycle"]) * mp != got[1]:
        return f"cycle of length {len(row['cycle'])} for period {got[1]}"
    if (mp, j) == (6, 3) and scan_r in CYCLES_63:
        if (row["n0"], row["cycle"]) != CYCLES_63[scan_r]:
            return f"(6,3) r={scan_r} cycle {row['cycle']} differs from the paper's list"
    return None


# --- families: Euler, Bernoulli and zeta references ---------------------------


def seidel_euler(count: int) -> list[int]:
    """|E_{2n}| for n < count (secant numbers) by the Seidel boustrophedon."""
    row = [1]
    zigzag = [1]
    for _ in range(2 * count):
        nxt = [0]
        for value in reversed(row):
            nxt.append(nxt[-1] + value)
        row = nxt
        zigzag.append(row[-1])
    return [zigzag[2 * n] for n in range(count)]


def akiyama_tanigawa(count: int) -> list[Fraction]:
    """B_n for n < count with B_1 = -1/2, by the Akiyama-Tanigawa algorithm."""
    out = []
    a = []
    for m in range(count):
        a.append(Fraction(1, m + 1))
        for k in range(m, 0, -1):
            a[k - 1] = k * (a[k - 1] - a[k])
        out.append(a[0])
    if count > 1:
        out[1] = -out[1]  # the algorithm yields B_1 = +1/2
    return out


def _direct_sum(k: int, odd_only: bool) -> tuple[float, float]:
    """sum_{m <= K} m^-k (odd m only if asked) and a bound on the tail.

    The tail beyond K is at most K^(1-k)/(k-1); K is chosen to push that
    below 1e-13, capped at 10^5 terms (a tail of 1e-5 for k = 2).
    """
    terms = min(100_000, int(1e13 ** (1.0 / (k - 1))) + 1)
    step = 2 if odd_only else 1
    total = math.fsum(m ** -float(k) for m in range(1, terms + 1, step))
    return total, terms ** (1.0 - k) / (k - 1)


def zeta_direct_problem(formula: str, degree: int, coefficient: Fraction) -> str | None:
    """Compare coefficient * pi^degree with zeta(degree) or lambda(degree) summed directly."""
    value = float(coefficient) * math.pi**degree
    partial, tail = _direct_sum(degree, formula.startswith("lambda"))
    slack = 1e-12 * partial
    if not partial - slack <= value <= partial + tail + slack:
        return f"{value!r} outside [{partial!r}, {partial + tail!r}] from the direct sum"
    return None


_BERNOULLI_INDEX = {
    "b4n_via_40": lambda n: 4 * n,
    "b4n2_via_40": lambda n: 4 * n - 2,
    "b4n_via_42": lambda n: 4 * n,
    "b4n2_via_42": lambda n: 4 * n - 2,
    "b6n_via_63": lambda n: 6 * n,
    "b6n4_via_63": lambda n: 6 * n - 4,
}


def expected_instances(call: list) -> int:
    """Instances a congruence report must cover, from the window passed in."""
    name, args = call
    if name in ("check_special_60", "verify_lemma_Xm"):
        return args[-1] + 1
    if name == "verify_lemma_series":
        return 3 * args[0] + 2
    return args[-1]


def check_families(returncode: int, stdout: str) -> tuple[int, list[tuple[str, str]]]:
    """Check the families session: every report, agreement and display is an operation."""
    try:
        out = json.loads(stdout)
        ops = (
            [f"{name}{tuple(args)}" for name, args in out["calls"]]
            + [f"oracle agreement {t['N']},{t['j']} n<={t['n_max']}" for t in out["agreement"]]
            + [f"zeta {z['formula']} n={z['n']}" for z in out["zeta"]]
            + [f"bernoulli display {b['formula']} n={b['n']}" for b in out["bernoulli_displays"]]
            + ["euler (2,0) table", "bernoulli table"]
        )
    except (ValueError, KeyError, TypeError) as exc:
        return 1, [("families session", f"unreadable output: {exc}")]
    if returncode != 0:
        return len(ops), [(op, f"exit status {returncode}") for op in ops]
    failures = []
    for call, report in zip(out["calls"], out["reports"]):
        label = f"{call[0]}{tuple(call[1])}"
        want = expected_instances(call)
        if report["status"] != "pass":
            failures.append((label, f"status {report['status']}: {report['failures'][:2]}"))
        elif report["instances_checked"] != want:
            failures.append((label, f"{report['instances_checked']} instances, window {want}"))
    for table in out["agreement"]:
        if not table["equal"]:
            failures.append((f"oracle agreement {table['N']},{table['j']}", "tables differ"))
    for z in out["zeta"]:
        label = f"zeta {z['formula']} n={z['n']}"
        problem = None if z["exact"] else "exact identity reported false"
        problem = problem or zeta_direct_problem(z["formula"], z["degree"], Fraction(z["coefficient"]))
        if problem:
            failures.append((label, problem))
    displays = out["bernoulli_displays"]
    top = max([_BERNOULLI_INDEX[b["formula"]](b["n"]) for b in displays] + [len(out["bernoulli"]) - 1])
    bernoulli = akiyama_tanigawa(top + 1)
    for b in displays:
        index = _BERNOULLI_INDEX[b["formula"]](b["n"])
        if not b["exact"] or Fraction(b["value"]) != bernoulli[index]:
            failures.append(
                (f"bernoulli display {b['formula']} n={b['n']}", f"{b['value']} != B_{index}")
            )
    secants = seidel_euler(len(out["euler_2_0"]))
    if [Fraction(v) for v in out["euler_2_0"]] != [(-1) ** n * e for n, e in enumerate(secants)]:
        failures.append(("euler (2,0) table", "differs from the Seidel boustrophedon"))
    if [Fraction(v) for v in out["bernoulli"]] != bernoulli[: len(out["bernoulli"])]:
        failures.append(("bernoulli table", "differs from Akiyama-Tanigawa"))
    return len(ops), failures


# --- zero geometry ------------------------------------------------------------

ORIGIN_BALL = 1e-2  # Newton stalls at the multiple zero z = 0 land inside this
MATCH_TOL = 1e-6


def lattice(family: tuple[int, int], radius: float) -> list[complex]:
    """Closed-form nontrivial zeros of H_{N,j} with |z| <= radius."""
    N = family[0]
    base = {
        (4, 0): lambda k: complex(1, 1) * (k - 0.5) * math.pi,
        (4, 2): lambda k: complex(1, 1) * k * math.pi,
        (6, 3): lambda k: complex(math.sqrt(3.0), 1.0) * k * math.pi,
    }[family]
    out = []
    k = 1
    while abs(base(k)) <= radius:
        out.extend(base(k) * cmath.exp(2j * math.pi * l / N) for l in range(N))
        k += 1
    return out


def kernel_series(N: int, j: int, z: complex) -> complex:
    """sum_n z^{Nn+j}/(Nn+j)!, summed until the terms are negligible."""
    term = complex(1.0)
    total = 0j
    k = 0
    while True:
        if k % N == j:
            total += term
        k += 1
        term *= z / k
        if k > abs(z) and abs(term) < 1e-18 * max(abs(total), 1e-300):
            return total


def winding_count(N: int, j: int, radius: float, samples: int = 1024) -> int:
    """Zeros of the kernel series inside |z| = radius, by the argument principle.

    The circle is refined until every phase step is below pi/4, so that the
    summed principal arguments cannot have skipped a turn.
    """
    while True:
        values = [
            kernel_series(N, j, cmath.rect(radius, 2 * math.pi * k / samples))
            for k in range(samples)
        ]
        steps = [cmath.phase(values[(k + 1) % samples] / values[k]) for k in range(samples)]
        if max(abs(s) for s in steps) < math.pi / 4:
            return round(math.fsum(steps) / (2 * math.pi))
        samples *= 2


def check_zero_family(
    family: tuple[int, int], radius: float, points: list[complex], strays: list[complex],
    winding: int,
) -> str | None:
    """Check one find_zeros_in_disk result against the lattice and the winding count."""
    N, j = family
    zeros = lattice(family, radius)
    if winding != len(zeros) + j:
        return f"winding count {winding} != lattice count {len(zeros)} + j={j}"
    missing = [w for w in zeros if all(abs(z - w) > MATCH_TOL for z in points)]
    if missing:
        return f"{len(missing)} lattice zeros not found, e.g. {missing[0]:.6g}"
    off = [z for z in points if abs(z) > ORIGIN_BALL and all(abs(z - w) > MATCH_TOL for w in zeros)]
    if off:
        return f"{len(off)} returned points off the lattice, e.g. {off[0]:.6g}"
    if strays:
        return f"extraneous_zeros reported {len(strays)} strays"
    want = len(zeros) + (1 if j > 0 else 0)
    if len(points) != want:
        near = sum(1 for z in points if abs(z) <= ORIGIN_BALL)
        return (
            f"{len(points)} points returned for {want} distinct zeros "
            f"({near} within {ORIGIN_BALL} of the origin)"
        )
    return None


def distinct_zeros_found(family: tuple[int, int], radius: float, points: list[complex]) -> int:
    """Distinct true zeros among the returned points: lattice matches plus the origin."""
    zeros = lattice(family, radius)
    found = sum(1 for w in zeros if any(abs(z - w) <= MATCH_TOL for z in points))
    if family[1] > 0 and any(abs(z) <= ORIGIN_BALL for z in points):
        found += 1
    return found


def check_zero_geometry(
    returncode: int, stdout: str, windings: dict[tuple[int, int], int]
) -> tuple[int, list[tuple[str, str]]]:
    """One search and one Newton set per family: six operations."""
    families = sorted(windings)
    ops = [f"search {f}" for f in families] + [f"locate {f}" for f in families]
    if returncode != 0:
        return len(ops), [(op, f"exit status {returncode}") for op in ops]
    try:
        document = json.loads(stdout)
        out = {tuple(f["family"]): f for f in document["families"]}
        radius = document["radius"]
    except (ValueError, KeyError, TypeError) as exc:
        return len(ops), [(op, f"unreadable output: {exc}") for op in ops]
    failures = []
    for family in families:
        data = out.get(family)
        if data is None:
            failures += [(f"search {family}", "missing"), (f"locate {family}", "missing")]
            continue
        points = [complex(*z) for z in data["points"]]
        strays = [complex(*z) for z in data["strays"]]
        problem = check_zero_family(family, radius, points, strays, windings[family])
        if problem:
            failures.append((f"search {family}", problem))
        located = [(k, l, complex(*z)) for k, l, z in data["located"]]
        zeros = lattice(family, max((abs(z) for _, _, z in located), default=0.0) + 1.0)
        bad = [(k, l) for k, l, z in located if min(abs(z - w) for w in zeros) > 1e-9]
        if bad or not located:
            failures.append((f"locate {family}", f"Newton off the closed form at (k,l)={bad[:3]}"))
    return len(ops), failures


# --- compute with the disk cache ------------------------------------------------


def parse_table(lines: list[str]) -> list[tuple[int, str]]:
    out = []
    for line in lines:
        if line:
            n, value = line.split(" ", 1)
            out.append((int(n), value))
    return out


def identity_problem(N: int, j: int, values: list[Fraction], n: int) -> str | None:
    """sum_m C(Nn+j, Nm) E_{Nm} must equal j! when n = 0 and 0 otherwise."""
    top = N * n + j
    total = sum((comb(top, N * m) * values[m] for m in range(n + 1)), Fraction(0))
    want = factorial(j) if n == 0 else 0
    return None if total == want else f"defining identity fails at n={n}"


def check_compute(
    returncode: int, stdout: str, cache_text: str, N: int, j: int, n_max: int
) -> tuple[int, list[tuple[str, str]]]:
    """Check one ``ceuler compute``: printed table, cache file and sampled identities."""
    op = f"compute ({N},{j}) n<={n_max}"
    if returncode != 0:
        return 1, [(op, f"exit status {returncode}")]
    try:
        printed = parse_table(stdout.splitlines())
        cache_lines = cache_text.splitlines()
        cached = parse_table(cache_lines[1:])
        values = [Fraction(v) for _, v in printed]
    except ValueError as exc:
        return 1, [(op, f"unreadable output: {exc}")]
    if [n for n, _ in printed] != list(range(n_max + 1)):
        return 1, [(op, "printed indices are not 0..n_max")]
    if cache_lines[:1] != [f"congruential-euler-cache v1 N={N} j={j}"] or cached != printed:
        return 1, [(op, "cache file differs from the printed table")]
    for n in sorted({0, 1, 2, n_max // 3, n_max // 2, n_max}):
        problem = identity_problem(N, j, values, n)
        if problem:
            return 1, [(op, problem)]
    return 1, []
