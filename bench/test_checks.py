"""Tests for the benchmark's own checkers and tracer.

    python3 -m pytest -q bench/test_checks.py

Known values pin the independent references; corrupted outputs must each
be counted as exactly one failed operation.
"""

import json
import math
from fractions import Fraction
from math import comb, factorial

import checks
import tracing
from tracing import Tracer, layer_metrics

RADIUS = 5 * math.pi
WINDINGS = {(4, 0): 16, (4, 2): 14, (6, 3): 15}


def test_seidel_gives_secant_numbers():
    assert checks.seidel_euler(5) == [1, 1, 5, 61, 1385]


def test_akiyama_tanigawa_bernoulli():
    b = checks.akiyama_tanigawa(5)
    assert b[:5] == [1, Fraction(-1, 2), Fraction(1, 6), 0, Fraction(-1, 30)]


def test_winding_counts_equal_lattice_plus_j():
    for (N, j), count in WINDINGS.items():
        assert checks.winding_count(N, j, RADIUS) == count
        assert len(checks.lattice((N, j), RADIUS)) + j == count


def test_zeta_direct_sum():
    assert checks.zeta_direct_problem("zeta_x", 2, Fraction(1, 6)) is None
    assert checks.zeta_direct_problem("lambda_x", 4, Fraction(1, 96)) is None
    assert checks.zeta_direct_problem("zeta_x", 2, Fraction(1, 7)) is not None


# --- appendix_b --------------------------------------------------------------


def _appendix_rows() -> list[dict]:
    rows = []
    for printed in checks.PRINTED_ROWS:
        mp, j, p, r, n0, period = printed
        n0, period = checks.ERRATA.get((mp, j, p, r), (n0, period))
        key = checks._scan_key(printed)
        cycle = [0] * (period // mp)
        if (mp, j) == (6, 3) and key[3] in checks.CYCLES_63:
            cycle = checks.CYCLES_63[key[3]][1]
        rows.append({"p": p, "m": key[1], "j": j, "r": key[3], "n0": n0,
                     "period_index": period, "cycle": cycle, "status": "ok"})
    return rows


def _lines(rows: list[dict]) -> str:
    return "\n".join(json.dumps(row) for row in rows) + "\n"


REFUTED = {key: None for key in checks.ERRATA}


def test_appendix_b_good_output_passes():
    assert checks.check_appendix_b(1, _lines(_appendix_rows()), REFUTED) == (20, [])


def test_appendix_b_changed_period_is_one_failed_row():
    rows = _appendix_rows()
    rows[14]["period_index"] = 588  # (21,8) r=2, printed 294
    rows[14]["cycle"] = [0] * 28
    attempted, failures = checks.check_appendix_b(1, _lines(rows), REFUTED)
    assert attempted == 20 and len(failures) == 1
    assert "(21,8) p=7 r=2" in failures[0][0]


def test_appendix_b_unrefuted_erratum_fails():
    refuted = {**REFUTED, (42, 9, 7, 1): "not refuted"}
    assert len(checks.check_appendix_b(1, _lines(_appendix_rows()), refuted)[1]) == 1


def test_refute_printed_row_from_residues():
    # (42,9): E_{42n} = 2 mod 7 for n >= 1 refutes a period of 21
    row = next(r for r in checks.PRINTED_ROWS if r[:4] == (42, 9, 7, 1))
    assert checks.refute_printed_row(row, [Fraction(1)] + [Fraction(2)] * 30) is None
    assert checks.refute_printed_row(row, [Fraction(1)] + [Fraction(0)] * 30) is not None


# --- compute_cached ------------------------------------------------------------


def _table(N: int, j: int, n_max: int) -> list[Fraction]:
    values = []
    for n in range(n_max + 1):
        top = N * n + j
        acc = sum((comb(top, N * m) * values[m] for m in range(n)), Fraction(0))
        values.append(((factorial(j) if n == 0 else 0) - acc) / comb(top, N * n))
    return values


def _text(values: list[Fraction]) -> str:
    return "".join(f"{n} {v.numerator}/{v.denominator}\n" for n, v in enumerate(values))


HEADER = "congruential-euler-cache v1 N=4 j=2\n"


def test_compute_good_output_passes():
    text = _text(_table(4, 2, 12))
    assert checks.check_compute(0, text, HEADER + text, 4, 2, 12) == (1, [])


def test_compute_altered_entry_fails():
    values = _table(4, 2, 12)
    good = _text(values)
    values[6] += 1
    bad = _text(values)
    assert len(checks.check_compute(0, bad, HEADER + good, 4, 2, 12)[1]) == 1
    attempted, failures = checks.check_compute(0, bad, HEADER + bad, 4, 2, 12)
    assert attempted == 1 and "identity fails at n=6" in failures[0][1]


# --- zero_geometry -------------------------------------------------------------


def _zero_output(extra: dict) -> str:
    families = []
    for family in sorted(WINDINGS):
        points = checks.lattice(family, RADIUS) + ([0j] if family[1] else [])
        points += extra.get(family, [])
        located = [[1, l, z] for l, z in enumerate(checks.lattice(family, 3 * math.pi)[: family[0]])]
        families.append({
            "family": list(family),
            "points": [[z.real, z.imag] for z in points],
            "strays": [],
            "located": [[k, l, [z.real, z.imag]] for k, l, z in located],
        })
    return json.dumps({"radius": RADIUS, "families": families})


def test_zero_geometry_good_output_passes():
    assert checks.check_zero_geometry(0, _zero_output({}), WINDINGS) == (6, [])


def test_zero_geometry_stray_zero_is_one_failed_search():
    attempted, failures = checks.check_zero_geometry(0, _zero_output({(4, 2): [3 + 3j]}), WINDINGS)
    assert attempted == 6 and [op for op, _ in failures] == ["search (4, 2)"]


def test_zero_geometry_origin_stalls_fail_the_count():
    stalls = {(6, 3): [0.004 + 0.001j, -0.003j]}
    failures = checks.check_zero_geometry(0, _zero_output(stalls), WINDINGS)[1]
    assert [op for op, _ in failures] == ["search (6, 3)"]
    assert "15 points returned for 13 distinct zeros" in failures[0][1]


# --- the tracer and the benchmark definition -----------------------------------


def test_self_times_partition_the_traced_interval():
    tracer = Tracer()
    inner = tracer.span("engine.oracle_table", lambda: sum(range(20000)))
    outer = tracer.span("congruences.check_gessel", lambda: [inner() for _ in range(3)])
    outer()
    spans = tracer.spans
    total = spans[-4][2] - spans[-4][1]
    own = [s[2] - s[1] - c for s, c in zip(spans, tracer.child)]
    assert [s[3] for s in spans] == [-1, 0, 0, 0]
    assert math.isclose(sum(own), total, rel_tol=1e-9)


def test_per_layer_metrics_match_the_benchmark_definition():
    with open(tracing.__file__.replace("tracing.py", "../BENCHMARK.json")) as handle:
        spec = json.load(handle)
    empty = {"spans": [], "self": [], "counts": {}, "totals": {}, "max_num_bits": 0}
    produced = set(layer_metrics(empty)) | {
        "trace.wall_s", "trace.setup_s", "trace.overhead_s", "trace.coverage",
        "analytic.zero_yield",
    }
    assert {m["name"] for m in spec["per_layer"]} == produced
    assert set(tracing.LAYER_SELF) <= produced
