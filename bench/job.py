"""One timed job of a benchmark round, run in a fresh interpreter.

    python3 bench/job.py [--trace FILE] families
    python3 bench/job.py [--trace FILE] zero_geometry
    python3 bench/job.py [--trace FILE] cli ARG...

``families`` and ``zero_geometry`` are library sessions that print their
results as one JSON document; ``cli`` runs ``cli.main(ARG...)`` in-process.
With ``--trace`` the package's public functions are wrapped first (see
``tracing.py``) and the spans and counters are written to FILE at exit.
The package is imported from PYTHONPATH, which the runner points at the
checkout's ``src``.
"""

from __future__ import annotations

import json
import math
import sys
import time

# Windows are twice the acceptance suite's (n = 0..20 there) where the
# suite has one; the oracle tables are the scanner's windows for the
# (6,3)/r=5, (20,13)/r=3 and (10,4)/r=3 rows.
WINDOW = 41
CONGRUENCE_CALLS = (
    [["check_main_theorem", [p, j, r, WINDOW]] for p in (3, 5, 7) for j in range(p) for r in (1, 2, 3)]
    + [
        ["check_prime_power", [p, k, r, 21]]
        for p, ks, rs in ((3, (1, 2), (1, 2, 3, 4)), (5, (1, 2), (1, 2)), (7, (1,), (1, 2)))
        for k in ks
        for r in rs
    ]
    + [
        ["check_gessel", [p, m, k, 21]]
        for p, m, k in ((2, 1, 1), (2, 1, 2), (3, 1, 1), (3, 2, 1), (5, 1, 1), (5, 2, 1), (7, 1, 1))
    ]
    + [["check_komatsu_liu", [k, 40]] for k in (1, 2, 3)]
    + [["check_special_40", [r, WINDOW]] for r in range(1, 6)]
    + [["check_special_60", [r, 40]] for r in (1, 2, 3)]
    + [["verify_lemma_Xm", [2, m, 80]] for m in range(1, 9)]
    + [["verify_lemma_Xm", [3, m, 80]] for m in range(1, 7)]
    + [["verify_lemma_series", [40]]]
)
ORACLE_TABLES = ((6, 3, 243), (20, 13, 75), (10, 4, 150))
DISPLAY_N_MAX = 8
TABLE_N_MAX = 60

ZERO_FAMILIES = ((4, 0), (4, 2), (6, 3))
ZERO_RADIUS = 5 * math.pi
NEWTON_RINGS = 2  # locate_zero from the first two rings of closed-form zeros


def _run_congruence(name: str, args: list):
    from congruential_euler import congruences

    fn = getattr(congruences, name)
    if name == "check_komatsu_liu":
        k, count = args
        return fn(k, [(n, n + 2 * 3 ** (k - 1)) for n in range(count)])
    if name in ("check_main_theorem", "check_prime_power", "check_gessel", "check_special_40"):
        return fn(*args[:-1], range(args[-1]))
    if name == "check_special_60":
        return fn(*args)[1]
    return fn(*args)


def families() -> dict:
    """Congruence families, series lemmas, oracle agreement and the displays."""
    from congruential_euler import analytic
    from congruential_euler.engine import SeqParams, compute_table, oracle_table

    reports = [_run_congruence(name, args).to_dict() for name, args in CONGRUENCE_CALLS]
    agreement = [
        {"N": N, "j": j, "n_max": n,
         "equal": oracle_table(SeqParams(N, j), n).values == compute_table(SeqParams(N, j), n).values}
        for N, j, n in ORACLE_TABLES
    ]
    zeta = []
    for formula in analytic.ZetaFormulaId:
        for n in range(1, DISPLAY_N_MAX + 1):
            value = analytic.formula_value(formula, n)
            zeta.append({
                "formula": formula.value, "n": n, "degree": value.degree,
                "coefficient": str(value.coefficient),
                "exact": analytic.check_zeta_identity(formula, n),
            })
    from_zero = (analytic.BernoulliFormulaId.b4n_via_42, analytic.BernoulliFormulaId.b6n_via_63)
    displays = []
    for formula in analytic.BernoulliFormulaId:
        for n in range(0 if formula in from_zero else 1, DISPLAY_N_MAX + 1):
            displays.append({
                "formula": formula.value, "n": n,
                "value": str(analytic.bernoulli_formula_value(formula, n)),
                "exact": analytic.check_bernoulli_identity(formula, n),
            })
    return {
        "calls": CONGRUENCE_CALLS,
        "reports": reports,
        "agreement": agreement,
        "zeta": zeta,
        "bernoulli_displays": displays,
        "euler_2_0": [str(v) for v in compute_table(SeqParams(2, 0), TABLE_N_MAX).values],
        "bernoulli": [str(analytic.bernoulli(n)) for n in range(TABLE_N_MAX + 1)],
    }


def zero_geometry() -> dict:
    """extraneous_zeros (and through it find_zeros_in_disk), then Newton polishing."""
    from congruential_euler import analytic

    searched = []
    search = analytic.find_zeros_in_disk

    def recording_search(*args, **kwargs):
        points = search(*args, **kwargs)
        searched.append(points)
        return points

    analytic.find_zeros_in_disk = recording_search
    out = []
    for family in ZERO_FAMILIES:
        N, j = family
        strays = analytic.extraneous_zeros(family, ZERO_RADIUS)
        located = [
            [k, l, _pair(analytic.locate_zero(N, j, z + 0.1 + 0.05j))]
            for k, l, z in analytic.family_zeros(family, NEWTON_RINGS * N)
        ]
        out.append({
            "family": list(family),
            "points": [_pair(z) for z in searched[-1]],
            "strays": [_pair(z) for z in strays],
            "located": located,
        })
    return {"radius": ZERO_RADIUS, "families": out}


def _pair(z: complex) -> list[float]:
    return [z.real, z.imag]


SESSIONS = {"families": families, "zero_geometry": zero_geometry}


def main(argv: list[str]) -> int:
    trace_path = None
    if argv[:1] == ["--trace"]:
        trace_path, argv = argv[1], argv[2:]
    import congruential_euler  # noqa: F401  (import cost is set-up, not job)

    ready = time.perf_counter()
    tracer = None
    if trace_path is not None:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        if argv[0] == "cli":
            from congruential_euler import cli

            status = cli.main(argv[1:])
        else:
            json.dump(SESSIONS[argv[0]](), sys.stdout, sort_keys=True)
            sys.stdout.write("\n")
            status = 0
        sys.stdout.flush()
    finally:
        if tracer is not None:
            tracer.write(trace_path, ready)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
