"""Command-line front end: compute tables, verify congruences, scan periods.

Exit codes: 0 when every requested check passes, 1 when a mathematical
check fails, 2 for usage or parameter errors.  Results go to stdout;
progress chatter goes to stderr only, so output can be piped.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from pathlib import Path
from typing import Optional

from . import congruences
from .analytic import (
    BERNOULLI_DISPLAYS,
    BernoulliFormulaId,
    ZetaFormulaId,
    bernoulli,
    bernoulli_formula_value,
    check_special_values,
    eval_H,
    family_zeros,
    formula_reference,
    formula_value,
    locate_zero,
    ratio_radius,
    rounding_floor,
)
from .engine import (
    CacheFormatError,
    SeqParams,
    cache_header,
    cache_load,
    cache_store,
    compute_table,
    seed_memo,
)
from .scanner import emit_table, run_reference_scan, scan_conjecture

DEFAULT_CACHE_DIR = Path(os.environ.get("CEULER_CACHE_DIR", "~/.cache/congruential-euler"))

__all__ = ["main"]


def _parse_range(text: str) -> range:
    """Parse an inclusive 'a..b' range (a single integer means a..a)."""
    if ".." in text:
        lo_text, hi_text = text.split("..", 1)
        lo, hi = int(lo_text), int(hi_text)
    else:
        lo = hi = int(text)
    if hi < lo:
        raise ValueError(f"empty range {text!r}")
    return range(lo, hi + 1)


def _parse_pairs(texts: list[str]) -> list[tuple[int, int]]:
    pairs = []
    for text in texts:
        a, b = text.split(",", 1)
        pairs.append((int(a), int(b)))
    return pairs


def _cache_path(args: argparse.Namespace, params: SeqParams) -> Path:
    return args.cache_dir / f"euler_N{params.N}_j{params.j}.txt"


_CACHE_NAME = re.compile(r"euler_N([1-9]\d*)_j(\d+)\.txt")  # the inverse of _cache_path


def _emit(args: argparse.Namespace, record: dict, text: str, tsv: Optional[str] = None) -> None:
    """Print one result in the chosen format: a JSON line, a TSV row, or the text line.

    The TSV row defaults to the record's values in key order.
    """
    if args.format == "json":
        print(json.dumps(record, sort_keys=True))
    elif args.format == "tsv":
        print(tsv if tsv is not None else "\t".join(str(record[key]) for key in sorted(record)))
    else:
        print(text)


# --- compute -----------------------------------------------------------------


def _cmd_compute(args: argparse.Namespace) -> int:
    params = SeqParams(args.N, args.j)
    path = None if args.no_cache else _cache_path(args, params)
    held = 0  # entries of a valid cache file, which seed the memo
    if path is not None and path.exists():
        try:
            cached = cache_load(params, path)
        except ValueError as exc:
            print(f"warning: cache file {path.name} is unreadable, rewriting it: {exc}",
                  file=sys.stderr)
        else:
            seed_memo(cached)
            held = len(cached.values)
    table = compute_table(params, args.n_max)
    if path is not None and len(table.values) > held:
        args.cache_dir.mkdir(parents=True, exist_ok=True)
        cache_store(table, path)
    for n, value in enumerate(table.values):
        text = f"{value.numerator}/{value.denominator}"
        _emit(args, {"n": n, "value": text}, f"{n} {text}")
    return 0


# --- verify --------------------------------------------------------------


def _cmd_verify(args: argparse.Namespace) -> int:
    theorem = args.theorem
    if theorem == "main":
        report = congruences.check_main_theorem(args.p, args.j, args.r, _parse_range(args.n))
    elif theorem == "komatsu-liu":
        report = congruences.check_komatsu_liu(args.k, _parse_pairs(args.pairs))
    elif theorem == "gessel":
        report = congruences.check_gessel(args.p, args.m, args.k, _parse_range(args.n))
    elif theorem == "prime-power":
        report = congruences.check_prime_power(args.p, args.k, args.r, _parse_range(args.n))
    elif theorem == "special-40":
        report = congruences.check_special_40(args.r, _parse_range(args.n))
    elif theorem == "special-60":
        _, report = congruences.check_special_60(args.r, args.n_max)
    elif theorem == "lemma-xm":
        report = congruences.verify_lemma_Xm(args.p, args.m, args.order)
    else:  # lemma-series
        report = congruences.verify_lemma_series(args.n_max)
    tsv = (
        f"{report.theorem_id}\t{report.param_summary}\t{report.instances_checked}\t"
        f"{report.status}\t{json.dumps(report.failures, sort_keys=True)}"
    )
    _emit(args, report.to_dict(), report.render_text(), tsv)
    return 0 if report.passed else 1


# --- scan ----------------------------------------------------------------


def _cmd_scan(args: argparse.Namespace) -> int:
    if args.appendix_b:
        outcomes = run_reference_scan(progress=True)
        results = [outcome.result for outcome in outcomes]
        print(emit_table(results, args.format))
        return 0 if all(o.matches for o in outcomes) else 1
    if args.grid is not None:
        spec = json.loads(Path(args.grid).read_text())
        results = [scan_conjecture(*row) for row in _grid_rows(spec)]
        print(emit_table(results, args.format))
        return 0 if all(r.status == "ok" for r in results) else 1
    if args.p is None or args.m is None or args.j is None or args.r is None:
        raise ValueError("scan: provide --p --m --j --r, or --appendix-b, or --grid")
    result = scan_conjecture(args.p, args.m, args.j, args.r, args.n_max)
    print(emit_table([result], args.format))
    return 0 if result.status == "ok" else 1


def _grid_rows(spec) -> list[tuple]:
    """Check a parsed grid file and return its rows as (p, m, j, r, n_max)."""
    if not isinstance(spec, list):
        raise ValueError("grid: expected a JSON list of scans")
    rows = []
    for index, row in enumerate(spec):
        if not isinstance(row, dict):
            raise ValueError(f"grid row {index}: expected an object with keys p, m, j, r")
        scan = []
        for key in ("p", "m", "j", "r", "n_max"):
            if key not in row and key != "n_max":
                raise ValueError(f"grid row {index}: missing key {key!r}")
            value = row.get(key)
            if type(value) is not int and (key != "n_max" or value is not None):
                raise ValueError(f"grid row {index}: key {key!r} must be an integer")
            scan.append(value)
        rows.append(tuple(scan))
    return rows


# --- identities ------------------------------------------------------------


def _cmd_identities(args: argparse.Namespace) -> int:
    target = args.target
    ok = True
    if target == "zeta":
        for formula in ZetaFormulaId:
            for n in range(1, args.n_max + 1):
                lhs = formula_reference(formula, n)
                rhs = formula_value(formula, n)
                equal = lhs == rhs
                ok &= equal
                record = {
                    "formula_id": formula.value,
                    "n": n,
                    "degree": lhs.degree,
                    "lhs_coefficient": str(lhs.coefficient),
                    "rhs_coefficient": str(rhs.coefficient),
                    "equal": equal,
                }
                _emit(
                    args, record,
                    f"{formula.value} n={n}: pi^{lhs.degree} * {lhs.coefficient} "
                    f"{'==' if equal else '!='} {rhs.coefficient}",
                )
    elif target == "bernoulli":
        for formula in BernoulliFormulaId:
            display = BERNOULLI_DISPLAYS[formula]
            for n in range(display.min_n, args.n_max + 1):
                lhs = bernoulli(display.index(n))
                rhs = bernoulli_formula_value(formula, n)
                equal = lhs == rhs
                ok &= equal
                record = {
                    "formula_id": formula.value,
                    "n": n,
                    "lhs": str(lhs),
                    "rhs": str(rhs),
                    "equal": equal,
                }
                _emit(
                    args, record,
                    f"{formula.value} n={n}: {lhs} {'==' if equal else '!='} {rhs}",
                )
    elif target == "zeros":
        N, j = args.family
        for k, l, predicted in family_zeros((N, j), args.count):
            located = locate_zero(N, j, predicted)
            residual = abs(eval_H(N, j, located))
            distance = abs(located - predicted)
            good = residual < max(1e-10, rounding_floor(N, located)) and distance < 1e-9
            ok &= good
            record = {
                "family": f"{N},{j}",
                "k": k,
                "l": l,
                "zero": [located.real, located.imag],
                "residual": residual,
                "distance_to_closed_form": distance,
                "ok": good,
            }
            _emit(
                args, record,
                f"H_({N},{j}) zero k={k} l={l}: {located:.12g} residual={residual:.2e} "
                f"off-lattice={distance:.2e}",
            )
    elif target == "special-values":
        for k in range(1, args.k_max + 1):
            for l in range(6):
                good = check_special_values(k, l)
                ok &= good
                record = {"k": k, "l": l, "ok": good}
                _emit(args, record, f"special values k={k} l={l}: {good}")
    else:  # radius
        estimate = ratio_radius(SeqParams(args.N, args.j), args.n_max)
        record = {"N": args.N, "j": args.j, "n_max": args.n_max, "radius_over_pi": estimate}
        _emit(args, record, f"radius/pi estimate for ({args.N},{args.j}): {estimate:.9f}")
    return 0 if ok else 1


# --- cache -----------------------------------------------------------------


def _cmd_cache(args: argparse.Namespace) -> int:
    args.cache_dir.mkdir(parents=True, exist_ok=True)
    files = sorted(args.cache_dir.glob("euler_N*_j*.txt"))
    if args.action == "inspect":
        bad = 0
        for path in files:
            name = _CACHE_NAME.fullmatch(path.name)
            try:
                if name is None:
                    raise CacheFormatError(f"{path}: file name does not give N >= 1 and j")
                table = cache_load(SeqParams(int(name[1]), int(name[2])), path)
            except (ValueError, OSError) as exc:
                print(f"error: {exc}", file=sys.stderr)
                bad += 1
                continue
            header, entries = cache_header(table.params), len(table.values)
            record = {"file": path.name, "header": header, "entries": entries}
            text = f"{path.name}: {header} ({entries} entries)"
            _emit(args, record, text, tsv=text)  # no TSV form: the row is the text line
        return 2 if bad else 0
    for path in files:  # clear
        path.unlink()
    print(f"removed {len(files)} cache file(s)", file=sys.stderr)
    return 0


# --- parser ------------------------------------------------------------------


def _family(text: str) -> tuple[int, int]:
    N, j = text.split(",", 1)
    return int(N), int(j)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ceuler",
        description="Exact congruential Euler number toolkit: tables, congruence "
        "verification, residue-period scans, and zeta identity checks.",
    )
    parser.add_argument("--format", choices=("text", "tsv", "json"), default="text")
    parser.add_argument(
        "--cache-dir", type=lambda text: Path(text).expanduser(), default=str(DEFAULT_CACHE_DIR)
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_compute = sub.add_parser("compute", help="print a table of E_{Nn}^{(N,j)}")
    p_compute.add_argument("--N", type=int, required=True)
    p_compute.add_argument("--j", type=int, required=True)
    p_compute.add_argument("--n-max", type=int, default=30)
    p_compute.add_argument("--no-cache", action="store_true")
    p_compute.set_defaults(handler=_cmd_compute)

    p_verify = sub.add_parser("verify", help="check one congruence family over a range")
    v_sub = p_verify.add_subparsers(dest="theorem", required=True)
    v_main = v_sub.add_parser("main")
    v_main.add_argument("--p", type=int, required=True)
    v_main.add_argument("--j", type=int, required=True)
    v_main.add_argument("--r", type=int, required=True)
    v_main.add_argument("--n", default="0..20")
    v_kl = v_sub.add_parser("komatsu-liu")
    v_kl.add_argument("--k", type=int, required=True)
    v_kl.add_argument("--pairs", nargs="+", required=True, metavar="N,M")
    v_gessel = v_sub.add_parser("gessel")
    v_gessel.add_argument("--p", type=int, required=True)
    v_gessel.add_argument("--m", type=int, required=True)
    v_gessel.add_argument("--k", type=int, required=True)
    v_gessel.add_argument("--n", default="0..10")
    v_pp = v_sub.add_parser("prime-power")
    v_pp.add_argument("--p", type=int, required=True)
    v_pp.add_argument("--k", type=int, required=True)
    v_pp.add_argument("--r", type=int, required=True)
    v_pp.add_argument("--n", default="0..10")
    v_s40 = v_sub.add_parser("special-40")
    v_s40.add_argument("--r", type=int, required=True)
    v_s40.add_argument("--n", default="0..10")
    v_s60 = v_sub.add_parser("special-60")
    v_s60.add_argument("--r", type=int, required=True)
    v_s60.add_argument("--n-max", type=int, default=30)
    v_xm = v_sub.add_parser("lemma-xm")
    v_xm.add_argument("--p", type=int, required=True)
    v_xm.add_argument("--m", type=int, required=True)
    v_xm.add_argument("--order", type=int, default=60)
    v_ls = v_sub.add_parser("lemma-series")
    v_ls.add_argument("--n-max", type=int, default=10)
    for v_parser in (v_main, v_kl, v_gessel, v_pp, v_s40, v_s60, v_xm, v_ls):
        v_parser.set_defaults(handler=_cmd_verify)

    p_scan = sub.add_parser("scan", help="empirical residue-period scan")
    p_scan.add_argument("--p", type=int)
    p_scan.add_argument("--m", type=int)
    p_scan.add_argument("--j", type=int)
    p_scan.add_argument("--r", type=int)
    p_scan.add_argument("--n-max", type=int, default=None)
    p_scan.add_argument(
        "--appendix-b", action="store_true",
        help="run the bundled preset reproducing the published period tables",
    )
    p_scan.add_argument("--grid", default=None, help="JSON file with a list of scans")
    p_scan.set_defaults(handler=_cmd_scan)

    p_ident = sub.add_parser("identities", help="zeta/Bernoulli identities and zero geometry")
    i_sub = p_ident.add_subparsers(dest="target", required=True)
    i_zeta = i_sub.add_parser("zeta")
    i_zeta.add_argument("--n-max", type=int, default=6)
    i_bern = i_sub.add_parser("bernoulli")
    i_bern.add_argument("--n-max", type=int, default=6)
    i_zeros = i_sub.add_parser("zeros")
    i_zeros.add_argument("--family", type=_family, required=True, metavar="N,J")
    i_zeros.add_argument("--count", type=int, default=3)
    i_special = i_sub.add_parser("special-values")
    i_special.add_argument("--k-max", type=int, default=2)
    i_radius = i_sub.add_parser("radius")
    i_radius.add_argument("--N", type=int, required=True)
    i_radius.add_argument("--j", type=int, required=True)
    i_radius.add_argument("--n-max", type=int, default=40)
    for i_parser in (i_zeta, i_bern, i_zeros, i_special, i_radius):
        i_parser.set_defaults(handler=_cmd_identities)

    p_cache = sub.add_parser("cache", help="inspect or clear the disk cache")
    p_cache.add_argument("action", choices=("inspect", "clear"))
    p_cache.set_defaults(handler=_cmd_cache)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)  # table entries outgrow the default 4300-digit limit
    try:
        return args.handler(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
