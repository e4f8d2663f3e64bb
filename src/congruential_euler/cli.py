"""Command-line front end: compute tables, verify congruences, scan periods.

Exit codes: 0 when every requested check passes, 1 when a mathematical
check fails, 2 for usage or parameter errors, 141 (128 + SIGPIPE) when the
reader closes stdout early.  Results go to stdout; progress chatter goes
to stderr only, so output can be piped.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import re
import sys
from pathlib import Path
from typing import Optional

# every command runs the engine; each handler imports the other library
# modules it runs, and json where it reads or writes JSON, so that a
# command loads only its own
from .engine import (
    _any_digits,
    CacheFormatError,
    SeqParams,
    cache_header,
    cache_load,
    cache_store,
    compute_table,
    seed_memo,
)

__all__ = ["main"]


def _parse_range(text: str) -> range:
    """Parse an inclusive 'a..b' range (a single integer means a..a), the argparse type of --n."""
    lo_text, dots, hi_text = text.partition("..")
    try:
        lo = int(lo_text)
        hi = int(hi_text) if dots else lo
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer a or a range a..b, got {text!r}"
        ) from None
    if hi < lo:
        raise argparse.ArgumentTypeError(f"empty range {text!r}: expected a..b with a <= b")
    return range(lo, hi + 1)


def _family(text: str) -> tuple[int, int]:
    """Parse 'a,b' into two ints, the argparse type of --family and of each --pairs entry."""
    a, _, b = text.partition(",")
    try:
        return int(a), int(b)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected two integers a,b, got {text!r}") from None


def _cache_path(args: argparse.Namespace, params: SeqParams) -> Path:
    return args.cache_dir / f"euler_N{params.N}_j{params.j}.txt"


_CACHE_NAME = re.compile(r"euler_N([1-9]\d*)_j(\d+)\.txt")  # the inverse of _cache_path


def _emit(args: argparse.Namespace, record: dict, text: str, tsv: Optional[str] = None) -> None:
    """Print one result in the chosen format: a JSON line, a TSV row, or the text line.

    The TSV row defaults to the record's values in key order.
    """
    if args.format == "json":
        import json

        print(json.dumps(record, sort_keys=True))
    elif args.format == "tsv":
        print(tsv if tsv is not None else "\t".join(str(record[key]) for key in sorted(record)))
    else:
        print(text)


def _emit_rows(args: argparse.Namespace, rows) -> int:
    """Print each row through _emit; return 0 if every row is ok, else 1.

    A row is (record, text, ok), or (record, text, ok, tsv) with the TSV
    string _emit takes.  A generator of rows keeps two rules:

    - it checks its arguments before its first yield, so that a usage
      ValueError exits 2 with nothing on stdout;
    - a failure that belongs to no single row raises ArithmeticError after
      the rows, which main reports as "check failed" with exit 1.
    """
    ok = True
    for record, text, row_ok, *tsv in rows:
        _emit(args, record, text, *tsv)
        ok &= row_ok
    return 0 if ok else 1


# --- compute -----------------------------------------------------------------


def _cmd_compute(args: argparse.Namespace) -> int:
    params = SeqParams(args.N, args.j)
    path = None if args.no_cache else _cache_path(args, params)
    held = 0  # entries of a valid cache file, which seed the memo
    if path is not None:
        try:
            cached = cache_load(params, path)
        except (FileNotFoundError, NotADirectoryError):  # nothing cached
            pass
        except (OSError, ValueError) as exc:
            print(f"warning: cache file {path.name} is unreadable, rewriting it: {exc}",
                  file=sys.stderr)
        else:
            seed_memo(cached)
            held = len(cached.values)
    table = compute_table(params, args.n_max)
    if path is not None and len(table.values) > held:
        try:
            args.cache_dir.mkdir(parents=True, exist_ok=True)
            cache_store(table, path)
        except OSError as exc:  # the table is computed: print it without the cache
            print(f"warning: cannot write cache file {path.name}: {exc}", file=sys.stderr)
    texts = (f"{value.numerator}/{value.denominator}" for value in table.values)
    return _emit_rows(args, (({"n": n, "value": text}, f"{n} {text}", True)
                             for n, text in enumerate(texts)))


# --- verify --------------------------------------------------------------


def _cmd_verify(args: argparse.Namespace) -> int:
    from . import congruences

    report = args.check(congruences, args)  # each theorem's parser sets its check
    text = "\n".join(
        [f"{report.theorem_id} [{report.params}]: {report.status.upper()} "
         f"({report.instances_checked} instances)"]
        + [f"  witness {witness}" for witness in report.failures]
    )
    tsv = None
    if args.format == "tsv":
        import json

        tsv = (f"{report.theorem_id}\t{report.params}\t{report.instances_checked}\t"
               f"{report.status}\t{json.dumps(report.failures, sort_keys=True)}")
    return _emit_rows(args, [(report.to_dict(), text, report.passed, tsv)])


# --- scan ----------------------------------------------------------------


def _cmd_scan(args: argparse.Namespace) -> int:
    from .scanner import emit_table, run_reference_scan, scan_conjecture

    # one mode: --appendix-b, --grid FILE, or --p --m --j --r with an optional --n-max
    mode = "--appendix-b" if args.appendix_b else "--grid" if args.grid is not None else None
    given = {"--p": args.p, "--m": args.m, "--j": args.j, "--r": args.r, "--n-max": args.n_max,
             "--grid": args.grid}
    extra = [name for name, value in given.items() if value is not None and name != mode]
    if mode is not None and extra:
        raise ValueError(f"scan: {extra[0]} does not apply with {mode}")
    if args.appendix_b:
        outcomes = run_reference_scan()
        results, ok = [o.result for o in outcomes], all(o.matches for o in outcomes)
    else:
        if args.grid is not None:
            import json

            try:
                spec = json.loads(Path(args.grid).read_text())
            except json.JSONDecodeError as exc:
                raise ValueError(f"grid {args.grid}: not valid JSON: {exc}") from None
            results = [scan_conjecture(*row) for row in _grid_rows(spec)]
        elif None in (args.p, args.m, args.j, args.r):
            raise ValueError("scan: provide --p --m --j --r, or --appendix-b, or --grid")
        else:
            results = [scan_conjecture(args.p, args.m, args.j, args.r, args.n_max)]
        ok = all(r.status == "ok" for r in results)
    print(emit_table(results, args.format))
    return 0 if ok else 1


def _grid_rows(spec) -> list[tuple]:
    """Check a parsed grid file and return its rows as (p, m, j, r, n_max)."""
    if not isinstance(spec, list):
        raise ValueError("grid: expected a JSON list of scans")
    if not spec:
        raise ValueError("grid: expected at least one scan")
    keys = ("p", "m", "j", "r", "n_max")
    rows = []
    for index, row in enumerate(spec):
        if not isinstance(row, dict):
            raise ValueError(f"grid row {index}: expected an object with keys p, m, j, r")
        unknown = [key for key in row if key not in keys]
        if unknown:
            raise ValueError(f"grid row {index}: unknown key {unknown[0]!r}")
        scan = []
        for key in keys:
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
    from . import analytic

    return _emit_rows(args, args.rows(analytic, args))  # each target's parser sets its rows


def _zeta_rows(analytic, args: argparse.Namespace):
    if args.n_max < 1:
        raise ValueError("identities zeta: --n-max must be at least 1")
    for formula in analytic.ZetaFormulaId:
        for n in range(1, args.n_max + 1):
            lhs = analytic.formula_reference(formula, n)
            rhs = analytic.formula_value(formula, n)
            equal = lhs == rhs
            record = {"formula_id": formula.value, "n": n, "degree": lhs.degree,
                      "lhs_coefficient": str(lhs.coefficient),
                      "rhs_coefficient": str(rhs.coefficient), "equal": equal}
            yield record, (f"{formula.value} n={n}: pi^{lhs.degree} * {lhs.coefficient} "
                           f"{'==' if equal else '!='} {rhs.coefficient}"), equal


def _bernoulli_rows(analytic, args: argparse.Namespace):
    if args.n_max < 0:  # n = 0 has two displays (BernoulliDisplay.min_n)
        raise ValueError("identities bernoulli: --n-max must be at least 0")
    for formula in analytic.BernoulliFormulaId:
        display = analytic.BERNOULLI_DISPLAYS[formula]
        for n in range(display.min_n, args.n_max + 1):
            lhs = analytic.bernoulli(display.index(n))
            rhs = analytic.bernoulli_formula_value(formula, n)
            equal = lhs == rhs
            record = {"formula_id": formula.value, "n": n, "lhs": str(lhs), "rhs": str(rhs),
                      "equal": equal}
            yield record, f"{formula.value} n={n}: {lhs} {'==' if equal else '!='} {rhs}", equal


def _zero_rows(analytic, args: argparse.Namespace):
    N, j = args.family
    if (N, j) not in analytic.ZERO_FAMILIES:
        raise ValueError("identities zeros: --family must be one of "
                         + " ".join(f"{a},{b}" for a, b in analytic.ZERO_FAMILIES))
    if args.count < 1:
        raise ValueError("identities zeros: --count must be at least 1")
    ring = -(-args.count // N)  # the ring of the count-th zero; search halfway to the next
    radius = sum(abs(analytic.predicted_zero((N, j), k, 0)) for k in (ring, ring + 1)) / 2
    if radius > analytic._EXP_LIMIT:  # each row prints |H| at its zero from eval_H
        raise ValueError(f"identities zeros: --count {args.count} needs the certified search "
                         f"out to |z| = {radius:.1f}, past eval_H's exp range of "
                         f"{analytic._EXP_LIMIT:.1f}")
    rows, strays = analytic.lattice_zeros((N, j), radius)
    for k, l, predicted, zero in rows[:args.count]:
        record = {"family": f"{N},{j}", "k": k, "l": l, "ok": zero is not None,
                  "zero": None, "residual": None, "distance_to_closed_form": None}
        text = f"H_({N},{j}) zero k={k} l={l}: no certified zero at the closed form"
        if zero is not None:
            residual, distance = abs(analytic.eval_H(N, j, zero)), abs(zero - predicted)
            record.update(zero=[zero.real, zero.imag], residual=residual,
                          distance_to_closed_form=distance)
            text = (f"H_({N},{j}) zero k={k} l={l}: {zero:.12g} residual={residual:.2e} "
                    f"off-lattice={distance:.2e}")
        yield record, text, zero is not None
    # every lattice point in the disk must be matched, printed or not
    missing = ", ".join(f"k={k} l={l}" for k, l, _, zero in rows if zero is None)
    failures = []
    if missing:
        failures.append(f"H_({N},{j}) has no certified zero at the lattice points {missing}")
    if strays:
        failures.append(f"H_({N},{j}) has certified zeros off the lattice: "
                        + ", ".join(f"{z:.12g}" for z in strays))
    if failures:  # one stderr line each
        raise ArithmeticError("\ncheck failed: ".join(failures))


def _special_value_rows(analytic, args: argparse.Namespace):
    if args.k_max < 1:
        raise ValueError("identities special-values: --k-max must be at least 1")
    for k in range(1, args.k_max + 1):
        for l in range(6):
            good = analytic.check_special_values(k, l)
            yield {"k": k, "l": l, "ok": good}, f"special values k={k} l={l}: {good}", good


def _radius_rows(analytic, args: argparse.Namespace):
    params = SeqParams(args.N, args.j)
    if args.n_max < 10:
        raise ValueError("identities radius: --n-max must be at least 10")
    estimate = analytic.ratio_radius(params, args.n_max)
    record = {"N": args.N, "j": args.j, "n_max": args.n_max, "radius_over_pi": estimate}
    yield record, f"radius/pi estimate for ({args.N},{args.j}): {estimate:.9f}", True


# --- cache -----------------------------------------------------------------


def _cmd_cache(args: argparse.Namespace) -> int:
    # a directory or other non-file under a cache name is not a cache file
    files = [path for path in sorted(args.cache_dir.glob("euler_N*_j*.txt")) if path.is_file()]
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
    removed = [path for path in files if _CACHE_NAME.fullmatch(path.name)]
    for path in removed:
        path.unlink()
    print(f"removed {len(removed)} cache file(s)", file=sys.stderr)
    return 0


# --- parser ------------------------------------------------------------------


def _required_ints(parser: argparse.ArgumentParser, *names: str) -> None:
    """Add a required integer option --name for each name, in order."""
    for name in names:
        parser.add_argument(f"--{name}", type=int, required=True)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ceuler",
        description="Exact congruential Euler number toolkit: tables, congruence "
        "verification, residue-period scans, and zeta identity checks.",
    )
    parser.add_argument("--format", choices=("text", "tsv", "json"), default="text")
    parser.add_argument(
        "--cache-dir", type=lambda text: Path(text).expanduser(),
        # an empty variable counts as unset, as in the XDG base-directory convention
        default=os.environ.get("CEULER_CACHE_DIR") or "~/.cache/congruential-euler",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_compute = sub.add_parser("compute", help="print a table of E_{Nn}^{(N,j)}")
    _required_ints(p_compute, "N", "j")
    p_compute.add_argument("--n-max", type=int, default=30)
    p_compute.add_argument("--no-cache", action="store_true")
    p_compute.set_defaults(handler=_cmd_compute)

    p_verify = sub.add_parser("verify", help="check one congruence family over a range")
    p_verify.set_defaults(handler=_cmd_verify)
    v_sub = p_verify.add_subparsers(dest="theorem", required=True)
    v_main = v_sub.add_parser("main")
    v_main.set_defaults(
        check=lambda congruences, a: congruences.check_main_theorem(a.p, a.j, a.r, a.n))
    _required_ints(v_main, "p", "j", "r")
    v_main.add_argument("--n", type=_parse_range, default="0..20")
    v_kl = v_sub.add_parser("komatsu-liu")
    v_kl.set_defaults(check=lambda congruences, a: congruences.check_komatsu_liu(a.k, a.pairs))
    _required_ints(v_kl, "k")
    v_kl.add_argument("--pairs", type=_family, nargs="+", required=True, metavar="N,M")
    v_gessel = v_sub.add_parser("gessel")
    v_gessel.set_defaults(check=lambda congruences, a: congruences.check_gessel(a.p, a.m, a.k, a.n))
    _required_ints(v_gessel, "p", "m", "k")
    v_gessel.add_argument("--n", type=_parse_range, default="0..10")
    v_pp = v_sub.add_parser("prime-power")
    v_pp.set_defaults(
        check=lambda congruences, a: congruences.check_prime_power(a.p, a.k, a.r, a.n))
    _required_ints(v_pp, "p", "k", "r")
    v_pp.add_argument("--n", type=_parse_range, default="0..10")
    v_s40 = v_sub.add_parser("special-40")
    v_s40.set_defaults(check=lambda congruences, a: congruences.check_special_40(a.r, a.n))
    _required_ints(v_s40, "r")
    v_s40.add_argument("--n", type=_parse_range, default="0..10")
    v_s60 = v_sub.add_parser("special-60")
    v_s60.set_defaults(check=lambda congruences, a: congruences.check_special_60(a.r, a.n_max)[1])
    _required_ints(v_s60, "r")
    v_s60.add_argument("--n-max", type=int, default=30)
    v_xm = v_sub.add_parser("lemma-xm")
    v_xm.set_defaults(check=lambda congruences, a: congruences.verify_lemma_Xm(a.p, a.m, a.order))
    _required_ints(v_xm, "p", "m")
    v_xm.add_argument("--order", type=int, default=60)
    v_ls = v_sub.add_parser("lemma-series")
    v_ls.set_defaults(check=lambda congruences, a: congruences.verify_lemma_series(a.n_max))
    v_ls.add_argument("--n-max", type=int, default=10)

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
    p_ident.set_defaults(handler=_cmd_identities)
    i_sub = p_ident.add_subparsers(dest="target", required=True)
    i_zeta = i_sub.add_parser("zeta")
    i_zeta.set_defaults(rows=_zeta_rows)
    i_zeta.add_argument("--n-max", type=int, default=6)
    i_bern = i_sub.add_parser("bernoulli")
    i_bern.set_defaults(rows=_bernoulli_rows)
    i_bern.add_argument("--n-max", type=int, default=6)
    i_zeros = i_sub.add_parser("zeros")
    i_zeros.set_defaults(rows=_zero_rows)
    i_zeros.add_argument("--family", type=_family, required=True, metavar="N,J")
    i_zeros.add_argument("--count", type=int, default=3)
    i_special = i_sub.add_parser("special-values")
    i_special.set_defaults(rows=_special_value_rows)
    i_special.add_argument("--k-max", type=int, default=2)
    i_radius = i_sub.add_parser("radius")
    i_radius.set_defaults(rows=_radius_rows)
    _required_ints(i_radius, "N", "j")
    i_radius.add_argument("--n-max", type=int, default=40)

    p_cache = sub.add_parser("cache", help="inspect or clear the disk cache")
    p_cache.add_argument("action", choices=("inspect", "clear"))
    p_cache.set_defaults(handler=_cmd_cache)
    return parser


@_any_digits()
def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        status = args.handler(args)
        sys.stdout.flush()
        return status
    except BrokenPipeError:  # the reader closed stdout, as `| head` does
        # point the descriptor at devnull, so that the interpreter's last flush is silent
        with contextlib.suppress(OSError, ValueError):  # an in-process stdout may have none
            stdout = sys.stdout.fileno()
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, stdout)
            os.close(devnull)
        return 141  # 128 + SIGPIPE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
