"""Benchmark runner: one workload, timed in fresh interpreters, outputs checked.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src``
there.  Set-up is measured first (interpreter start plus package import,
and on ``compute_cached`` the cold ``ceuler compute`` that fills the
cache), several times, reporting the median.  Then whole rounds run one
after another, each a fresh interpreter, while another round of median
length fits in S seconds; each round's output is checked and each round
counts its operations.  ``wall_s`` is the mean job wall time over the
rounds.  With ``--trace 1`` every round also runs the same job under the
tracer (``tracing.py``) and the per-layer figures are reported instead.

The inputs are fixed parameter lists from the paper: the seed is accepted,
recorded and has no effect.  The last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  Run outputs
and traces go to ``.bench_runs/`` in the checkout; per-run cache
directories are removed when the run ends.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import checks
import job
from tracing import LAYER_SELF, layer_metrics

BENCH_DIR = Path(__file__).resolve().parent
JOB = str(BENCH_DIR / "job.py")
PYTHON = [sys.executable]
IMPORT_SAMPLES = 11
COLD_SAMPLES = 3
JOB_TIMEOUT_S = 60.0
COMPUTE = (4, 2, 300)  # (N, j, n_max): entries stay below 4300 decimal digits

# Operations that fail on every run because of a known fault in the program.
KNOWN_FAULTS = {
    # find_zeros_in_disk(6, 3, 5*pi) returns 333 points for 13 distinct zeros:
    # Newton stalls near the triple zero at the origin are not merged.
    "search (6, 3)",
}


@dataclass
class Job:
    returncode: int
    wall_s: float
    peak_rss_mb: float
    stdout: str
    spawned: float
    extra: str = ""  # the cache file, for compute_cached


@dataclass
class Run:
    root: Path
    name: str
    directory: Path
    env: dict
    verdicts: dict = field(default_factory=dict)  # by (exit status, stdout, cache file)
    expected: dict = field(default_factory=dict)  # references computed once per invocation
    cache_dir: Path | None = None

    def spawn(self, argv: list[str], tag: str) -> Job:
        """Run one job to completion; wall time is from spawn to reaping."""
        out_path = self.directory / f"{tag}.out"
        with open(out_path, "wb") as out, open(self.directory / f"{tag}.err", "wb") as err:
            spawned = perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=self.root)
            timer = threading.Timer(JOB_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = perf_counter() - spawned
            proc.returncode = os.waitstatus_to_exitcode(status)
        stdout = out_path.read_text(encoding="utf-8", errors="replace")
        extra = ""
        if self.cache_dir is not None:
            cache_file = self.cache_dir / "euler_N{}_j{}.txt".format(*COMPUTE[:2])
            extra = cache_file.read_text(encoding="ascii") if cache_file.exists() else ""
        return Job(proc.returncode, wall, usage.ru_maxrss / 1024.0, stdout, spawned, extra)

    def check(self, result: Job) -> tuple[int, list[tuple[str, str]]]:
        """Check a job's output; a byte-identical repeat of a passed run reuses its verdict."""
        key = (result.returncode, result.stdout, result.extra)
        if key in self.verdicts:
            return self.verdicts[key]
        verdict = CHECKERS[self.name](self, result)
        if all(op in KNOWN_FAULTS for op, _ in verdict[1]):
            self.verdicts[key] = verdict
        return verdict


def cli_args(run: Run) -> list[str]:
    if run.name == "appendix_b":
        return ["--format", "json", "scan", "--appendix-b"]
    N, j, n_max = COMPUTE
    return ["--cache-dir", str(run.cache_dir), "compute", "--N", str(N), "--j", str(j),
            "--n-max", str(n_max)]


def job_argv(run: Run, trace_path: Path | None) -> list[str]:
    traced = [] if trace_path is None else ["--trace", str(trace_path)]
    if run.name in job.SESSIONS:
        return PYTHON + [JOB] + traced + [run.name]
    if trace_path is None:
        return PYTHON + ["-m", "congruential_euler.cli"] + cli_args(run)
    return PYTHON + [JOB] + traced + ["cli"] + cli_args(run)


# --- references computed once per invocation, before any round ----------------


def prepare_appendix_b(run: Run) -> None:
    """Refute the three contradicted printed rows from oracle_table residues."""
    from math import lcm

    from congruential_euler.engine import SeqParams, oracle_table

    for row in checks.PRINTED_ROWS:
        mp, j, p, r = row[:4]
        if (mp, j, p, r) in checks.ERRATA:
            # the scanner's window: three conjectured periods, at least 30 entries
            n_max = max(3 * lcm(2, p - 1) * p**r // mp, 30)
            values = oracle_table(SeqParams(mp, j), n_max).values
            run.expected[(mp, j, p, r)] = checks.refute_printed_row(row, values)


def prepare_zero_geometry(run: Run) -> None:
    for N, j in job.ZERO_FAMILIES:
        run.expected[(N, j)] = checks.winding_count(N, j, job.ZERO_RADIUS)


CHECKERS = {
    "appendix_b": lambda run, r: checks.check_appendix_b(r.returncode, r.stdout, run.expected),
    "families": lambda run, r: checks.check_families(r.returncode, r.stdout),
    "zero_geometry": lambda run, r: checks.check_zero_geometry(r.returncode, r.stdout, run.expected),
    "compute_cached": lambda run, r: checks.check_compute(r.returncode, r.stdout, r.extra, *COMPUTE),
}
PREPARE = {"appendix_b": prepare_appendix_b, "zero_geometry": prepare_zero_geometry}


# --- set-up -------------------------------------------------------------------


def set_up(run: Run, samples: int) -> list[float]:
    """Walls of the set-up a user pays once; the first import warms the bytecode cache."""
    run.spawn(PYTHON + ["-c", "import congruential_euler"], "warm")
    if run.name != "compute_cached":
        return [run.spawn(PYTHON + ["-c", "import congruential_euler"], "import").wall_s
                for _ in range(samples)]
    walls = []
    for k in range(COLD_SAMPLES if samples > 1 else 1):
        if run.cache_dir is not None:
            shutil.rmtree(run.cache_dir)
        run.cache_dir = run.directory / f"cache-{k}"
        cold = run.spawn(PYTHON + ["-m", "congruential_euler.cli"] + cli_args(run), "cold")
        if cold.returncode != 0:
            raise RuntimeError(f"cold compute exited {cold.returncode}")
        walls.append(cold.wall_s)
    return walls


# --- rounds -------------------------------------------------------------------


def traced_figures(run: Run, result: Job, trace_path: Path) -> dict[str, float]:
    trace = json.loads(trace_path.read_text(encoding="ascii"))
    figures = layer_metrics(trace)
    setup = trace["ready"] - result.spawned
    figures["trace.wall_s"] = result.wall_s
    figures["trace.setup_s"] = setup
    figures["trace.coverage"] = (setup + sum(figures[k] for k in LAYER_SELF)) / result.wall_s
    figures["analytic.zero_yield"] = zero_yield(result.stdout) if run.name == "zero_geometry" else 0.0
    return figures


def zero_yield(stdout: str) -> float:
    """Distinct true zeros over the points find_zeros_in_disk returned."""
    out = json.loads(stdout)
    found = returned = 0
    for data in out["families"]:
        points = [complex(*z) for z in data["points"]]
        found += checks.distinct_zeros_found(tuple(data["family"]), out["radius"], points)
        returned += len(points)
    return found / returned if returned else 0.0


def measure(run: Run, seconds: float, trace: bool) -> tuple[int, list, dict]:
    attempted = 0
    failures: list[tuple[str, str]] = []
    walls, rss, traced, rounds = [], [], [], []
    start = perf_counter()
    # A round starts only if a round of median length still fits in the time.
    while not rounds or perf_counter() - start + statistics.median(rounds) <= seconds:
        round_start = perf_counter()
        jobs = [(run.spawn(job_argv(run, None), "job"), None)]
        if trace:
            trace_path = run.directory / f"trace-{len(traced)}.json"
            jobs.append((run.spawn(job_argv(run, trace_path), "traced"), trace_path))
        for result, trace_path in jobs:
            count, failed = run.check(result)
            kind = "job" if trace_path is None else "traced job"
            print(f"{kind}: exit {result.returncode}, {result.wall_s:.3f} s, "
                  f"{result.peak_rss_mb:.1f} MB, {len(failed)} of {count} operations failed",
                  file=sys.stderr, flush=True)
            attempted += count
            failures += failed
            if trace_path is None:
                walls.append(result.wall_s)
                rss.append(result.peak_rss_mb)
            elif result.returncode in (0, 1):
                traced.append(traced_figures(run, result, trace_path))
        rounds.append(perf_counter() - round_start)
    # The host alternates between a fast and a slow state for seconds to
    # minutes; the median of a few jobs jumps between the two, their mean does not.
    wall = statistics.fmean(walls)
    if not trace:
        return attempted, failures, {"wall_s": wall, "peak_rss_mb": statistics.median(rss)}
    if not traced:
        raise RuntimeError("no traced job completed")
    figures = {k: statistics.median(t[k] for t in traced) for k in traced[0]}
    figures["trace.overhead_s"] = statistics.fmean(t["trace.wall_s"] for t in traced) - wall
    return attempted, failures, figures


UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def per_layer_units() -> dict[str, str]:
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(CHECKERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "congruential_euler" / "__init__.py").is_file():
        print(f"error: no package source at {src / 'congruential_euler'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    directory = root / ".bench_runs" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    directory.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(src), CEULER_CACHE_DIR=str(directory / "default-cache"))
    run = Run(root, args.workload, directory, env)
    try:
        setup = set_up(run, 1 if args.trace else IMPORT_SAMPLES)
        if args.workload in PREPARE:
            PREPARE[args.workload](run)
        attempted, failures, figures = measure(run, args.seconds, bool(args.trace))
    finally:
        for path in directory.iterdir():
            if path.is_dir():
                shutil.rmtree(path)
            elif not path.name.startswith("trace-"):
                path.unlink()
    for op, message in failures[:10]:
        known = " (known fault)" if op in KNOWN_FAULTS else ""
        print(f"failed{known}: {op}: {message}", file=sys.stderr)
    if args.trace:
        units = per_layer_units()
        metrics = {name: {"value": figures[name], "unit": unit} for name, unit in units.items()}
    else:
        figures["setup_s"] = statistics.median(setup)
        metrics = {name: {"value": figures[name], "unit": UNITS[name]} for name in UNITS}
    result = {
        "correct": all(op in KNOWN_FAULTS for op, _ in failures),
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }
    line = json.dumps(result, sort_keys=True)
    (directory / "result.json").write_text(line + "\n", encoding="ascii")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
