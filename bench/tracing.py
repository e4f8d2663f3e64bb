"""Spans and counters around the package's public functions, for traced runs.

The tracer wraps functions from outside the package: each wrapped name is
replaced in every ``congruential_euler`` module that holds a reference to
it, so ``scanner``, ``congruences``, ``analytic`` and ``cli`` see the
wrapper too.  A span records (name, start, end, parent); a span's self time
is its duration minus the time covered by its direct children.  The hot
functions get no spans: ``euler_number`` and ``eval_H`` only count calls,
and ``vp``, ``residue_mod_prime_power`` and ``locate_zero`` add their time
to a total (and to the enclosing span's child time) without a record.

``engine._extend`` is the recurrence itself.  A call that the memo already
covers is counted as a hit and gets no span; a call that extends a table
gets an ``engine.recurrence`` span and counts the entries it appends.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
from collections import Counter, defaultdict
from time import perf_counter

SPANS = {
    "engine": ("compute_table", "oracle_table", "cache_load", "cache_store"),
    "exact": ("exp_section", "series_multiply", "series_invert", "series_derivative",
              "series_shift_down"),
    "scanner": ("scan_conjecture", "detect_eventual_period", "run_reference_scan", "emit_table"),
    "congruences": ("check_main_theorem", "check_komatsu_liu", "check_gessel",
                    "check_prime_power", "check_special_40", "check_special_60",
                    "verify_lemma_Xm", "verify_lemma_series"),
    "analytic": ("bernoulli", "zeta_even", "lambda_even", "formula_value", "formula_reference",
                 "check_zeta_identity", "bernoulli_formula_value", "check_bernoulli_identity",
                 "predicted_zero", "family_zeros", "check_special_values", "find_zeros_in_disk",
                 "extraneous_zeros", "ratio_radius"),
    "cli": ("main",),
}
TIMED = (("exact", "vp"), ("exact", "residue_mod_prime_power"), ("analytic", "locate_zero"))
COUNTED = (("engine", "euler_number"), ("analytic", "eval_H"))
ZERO_SEARCH = {"analytic." + name for name in (
    "predicted_zero", "family_zeros", "check_special_values", "find_zeros_in_disk",
    "extraneous_zeros", "ratio_radius")}


class Tracer:
    """In-memory spans and counters; written out once when the job ends."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.child: list[float] = []  # time covered by direct children, per span
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.totals: defaultdict = defaultdict(float)

    def _open(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append([name, perf_counter(), 0.0, self.stack[-1] if self.stack else -1])
        self.child.append(0.0)
        self.stack.append(index)
        return index

    def _close(self, index: int) -> None:
        end = perf_counter()
        self.stack.pop()
        span = self.spans[index]
        span[2] = end
        if span[3] >= 0:
            self.child[span[3]] += end - span[1]

    def span(self, name: str, fn, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def timed(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                self.totals[name] += elapsed
                self.counts[name] += 1
                if self.stack:
                    self.child[self.stack[-1]] += elapsed

        return wrapper

    def counted(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def extend(self, engine, fn):
        tables = engine._TABLES

        @functools.wraps(fn)
        def wrapper(params, n_max):
            values = tables.get(params)
            if values is not None and len(values) > n_max:
                self.counts["engine.memo_hits"] += 1
                return fn(params, n_max)
            self.counts["engine.memo_misses"] += 1
            before = 0 if values is None else len(values)
            index = self._open("engine.recurrence")
            try:
                values = fn(params, n_max)
            finally:
                self._close(index)
            self.counts["engine.entries"] += len(values) - before
            return values

        return wrapper

    def install(self) -> None:
        """Wrap every traced name in every package module that refers to it."""
        importlib.import_module("congruential_euler.cli")
        modules = [m for name, m in sys.modules.items()
                   if name == "congruential_euler" or name.startswith("congruential_euler.")]
        engine = importlib.import_module("congruential_euler.engine")
        wrappers = [(engine, "_extend", self.extend(engine, engine._extend))]
        for layer, names in SPANS.items():
            module = importlib.import_module(f"congruential_euler.{layer}")
            for name in names:
                after = _AFTER.get(f"{layer}.{name}")
                hook = None if after is None else functools.partial(after, self)
                wrappers.append((module, name, self.span(f"{layer}.{name}", getattr(module, name), hook)))
        for layer, name in TIMED:
            module = importlib.import_module(f"congruential_euler.{layer}")
            wrappers.append((module, name, self.timed(f"{layer}.{name}", getattr(module, name))))
        for layer, name in COUNTED:
            module = importlib.import_module(f"congruential_euler.{layer}")
            wrappers.append((module, name, self.counted(f"{layer}.{name}", getattr(module, name))))
        for home, name, wrapper in wrappers:
            original = getattr(home, name)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)

    def write(self, path: str, ready: float) -> None:
        """Write spans, counters and per-layer figures as JSON."""
        engine = sys.modules["congruential_euler.engine"]
        max_bits = max((abs(v.numerator).bit_length() for values in engine._TABLES.values()
                        for v in values), default=0)
        with open(path, "w", encoding="ascii") as handle:
            json.dump({
                "ready": ready,
                "end": perf_counter(),
                "spans": self.spans,
                "self": [span[2] - span[1] - child for span, child in zip(self.spans, self.child)],
                "counts": dict(self.counts),
                "totals": dict(self.totals),
                "max_num_bits": max_bits,
            }, handle)


def _count_coeffs(tracer: Tracer, args, result) -> None:
    tracer.counts["exact.series_coeffs"] += len(result.coeffs)


def _count_cache_bytes(tracer: Tracer, args, result) -> None:
    tracer.counts["engine.cache_bytes"] += os.path.getsize(args[1])


def _count_zeros(tracer: Tracer, args, result) -> None:
    tracer.counts["analytic.zeros_returned"] += len(result)


_AFTER = {
    **{f"exact.{name}": _count_coeffs for name in SPANS["exact"]},
    "engine.cache_store": _count_cache_bytes,
    "analytic.find_zeros_in_disk": _count_zeros,
}


def layer_metrics(trace: dict) -> dict[str, float]:
    """Per-layer figures from one written trace (times in seconds)."""
    inclusive: defaultdict = defaultdict(float)
    own: defaultdict = defaultdict(float)
    for (name, start, end, _), self_s in zip(trace["spans"], trace["self"]):
        inclusive[name] += end - start
        own[name] += self_s
    counts = trace["counts"]
    totals = trace["totals"]

    def self_of(prefix: str) -> float:
        return sum(v for k, v in own.items() if k.startswith(prefix))

    hits = counts.get("engine.memo_hits", 0)
    lookups = hits + counts.get("engine.memo_misses", 0)
    identity = sum(v for k, v in own.items() if k.startswith("analytic.") and k not in ZERO_SEARCH)
    valuation = totals.get("exact.vp", 0.0) + totals.get("exact.residue_mod_prime_power", 0.0)
    series = sum(v for k, v in own.items() if k.startswith("exact."))
    return {
        "engine.recurrence_s": own["engine.recurrence"] + own["engine.compute_table"],
        "engine.entries": counts.get("engine.entries", 0),
        "engine.max_num_bits": trace["max_num_bits"],
        "engine.memo_hit_ratio": hits / lookups if lookups else 0.0,
        "engine.oracle_s": inclusive["engine.oracle_table"],
        "engine.cache_load_s": inclusive["engine.cache_load"],
        "engine.cache_store_s": inclusive["engine.cache_store"],
        "engine.cache_bytes": counts.get("engine.cache_bytes", 0),
        "engine.self_s": self_of("engine."),
        "exact.series_s": series,
        "exact.series_coeffs": counts.get("exact.series_coeffs", 0),
        "exact.valuation_s": valuation,
        "exact.valuation_calls": counts.get("exact.vp", 0) + counts.get("exact.residue_mod_prime_power", 0),
        "scanner.reduce_s": own["scanner.scan_conjecture"],
        "scanner.detect_s": own["scanner.detect_eventual_period"],
        "scanner.self_s": self_of("scanner."),
        "congruences.check_s": self_of("congruences."),
        "analytic.identity_s": identity,
        "analytic.zero_search_s": sum(own[k] for k in ZERO_SEARCH),
        "analytic.newton_s": totals.get("analytic.locate_zero", 0.0),
        "analytic.newton_starts": counts.get("analytic.locate_zero", 0),
        "analytic.eval_H_calls": counts.get("analytic.eval_H", 0),
        "analytic.zeros_returned": counts.get("analytic.zeros_returned", 0),
        "cli.handler_s": self_of("cli."),
    }


LAYER_SELF = ("engine.self_s", "exact.series_s", "exact.valuation_s", "scanner.self_s",
              "congruences.check_s", "analytic.identity_s", "analytic.zero_search_s",
              "analytic.newton_s", "cli.handler_s")
