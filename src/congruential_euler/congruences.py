"""Mechanical verification of the proved congruence families.

Each check sweeps a finite parameter window and returns a
:class:`CongruenceReport` holding at most the first few failing witnesses.
The six windowed checks read E_{Nn}^{(N,j)} mod p^e from
:func:`engine.residue_table` and never build the exact rationals; the two
series lemmas compare exact series coefficients.  Subscripts in the
statements below are absolute EGF indices; they are converted to table
indices by dividing by the sequence step, and the divisibility of that
conversion is what rules out off-by-step bugs.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from .engine import SeqParams, residue_table
from .exact import (
    _Record,
    Rational,
    exp_section,
    is_prime,
    residue_mod_prime_power,
    series_derivative,
    series_invert,
    series_multiply,
    vp,
)

__all__ = [
    "CongruenceReport",
    "check_main_theorem",
    "check_komatsu_liu",
    "check_gessel",
    "check_prime_power",
    "check_special_40",
    "check_special_60",
    "verify_lemma_Xm",
    "verify_lemma_series",
]

MAX_WITNESSES = 5


class CongruenceReport(_Record):
    """Pass/fail record for one theorem instance sweep.

    The status is ``"inconclusive"`` when the caller says so, else ``"fail"``
    when there are failures and ``"pass"`` when there are none; the failures,
    each a dict, are cut to the first :data:`MAX_WITNESSES`.
    """

    __slots__ = ("theorem_id", "params", "instances_checked", "failures", "status")

    def __init__(self, theorem_id: str, params: str, instances_checked: int,
                 failures: Sequence[dict] = (), status: str = "pass") -> None:
        if instances_checked < 1:
            raise ValueError("a report must cover at least one instance")
        failures = list(failures[:MAX_WITNESSES])
        if status != "inconclusive":
            status = "fail" if failures else "pass"
        super().__init__(theorem_id, params, instances_checked, failures, status)

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def to_dict(self) -> dict:
        """The fields by name, with copies of the failures list and of each witness dict."""
        return {**self._asdict(), "failures": [dict(witness) for witness in self.failures]}


def _residues(params: SeqParams, p: int, e: int, indices: list[int]) -> list[int]:
    """E_{Nn}^{(N,j)} mod p^e for n = 0..max(indices), from :func:`residue_table`.

    Each caller's family has v_p(C(Nn+j, j)) = 0 for every n, so the engine
    runs at R = e; an entry with p in its denominator is a fault.
    """
    if not indices:
        return []
    if min(indices) < 0:
        raise ValueError(f"table index n={min(indices)} is negative")
    top = max(indices)
    residues = residue_table(params, p, e, top)
    if len(residues) <= top:
        raise ArithmeticError(
            f"E^({params.N},{params.j}) at table index n={len(residues)} "
            f"has p={p} in its denominator"
        )
    return residues


def _antiperiodic(
    params: SeqParams, p: int, e: int, shift: int, ns: list[int], summary: str
) -> list[dict]:
    """Witnesses n in ns with v_p(E_n + E_{n+shift}) < e, the sum read mod p^e.

    A sum that is 0 mod p^e is exactly 0 or has v_p >= e, so it passes.  Any
    other sum is E_n - (-E_{n+shift}) = x - y mod p^e with residues x != y,
    and 0 < |x - y| < p^e gives v_p(x - y) = v_p(sum) < e: a witness is exact.
    """
    pairs = [(n, n + shift) for n in ns]
    return [
        {"params": f"{summary} n={n}", "lhs": vp(x - y, p), "rhs": e}
        for n, _, x, y in _unequal(params, params, p, e, pairs, sign=-1)
    ]


def _unequal(
    lhs: SeqParams, rhs: SeqParams, p: int, e: int, pairs: list[tuple[int, int]], sign: int = 1
) -> list[tuple[int, int, int, int]]:
    """(a, b, lhs E_a mod p^e, sign * rhs E_b mod p^e) for each pair (a, b) where they differ."""
    indices = [n for pair in pairs for n in pair]
    left = _residues(lhs, p, e, indices)
    right = left if rhs == lhs else _residues(rhs, p, e, indices)
    modulus = p**e
    return [(a, b, left[a], y) for a, b in pairs if left[a] != (y := sign * right[b] % modulus)]


def check_main_theorem(p: int, j: int, r: int, n_range: Iterable[int]) -> CongruenceReport:
    """Check vp(E_{pn}^{(p,j)} + E_{pn+p^r}^{(p,j)}) >= r + delta(j), delta(j) = [j = 0].

    The congruential Euler numbers of a prime step p satisfy this sign
    anti-periodicity for every 0 <= j <= p-1; an exact zero sum counts as
    infinite valuation.  Adding j < p to pn carries nothing, so
    v_p(C(pn+j, j)) = 0 (Kummer) and the residues are read at R = r + delta(j).
    """
    if not is_prime(p) or p == 2:
        raise ValueError("check_main_theorem: p must be an odd prime")
    if not 0 <= j <= p - 1:
        raise ValueError("check_main_theorem: need 0 <= j <= p-1")
    if r < 1:
        raise ValueError("check_main_theorem: r must be positive")
    required = r + (1 if j == 0 else 0)
    shift = p ** (r - 1)  # subscript shift p^r is table shift p^(r-1)
    ns = list(n_range)
    summary = f"p={p} j={j} r={r}"
    failures = _antiperiodic(SeqParams(p, j), p, required, shift, ns, summary)
    return CongruenceReport("main_theorem", summary, len(ns), failures)


def check_komatsu_liu(k: int, n_pairs: Iterable[tuple[int, int]]) -> CongruenceReport:
    """Check W_{3n} == W_{3m} mod 3^{k+1} whenever 3n == 3m mod 2*3^k.

    {W_n} are the Lehmer numbers, i.e. the (3, 0) sequence.  A pair that
    violates the hypothesis is a usage error, not a congruence failure.
    With j = 0 every divisor C(3n, 0) is 1: the residues are read at R = k + 1.
    """
    if k < 1:
        raise ValueError("check_komatsu_liu: k must be positive")
    hypothesis = 2 * 3**k
    pairs = list(n_pairs)
    for n, m in pairs:
        if (3 * n - 3 * m) % hypothesis != 0:
            raise ValueError(
                f"check_komatsu_liu: hypothesis not satisfied: 3*{n} != 3*{m} mod {hypothesis}"
            )
    if not pairs:
        raise ValueError("check_komatsu_liu: no pairs supplied")
    params = SeqParams(3, 0)
    failures = [
        {"params": f"k={k} n={n} m={m}", "lhs": lhs, "rhs": rhs}
        for n, m, lhs, rhs in _unequal(params, params, 3, k + 1, pairs)
    ]
    return CongruenceReport("komatsu_liu", f"k={k}", len(pairs), failures)


def check_gessel(p: int, m: int, k: int, n_range: Iterable[int]) -> CongruenceReport:
    """Check E_{p^k m n}^{(p^k m,0)} == E_{p^{k-1} m n}^{(p^{k-1} m,0)} mod p^{3k-eps}.

    eps is 1 for p in {2, 3} and 0 for larger primes.  With j = 0 both sides
    are integers: the residues are read at R = 3k - eps.
    """
    if not is_prime(p):
        raise ValueError("check_gessel: p must be prime")
    if m < 1 or k < 1:
        raise ValueError("check_gessel: m and k must be positive")
    eps = 1 if p in (2, 3) else 0
    coarse = SeqParams(p**k * m, 0)
    fine = SeqParams(p ** (k - 1) * m, 0)
    ns = list(n_range)
    summary = f"p={p} m={m} k={k}"
    failures = [
        {"params": f"{summary} n={n}", "lhs": lhs, "rhs": rhs}
        for n, _, lhs, rhs in _unequal(coarse, fine, p, 3 * k - eps, [(n, n) for n in ns])
    ]
    return CongruenceReport("gessel", summary, len(ns), failures)


def check_prime_power(p: int, k: int, r: int, n_range: Iterable[int]) -> CongruenceReport:
    """Check vp(E_{p^k(n+p^{r-1})}^{(p^k,0)} + E_{p^k n}^{(p^k,0)}) >= r + 1.

    Valid for odd primes with 1 <= r <= 5 - eps (eps = 1 for p = 3); the
    range bound is where the underlying step-collapse congruence runs out.
    With j = 0 every divisor is 1: the residues are read at R = r + 1.
    """
    if not is_prime(p) or p == 2:
        raise ValueError("check_prime_power: p must be an odd prime")
    if k < 1:
        raise ValueError("check_prime_power: k must be positive")
    eps = 1 if p == 3 else 0
    if not 1 <= r <= 5 - eps:
        raise ValueError(f"check_prime_power: need 1 <= r <= {5 - eps} for p={p}")
    shift = p ** (r - 1)
    ns = list(n_range)
    summary = f"p={p} k={k} r={r}"
    failures = _antiperiodic(SeqParams(p**k, 0), p, r + 1, shift, ns, summary)
    return CongruenceReport("prime_power", summary, len(ns), failures)


def check_special_40(r: int, n_range: Iterable[int]) -> CongruenceReport:
    """Check E_{4n+2^{r+1}}^{(4,0)} == E_{4n}^{(4,0)} mod 2^r, valid from n = 0.

    With j = 0 every divisor is 1: the residues are read at R = r.
    """
    if r < 1:
        raise ValueError("check_special_40: r must be positive")
    params = SeqParams(4, 0)
    shift = 2 ** (r - 1)  # subscript shift 2^{r+1} over step 4
    ns = list(n_range)
    failures = [
        {"params": f"r={r} n={n}", "lhs": lhs, "rhs": rhs}
        for _, n, lhs, rhs in _unequal(params, params, 2, r, [(n + shift, n) for n in ns])
    ]
    return CongruenceReport("special_40", f"r={r}", len(ns), failures)


def check_special_60(r: int, n_max: int) -> tuple[int | None, CongruenceReport]:
    """Find the least n0 with E_{6n+2*3^r}^{(6,0)} == E_{6n}^{(6,0)} mod 3^r for n0 <= n <= n_max.

    The congruence only holds eventually; the scan reports the observed
    stabilization index.  If even the last window index fails the result
    is inconclusive rather than a failure.  With j = 0 every divisor is 1:
    the residues are read at R = r.
    """
    if r < 1:
        raise ValueError("check_special_60: r must be positive")
    if n_max < 0:
        raise ValueError("check_special_60: n_max must be nonnegative")
    params = SeqParams(6, 0)
    shift = 3 ** (r - 1)  # subscript shift 2*3^r over step 6
    backward = [(n + shift, n) for n in range(n_max, -1, -1)]
    mismatches = _unequal(params, params, 3, r, backward)
    n0 = mismatches[0][1] + 1 if mismatches else 0
    checked = n_max + 1
    if n0 > n_max:
        summary = f"r={r} n_max={n_max} (no stable tail)"
        return None, CongruenceReport("special_60", summary, checked, status="inconclusive")
    return n0, CongruenceReport("special_60", f"r={r} n_max={n_max} n0={n0}", checked)


def verify_lemma_Xm(p: int, m: int, order: int) -> CongruenceReport:
    """Coefficientwise congruences for X_m built from H = sum z^{2pn}/(2pn)!.

    With T = H^{(p)}/H and D_N defined by (1/H)^{(N)} = (-1)^N D_N / H:

    * p = 2: X_m = 1 - D_{2m} is congruent, mod 2^{v2(2m)}, to 1 + T for
      odd m and to 2^{v2(m)} (1 + T^2) for even m.
    * p = 3: X_m = (-1)^m (1 - D_{3m}) is congruent, mod 3^{v3(3m)}, to
      (1 - 3T)(T - 1)/(1 + 3T^2) for odd m and (1 + T)(T - 1)/(1 + 3T^2)
      for even m, the quotient expanded as a geometric series (T has no
      constant term, so 1 + 3T^2 is invertible with integer coefficients).

    D_N is obtained by N-fold differentiation of the inverted series, not
    from any closed determinant form.
    """
    if p not in (2, 3):
        raise ValueError("verify_lemma_Xm: p must be 2 or 3")
    if m < 1:
        raise ValueError("verify_lemma_Xm: m must be positive")
    if order < 10 * p:
        raise ValueError("verify_lemma_Xm: order too small to see 10 nonzero coefficients")
    step = 2 * p
    shift = p * m
    build_order = order + shift
    H = exp_section(step, 0, build_order)
    inv = series_invert(H)
    T = series_multiply(exp_section(step, p, build_order), inv)

    d_series = (-1) ** shift * series_multiply(H, series_derivative(inv, shift))
    x_series = ((-1) ** m if p == 3 else 1) * (1 - d_series)
    exponent = 1 + vp(m, p)
    if p == 2:
        rhs = 1 + T if m % 2 == 1 else 2 ** vp(m, 2) * (1 + series_multiply(T, T))
    else:
        common = series_multiply(T - 1, series_invert(1 + 3 * series_multiply(T, T)))
        rhs = series_multiply(1 - 3 * T if m % 2 == 1 else 1 + T, common)

    top = min(x_series.order, rhs.order, order)
    failures = []
    for n in range(top + 1):
        a = residue_mod_prime_power(x_series[n], p, exponent)
        b = residue_mod_prime_power(rhs[n], p, exponent)
        if a != b:
            failures.append({"params": f"p={p} m={m} coeff n={n}", "lhs": a, "rhs": b})
    return CongruenceReport("lemma_Xm", f"p={p} m={m} order={order}", top + 1, failures)


def verify_lemma_series(n_max: int) -> CongruenceReport:
    """Exact facts about H = sum z^{6n}/(6n)! and its cubic combination.

    (a) the coefficient of z^{6n}/(6n)! in (H''')^2 - H^2 is -1 at n = 0
        and -(-1)^n * 2 * 3^{3n-1} for n >= 1;
    (b) the coefficients c_n of H^3 + 3 H (H''')^2 (read off at indices 6n)
        satisfy c_0 = 1 and v3(c_n) = 3n - 1 for n >= 1;
    (c) the coefficients d_n of its inverse satisfy v3(d_n) >= 2n.
    """
    if n_max < 2:
        raise ValueError("verify_lemma_series: n_max must be at least 2")
    order = 6 * n_max
    H = exp_section(6, 0, order + 3)
    H3 = series_derivative(H, 3)
    HH, H3H3 = series_multiply(H, H), series_multiply(H3, H3)
    diff = H3H3 - HH
    cubic = series_multiply(HH, H) + 3 * series_multiply(H, H3H3)
    inverse = series_invert(cubic)

    def v3(x: Rational) -> int | str:
        return "inf" if x == 0 else vp(x, 3)

    # rows (statement, seen, expected, holds): the diff, support, c and d rows
    ns = range(1, n_max + 1)
    diff_wanted = [-1] + [-((-1) ** n) * 2 * 3 ** (3 * n - 1) for n in ns]
    rows = [(f"diff n={n}", diff[6 * n], w, diff[6 * n] == w) for n, w in enumerate(diff_wanted)]
    support = [
        (f"diff support i={i}", diff[i], 0, diff[i] == 0) for i in range(diff.order + 1) if i % 6
    ]
    rows += support + [("c n=0", cubic[0], 1, cubic[0] == 1)]
    rows += [(f"v3(c_{n})", (c := v3(cubic[6 * n])), 3 * n - 1, c == 3 * n - 1) for n in ns]
    rows += [
        (f"v3(d_{n})", (d := v3(inverse[6 * n])), f">= {2 * n}", d == "inf" or d >= 2 * n)
        for n in ns
    ]
    failures = [
        {"params": statement, "lhs": str(seen), "rhs": str(wanted)}
        for statement, seen, wanted, holds in rows if not holds
    ]
    # support rows are not instances, so 3 * n_max + 2 rows are
    return CongruenceReport("lemma_series", f"n_max={n_max}", len(rows) - len(support), failures)
