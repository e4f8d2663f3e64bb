"""Congruential Euler number tables: recurrence engine, oracle, and disk cache.

The numbers E_{Nn}^{(N,j)} are the EGF coefficients of the inverse of
sum_n z^{Nn}/(Nn+j)!; coefficients at indices that are not multiples of N
vanish identically, so a table stores only values[n] = E_{Nn}^{(N,j)}.
Tables are filled by the lower-triangular recurrence

    sum_{m=0}^{n} C(Nn+j, Nm) E_{Nm} = (j! if n = 0 else 0)

and can be cross-checked against an independent series-inversion oracle.
Row n is summed by Horner's rule: C(Nn+j, Nm) = perm(Nn+j, Nm) / (Nm)!,
and perm(Nn+j, Nm) grows along the row by the small factors
perm(Nk+j, N), so each step multiplies the running sum by a number a few
words wide; the divisor is C(Nn+j, Nn) = C(Nn+j, j).  The recurrence sums
in integers: it keeps every entry times one common denominator and one
factorial cofactor, grows that denominator only when a division needs
it, and reduces each new entry once, when it goes into the memo (see
:func:`_extend`).  Each row's sum is a known multiple of that cofactor,
so the quotient is read from the sum's low bits by a 2-adic exact
division instead of a long division.  For j = 0 the divisor is 1 and the
loop never leaves the integers.  The oracle stays an independent route:
its series inverse weighs terms by C(n, m), not by C(Nn+j, Nm), and
reduces each coefficient by its own arithmetic; it computes only the
indices that are multiples of N, where the kernel's inverse can be
nonzero.
:func:`residue_table` runs the same recurrence in Z/p^R and returns the
values mod p^r without building the exact rationals.
"""

from __future__ import annotations

import os
import re
import sys
from contextlib import contextmanager
from fractions import Fraction
from math import comb, factorial, gcd, lcm, perm
from operator import mul
from pathlib import Path
from typing import Union

from .exact import _Record, _Value, exp_section, is_prime, series_invert, series_shift_down

__all__ = [
    "SeqParams",
    "SeqTable",
    "euler_number",
    "compute_table",
    "oracle_table",
    "residue_table",
    "cache_header",
    "cache_store",
    "cache_load",
    "seed_memo",
    "CacheFormatError",
]

CACHE_HEADER_VERSION = "congruential-euler-cache v1"
CACHE_CHECK_PRIME = 2**31 - 1  # cache_load checks every entry mod this prime


class SeqParams(_Value):
    """Type (N, j) of a congruential Euler number sequence.

    N >= 1 is the support step; j >= 0 shifts the factorials in the kernel
    series (values beyond j = N-1 are meaningful too, e.g. (1, 1) yields
    the Bernoulli numbers).  Instances are immutable and hashable, and
    equal only to a ``SeqParams`` with the same N and j.
    """

    __slots__ = ("N", "j")

    def __init__(self, N: int, j: int) -> None:
        if N < 1:
            raise ValueError("SeqParams: N must be a positive integer")
        if j < 0:
            raise ValueError("SeqParams: j must be nonnegative")
        super().__init__(N, j)


class SeqTable(_Record):
    """Values E_{Nn}^{(N,j)} for n = 0..len(values) - 1 (table-index convention)."""

    __slots__ = ("params", "values")


# Append-only memo, one list per (N, j), unlocked: the package starts no
# threads.  The recurrence is strictly lower-triangular, so entries never change.
_TABLES: dict[SeqParams, list[Fraction]] = {}


def _memo(params: SeqParams) -> list[Fraction]:
    """The memo's list for ``params``, started from E_0 = j! if absent."""
    return _TABLES.setdefault(params, [Fraction(factorial(params.j))])


def _exact_quotient(acc: int, shift: int, odd: int, inv: int, bits: int) -> tuple[int, int, int]:
    """acc / top for a multiple acc of top = 2^shift * odd, read from acc's low bits.

    ``inv`` is odd^-1 mod 2^bits.  Returns the quotient q, and the inverse
    with its width, lifted if q needed more bits than ``bits``.

    Let w = acc.bit_length() - top.bit_length() + 2, at least 1.  Then
    |acc| < 2^acc.bit_length() and top >= 2^(top.bit_length() - 1), so
    |q| < 2^(w-1).  A Newton step inv <- inv * (2 - odd * inv) mod 2^(2 bits)
    doubles the width: if odd * inv = 1 - e with 2^bits dividing e, then
    odd * inv * (2 - odd * inv) = 1 - e^2.  top divides acc, so
    acc >> shift = odd * q exactly and q = (acc >> shift) * inv (mod 2^w).
    Of the residues mod 2^w only one lies in [-2^(w-1), 2^(w-1)): q is the
    residue, less 2^w if its bit w-1 is set.
    """
    width = max(acc.bit_length() - odd.bit_length() - shift + 2, 1)
    while bits < width:
        bits *= 2
        mask = (1 << bits) - 1
        inv = inv * (2 - (odd & mask) * inv) & mask
    mask = (1 << width) - 1
    q = ((acc >> shift) & mask) * (inv & mask) & mask
    if q >> (width - 1):
        q -= 1 << width
    return q, inv, bits


def _extend(params: SeqParams, n_max: int) -> list[Fraction]:
    """The memo's list for ``params``, extended by the recurrence to n_max if shorter.

    Row n, with M = Nn + j, needs S_n = sum_{m<n} C(M, Nm) * E_m and sets
    E_n = -S_n / d with the divisor d = C(M, j).  The loop sums S_n by
    Horner's rule, whose multipliers are a few words wide, instead of
    weighing each entry by a binomial as wide as M.

    Horner rows.  C(M, Nm) = perm(M, Nm) / (Nm)!, and perm(M, N(m+1)) =
    perm(M, Nm) * s_{n-m} with s_k = perm(Nk+j, N), a number of at most
    N * log2(Nk+j) bits (the list ``steps`` holds s_1..s_{n_max}).  Let
    top = (N(n_max-1))!, the largest (Nm)! a row reads, and keep the
    integers ``lifted[m] = scale * E_m * top / (Nm)!``, where ``scale``
    starts as the lcm of the memo's denominators.  Row n runs

        acc = acc * s_{n-m} + lifted[m]    for m = n-1 down to 0,

    from acc = 0, so lifted[m] ends up weighed by s_{n-m+1} * ... * s_n =
    perm(M, Nm), and acc = sum_{m<n} perm(M, Nm) * lifted[m]
    = top * scale * S_n.  Then total = -acc / top = scale * E_n * d,
    g = gcd(total, d) and grow = d // g.  If grow > 1, ``scale`` and every
    ``lifted[m]`` are multiplied by grow.  The new entry joins the memo as
    ``Fraction(total // g, scale)`` and, if a later row reads it, joins
    ``lifted`` times its cofactor top / (Nn)!.

    Exactness.  A row reads only m <= n_max - 1, so Nm <= N(n_max-1)
    and (Nm)! divides top: each cofactor top / (Nm)! is an integer, and
    stepping it along m, by exact division by perm(Nm, N) =
    (Nm)! / (N(m-1))!, keeps it one.  So each lifted[m] is an integer
    while scale * E_m is.  scale * S_n = sum_{m<n} C(M, Nm) * scale * E_m
    is an integer too, so top divides acc = top * scale * S_n.  So
    :func:`_exact_quotient` can read acc / top from acc's low bits.  With
    top = 2^s * odd, written once per call, acc >> s = odd * (acc / top)
    exactly, so acc / top = (acc >> s) * odd^-1 (mod 2^w), where w is
    chosen with |acc / top| < 2^(w-1); of the residues mod 2^w only one
    lies in [-2^(w-1), 2^(w-1)).  odd^-1 mod 2^w is lifted by Newton steps
    when a row needs more bits than the rows before it, and kept.  Each
    row costs one w-bit product, where ``acc // top`` would run a long
    division over all of top's bits (Jebelean, "An algorithm for exact
    division", J. Symbolic Comput. 15, 1993).  g divides total, so d divides
    total * grow = (total / g) * d and total // g = total * grow / d =
    scale * grow * E_n with no remainder.  After the rescaling,
    lifted[m] = scale * E_m * top / (Nm)! holds for every m <= n, by
    induction on n.  For j = 0, d = 1, so grow is always 1 and the loop is
    pure integers.  Each new entry is reduced once, when it goes into the
    memo, so the memo holds the same reduced values as a term-by-term
    ``Fraction`` sum.
    """
    N, j = params.N, params.j
    values = _memo(params)
    start = len(values)
    if start > n_max:
        return values
    top = factorial(N * (n_max - 1))
    scale = lcm(*(value.denominator for value in values))
    steps = [perm(N * k + j, N) for k in range(1, n_max + 1)]  # s_1..s_{n_max}
    lifted, cofactor = [], top
    for m, value in enumerate(values):
        if m:
            cofactor //= perm(N * m, N)  # top / (Nm)!
        lifted.append(value.numerator * (scale // value.denominator) * cofactor)
    shift = (top & -top).bit_length() - 1  # top = 2^shift * odd
    odd, inv, bits = top >> shift, 1, 1  # inv = odd^-1 mod 2^bits
    for n in range(start, n_max + 1):
        acc = 0
        for step, u in zip(steps, reversed(lifted)):  # m = n-1 down to 0
            acc = acc * step + u
        total, inv, bits = _exact_quotient(-acc, shift, odd, inv, bits)  # -acc / top
        divisor = comb(N * n + j, j)
        g = gcd(total, divisor)
        grow = divisor // g
        if grow > 1:
            scale *= grow
            lifted = [u * grow for u in lifted]
        entry = total // g  # scale * E_n
        values.append(Fraction(entry, scale))
        if n < n_max:
            cofactor //= perm(N * n, N)  # top / (Nn)!
            lifted.append(entry * cofactor)
    return values


def seed_memo(table: SeqTable) -> None:
    """Add the entries of a checked table past the memo's end to the memo.

    :func:`compute_table` then extends only past them.  Entries the memo
    already holds stay as they are; an absent memo starts from E_0 = j!.
    """
    values = _memo(table.params)
    values += table.values[len(values):]


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


def residue_table(params: SeqParams, p: int, r: int, n_max: int) -> list[int]:
    """Residues mod p^r of E_{Nn}^{(N,j)} for n = 0..n_max, by the recurrence in Z/p^R.

    The list stops at the first entry that is not p-integral: a result of
    length L <= n_max means entry L has p in its denominator, while entries
    0..L-1 do not.

    Write C(Nn+j, j) = p^{v_n} * (a unit) and S_n = sum_{m<n} C(Nn+j, Nm) E_m,
    so that E_0 = j! and E_n = -S_n / C(Nn+j, j) for n >= 1.  Everything is
    computed modulo p^R with R = r + v_1 + ... + v_{n_max}.  Binomials come
    from the Legendre exponents e(k) = v_p(k!) and the p-free factorials
    u(k) = k! / p^{e(k)} mod p^R:

        C(a, b) = p^{e(a)-e(b)-e(a-b)} * u(a) * u(b)^-1 * u(a-b)^-1,

    where the exponent is Kummer's carry count (a term whose exponent
    reaches R vanishes mod p^R).  The loop reads e and u only at the marks
    k = Nn and k = Nn + j, n <= n_max.  There e(k) = sum_{i>=1} floor(k / p^i)
    comes from Legendre's formula.  u(k) comes from one forward pass over
    k = 1..N*n_max + j that multiplies in each k with every factor p
    removed and keeps the product, and its gap to the previous mark, only
    at the marks; one inversion at the last mark, stepped back through the
    gaps, gives u(k)^-1 at every mark.  So the state is O(n_max), whatever
    N and j are, and E_0 = j! = p^{e(j)} * u(j) needs no exact factorial.
    The loop keeps E_m * u(Nm)^-1 and divides S_n by the unit u(Nn+j);
    unit factors change neither a valuation nor the precision below.

    Carry-free rows.  The carry count c(n, m) = e(Nn+j) - e(Nm) - e(N(n-m)+j)
    is v_p(C(Nn+j, Nm)) >= 0, and it is at most e(Nn+j), since e(Nm) and
    e(N(n-m)+j) are >= 0.  So a row with e(Nn+j) = 0, that is Nn + j < p,
    has every carry count 0 and every power p^0 = 1, and its sum is one
    ``sum(map(mul, ...))`` of the kept entries against the unit inverses;
    every other row weighs each term by its power of p.

    Precision, by induction on n while E_0..E_{n-1} are p-integral: the
    computed E_n agrees with the exact one mod p^{P_n}, P_n = r + sum_{k>n} v_k.
    For n = 0, E_0 = j! is exact and P_0 = R.  For n >= 1 the binomials are
    exact mod p^R and P_m >= P_{n-1} for m < n, so S_n is right mod
    p^{P_{n-1}} = p^{v_n + P_n}.  That decides whether p^{v_n} divides S_n,
    which holds exactly when E_n is p-integral; if it does, S_n / p^{v_n},
    and with it E_n, is right mod p^{P_n}.  Every P_n >= r, so each
    returned residue is exact mod p^r.
    """
    if not is_prime(p):
        raise ValueError(f"residue_table: {p} is not prime")
    if r < 1:
        raise ValueError("residue_table: r must be positive")
    if n_max < 0:
        raise ValueError("residue_table: n_max must be nonnegative")
    N, j = params.N, params.j

    def legendre(k: int) -> int:  # e(k) = v_p(k!) = floor(k/p) + e(floor(k/p))
        return k // p + legendre(k // p) if k >= p else 0
    seed_exp = [legendre(N * n + j) for n in range(n_max + 1)]  # e(Nn+j)
    step_exp = [legendre(N * n) for n in range(n_max + 1)]  # e(Nn)
    drops = [seed_exp[n] - seed_exp[0] - step_exp[n] for n in range(n_max + 1)]  # v_n
    R = r + sum(drops)
    modulus = p**R
    # u(k) at each mark k = Nn or Nn + j, and its gap u(k) / u(previous mark)
    units, gaps, u, last = {}, {}, 1, 0
    for mark in sorted({N * n + shift for n in range(n_max + 1) for shift in (0, j)}):
        gap = 1
        for k in range(last + 1, mark + 1):
            while k % p == 0:  # k with every factor p removed
                k //= p
            gap = gap * k % modulus
        u = u * gap % modulus
        units[mark], gaps[mark], last = u, gap, mark
    inverses, inverse = {}, pow(u, -1, modulus)  # u(k)^-1, stepped down from the last mark
    for mark in reversed(units):
        inverses[mark], inverse = inverse, inverse * gaps[mark] % modulus
    seed_inv = [inverses[N * n + j] for n in range(n_max + 1)]
    # a carry count has at most as many places as N*n_max + j has binary digits
    powers = [pow(p, c, modulus) for c in range((N * n_max + j).bit_length() + 1)]
    target = p**r
    scaled = [pow(p, seed_exp[0], modulus) * units[j] % modulus]  # E_m * u(Nm)^-1
    residues = [scaled[0] % target]
    for n in range(1, n_max + 1):
        if seed_exp[n]:
            total = sum(
                powers[seed_exp[n] - step_exp[m] - seed_exp[n - m]] * scaled[m] * seed_inv[n - m]
                for m in range(n)
            ) % modulus  # S_n * u(Nn+j)^-1
        else:  # a carry-free row: every power is p^0
            total = sum(map(mul, scaled, seed_inv[n:0:-1])) % modulus
        if total % p ** drops[n]:
            break
        scaled.append(-(total // p ** drops[n]) * units[j] % modulus)
        residues.append(scaled[n] * units[N * n] % target)
    return residues


class CacheFormatError(ValueError):
    """Raised when a cache file is malformed; the message names the line."""


@contextmanager
def _any_digits():
    """Lift Python's int/str digit limit, which table entries outgrow, and restore it after."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


def cache_header(params: SeqParams) -> str:
    """First line of the cache file for ``params``."""
    return f"{CACHE_HEADER_VERSION} N={params.N} j={params.j}"


@_any_digits()
def cache_store(table: SeqTable, path: Union[str, Path]) -> None:
    """Write a table as decimal text, one `<n> <num>/<den>` entry per line.

    The text goes to a temporary file in the same directory, which then
    replaces ``path`` in one step: a failed write leaves any earlier file
    as it was and no temporary file behind.  The file holds exactly
    ``table``; ``ceuler compute`` calls this only when its table is longer
    than the valid file it found, so a warm run writes nothing.
    """
    path = Path(path)
    lines = [cache_header(table.params)]
    for n, value in enumerate(table.values):
        lines.append(f"{n} {value.numerator}/{value.denominator}")
    # one writer per process owns this name; the file gets the usual
    # permissions, which mkstemp's private mode would not give
    temp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(temp, "w", encoding="ascii") as handle:
            handle.write("\n".join(lines) + "\n")
        os.replace(temp, path)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise


_HEADER_RE = re.compile(rf"^{re.escape(CACHE_HEADER_VERSION)} N=(\d+) j=(\d+)$")
_ENTRY_RE = re.compile(r"^(\d+) (-?\d+)/(\d+)$")


@_any_digits()
def cache_load(params: SeqParams, path: Union[str, Path]) -> SeqTable:
    """Load a table back and check it, raising CacheFormatError on a bad file.

    The file must have the header for ``params`` and entries ``<n> <a>/<b>``
    for n = 0, 1, 2, ... on consecutive lines, so entry n is on line n + 2,
    each fraction reduced with b > 0; a blank line is a bad entry.  Then
    every entry is checked against the recurrence mod the prime
    q = CACHE_CHECK_PRIME = 2^31 - 1: with rho_n = ``residue_table(params,
    q, 1, n_max)[n]``, entry n is accepted only if a = rho_n * b (mod q).
    The error message names the line of the first entry that fails.

    Guarantee: an accepted entry agrees with the true E_n mod q.  Proof.
    The check requires q > N*n_max + j, so q divides no k! with
    k <= Nn + j.  In :func:`residue_table` every Legendre exponent is then
    0, so every v_n is 0, every row is carry-free, the working precision
    is R = r = 1, no entry stops the list, and each rho_n = E_n (mod q)
    exactly.  Let a/b be accepted for index n.  If q divided b, then
    a = rho_n * b = 0 (mod q), and a/b would not be reduced; so b is a
    unit mod q and a/b = rho_n = E_n (mod q).

    Consequence: changing one digit of a correct numerator a is always
    rejected.  The new numerator is a' = a +- d * 10^k with 1 <= d <= 9, and
    a' = rho_n * b = a (mod q) would need q to divide d * 10^k, which no
    prime q > 10 does.  The check guards against corruption, not against a
    file forged to agree mod q; the exact recurrence stays the oracle.
    """
    path = Path(path)
    try:
        lines = path.read_text(encoding="ascii").splitlines()
    except UnicodeDecodeError as exc:
        raise CacheFormatError(f"{path}: not ASCII text: {exc}") from None
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
    if not values:
        raise CacheFormatError(f"{path}: line 2: no entries")
    q = CACHE_CHECK_PRIME
    if params.N * (len(values) - 1) + params.j >= q:
        raise CacheFormatError(f"{path}: line {len(values) + 1}: too many entries to check mod {q}")
    residues = residue_table(params, q, 1, len(values) - 1)
    for n, (value, residue) in enumerate(zip(values, residues)):
        if (value.numerator - residue * value.denominator) % q:
            raise CacheFormatError(
                f"{path}: line {n + 2}: entry {n} disagrees with the recurrence mod {q}"
            )
    return SeqTable(params, values)
