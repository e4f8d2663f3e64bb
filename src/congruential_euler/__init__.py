"""Exact computation and verification toolkit for congruential Euler numbers.

The numbers E_{Nn}^{(N,j)} are the EGF coefficients of the inverse of
sum_n z^{Nn}/(Nn+j)!.  Special cases: (2,0) Euler numbers, (3,0) Lehmer
numbers, (N,0) generalized Euler numbers, (1,1) Bernoulli numbers.
"""

from .analytic import (
    BernoulliFormulaId,
    PiPolynomial,
    ZetaFormulaId,
    bernoulli,
    check_bernoulli_identity,
    check_special_values,
    check_zeta_identity,
    eval_H,
    formula_reference,
    formula_value,
    lambda_even,
    locate_zero,
    predicted_zero,
    ratio_radius,
    zeta_even,
)
from .congruences import (
    CongruenceReport,
    check_gessel,
    check_komatsu_liu,
    check_main_theorem,
    check_prime_power,
    check_special_40,
    check_special_60,
    verify_lemma_series,
    verify_lemma_Xm,
)
from .engine import (
    CacheFormatError,
    SeqParams,
    SeqTable,
    cache_load,
    cache_store,
    compute_table,
    euler_number,
    oracle_table,
    residue_table,
)
from .exact import (
    EgfSeries,
    exp_section,
    is_prime,
    residue_mod_prime_power,
    series_derivative,
    series_invert,
    series_multiply,
    series_shift_down,
    vp,
)
from .scanner import (
    PeriodDetection,
    PeriodScanResult,
    REFERENCE_ROWS,
    detect_eventual_period,
    emit_table,
    run_reference_scan,
    scan_conjecture,
)

__version__ = "0.1.0"
