"""Exact computation and verification toolkit for congruential Euler numbers.

The numbers E_{Nn}^{(N,j)} are the EGF coefficients of the inverse of
sum_n z^{Nn}/(Nn+j)!.  Special cases: (2,0) Euler numbers, (3,0) Lehmer
numbers, (N,0) generalized Euler numbers, (1,1) Bernoulli numbers.
"""

from . import analytic, congruences, engine, exact, scanner
from .analytic import *  # noqa: F403 -- each library module's __all__ is the package API
from .congruences import *  # noqa: F403
from .engine import *  # noqa: F403
from .exact import *  # noqa: F403
from .scanner import *  # noqa: F403

__all__ = [*analytic.__all__, *congruences.__all__, *engine.__all__, *exact.__all__, *scanner.__all__]
__version__ = "0.1.0"
