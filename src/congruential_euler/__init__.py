"""Exact computation and verification toolkit for congruential Euler numbers.

The numbers E_{Nn}^{(N,j)} are the EGF coefficients of the inverse of
sum_n z^{Nn}/(Nn+j)!.  Special cases: (2,0) Euler numbers, (3,0) Lehmer
numbers, (N,0) generalized Euler numbers, (1,1) Bernoulli numbers.

The package exports every name in its library modules' ``__all__`` lists.
Names load on first use (PEP 562): ``import congruential_euler`` imports
none of the library modules, and a name imports the modules it is looked
up in.  Likewise each ``ceuler`` subcommand imports only the library
modules it runs.
"""

from importlib import import_module

__version__ = "0.1.0"

# the library modules, each after the modules it imports: a public name is
# looked up in this order, so it loads no module it does not need
_MODULES = ("exact", "engine", "congruences", "scanner", "analytic")


def __getattr__(name: str):
    if name in _MODULES or name == "cli":  # `from congruential_euler import cli` asks here first
        return import_module(f".{name}", __name__)
    if name == "__all__":
        value = [public for module in _MODULES for public in __getattr__(module).__all__]
    else:
        # lazily: the search stops at the first match, and dunder probes such as
        # __wrapped__ load nothing
        modules = () if name.startswith("_") else map(__getattr__, _MODULES)
        home = next((module for module in modules if name in module.__all__), None)
        if home is None:
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
        value = getattr(home, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__getattr__("__all__")})
