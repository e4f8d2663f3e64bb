"""Shared fixtures."""

import sys

import pytest

from congruential_euler import engine


@pytest.fixture
def forget_tables():
    """Return a function that drops (N, j) tables from the in-process memo.

    The memo is shared by every test in the process; a test that counts the
    entries a run computes, or that stands for a fresh process, first drops
    the tables it uses.  They are dropped again after the test.
    """
    dropped = []

    def forget(*params):
        for key in params:
            engine._TABLES.pop(key, None)
        dropped.extend(params)

    yield forget
    for key in dropped:
        engine._TABLES.pop(key, None)


@pytest.fixture
def default_digit_limit():
    """Run with Python's default int/str digit limit, restoring the old one after."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this Python has no int/str digit limit")
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(old)


@pytest.fixture
def count_rows(monkeypatch):
    """Count the rows the exact recurrence computes from here on, recording Nn + j of each.

    Each row takes its divisor C(Nn+j, j) from one ``engine.comb`` call.
    """
    calls = []
    comb = engine.comb

    def counting_comb(n, k):
        calls.append(n)
        return comb(n, k)

    monkeypatch.setattr(engine, "comb", counting_comb)
    return calls
