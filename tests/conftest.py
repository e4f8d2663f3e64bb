"""Shared fixtures."""

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
def count_rows(monkeypatch):
    """Count the rows the exact recurrence computes from here on (one binomial row each)."""
    calls = []
    row = engine.binomial_row

    def counting_row(n, ks):
        calls.append(n)
        return row(n, ks)

    monkeypatch.setattr(engine, "binomial_row", counting_row)
    return calls
