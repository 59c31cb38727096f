"""Shared test plumbing: the acceptance ledger, a memory probe, a tree comparator, a row reader.

Tests that verify a numbered shipping criterion record exactly one line via
the ``acceptance`` fixture; the lines are printed together at the end of the
run so every ``pytest`` invocation shows a compact pass/fail ledger.  The
``peak_bytes`` fixture measures the working set of one call, and
``tree_diff`` compares two output trees file by file.  ``packed_rows``
reads a series' packed rows whole, for the tests that compare or inspect them,
and ``correlation_of`` gives the tests that only need a correlation matrix one.
"""

import tracemalloc
from pathlib import Path

import numpy as np
import pytest

_RESULTS: list[tuple[int, str, str, str]] = []


def packed_rows(series):
    """The read-only (epochs, N(N+1)/2) packed rows of a series: a view of rows in memory, or
    a new array read whole from the file that holds them."""
    return series._read(0, None)


def correlation_of(X):
    """The correlation matrix of the rows of sample block ``X``, exactly symmetric, unit diagonal.

    np.corrcoef alone may differ from its transpose in the last bits, and a
    series refuses a matrix that is not exactly symmetric.
    """
    C = np.corrcoef(X)
    C = (C + C.T) / 2.0
    np.fill_diagonal(C, 1.0)
    return C


@pytest.fixture
def acceptance():
    def record(number: int, title: str, status, detail: str) -> None:
        if isinstance(status, bool):
            status = "PASS" if status else "FAIL"
        _RESULTS.append((number, title, status, detail))

    return record


def _peak_bytes(fn) -> int:
    """Peak bytes allocated while ``fn()`` runs, counted from its start (tracemalloc)."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture
def peak_bytes():
    return _peak_bytes


def _tree_diff(a, b, skip=()) -> list[str]:
    """Relative paths of the files that differ between trees a and b or exist in one only.

    Paths listed in ``skip`` (relative, '/'-separated) are left out on both sides.
    """
    def files(root):
        root = Path(root)
        return {rel: path for path in root.rglob("*")
                if path.is_file() and (rel := path.relative_to(root).as_posix()) not in skip}

    left, right = files(a), files(b)
    return sorted(rel for rel in left.keys() | right.keys()
                  if rel not in left or rel not in right
                  or left[rel].read_bytes() != right[rel].read_bytes())


@pytest.fixture
def tree_diff():
    return _tree_diff


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for number, title, status, detail in sorted(_RESULTS):
        terminalreporter.write_line(f"criterion {number:>2} [{status}] {title}: {detail}")
