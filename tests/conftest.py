"""Shared test plumbing: the acceptance-criteria summary section and a memory probe.

Tests that verify a numbered shipping criterion record exactly one line via
the ``acceptance`` fixture; the lines are printed together at the end of the
run so every ``pytest`` invocation shows a compact pass/fail ledger.  The
``peak_bytes`` fixture measures the working set of one call.
"""

import tracemalloc

import pytest

_RESULTS: list[tuple[int, str, str, str]] = []


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


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for number, title, status, detail in sorted(_RESULTS):
        terminalreporter.write_line(f"criterion {number:>2} [{status}] {title}: {detail}")
