"""Shared pytest wiring: replay acceptance-criterion lines at the end,
and measure the traced memory peak of a call."""

import tracemalloc

import pytest
from acceptance_log import LINES


@pytest.fixture
def traced_peak():
    """``traced_peak(fn)`` calls fn and returns its result and the peak
    bytes tracemalloc traced during the call."""
    def peak(fn):
        tracemalloc.start()
        try:
            return fn(), tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return peak


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if LINES:
        terminalreporter.section("acceptance criteria")
        for line in LINES:
            terminalreporter.write_line(line)
