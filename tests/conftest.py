"""Shared pytest wiring: replay acceptance-criterion lines at the end,
and measure the traced memory peak of a call."""

import sys
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


@pytest.fixture
def default_int_str_cap():
    """Put back the interpreter's default 4,300-digit cap on int/str
    conversion, which main lifts for the rest of the process."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if LINES:
        terminalreporter.section("acceptance criteria")
        for line in LINES:
            terminalreporter.write_line(line)
