"""Shared pytest configuration: oracle helpers on the path, a check that no
read-ahead thread outlives a test, and the acceptance report."""

from __future__ import annotations

import sys
import threading
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

# One line per acceptance criterion, echoed after the run so the verdicts are
# visible even though pytest captures in-test prints.
ACCEPTANCE_LINES: list[str] = []


@pytest.fixture(autouse=True)
def no_read_ahead_thread_left():
    """Fail a test that leaves a read-ahead worker thread alive: the thread
    must end with the search or query that started it, also on an error."""
    yield
    left = [t.name for t in threading.enumerate() if t.name.startswith("tsyblearn-band")]
    if left:
        pytest.fail(f"read-ahead threads left alive: {left}")


def pytest_terminal_summary(terminalreporter) -> None:
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for line in ACCEPTANCE_LINES:
        terminalreporter.write_line(line)
