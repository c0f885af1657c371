"""Shared pytest configuration: oracle helpers on the path and the
acceptance report."""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

# One line per acceptance criterion, echoed after the run so the verdicts are
# visible even though pytest captures in-test prints.
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter) -> None:
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for line in ACCEPTANCE_LINES:
        terminalreporter.write_line(line)
