"""The README's library quick start runs as written."""

from __future__ import annotations

import contextlib
import io
import math
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def quick_start_block() -> str:
    text = README.read_text(encoding="utf-8")
    match = re.search(r"## Library quick start\n\n```python\n(.*?)```", text, re.S)
    assert match is not None, "README has no library quick-start block"
    return match.group(1)


def test_quick_start_learns_the_target():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(quick_start_block(), str(README), "exec"), {})
    stop, cosine = out.getvalue().split()
    assert stop == "StopReason.ORACLE_FAIL"
    assert float(cosine) >= math.cos(0.15)
