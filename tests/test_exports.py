"""Every name a public ``__all__`` lists, and every function the benchmark's
tracer wraps, resolves on its module."""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest


@pytest.mark.parametrize("module", ["tsyblearn", "tsyblearn.geometry"])
def test_all_names_resolve(module):
    mod = importlib.import_module(module)
    assert len(set(mod.__all__)) == len(mod.__all__)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []


def test_traced_names_resolve():
    # A traced name that no longer resolves makes every ``--trace 1``
    # benchmark run report ``"correct": false``.
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.Tracer().missing == []
