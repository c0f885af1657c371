"""Every name a public ``__all__`` lists resolves on its module."""

from __future__ import annotations

import importlib

import pytest


@pytest.mark.parametrize("module", ["tsyblearn", "tsyblearn.geometry"])
def test_all_names_resolve(module):
    mod = importlib.import_module(module)
    assert len(set(mod.__all__)) == len(mod.__all__)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []
