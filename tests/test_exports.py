"""Every name a public ``__all__`` lists, and every function the benchmark's
tracer wraps, resolves on its module; the learner's retired step does not."""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest


@pytest.mark.parametrize("module", ["tsyblearn", "tsyblearn.geometry"])
def test_all_names_resolve(module):
    mod = importlib.import_module(module)
    assert len(set(mod.__all__)) == len(mod.__all__)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []


@pytest.mark.parametrize("path", [
    "tsyblearn.learner.ogd_step",
    "tsyblearn.learner.rho_for_well_behaved",
    "tsyblearn.learner.WellBehavedCertOracle.rho",
    "tsyblearn.geometry.project_to_ball",
])
def test_the_retired_learner_step_is_gone(path):
    # The learner turns its unit iterate; the ball-projected step and the
    # certificate-magnitude floor that weighted it are not exported anywhere.
    parts = path.split(".")
    obj = importlib.import_module(".".join(parts[:2]))
    for attr in parts[2:-1]:
        obj = getattr(obj, attr)
    name = parts[-1]
    assert not hasattr(obj, name)
    pkg = importlib.import_module("tsyblearn")
    assert not hasattr(pkg, name)
    assert name not in pkg.__all__


def load_tracing():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_traced_names_resolve():
    # A traced name that no longer resolves makes every ``--trace 1``
    # benchmark run report ``"correct": false``.
    assert load_tracing().Tracer().missing == []


def test_tracer_counts_a_nonconverged_tilt_fit():
    # The tracer counts a tilt fit as nonconverged when it raises.
    from tsyblearn import warmstart
    from tsyblearn.errors import Nonconvergence

    x = np.random.default_rng(10).standard_normal((5_000, 2)) + [0.5, 0.0]
    tracer = load_tracing().Tracer()
    with tracer.operation(0), pytest.raises(Nonconvergence):
        warmstart.psgd_stationary_point(x, gamma=1e-4, iters=1)
    assert tracer.counts()["warmstart.psgd_stationary_point"]["nonconverged"] == 1
