"""Spans around the public functions of each tsyblearn layer.

Nothing under ``src/`` is changed: while a traced operation runs, every
binding of a traced function (in any ``tsyblearn`` module, or as a method in
a class defined there) is replaced by a wrapper found by object identity, and
the originals are put back afterwards.  A binding a refactor moves away from
the wrapped object therefore shows up as a span with zero calls rather than
going silently uncounted.

Spans (name, start, end, parent, operation id) are kept in memory and written
out when the benchmark ends.  A span's self time is its duration minus the
durations of its child spans; the run is single-threaded, so children never
overlap and the self times of one operation sum to its root span.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter
from pathlib import Path

LAYERS = ("synthetic", "geometry", "certificate", "warmstart", "learner", "cli")


def _rows_out(args, kwargs, result, exc):
    if result is None:
        return {}
    rows, d = result.x.shape
    return {"rows": rows, "bytes": rows * (8 * d + 1)}


def _rows_in(args, kwargs, result, exc):
    return {"rows": len(args[0])}


def _band(args, kwargs, result, exc):
    if result is None:
        return {"rows_in": len(args[0])}
    return {"rows_in": int(result.n_input), "rows_kept": len(result)}


def _hit(args, kwargs, result, exc):
    return {"hits": int(exc is None and result is not None)}


def _witness(args, kwargs, result, exc):
    return {"witnesses": int(exc is None and result is not None)}


def _rounds(args, kwargs, result, exc):
    return {"rounds": 0 if result is None else len(result[1].rounds)}


def _failure(args, kwargs, result, exc):
    return {"failures": int(exc is not None)}


def _nonconverged(args, kwargs, result, exc):
    return {"nonconverged": int(exc is not None)}


def _main_failure(args, kwargs, result, exc):
    return {"failures": int(exc is not None or result not in (0, 3))}


def _nothing(args, kwargs, result, exc):
    return {}


#: (module, attribute path, span name, counter).  Two oracle classes share
#: the ``learner.query`` span; ``_rejection_indices`` is the rejection step
#: ``warm_start`` runs.
TRACED = (
    ("synthetic", "sample_batch", "synthetic.sample_batch", _rows_out),
    ("synthetic", "noise_rates", "synthetic.noise_rates", _nothing),
    ("synthetic", "read_binary", "synthetic.read_binary", _rows_out),
    ("synthetic", "disagreement_error", "synthetic.disagreement_error", _nothing),
    ("geometry", "perspective_projection_batch",
     "geometry.perspective_projection_batch", _rows_in),
    ("certificate", "transform", "certificate.transform", _band),
    ("certificate", "scan_thresholds", "certificate.scan_thresholds", _hit),
    ("certificate", "update_direction", "certificate.update_direction", _nothing),
    ("certificate", "certificate_value", "certificate.certificate_value", _nothing),
    ("certificate", "compute_certificate", "certificate.compute_certificate",
     _witness),
    ("warmstart", "warm_start", "warmstart.warm_start", _failure),
    ("warmstart", "random_band_project", "warmstart.random_band_project", _band),
    ("warmstart", "psgd_stationary_point", "warmstart.psgd_stationary_point",
     _nonconverged),
    ("warmstart", "_rejection_indices", "warmstart.rejection", _nothing),
    ("warmstart", "standardize", "warmstart.standardize", _nothing),
    ("warmstart", "chow_parameters", "warmstart.chow_parameters", _nothing),
    ("warmstart", "build_subspace", "warmstart.build_subspace", _nothing),
    ("learner", "learn", "learner.learn", _rounds),
    ("learner", "WellBehavedCertOracle.query", "learner.query", _witness),
    ("learner", "LogConcaveWarmStartOracle.query", "learner.query", _witness),
    ("learner", "loss_gradient", "learner.loss_gradient", _nothing),
    ("cli", "main", "cli.main", _main_failure),
)

SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name, _ in TRACED))


class Tracer:
    """Records spans and per-span counts for the operations it is told of."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.stats: dict[str, Counter] = {n: Counter() for n in SPAN_NAMES}
        self.missing: list[str] = []
        self.op_id = -1
        self._stack: list[list] = []
        self._wrappers = self._build_wrappers()

    # -- span bookkeeping ---------------------------------------------------

    def _open(self, name: str) -> list:
        parent = self._stack[-1][0] if self._stack else None
        frame = [len(self.spans), parent, name, time.perf_counter(), 0.0]
        self.spans.append(None)
        self._stack.append(frame)
        return frame

    def _close(self, frame: list, counts: dict) -> None:
        end = time.perf_counter()
        span_id, parent, name, start, child = frame
        self._stack.pop()
        duration = end - start
        if self._stack:
            self._stack[-1][4] += duration
        self.spans[span_id] = (span_id, parent, self.op_id, name, start, end)
        stat = self.stats[name]
        stat["calls"] += 1
        stat["self_s"] += duration - child
        stat["total_s"] += duration
        stat.update(counts)

    def _wrap(self, fn, name: str, count):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._close(frame, count(args, kwargs, None, exc))
                raise
            self._close(frame, count(args, kwargs, result, None))
            return result

        return traced

    # -- installation -------------------------------------------------------

    def _build_wrappers(self) -> dict:
        """Map ``id(original) -> (original, wrapper)`` for every traced target."""
        wrappers = {}
        for module, path, name, count in TRACED:
            obj = importlib.import_module(f"tsyblearn.{module}")
            try:
                for part in path.split("."):
                    obj = getattr(obj, part)
            except AttributeError:
                self.missing.append(f"{module}.{path}")
                continue
            wrappers[id(obj)] = (obj, self._wrap(obj, name, count))
        return wrappers

    def _bindings(self):
        """Yield ``(namespace owner, attribute, value)`` for every binding of
        a traced function in loaded tsyblearn modules and their classes."""
        classes = {}
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "tsyblearn" and not mod_name.startswith("tsyblearn."):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in self._wrappers:
                    yield module, attr, value
                elif isinstance(value, type) and value.__module__.startswith(
                    "tsyblearn"
                ):
                    classes[id(value)] = value
        for cls in classes.values():
            for attr, value in list(vars(cls).items()):
                if id(value) in self._wrappers:
                    yield cls, attr, value

    def operation(self, op_id: int) -> "_Installed":
        """Context manager: wrappers are installed only while it is open."""
        return _Installed(self, op_id)

    def counts(self) -> dict:
        """Every count (not time) recorded so far, for exact comparisons."""
        return {
            name: Counter({k: v for k, v in stat.items() if not k.endswith("_s")})
            for name, stat in self.stats.items()
        }

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent, op_id, name, start, end in self.spans:
                fh.write(
                    json.dumps(
                        {"id": span_id, "parent": parent, "op": op_id,
                         "name": name, "start": start, "end": end}
                    ) + "\n"
                )


class _Installed:
    def __init__(self, tracer: Tracer, op_id: int) -> None:
        self.tracer = tracer
        self.op_id = op_id
        self.saved: list[tuple] = []

    def __enter__(self) -> "_Installed":
        self.tracer.op_id = self.op_id
        for owner, attr, value in list(self.tracer._bindings()):
            self.saved.append((owner, attr, value))
            setattr(owner, attr, self.tracer._wrappers[id(value)][1])
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, value in self.saved:
            setattr(owner, attr, value)
        self.saved.clear()
        self.tracer.op_id = -1
