"""One fresh benchmark process: import, set up, warm up, then measure.

Started by ``run.py``; not meant to be run by hand.  It talks to its parent
in JSON lines on stdout: ``{"event": "ready", ...}`` once set-up (import,
input generation and one untimed warm-up operation) is done, ``{"event":
"warmup", ...}`` with the warm-up's gate, and ``{"event": "result", ...}``
after the measured phase.  The program's own
stdout is captured per operation, so only these lines reach the parent.

Roles:

* ``setup``  -- stop after set-up; the parent times it from spawn to ready.
* ``timed``  -- closed loop of untraced operations for ``--seconds``;
  reports the end-to-end metrics.
* ``traced`` -- for ``--seconds``, runs every operation twice with the same
  inputs, untraced and then traced, and reports the per-layer metrics.

A run is made of whole cycles of the workload's operations, and every cycle
has the same inputs, so counts per operation repeat exactly for a seed.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import tracing
from workloads import Outcome, make

#: Largest share of a traced operation's wall time the spans may leave
#: uncovered before the self-time accounting is declared broken.
COVERAGE_SLACK = 0.01

BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def emit(event: dict) -> None:
    sys.stdout.write(json.dumps(event) + "\n")
    sys.stdout.flush()


def run_op(cli, op, out_dir: Path) -> tuple[float, object]:
    """One operation: ``cli.main(argv)`` in this process.  Returns the wall
    time and the exit code, or None when an exception escaped ``main``."""
    shutil.rmtree(out_dir, ignore_errors=True)
    argv = [*op.argv, "--output-dir", str(out_dir)]
    gc.collect()
    with contextlib.redirect_stdout(io.StringIO()):
        t0 = time.perf_counter()
        try:
            rc = cli.main(argv)
        except Exception:  # a traceback escaping main() fails the operation
            rc = None
        wall = time.perf_counter() - t0
    if rc is None:
        traceback.print_exc()
    return wall, rc


def gate(workload, op, rc, out_dir: Path) -> Outcome:
    if rc is None:
        return Outcome(False, 0, "traceback escaped main()")
    return workload.check(op, rc, out_dir)


def environment(working_set: dict) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {
            "name": blas.get("name"),
            "version": blas.get("version"),
            "config": blas.get("openblas configuration"),
            "env": {k: os.environ.get(k, "unset") for k in BLAS_ENV},
        },
        "working_set_bytes": working_set,
    }


def record(op, wall: float, rc, outcome: Outcome) -> dict:
    return {"label": op.label, "wall_s": wall, "rc": rc, "ok": outcome.ok,
            "samples": outcome.samples, "reason": outcome.reason}


def timed_phase(cli, workload, cycle, out_dir: Path, seconds: float) -> dict:
    ops, errors = [], []
    start = time.perf_counter()
    while True:
        for op in cycle:
            wall, rc = run_op(cli, op, out_dir)
            ops.append(record(op, wall, rc, gate(workload, op, rc, out_dir)))
        if time.perf_counter() - start >= seconds:
            break
    for i, op in enumerate(cycle):
        seen = {o["samples"] for o in ops[i::len(cycle)]}
        if len(seen) != 1:
            errors.append(f"{op.label}: samples_used differs across cycles {seen}")
    walls = [o["wall_s"] for o in ops]
    samples = [o["samples"] for o in ops]
    ok = sum(o["ok"] for o in ops)
    metrics = {
        "run_s_p50": statistics.median(walls),
        "samples_per_s": sum(samples) / sum(walls),
        "samples_used": float(statistics.median(samples)),
        "success_frac": ok / len(ops),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {"attempted": len(ops), "failed": len(ops) - ok, "metrics": metrics,
            "errors": errors, "ops": ops}


def traced_phase(cli, workload, cycle, out_dir: Path, seconds: float,
                 spans_path: Path, per_layer: list) -> dict:
    tracer = tracing.Tracer()
    ops, errors = [], [f"traced function not found: {m}" for m in tracer.missing]
    untraced, traced = [], []
    first_cycle = None
    start = time.perf_counter()
    while True:
        before = tracer.counts()
        for op in cycle:
            op_id = len(traced)
            wall_u, rc_u = run_op(cli, op, out_dir)
            plain = gate(workload, op, rc_u, out_dir)
            self_before = sum(s["self_s"] for s in tracer.stats.values())
            with tracer.operation(op_id):
                wall_t, rc_t = run_op(cli, op, out_dir)
            self_sum = sum(s["self_s"] for s in tracer.stats.values()) - self_before
            seen = gate(workload, op, rc_t, out_dir)
            untraced.append(wall_u)
            traced.append(wall_t)
            ops.append({**record(op, wall_u, rc_u, plain), "mode": "untraced"})
            ops.append({**record(op, wall_t, rc_t, seen), "mode": "traced"})
            if (rc_u, plain.samples) != (rc_t, seen.samples):
                errors.append(
                    f"op {op_id} {op.label}: untraced (rc {rc_u}, samples "
                    f"{plain.samples}) != traced (rc {rc_t}, samples {seen.samples})"
                )
            if not (1.0 - COVERAGE_SLACK <= self_sum / wall_t <= 1.0 + 1e-9):
                errors.append(
                    f"op {op_id}: span self times sum to {self_sum:.6f} s of "
                    f"{wall_t:.6f} s wall"
                )
        after = tracer.counts()
        delta = {n: dict(after[n] - before[n]) for n in after}
        if first_cycle is None:
            first_cycle = delta
        elif delta != first_cycle:
            errors.append(f"cycle counts differ: {delta} != {first_cycle}")
        if time.perf_counter() - start >= seconds:
            break
    tracer.write(spans_path)
    metrics = layer_metrics(tracer, per_layer, traced, untraced, errors)
    ok = sum(o["ok"] for o in ops)
    return {"attempted": len(ops), "failed": len(ops) - ok, "metrics": metrics,
            "errors": errors, "ops": ops}


def _ratio(num: float, den: float) -> float:
    """``num / den``, and 0 when nothing was attempted."""
    return num / den if den else 0.0


def layer_metrics(tracer, names: list, traced: list, untraced: list,
                  errors: list) -> dict:
    """Per-layer metrics, per traced operation.  Counts and self times are
    means over the traced operations; ratios are ratios of the totals."""
    stats = tracer.stats
    n = len(traced)
    wall = sum(traced)
    derived = {
        "synthetic.sample_batch.rows_per_s": _ratio(
            stats["synthetic.sample_batch"]["rows"],
            stats["synthetic.sample_batch"]["total_s"]),
        "certificate.band_survival": _ratio(
            stats["certificate.transform"]["rows_kept"],
            stats["certificate.transform"]["rows_in"]),
        "certificate.holdout_accept_ratio": _ratio(
            stats["certificate.compute_certificate"]["witnesses"],
            stats["certificate.scan_thresholds"]["hits"]),
        "certificate.witness_ratio": _ratio(
            stats["certificate.compute_certificate"]["witnesses"],
            stats["certificate.compute_certificate"]["calls"]),
        "warmstart.band_survival": _ratio(
            stats["warmstart.random_band_project"]["rows_kept"],
            stats["warmstart.random_band_project"]["rows_in"]),
        "trace.overhead": statistics.median(traced) / statistics.median(untraced),
        "trace.coverage": sum(s["self_s"] for s in stats.values()) / wall,
    }
    for layer in tracing.LAYERS:
        derived[f"{layer}.self_share"] = sum(
            s["self_s"] for name, s in stats.items()
            if name.split(".")[0] == layer) / wall
    metrics = {}
    for name in names:
        if name in derived:
            metrics[name] = derived[name]
            continue
        span, _, key = name.rpartition(".")
        if span not in stats:
            errors.append(f"no span {span!r} for metric {name!r}")
            continue
        metrics[name] = stats[span][key] / n
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--role", choices=("setup", "timed", "traced"), required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--spans", type=Path)
    args = parser.parse_args()

    sys.path.insert(0, str(Path("src").resolve()))
    t0 = time.perf_counter()
    from tsyblearn import cli

    import_s = time.perf_counter() - t0
    workload = make(args.workload, args.seed)
    args.workdir.mkdir(parents=True, exist_ok=True)
    working_set = workload.prepare(args.workdir)
    cycle = workload.cycle()
    out_dir = args.workdir / "op"
    wall, rc = run_op(cli, cycle[0], out_dir)
    emit({"event": "ready", "import_s": import_s, "warmup_s": wall})
    warm = gate(workload, cycle[0], rc, out_dir)
    emit({"event": "warmup", "ok": warm.ok, "reason": warm.reason})
    if args.role == "setup":
        return 0
    if args.role == "timed":
        result = timed_phase(cli, workload, cycle, out_dir, args.seconds)
    else:
        spec = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
        per_layer = [m["name"] for m in spec["per_layer"]]
        result = traced_phase(cli, workload, cycle, out_dir, args.seconds,
                              args.spans, per_layer)
    emit({"event": "result", "environment": environment(working_set),
          "argv": [list(op.argv) for op in cycle], **result})
    return 0


if __name__ == "__main__":
    sys.exit(main())
