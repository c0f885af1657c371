"""tsyblearn benchmark: one workload, one seed, one run.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload learn-gauss-fail --seed 1 --seconds 20 --trace 0

Workloads, metrics and units are declared in ``BENCHMARK.json``; what each
one measures is in ``perfbench/README.md``.  Each operation is one
in-process call to ``tsyblearn.cli.main``, run in a fresh worker process
(``worker.py``) that builds its inputs from ``--seed``.

``--trace 0``: the workload is set up ``SETUPS`` times, each time in a fresh
process timed from spawn to the end of its warm-up operation; the median is
``setup_s``.  The last of these processes then runs the closed loop for
``--seconds`` and reports the other end-to-end metrics.

``--trace 1``: one process runs every operation untraced and then traced,
and reports the per-layer metrics, the tracing overhead and the span
coverage of each operation's wall time.

The last line of stdout is a JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it holds the run
record (environment, argv of each operation, per-operation results), which
is also written to ``.perfbench/runs/``.  Exits non-zero, printing no result,
when the run cannot be completed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import selectors
import signal
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

SETUPS = 3
#: Wall-clock budget of one run, below the 180 s a run may take.
DEADLINE_S = 170.0
#: BLAS runs on one thread.  Each workload is one client, and its BLAS calls
#: are (n x d) by d products with d <= 20: a second thread gives the same
#: wall time for twice the CPU, and its spinning doubles the exposure to CPU
#: time stolen by other tenants of a shared host.
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                "MKL_NUM_THREADS": "1"}


class BenchError(Exception):
    """The run could not be completed; no result is printed."""


def read_events(proc: subprocess.Popen, deadline: float):
    """Yield ``(arrival time, event)`` for each JSON line the worker prints."""
    sel = selectors.DefaultSelector()
    sel.register(proc.stdout, selectors.EVENT_READ)
    buf = b""
    try:
        while True:
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                raise BenchError("worker exceeded the run's time budget")
            if not sel.select(timeout=remaining):
                continue
            chunk = os.read(proc.stdout.fileno(), 1 << 16)
            now = time.perf_counter()
            if not chunk:
                return
            buf += chunk
            *lines, buf = buf.split(b"\n")
            for line in lines:
                try:
                    yield now, json.loads(line)
                except json.JSONDecodeError:
                    sys.stderr.write(line.decode(errors="replace") + "\n")
    finally:
        sel.close()


def run_worker(args, role: str, workdir: Path, spans: Path, deadline: float):
    """Start one worker and wait for it; returns (set-up seconds, events)."""
    cmd = [
        sys.executable, str(Path(__file__).with_name("worker.py")),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--role", role,
        "--workdir", str(workdir), "--spans", str(spans),
    ]
    events, setup_s = {}, None
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, start_new_session=True,
                            env={**os.environ, **BLAS_THREADS})
    try:
        for now, event in read_events(proc, deadline):
            events[event["event"]] = event
            if event["event"] == "ready":
                setup_s = now - start
        rc = proc.wait(timeout=max(1.0, deadline - time.perf_counter()))
    finally:
        if proc.poll() is None:  # also stops a dataset generator it started
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        proc.stdout.close()
    wanted = {"ready", "warmup"} if role == "setup" else {"ready", "warmup", "result"}
    if rc != 0 or not wanted <= set(events):
        raise BenchError(f"{role} worker exited with {rc}, events {sorted(events)}")
    return setup_s, events


def machine() -> dict:
    """What the OS reports about this machine."""
    info = {"nproc": len(os.sched_getaffinity(0)), "cpu_model": platform.processor()}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    info["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
            shared = (index / "shared_cpu_list").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            caches[f"L{level}"] = {"size_per_instance": size, "shared_by_cpus": shared}
    info["caches"] = caches
    return info


def select(declared: list, measured: dict) -> dict:
    """Exactly the declared metrics, each with its declared unit."""
    out = {}
    for spec in declared:
        if spec["name"] not in measured:
            raise BenchError(f"metric {spec['name']} was not measured")
        out[spec["name"]] = {"value": measured[spec["name"]], "unit": spec["unit"]}
    return out


def _terminate(signum, frame):
    """SIGTERM unwinds like an error, so that workers are stopped."""
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="tsyblearn benchmark run")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)
    deadline = time.perf_counter() + DEADLINE_S
    root = Path.cwd()
    try:
        if not (root / "src" / "tsyblearn" / "cli.py").is_file():
            raise BenchError("no tsyblearn sources under src/ in this directory")
        spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
        if args.workload not in [w["name"] for w in spec["workloads"]]:
            raise BenchError(f"unknown workload {args.workload!r}")
        if args.seed < 0 or args.seconds <= 0:
            raise BenchError("need --seed >= 0 and --seconds > 0")
        tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        runs = root / ".perfbench" / "runs"
        work = root / ".perfbench" / "work" / f"{tag}-{os.getpid()}"
        runs.mkdir(parents=True, exist_ok=True)
        roles = ["traced"] if args.trace else ["setup"] * (SETUPS - 1) + ["timed"]
        setups, ready, errors = [], [], []
        try:
            for i, role in enumerate(roles):
                setup_s, events = run_worker(
                    args, role, work / str(i), runs / f"{tag}.spans.jsonl", deadline
                )
                shutil.rmtree(work / str(i), ignore_errors=True)
                setups.append(setup_s)
                ready.append(events["ready"])
                if not events["warmup"]["ok"]:
                    errors.append(f"warm-up failed: {events['warmup']['reason']}")
        finally:
            shutil.rmtree(work, ignore_errors=True)
        result = events["result"]
        errors += result["errors"]
        if args.trace:
            metrics = select(spec["per_layer"], result["metrics"])
        else:
            metrics = select(
                spec["end_to_end"],
                {**result["metrics"], "setup_s": statistics.median(setups)},
            )
    except (BenchError, OSError, ValueError, KeyError) as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine(),
        "environment": result["environment"], "argv": result["argv"],
        "setup_s": setups, "import_s": [r["import_s"] for r in ready],
        "errors": errors, "ops": result["ops"],
    }
    (runs / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    for line in errors:
        print(f"perfbench: {line}", file=sys.stderr)
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": result["failed"] == 0 and not errors,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
