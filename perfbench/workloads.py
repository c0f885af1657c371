"""The benchmark's workloads: the argv of each operation and its correctness gate.

An operation is one in-process call to ``tsyblearn.cli.main(argv)``.  A
workload is a fixed cycle of operations built from the benchmark seed; a run
repeats whole cycles, so every count it reports repeats exactly for a seed.

The gates check properties of the outputs (exit code, ``metrics.csv``,
``witness.json``, a witness re-measured on the dataset rows), never bytes, so
a change that keeps the sampling law but not the byte stream still passes.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import struct
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

#: An angle (rad) the learner must reach; the seed code lands at 0.02-0.09.
LEARN_MAX_ANGLE = 0.15

LEARN_FLAGS = {
    "learn-gauss-fail": [
        "--family", "gaussian", "-d", "5", "--noise", "constant_rate",
        "--alpha", "0.5", "--eta0", "0.2", "--oracle", "WellBehavedRandomInit",
        "--oracle-samples", "200000", "--start", "zero", "--epsilon", "0.15",
        "--repeats", "1",
    ],
    "learn-laplace-warm": [
        "--family", "laplace", "-d", "5", "--noise", "margin_power_law",
        "--alpha", "0.5", "--oracle", "LogConcaveWarmStart",
        "--oracle-samples", "200000", "--start", "zero", "--epsilon", "0.15",
        "--repeats", "1",
    ],
}

CERTIFY_DIM = 20
CERTIFY_ROWS = 1_000_000
#: Angles (rad) of the queried w from the planted target e1, in the e1-e2
#: plane.  At 0 the dataset runs out and the honest answer is Fail; at the
#: other two the search must return a witness.  Not 0.3: there the seed code
#: runs out of rows in its first restart and returns an honest Fail on about
#: a third of the seeds (9 of 30 tried), while 0.6 and 1.2 certified on
#: every one of 90.
CERTIFY_ANGLES = (0.0, 0.6, 1.2)
#: Rows per chunk when a witness is re-measured on the dataset file.
RECHECK_CHUNK = 1 << 16
BINARY_HEADER = struct.Struct("<5sIQ")


def derive_seed(workload: str, seed: int) -> int:
    """The ``--seed`` handed to the program: a pure function of the inputs."""
    digest = hashlib.sha256(f"{workload}:{seed}".encode()).digest()
    return int.from_bytes(digest[:4], "little") >> 1


@dataclass
class Outcome:
    """What the gate read back from one operation."""

    ok: bool
    samples: int
    reason: str = ""


@dataclass(frozen=True)
class Op:
    label: str
    argv: tuple
    w: tuple = ()


class LearnWorkload:
    """One ``learn`` run per operation, starting from the zero iterate."""

    def __init__(self, name: str, seed: int) -> None:
        self.name = name
        self.seed = derive_seed(name, seed)

    def prepare(self, workdir: Path) -> dict:
        """Nothing to generate; returns the computed working set."""
        oracle_samples = int(_flag(LEARN_FLAGS[self.name], "--oracle-samples"))
        d = int(_flag(LEARN_FLAGS[self.name], "-d"))
        return {"batch_bytes": oracle_samples * (8 * d + 1), "dataset_bytes": 0}

    def cycle(self) -> list[Op]:
        argv = ("learn", *LEARN_FLAGS[self.name], "--seed", str(self.seed))
        return [Op("learn", argv)]

    def check(self, op: Op, rc: int, out_dir: Path) -> Outcome:
        if rc != 0:
            return Outcome(False, 0, f"exit code {rc}")
        try:
            with open(out_dir / "metrics.csv", newline="", encoding="utf-8") as fh:
                rows = list(csv.DictReader(fh))
        except OSError as err:
            return Outcome(False, 0, f"metrics.csv unreadable: {err}")
        if len(rows) != 1:
            return Outcome(False, 0, f"metrics.csv has {len(rows)} rows")
        row = rows[0]
        try:
            samples = int(row["samples_used"])
            final_angle = float(row["final_angle"])
        except (KeyError, ValueError) as err:
            return Outcome(False, 0, f"metrics.csv malformed: {err}")
        if row.get("stop_reason") != "OracleFail":
            return Outcome(False, samples, f"stop_reason {row.get('stop_reason')!r}")
        if not (0.0 <= final_angle <= LEARN_MAX_ANGLE):
            return Outcome(False, samples, f"final_angle {final_angle}")
        if samples <= 0:
            return Outcome(False, samples, "no samples charged")
        return Outcome(True, samples)


class CertifyWorkload:
    """``certify`` against one generated d=20 binary dataset, w cycling angles."""

    def __init__(self, name: str, seed: int) -> None:
        self.seed = derive_seed(name, seed)
        self.dataset: Optional[Path] = None

    def generate_argv(self, out_dir: Path) -> list[str]:
        return [
            "generate", "--family", "gaussian", "-d", str(CERTIFY_DIM),
            "--eta0", "0.2", "--n", str(CERTIFY_ROWS), "--format", "binary",
            "--seed", str(self.seed), "--output-dir", str(out_dir),
        ]

    def prepare(self, workdir: Path) -> dict:
        """Generate the dataset in a child process, so that the peak memory
        of generation stays out of the workload process's ``ru_maxrss``."""
        data_dir = workdir / "data"
        cmd = [sys.executable, "-m", "tsyblearn", *self.generate_argv(data_dir)]
        env = dict(os.environ, PYTHONPATH="src")
        done = subprocess.run(cmd, env=env, stdout=subprocess.DEVNULL, timeout=120)
        if done.returncode != 0:
            raise RuntimeError(f"generate exited with {done.returncode}")
        self.dataset = data_dir / "dataset.bin"
        size = self.dataset.stat().st_size
        expected = BINARY_HEADER.size + CERTIFY_ROWS * (8 * CERTIFY_DIM + 1)
        if size != expected:
            raise RuntimeError(f"dataset has {size} bytes, expected {expected}")
        return {
            "batch_bytes": 50_000 * (8 * CERTIFY_DIM + 1),
            "dataset_bytes": size,
        }

    def cycle(self) -> list[Op]:
        ops = []
        for a in CERTIFY_ANGLES:
            w = np.zeros(CERTIFY_DIM)
            w[0], w[1] = math.cos(a), math.sin(a)
            argv = (
                "certify", "--dataset", str(self.dataset),
                "--w", ",".join(repr(float(v)) for v in w),
                "--eta0", "0.2", "--epsilon", "0.15",
                "--oracle-samples", "50000", "--seed", str(self.seed),
            )
            ops.append(Op(f"angle={a}", argv, tuple(w)))
        return ops

    def check(self, op: Op, rc: int, out_dir: Path) -> Outcome:
        if rc not in (0, 3):
            return Outcome(False, 0, f"exit code {rc}")
        try:
            payload = json.loads((out_dir / "witness.json").read_text("utf-8"))
            rows = int(payload["diagnostics"]["n"])
            certified = bool(payload["certified"])
        except (OSError, ValueError, KeyError, TypeError) as err:
            return Outcome(False, 0, f"witness.json unreadable: {err}")
        if rows != CERTIFY_ROWS:
            return Outcome(False, rows, f"read {rows} rows, dataset has {CERTIFY_ROWS}")
        if certified != (rc == 0):
            return Outcome(False, rows, f"certified={certified} with exit {rc}")
        if op.label == "angle=0.0":
            if certified:
                return Outcome(False, rows, "false certificate at angle 0")
            return Outcome(True, rows)
        if not certified:
            return Outcome(False, rows, f"Fail at {op.label}")
        witness = payload["witness"]
        if not np.allclose(witness["w"], op.w, rtol=0.0, atol=1e-12):
            return Outcome(False, rows, "witness is for another w")
        value = self.remeasure(witness)
        if not value < 0.0:
            return Outcome(False, rows, f"witness re-measured at {value} >= 0")
        return Outcome(True, rows)

    def remeasure(self, witness: dict) -> float:
        """``mean(T(x) * y * <w, x>)`` of the witness over every dataset row.

        Computed here from the file, independently of the program: ``T(x) *
        <w, x>`` is the indicator of the band ``sigma1 <= <w, x> <= sigma2``
        and the window ``-t1 <= <v, x> / <w, x> <= -t2``.
        """
        w = np.asarray(witness["w"], dtype=np.float64)
        v = np.asarray(witness["v"], dtype=np.float64)
        s1, s2 = float(witness["sigma1"]), float(witness["sigma2"])
        t1, t2 = float(witness["t1"]), float(witness["t2"])
        rec = np.dtype([("x", "<f8", (CERTIFY_DIM,)), ("y", "i1")])
        total = 0
        with open(self.dataset, "rb") as fh:
            fh.seek(BINARY_HEADER.size)
            while True:
                chunk = np.fromfile(fh, dtype=rec, count=RECHECK_CHUNK)
                if len(chunk) == 0:
                    break
                x, y = chunk["x"], chunk["y"]
                s = x @ w
                band = (s >= s1) & (s <= s2)
                ratio = (x[band] @ v) / s[band]
                window = (ratio >= -t1) & (ratio <= -t2)
                total += int(y[band][window].astype(np.int64).sum())
        return total / CERTIFY_ROWS


def _flag(flags: list[str], name: str) -> str:
    return flags[flags.index(name) + 1]


WORKLOADS = {
    "learn-gauss-fail": LearnWorkload,
    "learn-laplace-warm": LearnWorkload,
    "certify-dataset-d20": CertifyWorkload,
}


def make(name: str, seed: int):
    return WORKLOADS[name](name, seed)
