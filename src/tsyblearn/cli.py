"""Batch experiment front-end.

Subcommands: ``generate`` (dataset files), ``certify`` (one-shot certificate
search), ``learn`` (end-to-end runs with metrics), ``warmstart``
(initialization diagnostics), and ``sweep`` (parameter grids in a worker
pool).  Configuration comes from an optional JSON file plus command-line
overrides; every invocation dumps the effective configuration next to its
outputs so runs can be reproduced exactly.

Primary outputs (datasets, JSON, JSONL, CSV) are byte-deterministic for a
fixed configuration: wall-clock timings go to a ``meta.json`` sidecar and the
``wall_ms`` CSV column is fixed at 0.  Exit codes: 0 success, 2 bad
usage/configuration, 3 honest certificate Fail, 4 internal contract
violation.
"""

from __future__ import annotations

import argparse
import copy
import csv
import itertools
import json
import logging
import math
import os
import re
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass
from multiprocessing import Pool
from pathlib import Path
from typing import Optional

import numpy as np

from .certificate import random_init, search_certificate
from .errors import (
    InvalidConfig,
    OracleContractViolation,
    TsyblearnError,
    UnsupportedFamily,
)
from .geometry import angle, orth_component
from .learner import (
    CertOutcome,
    LearnerConfig,
    LogConcaveWarmStartOracle,
    StopReason,
    WellBehavedCertOracle,
    angle_to_error,
    learn,
    model_payload,
)
from .synthetic import (
    Family,
    InstanceSpec,
    LabeledBatch,
    MarginalSpec,
    SampleStream,
    adversarialish,
    batch_base,
    constant_rate,
    disagreement_error,
    margin_power_law,
    read_binary,
    read_text,
    sample_batch,
    well_behaved_params,
    write_binary,
    write_text,
)
from .warmstart import WarmStartConfig, warm_start

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_FAIL = 3
EXIT_INTERNAL = 4

ORACLE_NAMES = ("WellBehavedRandomInit", "LogConcaveWarmStart")
NOISE_PROFILES = ("constant_rate", "margin_power_law", "adversarialish")
SWEEP_KEYS = ("alpha", "big_a", "d", "n", "epsilon")

SCHEMA_VERSION = 1
METRICS_HEADER = [
    "schema_version",
    "family",
    "dimension",
    "n",
    "alpha",
    "big_a",
    "noise",
    "epsilon",
    "oracle",
    "seed",
    "repeat",
    "final_angle",
    "final_01_error",
    "rounds_used",
    "samples_used",
    "wall_ms",
    "cert_value",
    "stop_reason",
]

DEFAULT_CONFIG = {
    "instance": {
        "family": "gaussian",
        "dimension": 5,
        "seed": 0,
        "target": None,
        "theta0": None,
        "noise": {
            "profile": "constant_rate",
            "alpha": 0.5,
            "eta0": 0.1,
            "big_a": None,
            "scale": 1.0,
            "sectors": 12,
            "profile_seed": 0,
        },
    },
    "learner": {
        "epsilon": 0.15,
        "delta": 0.05,
        "rho_eps": None,
        "max_rounds": 20,
        "samples_n": 200_000,
        "start": "zero",
    },
    "oracle": "WellBehavedRandomInit",
    "oracle_samples": 50_000,
    "warm_samples": 400_000,
    "sweep": None,
    "output_dir": "out",
    "repeats": 1,
    "n": 100_000,
    "format": "text",
    "out": None,
    "w": None,
    "dataset": None,
    "auto_c": False,
    "eval_n": 100_000,
}


# ---------------------------------------------------------------------------
# Configuration plumbing
# ---------------------------------------------------------------------------


def _fmt(value) -> str:
    """Deterministic CSV cell rendering."""
    if value is None:
        return ""
    if isinstance(value, float):
        return "%.17g" % value
    return str(value)


@dataclass(frozen=True)
class MetricsRow:
    """One learning run: configuration coordinates plus outcome metrics.

    ``wall_ms`` is fixed at 0 in the CSV for byte-determinism; real timings
    live in the ``meta.json`` sidecar.
    """

    family: str
    dimension: int
    n: int
    alpha: float
    big_a: float
    noise: str
    epsilon: float
    oracle: str
    seed: int
    repeat: int
    final_angle: Optional[float]
    final_01_error: Optional[float]
    rounds_used: int
    samples_used: int
    cert_value: Optional[float]
    stop_reason: str

    def __post_init__(self) -> None:
        if self.final_angle is not None and not (
            0.0 <= self.final_angle <= math.pi + 1e-12
        ):
            raise InvalidConfig(
                f"final_angle out of [0, pi]: {self.final_angle}"
            )
        if self.final_01_error is not None and not (
            0.0 <= self.final_01_error <= 1.0
        ):
            raise InvalidConfig(
                f"final_01_error out of [0, 1]: {self.final_01_error}"
            )

    def to_csv(self) -> list:
        return [
            _fmt(v)
            for v in (
                SCHEMA_VERSION,
                self.family,
                self.dimension,
                self.n,
                self.alpha,
                self.big_a,
                self.noise,
                self.epsilon,
                self.oracle,
                self.seed,
                self.repeat,
                self.final_angle,
                self.final_01_error,
                self.rounds_used,
                self.samples_used,
                0,
                self.cert_value,
                self.stop_reason,
            )
        ]


def _deep_merge(base: dict, overlay: dict) -> dict:
    out = copy.deepcopy(base)
    for key, value in overlay.items():
        if (
            key in out
            and isinstance(out[key], dict)
            and isinstance(value, dict)
        ):
            out[key] = _deep_merge(out[key], value)
        else:
            out[key] = copy.deepcopy(value)
    return out


def load_config(path: Optional[str]) -> dict:
    """Defaults overlaid with the JSON config file (when given)."""
    cfg = copy.deepcopy(DEFAULT_CONFIG)
    if path is None:
        return cfg
    try:
        with open(path, "r", encoding="utf-8") as fh:
            loaded = json.load(fh)
    except OSError as err:
        raise InvalidConfig(f"cannot read config {path}: {err}") from err
    except json.JSONDecodeError as err:
        raise InvalidConfig(f"config {path} is not valid JSON: {err}") from err
    if not isinstance(loaded, dict):
        raise InvalidConfig(f"config {path} must hold a JSON object")
    unknown = set(loaded) - set(DEFAULT_CONFIG)
    if unknown:
        raise InvalidConfig(f"unknown config keys: {sorted(unknown)}")
    return _deep_merge(cfg, loaded)


def _apply_overrides(cfg: dict, args: argparse.Namespace) -> dict:
    """Fold non-None CLI flags over the file/default config."""
    paths = {
        "family": ("instance", "family"),
        "dimension": ("instance", "dimension"),
        "seed": ("instance", "seed"),
        "theta0": ("instance", "theta0"),
        "target": ("instance", "target"),
        "noise": ("instance", "noise", "profile"),
        "alpha": ("instance", "noise", "alpha"),
        "eta0": ("instance", "noise", "eta0"),
        "big_a": ("instance", "noise", "big_a"),
        "scale": ("instance", "noise", "scale"),
        "sectors": ("instance", "noise", "sectors"),
        "profile_seed": ("instance", "noise", "profile_seed"),
        "epsilon": ("learner", "epsilon"),
        "delta": ("learner", "delta"),
        "rho_eps": ("learner", "rho_eps"),
        "max_rounds": ("learner", "max_rounds"),
        "samples_n": ("learner", "samples_n"),
        "start": ("learner", "start"),
        "oracle": ("oracle",),
        "oracle_samples": ("oracle_samples",),
        "warm_samples": ("warm_samples",),
        "output_dir": ("output_dir",),
        "repeats": ("repeats",),
        "n": ("n",),
        "format": ("format",),
        "out": ("out",),
        "w": ("w",),
        "dataset": ("dataset",),
        "eval_n": ("eval_n",),
    }
    for attr, path in paths.items():
        value = getattr(args, attr, None)
        if value is None:
            continue
        node = cfg
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
    if getattr(args, "auto_c", False):
        cfg["auto_c"] = True
    for key in SWEEP_KEYS:
        values = getattr(args, f"sweep_{key}", None)
        if values is not None:
            if cfg.get("sweep") is None:
                cfg["sweep"] = {}
            cfg["sweep"][key] = values
    return cfg


def parse_vector(text: str) -> np.ndarray:
    """Parse a comma/whitespace-separated float vector."""
    tokens = [t for t in re.split(r"[,\s]+", text.strip()) if t]
    if len(tokens) < 2:
        raise InvalidConfig(f"vector needs >= 2 coordinates, got {text!r}")
    try:
        values = [float(t) for t in tokens]
    except ValueError as err:
        raise InvalidConfig(f"malformed vector {text!r}: {err}") from err
    vec = np.asarray(values, dtype=np.float64)
    if not np.all(np.isfinite(vec)):
        raise InvalidConfig(f"vector has non-finite coordinates: {text!r}")
    return vec


def build_noise(noise_cfg: dict, marginal: MarginalSpec):
    profile = noise_cfg["profile"]
    alpha = float(noise_cfg["alpha"])
    big_a = noise_cfg["big_a"]
    big_a = None if big_a is None else float(big_a)
    if profile == "constant_rate":
        return constant_rate(alpha, float(noise_cfg["eta0"]), big_a)
    if profile == "margin_power_law":
        return margin_power_law(
            alpha, marginal, float(noise_cfg["scale"]), big_a
        )
    if profile == "adversarialish":
        return adversarialish(
            alpha,
            big_a,
            int(noise_cfg["sectors"]),
            int(noise_cfg["profile_seed"]),
        )
    raise InvalidConfig(
        f"unknown noise profile {profile!r}; expected one of {NOISE_PROFILES}"
    )


def _family(name) -> Family:
    try:
        return Family(name)
    except ValueError as err:
        raise UnsupportedFamily(
            f"unknown family {name!r}; expected one of "
            f"{sorted(f.value for f in Family)}"
        ) from err


def build_instance(cfg: dict, *, seed_shift: int = 0) -> InstanceSpec:
    inst_cfg = cfg["instance"]
    marginal = MarginalSpec(_family(inst_cfg["family"]), int(inst_cfg["dimension"]))
    d = marginal.dimension
    target_cfg = inst_cfg.get("target")
    theta0 = inst_cfg.get("theta0")
    if target_cfg is not None:
        target = np.asarray([float(v) for v in target_cfg], dtype=np.float64)
        if target.shape != (d,):
            raise InvalidConfig(
                f"target has {target.shape[0]} coordinates, dimension is {d}"
            )
        norm = float(np.linalg.norm(target))
        if norm == 0.0:
            raise InvalidConfig("target must be nonzero")
        if abs(norm - 1.0) > 1e-9:
            logger.warning("normalizing non-unit target (norm %.6g)", norm)
        target = target / norm
    elif theta0 is not None:
        theta0 = float(theta0)
        target = np.zeros(d)
        target[0] = math.cos(theta0)
        target[1] = math.sin(theta0)
    else:
        target = np.zeros(d)
        target[0] = 1.0
    noise = build_noise(inst_cfg["noise"], marginal)
    return InstanceSpec(
        marginal, target, noise, seed=int(inst_cfg["seed"]) + seed_shift
    )


def build_learner_config(cfg: dict, *, seed_shift: int = 0) -> LearnerConfig:
    lc = cfg["learner"]
    return LearnerConfig(
        epsilon=float(lc["epsilon"]),
        delta=float(lc["delta"]),
        rho_eps=None if lc["rho_eps"] is None else float(lc["rho_eps"]),
        max_rounds=int(lc["max_rounds"]),
        samples_n=int(lc["samples_n"]),
        seed=int(cfg["instance"]["seed"]) + seed_shift,
        start=str(lc["start"]),
    )


def build_oracle(cfg: dict, inst: InstanceSpec, *, seed_shift: int = 0):
    name = cfg["oracle"]
    if name not in ORACLE_NAMES:
        raise InvalidConfig(
            f"unknown oracle {name!r}; expected one of {ORACLE_NAMES}"
        )
    params = well_behaved_params(inst.marginal)
    # The per-round budget never exceeds the run's total sample budget.
    spr = min(int(cfg["oracle_samples"]), int(cfg["learner"]["samples_n"]))
    seed = int(cfg["instance"]["seed"]) + seed_shift
    if name == "WellBehavedRandomInit":
        return WellBehavedCertOracle(
            inst, params, inst.noise, samples_per_round=spr, seed=seed
        )
    return LogConcaveWarmStartOracle(
        inst,
        params,
        inst.noise,
        samples_per_round=spr,
        warm_samples=int(cfg["warm_samples"]),
        seed=seed,
    )


def _effective_config(cfg: dict, inst: Optional[InstanceSpec]) -> dict:
    out = copy.deepcopy(cfg)
    if inst is not None:
        out["resolved"] = {
            "target": [float(v) for v in inst.target],
            "big_a": inst.noise.bigA,
            "alpha": inst.noise.alpha,
        }
    return out


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(
        json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )


def _prepare_output_dir(cfg: dict) -> Path:
    out_dir = Path(cfg["output_dir"])
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as err:
        raise InvalidConfig(f"cannot create {out_dir}: {err}") from err
    return out_dir


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------


def cmd_generate(cfg: dict) -> int:
    n = int(cfg["n"])
    if n <= 0:
        raise InvalidConfig(f"n must be positive, got {n}")
    if cfg["format"] not in ("text", "binary"):
        raise InvalidConfig(f"format must be text or binary, got {cfg['format']!r}")
    inst = build_instance(cfg)
    out_dir = _prepare_output_dir(cfg)
    t0 = time.perf_counter()
    batch = sample_batch(inst, n, batch=0)
    clean = np.where(batch.x @ inst.target >= 0, 1, -1)
    flip_rate = float(np.mean(batch.y != clean))
    name = cfg["out"] or (
        "dataset.txt" if cfg["format"] == "text" else "dataset.bin"
    )
    path = out_dir / name
    if cfg["format"] == "text":
        write_text(path, batch, inst.seed)
    else:
        write_binary(path, batch)
    wall_ms = (time.perf_counter() - t0) * 1000.0
    _write_json(out_dir / "effective_config.json", _effective_config(cfg, inst))
    _write_json(out_dir / "meta.json", {"wall_ms": {"generate": wall_ms}})
    print(
        f"wrote {path}: d={inst.marginal.dimension} n={n} "
        f"flip_rate={flip_rate:.6f}"
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------


def _load_dataset(path: str) -> LabeledBatch:
    try:
        with open(path, "rb") as fh:
            magic = fh.read(5)
    except OSError as err:
        raise InvalidConfig(f"cannot read dataset {path}: {err}") from err
    if magic == b"THSD1":
        return read_binary(path)
    batch, _seed = read_text(path)
    return batch


#: Random restarts, and rounds per restart, of a dataset certificate search.
DATASET_RESTARTS = 3
DATASET_MAX_ITERS = 25


def _certify_dataset(cfg: dict, w: np.ndarray, batch: LabeledBatch):
    """Certificate search against a fixed dataset; returns (witness, info)."""
    d = batch.x.shape[1]
    if w.shape != (d,):
        raise InvalidConfig(
            f"w has {w.shape[0]} coordinates, dataset dimension is {d}"
        )
    marginal = MarginalSpec(_family(cfg["instance"]["family"]), d)
    seed = int(cfg["instance"]["seed"])
    starts = (
        random_init(d, seed=seed + r, orthogonal_to=w)
        for r in range(DATASET_RESTARTS)
    )
    witness, info = search_certificate(
        SampleStream(batch),
        w,
        float(cfg["learner"]["epsilon"]),
        starts,
        build_noise(cfg["instance"]["noise"], marginal),
        well_behaved_params(marginal),
        min(int(cfg["oracle_samples"]), max(1, len(batch) // 4)),
        DATASET_MAX_ITERS,
    )
    info["n"] = len(batch)
    return witness, info


def cmd_certify(cfg: dict) -> int:
    if cfg["w"] is None:
        raise InvalidConfig("certify requires --w")
    w = parse_vector(cfg["w"])
    norm = float(np.linalg.norm(w))
    if norm == 0.0:
        raise InvalidConfig("w must be nonzero")
    if abs(norm - 1.0) > 1e-9:
        logger.warning("normalizing non-unit w (norm %.6g)", norm)
        w = w / norm
    out_dir = _prepare_output_dir(cfg)
    t0 = time.perf_counter()
    inst = None
    info: dict = {}
    if cfg["dataset"] is not None:
        batch = _load_dataset(cfg["dataset"])
        handle_witness, info = _certify_dataset(cfg, w, batch)
        oracle_label = "dataset-scan"
    else:
        cfg_inst = copy.deepcopy(cfg)
        cfg_inst["instance"]["dimension"] = int(w.shape[0])
        inst = build_instance(cfg_inst)
        oracle = build_oracle(cfg_inst, inst)
        theta = float(cfg["learner"]["epsilon"])
        if cfg["auto_c"]:
            if hasattr(oracle, "calibrate_rho"):
                calibrated = oracle.calibrate_rho(theta)
                info["calibrated_rho"] = calibrated
            else:
                logger.warning(
                    "--auto-c: oracle %s has no calibration hook; ignored",
                    cfg["oracle"],
                )
        handle = oracle.query(w, theta, float(cfg["learner"]["delta"]))
        handle_witness = None if handle is None else handle.witness
        info["queries"] = oracle.queries
        info["samples_drawn"] = oracle.samples_drawn
        oracle_label = cfg["oracle"]
    wall_ms = (time.perf_counter() - t0) * 1000.0
    certified = handle_witness is not None
    payload = {
        "certified": certified,
        "witness": None if handle_witness is None else handle_witness.to_dict(),
        "queried_w": [float(v) for v in w],
        "theta": float(cfg["learner"]["epsilon"]),
        "oracle": oracle_label,
        "diagnostics": info,
    }
    _write_json(out_dir / "witness.json", payload)
    _write_json(out_dir / "effective_config.json", _effective_config(cfg, inst))
    _write_json(out_dir / "meta.json", {"wall_ms": {"certify": wall_ms}})
    if certified:
        print(
            f"certified: witness value {handle_witness.value:.6g} "
            f"(wrote {out_dir / 'witness.json'})"
        )
        return EXIT_OK
    print(f"Fail: no certificate found (wrote {out_dir / 'witness.json'})")
    return EXIT_FAIL


# ---------------------------------------------------------------------------
# learn
# ---------------------------------------------------------------------------


def _run_learn_once(cfg: dict, repeat: int) -> tuple[MetricsRow, dict, object]:
    """One seeded learning run; returns (row, model payload, trace)."""
    inst = build_instance(cfg, seed_shift=repeat)
    lcfg = build_learner_config(cfg, seed_shift=repeat)
    oracle = build_oracle(cfg, inst, seed_shift=repeat)
    params = well_behaved_params(inst.marginal)
    stream = SampleStream(inst, batch_base("learner", lcfg.seed))
    trace = None
    stop_reason = "error"
    w_hat = None
    try:
        w_hat, trace = learn(stream, oracle, lcfg)
        stop_reason = trace.stop_reason.value
    except TsyblearnError as err:
        trace = getattr(err, "partial_trace", None)
        stop_reason = f"error:{type(err).__name__}"
        logger.error("repeat %d failed: %s", repeat, err)
    rounds_used = 0 if trace is None else len(trace.rounds)
    samples_used = stream.drawn + oracle.samples_drawn
    final_angle = None
    final_01 = None
    cert_value = None
    model: dict = {}
    if w_hat is not None:
        final_angle = float(angle(w_hat, inst.target))
        final_01 = disagreement_error(inst, w_hat, int(cfg["eval_n"]))
        witness_values = [
            r.cert_value
            for r in trace.rounds
            if r.cert_outcome is CertOutcome.WITNESS and r.cert_value is not None
        ]
        cert_value = witness_values[-1] if witness_values else None
        model = model_payload(w_hat, lcfg)
        model["final_angle"] = final_angle
        model["final_01_error"] = final_01
        model["error_budget"] = angle_to_error(
            final_angle, params, lcfg.epsilon
        )
        model["stop_reason"] = stop_reason
        model["fallback_used"] = trace.fallback_used
        model["oracle"] = cfg["oracle"]
    row = MetricsRow(
        family=cfg["instance"]["family"],
        dimension=inst.marginal.dimension,
        n=lcfg.samples_n,
        alpha=inst.noise.alpha,
        big_a=inst.noise.bigA,
        noise=cfg["instance"]["noise"]["profile"],
        epsilon=lcfg.epsilon,
        oracle=cfg["oracle"],
        seed=lcfg.seed,
        repeat=repeat,
        final_angle=final_angle,
        final_01_error=final_01,
        rounds_used=rounds_used,
        samples_used=samples_used,
        cert_value=cert_value,
        stop_reason=stop_reason,
    )
    return row, model, trace


def _open_metrics(path: Path):
    fh = open(path, "w", encoding="utf-8", newline="")
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(METRICS_HEADER)
    fh.flush()
    return fh, writer


def cmd_learn(cfg: dict) -> int:
    repeats = int(cfg["repeats"])
    if repeats < 1:
        raise InvalidConfig(f"repeats must be >= 1, got {repeats}")
    # Validate the shared configuration before spending any compute.
    build_learner_config(cfg)
    inst0 = build_instance(cfg)
    out_dir = _prepare_output_dir(cfg)
    _write_json(out_dir / "effective_config.json", _effective_config(cfg, inst0))
    timings = {}
    worst = EXIT_OK
    fh, writer = _open_metrics(out_dir / "metrics.csv")
    try:
        for repeat in range(repeats):
            t0 = time.perf_counter()
            row, model, trace = _run_learn_once(cfg, repeat)
            timings[f"repeat_{repeat}"] = (time.perf_counter() - t0) * 1000.0
            writer.writerow(row.to_csv())
            fh.flush()
            if repeat == 0:
                if model:
                    _write_json(out_dir / "model.json", model)
                if trace is not None:
                    (out_dir / "trace.jsonl").write_text(
                        trace.to_jsonl(), encoding="utf-8"
                    )
            if row.stop_reason.startswith("error") or row.stop_reason == (
                StopReason.CONTRACT_VIOLATION.value
            ):
                worst = EXIT_INTERNAL
            print(
                f"repeat {repeat}: stop={row.stop_reason} "
                f"final_angle={_fmt(row.final_angle) or 'n/a'} "
                f"rounds={row.rounds_used}"
            )
    finally:
        fh.close()
    _write_json(out_dir / "meta.json", {"wall_ms": timings})
    print(f"wrote {out_dir / 'metrics.csv'} ({repeats} rows)")
    return worst


# ---------------------------------------------------------------------------
# warmstart
# ---------------------------------------------------------------------------


def cmd_warmstart(cfg: dict) -> int:
    inst0 = build_instance(cfg)
    repeats = int(cfg["repeats"])
    if repeats < 1:
        raise InvalidConfig(f"repeats must be >= 1, got {repeats}")
    if cfg["w"] is not None:
        w = parse_vector(cfg["w"])
        w = w / np.linalg.norm(w)
    else:
        w = np.zeros(inst0.marginal.dimension)
        w[0] = 1.0
    out_dir = _prepare_output_dir(cfg)
    runs = []
    hits = 0
    timings = {}
    for repeat in range(repeats):
        inst = build_instance(cfg, seed_shift=repeat)
        wcfg = WarmStartConfig(
            alpha=inst.noise.alpha,
            bigA=inst.noise.bigA,
            epsilon=float(cfg["learner"]["epsilon"]),
            seed=int(cfg["instance"]["seed"]) + repeat,
            samples=int(cfg["warm_samples"]),
        )
        t0 = time.perf_counter()
        try:
            result = warm_start(inst, w, wcfg)
        except TsyblearnError as err:
            runs.append({"repeat": repeat, "error": f"{type(err).__name__}: {err}"})
            continue
        finally:
            timings[f"repeat_{repeat}"] = (time.perf_counter() - t0) * 1000.0
        entry = result.to_dict()
        entry["repeat"] = repeat
        # Signed correlation with the target's component orthogonal to w —
        # the direction every certificate seeks.
        u = orth_component(inst.target, w)
        u_norm = float(np.linalg.norm(u))
        if u_norm > 0:
            corr = float(result.v @ (u / u_norm))
            entry["correlation"] = corr
            hits += corr >= 0.05
        else:
            entry["correlation"] = None
        runs.append(entry)
    payload = {
        "runs": runs,
        "hits_at_0.05": hits,
        "repeats": repeats,
        "w": [float(v) for v in w],
    }
    _write_json(out_dir / "warmstart.json", payload)
    _write_json(out_dir / "effective_config.json", _effective_config(cfg, inst0))
    _write_json(out_dir / "meta.json", {"wall_ms": timings})
    print(
        f"warm start: {hits}/{repeats} runs with correlation >= 0.05 "
        f"(wrote {out_dir / 'warmstart.json'})"
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def _sweep_points(sweep: dict) -> list[dict]:
    if not isinstance(sweep, dict) or not sweep:
        raise InvalidConfig("sweep requires a nonempty grid")
    unknown = set(sweep) - set(SWEEP_KEYS)
    if unknown:
        raise InvalidConfig(
            f"unknown sweep keys {sorted(unknown)}; expected subset of "
            f"{list(SWEEP_KEYS)}"
        )
    keys = [k for k in SWEEP_KEYS if k in sweep]
    lists = []
    for key in keys:
        values = sweep[key]
        if not isinstance(values, (list, tuple)) or len(values) == 0:
            raise InvalidConfig(f"sweep grid for {key!r} must be a nonempty list")
        lists.append(list(values))
    return [dict(zip(keys, combo)) for combo in itertools.product(*lists)]


def _apply_point(cfg: dict, point: dict) -> dict:
    out = copy.deepcopy(cfg)
    for key, value in point.items():
        if key == "alpha":
            out["instance"]["noise"]["alpha"] = float(value)
        elif key == "big_a":
            out["instance"]["noise"]["big_a"] = float(value)
        elif key == "d":
            out["instance"]["dimension"] = int(value)
        elif key == "n":
            out["learner"]["samples_n"] = int(value)
        elif key == "epsilon":
            out["learner"]["epsilon"] = float(value)
    return out


def _sweep_worker(job: dict) -> dict:
    cfg = _apply_point(job["config"], job["point"])
    t0 = time.perf_counter()
    try:
        row, _model, _trace = _run_learn_once(cfg, job["repeat"])
        cells = row.to_csv()
        ok = not row.stop_reason.startswith("error")
    except Exception as err:  # one failed grid point must not abort the sweep
        logger.error("sweep point %s repeat %d failed: %s",
                     job["point"], job["repeat"], err,
                     exc_info=not isinstance(err, TsyblearnError))
        cells = None
        ok = False
    return {
        "point": job["point"],
        "repeat": job["repeat"],
        "cells": cells,
        "ok": ok,
        "wall_ms": (time.perf_counter() - t0) * 1000.0,
    }


def _workers_from_env(n_jobs: int) -> int:
    raw = os.environ.get("TSYBLEARN_WORKERS", "")
    if raw:
        try:
            workers = int(raw)
        except ValueError as err:
            raise InvalidConfig(
                f"TSYBLEARN_WORKERS must be an integer, got {raw!r}"
            ) from err
        if workers < 1:
            raise InvalidConfig(f"TSYBLEARN_WORKERS must be >= 1, got {workers}")
    else:
        workers = os.cpu_count() or 1
    return max(1, min(workers, n_jobs))


def cmd_sweep(cfg: dict) -> int:
    points = _sweep_points(cfg.get("sweep"))
    repeats = int(cfg["repeats"])
    if repeats < 1:
        raise InvalidConfig(f"repeats must be >= 1, got {repeats}")
    # Surface configuration errors before forking workers.
    for point in points:
        probed = _apply_point(cfg, point)
        build_instance(probed)
        build_learner_config(probed)
    out_dir = _prepare_output_dir(cfg)
    _write_json(
        out_dir / "effective_config.json", _effective_config(cfg, None)
    )
    jobs = [
        {"config": cfg, "point": point, "repeat": repeat}
        for point in points
        for repeat in range(repeats)
    ]
    workers = _workers_from_env(len(jobs))
    logger.info("sweep: %d points x %d repeats, %d workers",
                len(points), repeats, workers)
    timings = {}
    successes = 0
    by_point: dict[str, list] = {}
    fh, writer = _open_metrics(out_dir / "metrics.csv")
    try:
        with Pool(workers) if workers > 1 else nullcontext() as pool:
            run = map if pool is None else pool.imap
            for result in run(_sweep_worker, jobs):
                successes += _consume_sweep_result(
                    result, writer, fh, timings, by_point
                )
    finally:
        fh.close()
    summary = _sweep_summary(by_point)
    _write_json(out_dir / "summary.json", summary)
    _write_json(out_dir / "meta.json", {"wall_ms": timings})
    for label, stats in summary.items():
        print(
            f"{label}: median final_angle {_fmt(stats['median_final_angle'])} "
            f"over {stats['rows']} rows"
        )
    print(f"wrote {out_dir / 'metrics.csv'} ({successes}/{len(jobs)} rows ok)")
    return EXIT_OK if successes > 0 else EXIT_INTERNAL


def _consume_sweep_result(result, writer, fh, timings, by_point) -> int:
    label = json.dumps(result["point"], sort_keys=True)
    timings[f"{label}#{result['repeat']}"] = result["wall_ms"]
    if result["cells"] is None:
        return 0
    writer.writerow(result["cells"])
    fh.flush()
    angle_cell = result["cells"][METRICS_HEADER.index("final_angle")]
    err_cell = result["cells"][METRICS_HEADER.index("final_01_error")]
    by_point.setdefault(label, []).append(
        (
            float(angle_cell) if angle_cell else None,
            float(err_cell) if err_cell else None,
        )
    )
    return 1 if result["ok"] else 0


def _sweep_summary(by_point: dict) -> dict:
    summary = {}
    for label, pairs in sorted(by_point.items()):
        angles = [a for a, _ in pairs if a is not None]
        errors = [e for _, e in pairs if e is not None]
        summary[label] = {
            "rows": len(pairs),
            "median_final_angle": float(np.median(angles)) if angles else None,
            "median_final_01_error": float(np.median(errors)) if errors else None,
        }
    return summary


# ---------------------------------------------------------------------------
# Argument parsing and entry point
# ---------------------------------------------------------------------------


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--output-dir", dest="output_dir")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--family", help="gaussian | logistic | laplace | uniform_ball")
    parser.add_argument("-d", "--dimension", type=int)
    parser.add_argument("--noise", help="|".join(NOISE_PROFILES))
    parser.add_argument("--alpha", type=float)
    parser.add_argument("--eta0", type=float)
    parser.add_argument("--big-a", dest="big_a", type=float)
    parser.add_argument("--scale", type=float)
    parser.add_argument("--sectors", type=int)
    parser.add_argument("--profile-seed", dest="profile_seed", type=int)
    parser.add_argument("--theta0", type=float,
                        help="plant the target at this angle from e1")
    parser.add_argument("--target", help="explicit target vector (floats)")
    parser.add_argument("-v", "--verbose", action="count", default=0)


def _add_learner_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--epsilon", type=float)
    parser.add_argument("--delta", type=float)
    parser.add_argument("--rho-eps", dest="rho_eps", type=float)
    parser.add_argument("--max-rounds", dest="max_rounds", type=int)
    parser.add_argument("--samples-n", dest="samples_n", type=int)
    parser.add_argument("--start", choices=("e1", "zero", "random"))
    parser.add_argument("--oracle", choices=ORACLE_NAMES)
    parser.add_argument("--oracle-samples", dest="oracle_samples", type=int)
    parser.add_argument("--warm-samples", dest="warm_samples", type=int)
    parser.add_argument("--repeats", type=int)
    parser.add_argument("--eval-n", dest="eval_n", type=int)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tsyblearn",
        description="Halfspace learning under Tsybakov noise: experiment driver.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate", help="write a labeled dataset file")
    _add_common(p_gen)
    p_gen.add_argument("--n", type=int, help="number of samples")
    p_gen.add_argument("--format", choices=("text", "binary"))
    p_gen.add_argument("--out", help="output file name inside output dir")

    p_cert = sub.add_parser("certify", help="search for a certificate against w")
    _add_common(p_cert)
    _add_learner_flags(p_cert)
    p_cert.add_argument("--w", help="candidate direction (floats)")
    p_cert.add_argument("--dataset", help="certify against this dataset file")
    p_cert.add_argument("--auto-c", dest="auto_c", action="store_true",
                        help="calibrate the acceptance threshold on a pilot run")

    p_learn = sub.add_parser("learn", help="run the full learning loop")
    _add_common(p_learn)
    _add_learner_flags(p_learn)

    p_warm = sub.add_parser("warmstart", help="warm-start diagnostics")
    _add_common(p_warm)
    _add_learner_flags(p_warm)
    p_warm.add_argument("--w", help="band direction (floats; default e1)")

    p_sweep = sub.add_parser("sweep", help="grid of learning runs")
    _add_common(p_sweep)
    _add_learner_flags(p_sweep)
    for key in SWEEP_KEYS:
        p_sweep.add_argument(
            f"--sweep-{key.replace('_', '-')}",
            dest=f"sweep_{key}",
            type=str,
            help=f"comma-separated grid values for {key}",
        )
    return parser


def _parse_sweep_flag_values(args: argparse.Namespace) -> None:
    for key in SWEEP_KEYS:
        attr = f"sweep_{key}"
        raw = getattr(args, attr, None)
        if raw is None:
            continue
        try:
            values = [float(tok) for tok in raw.split(",") if tok.strip()]
        except ValueError as err:
            raise InvalidConfig(f"bad sweep grid {raw!r} for {key}") from err
        if key in ("d", "n"):
            values = [int(v) for v in values]
        setattr(args, attr, values)


COMMANDS = {
    "generate": cmd_generate,
    "certify": cmd_certify,
    "learn": cmd_learn,
    "warmstart": cmd_warmstart,
    "sweep": cmd_sweep,
}


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        # argparse exits with 2 on usage errors and 0 on --help.
        return int(err.code or 0)
    level = logging.WARNING - 10 * min(args.verbose, 2)
    logging.basicConfig(
        level=level, format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )
    try:
        _parse_sweep_flag_values(args)
        cfg = load_config(args.config)
        cfg = _apply_overrides(cfg, args)
        return COMMANDS[args.command](cfg)
    except InvalidConfig as err:
        logger.error("%s", err)
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except OracleContractViolation as err:
        print(f"contract violation: {err}", file=sys.stderr)
        return EXIT_INTERNAL
    except TsyblearnError as err:
        print(f"error: {type(err).__name__}: {err}", file=sys.stderr)
        return EXIT_INTERNAL
    except OSError as err:
        print(f"io error: {err}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
