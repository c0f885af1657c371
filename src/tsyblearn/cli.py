"""Batch experiment front-end.

Subcommands: ``generate`` (dataset files), ``certify`` (one-shot certificate
search), ``learn`` (end-to-end runs with metrics), ``warmstart``
(initialization diagnostics), and ``sweep`` (parameter grids in a worker
pool).  Configuration comes from an optional JSON file plus command-line
overrides, both checked against one table of keys (``OPTIONS``); a
subcommand offers only the flags it reads.  Every invocation dumps the
effective configuration next to its outputs, and passing that file back as
``--config`` reproduces the run exactly.

Primary outputs (datasets, JSON, JSONL, CSV) are byte-deterministic for a
fixed configuration: wall-clock timings go to a ``meta.json`` sidecar and the
``wall_ms`` CSV column is fixed at 0.  Exit codes: 0 success, 2 bad
usage/configuration, 3 honest certificate Fail, 4 internal contract
violation or any other unexpected error (one line on stderr, no traceback).
"""

from __future__ import annotations

import argparse
import copy
import csv
import functools
import itertools
import json
import logging
import math
import os
import re
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field, fields, replace
from multiprocessing import Pool
from pathlib import Path
from typing import Optional

import numpy as np

from .errors import InvalidConfig, TsyblearnError
from .geometry import PARALLEL_TOL, UNIT_TOL, angle
from .learner import (
    CertOutcome,
    LearnerConfig,
    LogConcaveWarmStartOracle,
    StopReason,
    WellBehavedCertOracle,
    angle_to_error,
    learn,
    model_payload,
    warm_guesses,
)
from .synthetic import (
    Family,
    InstanceSpec,
    MarginalSpec,
    SampleStream,
    adversarialish,
    batch_base,
    constant_rate,
    disagreement_error,
    margin_power_law,
    open_dataset,
    sample_batch,
    usable_cpus,
    well_behaved_params,
    write_binary,
    write_text,
)
from .warmstart import (MIN_WARM_SAMPLES, band_scale, warm_start,
                        warm_start_batch)

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_FAIL = 3
EXIT_INTERNAL = 4

ORACLE_NAMES = ("WellBehavedRandomInit", "LogConcaveWarmStart")
#: Noise profile -> the ``instance.noise`` keys only it reads.  Under any
#: other profile such a key must keep its default (``build_noise``).
NOISE_PROFILES = {
    "constant_rate": ("eta0",),
    "margin_power_law": ("scale",),
    "adversarialish": ("sectors", "profile_seed"),
}

SCHEMA_VERSION = 1

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

    The fields, in order, are the ``metrics.csv`` columns.  ``wall_ms`` is
    fixed at 0 for byte-determinism; real timings live in the ``meta.json``
    sidecar.
    """

    schema_version: int = field(default=SCHEMA_VERSION, init=False)
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
    wall_ms: int = field(default=0, init=False)
    cert_value: Optional[float]
    stop_reason: str

    @property
    def ok(self) -> bool:
        """The run's outcome: ok unless it raised or violated a contract.
        ``learn`` exits 4 on a row that is not ok; ``sweep`` on no ok row."""
        return not self.stop_reason.startswith("error") and (
            self.stop_reason != StopReason.CONTRACT_VIOLATION.value
        )

    def to_csv(self) -> list:
        return [_fmt(getattr(self, f.name)) for f in fields(self)]


METRICS_HEADER = [f.name for f in fields(MetricsRow)]

#: The subcommands that read each group of run flags: the learning runs,
#: those that query an oracle, and those that repeat.
LEARNS = ("learn", "sweep")
QUERIES = ("certify", *LEARNS)
REPEATS = ("warmstart", *LEARNS)
RUNS = ("certify", *REPEATS)


@dataclass(frozen=True)
class Option:
    """One configuration key, the single place it is declared.

    ``path`` is the key's dotted place in the config (``instance.noise.alpha``)
    and ``type`` names its check in ``_TYPES``; a ``None`` default makes the
    key nullable.  ``flags`` are offered by each subcommand in ``commands``
    (by every subcommand when ``None``), the ones that read the key; a config
    file may set any key for any subcommand.
    """

    path: str
    type: str
    default: object = None
    flags: tuple = ()
    commands: Optional[tuple] = None
    choices: Optional[tuple] = None
    help: Optional[str] = None


OPTIONS = (
    Option("output_dir", "str", "out", ("--output-dir",)),
    Option("instance.seed", "seed", 0, ("--seed",)),
    Option("instance.family", "str", "gaussian", ("--family",),
           choices=tuple(f.value for f in Family)),
    Option("instance.dimension", "count", 5, ("-d", "--dimension"),
           ("generate", *REPEATS)),
    Option("instance.noise.profile", "str", "constant_rate", ("--noise",),
           choices=tuple(NOISE_PROFILES)),
    Option("instance.noise.alpha", "float", 0.5, ("--alpha",)),
    Option("instance.noise.eta0", "float", 0.1, ("--eta0",)),
    Option("instance.noise.big_a", "float", None, ("--big-a",)),
    Option("instance.noise.scale", "float", 1.0, ("--scale",)),
    Option("instance.noise.sectors", "count", 12, ("--sectors",)),
    Option("instance.noise.profile_seed", "int", 0, ("--profile-seed",)),
    Option("instance.theta0", "float", None, ("--theta0",),
           help="plant the target at this angle from e1"),
    Option("instance.target", "vector", None, ("--target",),
           help="explicit target vector (floats)"),
    Option("learner.epsilon", "angle", 0.15, ("--epsilon",), RUNS),
    Option("learner.delta", "fraction", 0.05, ("--delta",), QUERIES,
           help="failure probability; recorded and passed to the oracle, "
           "whose acceptance rule does not read it yet"),
    Option("learner.rho_eps", "float", None, ("--rho-eps",), LEARNS),
    Option("learner.max_rounds", "count", 20, ("--max-rounds",), LEARNS),
    Option("learner.samples_n", "count", 200_000, ("--samples-n",), QUERIES),
    Option("learner.start", "str", "zero", ("--start",), LEARNS,
           ("e1", "zero", "random")),
    Option("oracle", "str", ORACLE_NAMES[0], ("--oracle",), QUERIES,
           ORACLE_NAMES),
    Option("oracle_samples", "count", 50_000, ("--oracle-samples",), QUERIES),
    Option("warm_samples", "warm_count", 400_000, ("--warm-samples",), RUNS),
    Option("repeats", "count", 1, ("--repeats",), REPEATS),
    Option("eval_n", "count", 100_000, ("--eval-n",), LEARNS,
           help="evaluation points for final_01_error on laplace and "
           "logistic; ignored on gaussian and uniform_ball, where the value "
           "is exact"),
    Option("n", "count", 100_000, ("--n",), ("generate",),
           help="number of samples"),
    Option("format", "str", "text", ("--format",), ("generate",),
           ("text", "binary")),
    Option("out", "file_name", None, ("--out",), ("generate",),
           help="output file name inside output dir (no directory part)"),
    Option("w", "vector", None, ("--w",), ("certify", "warmstart"),
           help="candidate direction for certify, band direction for "
           "warmstart (floats; warmstart default e1)"),
    Option("dataset", "str", None, ("--dataset",), ("certify",),
           help="certify against this dataset file"),
    # Set from a config file or the --sweep-<key> flags.
    Option("sweep", "grid"),
)
OPTION_AT = {opt.path: opt for opt in OPTIONS}
#: Sweep grid key -> the config path each grid value is written to.
SWEEP_KEYS = {
    "alpha": "instance.noise.alpha",
    "big_a": "instance.noise.big_a",
    "d": "instance.dimension",
    "n": "learner.samples_n",
    "epsilon": "learner.epsilon",
}


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_float(value) -> bool:
    if _is_int(value):
        return abs(value) <= sys.float_info.max
    return isinstance(value, float) and math.isfinite(value)


def parse_vector(value) -> np.ndarray:
    """Parse a list of numbers or a comma/whitespace-separated float vector."""
    if isinstance(value, str):
        tokens = [t for t in re.split(r"[,\s]+", value.strip()) if t]
    elif isinstance(value, list) and all(_is_float(t) for t in value):
        tokens = value
    else:
        raise InvalidConfig(f"malformed vector {value!r}")
    if len(tokens) < 2:
        raise InvalidConfig(f"vector needs >= 2 coordinates, got {value!r}")
    try:
        values = [float(t) for t in tokens]
    except (ValueError, OverflowError) as err:
        raise InvalidConfig(f"malformed vector {value!r}: {err}") from err
    vec = np.asarray(values, dtype=np.float64)
    if not np.all(np.isfinite(vec)):
        raise InvalidConfig(f"vector has non-finite coordinates: {value!r}")
    return vec


def _is_vector(value) -> bool:
    try:
        parse_vector(value)
    except InvalidConfig:
        return False
    return True


#: Type name -> (flag parser, check, what the check asks for).
_TYPES = {
    "int": (int, _is_int, "an integer"),
    "seed": (int, lambda v: _is_int(v) and v >= 0, "an integer >= 0"),
    "count": (int, lambda v: _is_int(v) and v >= 1, "an integer >= 1"),
    "warm_count": (int, lambda v: _is_int(v) and v >= MIN_WARM_SAMPLES,
                   f"an integer >= {MIN_WARM_SAMPLES}"),
    "float": (float, _is_float, "a finite number"),
    "fraction": (float, lambda v: _is_float(v) and 0 < v < 1,
                 "a number in (0, 1)"),
    "angle": (float, lambda v: _is_float(v) and 0 < v <= math.pi,
              "an angle in (0, pi]"),
    "str": (str, lambda v: isinstance(v, str), "a string"),
    "file_name": (str, lambda v: isinstance(v, str) and Path(v).name == v
                  and v != "..", "a file name with no directory part"),
    "vector": (str, _is_vector, "a list or comma/space-separated string "
               "of >= 2 finite numbers"),
    "grid": (None, lambda v: isinstance(v, dict), "an object of lists"),
}


def _check(opt: Option, value, path: Optional[str] = None):
    """Return ``value`` if it fits ``opt``; else raise naming the dotted path."""
    path = path or opt.path
    if value is None and opt.default is None:
        return value
    _parse, ok, wanted = _TYPES[opt.type]
    if not ok(value):
        raise InvalidConfig(f"{path} must be {wanted}, got {value!r}")
    if opt.choices is not None and value not in opt.choices:
        raise InvalidConfig(
            f"{path} must be one of {list(opt.choices)}, got {value!r}"
        )
    if opt.type == "grid":
        for key, values in value.items():
            if key not in SWEEP_KEYS or not isinstance(values, list):
                raise InvalidConfig(
                    f"{path}.{key} must be a list under a key in "
                    f"{list(SWEEP_KEYS)}, got {values!r}"
                )
            for item in values:
                _check(OPTION_AT[SWEEP_KEYS[key]], item, f"{path}.{key}")
    return value


def _set(cfg: dict, path: str, value) -> None:
    *groups, key = path.split(".")
    for group in groups:
        cfg = cfg.setdefault(group, {})
    cfg[key] = value


def _file_values(node: dict, defaults: dict, prefix: str = ""):
    """Yield ``(dotted path, value)`` for each value in a config file."""
    for key, value in node.items():
        path = prefix + key
        if key not in defaults:
            raise InvalidConfig(f"unknown config key {path!r}")
        if not isinstance(defaults[key], dict):
            yield path, value
        elif isinstance(value, dict):
            yield from _file_values(value, defaults[key], path + ".")
        else:
            raise InvalidConfig(f"{path} must be an object, got {value!r}")


def load_config(path: Optional[str]) -> dict:
    """Defaults overlaid with the JSON config file (when given)."""
    cfg: dict = {}
    for opt in OPTIONS:
        _set(cfg, opt.path, opt.default)
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
    # Derived values an effective_config.json records beside its inputs.
    loaded.pop("resolved", None)
    for key, value in list(_file_values(loaded, cfg)):
        _set(cfg, key, _check(OPTION_AT[key], value))
    return cfg


def _sweep_flag_values(key: str, raw: str) -> list:
    parse = _TYPES[OPTION_AT[SWEEP_KEYS[key]].type][0]
    try:
        return [parse(tok) for tok in raw.split(",") if tok.strip()]
    except ValueError as err:
        raise InvalidConfig(f"bad sweep grid {raw!r} for {key}") from err


def _apply_overrides(cfg: dict, args: argparse.Namespace) -> dict:
    """Fold the given CLI flags over the file/default config."""
    for opt in OPTIONS:
        value = getattr(args, opt.path, None)
        if value is not None:
            _set(cfg, opt.path, _check(opt, value))
    grid = {
        key: _sweep_flag_values(key, raw)
        for key in SWEEP_KEYS
        if (raw := getattr(args, f"sweep_{key}", None)) is not None
    }
    if grid:
        grid = {**(cfg["sweep"] or {}), **grid}
        cfg["sweep"] = _check(OPTION_AT["sweep"], grid)
    return cfg


def _direction(value, name: str, d: Optional[int] = None) -> np.ndarray:
    """Parse a nonzero vector (of dimension ``d`` when given) into a unit one:
    kept as given when its norm is 1 within ``UNIT_TOL``, else divided by its
    norm with a warning."""
    vec = parse_vector(value)
    if d is not None and vec.shape != (d,):
        raise InvalidConfig(
            f"{name} has {vec.shape[0]} coordinates, dimension is {d}"
        )
    with np.errstate(over="ignore"):  # an overflowing norm is reported below
        norm = float(np.linalg.norm(vec))
    if norm == 0.0:
        raise InvalidConfig(f"{name} must be nonzero")
    if not math.isfinite(norm):
        raise InvalidConfig(f"{name} has a norm that overflows a float ({norm})")
    if abs(norm - 1.0) > UNIT_TOL:
        logger.warning("normalizing non-unit %s (norm %.6g)", name, norm)
        vec = vec / norm
    return vec


def build_noise(noise_cfg: dict, marginal: MarginalSpec):
    """The configured noise.  A key another profile reads must be at its
    default: a value that shapes nothing would still be recorded."""
    profile = noise_cfg["profile"]
    for owner, keys in NOISE_PROFILES.items():
        for key in keys:
            default = OPTION_AT[f"instance.noise.{key}"].default
            if owner != profile and noise_cfg[key] != default:
                raise InvalidConfig(
                    f"instance.noise.{key} is read only by the {owner} noise "
                    f"profile, not by {profile}; got {noise_cfg[key]!r}"
                )
    alpha = float(noise_cfg["alpha"])
    big_a = noise_cfg["big_a"]
    big_a = None if big_a is None else float(big_a)
    if profile == "constant_rate":
        return constant_rate(alpha, float(noise_cfg["eta0"]), big_a)
    if profile == "margin_power_law":
        return margin_power_law(
            alpha, marginal, float(noise_cfg["scale"]), big_a
        )
    return adversarialish(
        alpha, big_a, noise_cfg["sectors"], noise_cfg["profile_seed"]
    )


def build_instance(cfg: dict) -> InstanceSpec:
    inst_cfg = cfg["instance"]
    marginal = MarginalSpec(Family(inst_cfg["family"]), inst_cfg["dimension"])
    d = marginal.dimension
    if inst_cfg["target"] is not None:
        target = _direction(inst_cfg["target"], "target", d)
    else:
        # Planted at theta0 from e1 in the e1-e2 plane; e1 by default.
        theta0 = inst_cfg["theta0"] or 0.0
        target = np.zeros(d)
        target[0], target[1] = math.cos(theta0), math.sin(theta0)
    noise = build_noise(inst_cfg["noise"], marginal)
    return InstanceSpec(marginal, target, noise, seed=inst_cfg["seed"])


def build_learner_config(cfg: dict) -> LearnerConfig:
    lc = cfg["learner"]
    eps = float(lc["epsilon"])
    if eps > 1.0:  # angle_to_error's error budget needs epsilon <= 1
        raise InvalidConfig(f"learner.epsilon must be <= 1 to learn, got {eps!r}")
    return LearnerConfig(
        epsilon=eps,
        delta=float(lc["delta"]),
        rho_eps=None if lc["rho_eps"] is None else float(lc["rho_eps"]),
        max_rounds=lc["max_rounds"],
        samples_n=lc["samples_n"],
        seed=cfg["instance"]["seed"],
        start=lc["start"],
    )


def build_oracle(cfg: dict, source):
    """The configured oracle over ``source``: an instance, seeded with its
    seed, or a dataset whose marginal family, noise and seed come from the
    config.

    Building it checks the configuration without drawing a sample: for the
    warm-start oracle, that the band scale (``band_scale``) does not
    underflow.  The scale grows with the guess, so a check at the first of a
    query's ``warm_guesses(epsilon)`` covers every guess.
    """
    # The per-round budget never exceeds the run's total sample budget, nor a
    # quarter of a dataset's rows.
    spr = min(cfg["oracle_samples"], cfg["learner"]["samples_n"])
    if isinstance(source, InstanceSpec):
        marginal, noise, seed = source.marginal, source.noise, source.seed
    else:
        marginal = MarginalSpec(Family(cfg["instance"]["family"]), source.d)
        noise = build_noise(cfg["instance"]["noise"], marginal)
        seed = cfg["instance"]["seed"]
        spr = min(spr, max(1, len(source) // 4))
    params = well_behaved_params(marginal)
    if cfg["oracle"] == "WellBehavedRandomInit":
        return WellBehavedCertOracle(
            source, params, noise, samples_per_round=spr, seed=seed
        )
    band_scale(noise.alpha, noise.bigA,
               warm_guesses(float(cfg["learner"]["epsilon"]))[0])
    return LogConcaveWarmStartOracle(
        source,
        params,
        noise,
        samples_per_round=spr,
        warm_samples=cfg["warm_samples"],
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


def _write_meta(out_dir: Path, wall_ms: dict) -> None:
    """``meta.json``: wall-clock timings, and the numpy and BLAS builds that
    produced them, so timings from two machines can be told apart."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 1.26 has no "dicts" mode
        blas = {}
    _write_json(out_dir / "meta.json", {
        "wall_ms": wall_ms,
        "numpy": np.__version__,
        "blas": {
            key: blas.get(key) for key in ("name", "version", "openblas configuration")
        },
    })


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
    n = cfg["n"]
    inst = build_instance(cfg)
    out_dir = _prepare_output_dir(cfg)
    t0 = time.perf_counter()
    batch = sample_batch(inst, n, batch=0)
    flips = sum(
        int(np.count_nonzero((x @ inst.target >= 0) != (y == 1)))
        for _, x, y in batch.chunks()
    )
    flip_rate = flips / n
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
    _write_meta(out_dir, {"generate": wall_ms})
    print(
        f"wrote {path}: d={inst.marginal.dimension} n={n} "
        f"flip_rate={flip_rate:.6f}"
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------


def cmd_certify(cfg: dict) -> int:
    if cfg["w"] is None:
        raise InvalidConfig("certify requires --w")
    t0 = time.perf_counter()
    data = None if cfg["dataset"] is None else open_dataset(cfg["dataset"])
    w = _direction(cfg["w"], "w", None if data is None else data.d)
    # The run's dimension is the dataset's, or w's; the recorded config says so.
    cfg = copy.deepcopy(cfg)
    cfg["instance"]["dimension"] = int(w.shape[0])
    inst = build_instance(cfg) if data is None else None
    oracle = build_oracle(cfg, data if inst is None else inst)
    out_dir = _prepare_output_dir(cfg)
    theta = float(cfg["learner"]["epsilon"])
    witness = oracle.query(w, theta, float(cfg["learner"]["delta"]))
    wall_ms = (time.perf_counter() - t0) * 1000.0
    diagnostics = {
        "queries": oracle.queries,
        "samples_drawn": oracle.samples_drawn,
        **oracle.last_search,
    }
    if data is not None:
        diagnostics["n"] = len(data)
    payload = {
        "certified": witness is not None,
        "witness": None if witness is None else witness.to_dict(),
        "queried_w": [float(v) for v in w],
        "theta": theta,
        "oracle": cfg["oracle"],
        "diagnostics": diagnostics,
    }
    _write_json(out_dir / "witness.json", payload)
    _write_json(out_dir / "effective_config.json", _effective_config(cfg, inst))
    _write_meta(out_dir, {"certify": wall_ms})
    if witness is not None:
        print(
            f"certified: witness value {witness.value:.6g} "
            f"(wrote {out_dir / 'witness.json'})"
        )
        return EXIT_OK
    print(f"Fail: no certificate found (wrote {out_dir / 'witness.json'})")
    return EXIT_FAIL


# ---------------------------------------------------------------------------
# learn
# ---------------------------------------------------------------------------


def _run_learn_once(
    cfg: dict, inst: InstanceSpec, lcfg: LearnerConfig, repeat: int
) -> tuple[MetricsRow, dict, object]:
    """Repeat ``repeat`` of the run ``_build_learn`` built: the instance,
    learner and a fresh oracle seeded with ``seed + repeat``.  Returns (row,
    model payload, trace)."""
    inst = replace(inst, seed=inst.seed + repeat)
    lcfg = replace(lcfg, seed=inst.seed)
    oracle = build_oracle(cfg, inst)
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
        final_01 = disagreement_error(inst, w_hat, cfg["eval_n"])
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
            final_angle, oracle.params, lcfg.epsilon
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


def _build_learn(cfg: dict) -> tuple[InstanceSpec, LearnerConfig]:
    """A learning run's instance and learner config, built once before any
    compute; building them and the oracle checks the configuration in the
    order learner, instance, oracle."""
    lcfg = build_learner_config(cfg)
    inst = build_instance(cfg)
    build_oracle(cfg, inst)
    return inst, lcfg


def cmd_learn(cfg: dict) -> int:
    repeats = cfg["repeats"]
    inst, lcfg = _build_learn(cfg)
    out_dir = _prepare_output_dir(cfg)
    _write_json(out_dir / "effective_config.json", _effective_config(cfg, inst))
    timings = {}
    worst = EXIT_OK
    fh, writer = _open_metrics(out_dir / "metrics.csv")
    try:
        for repeat in range(repeats):
            t0 = time.perf_counter()
            row, model, trace = _run_learn_once(cfg, inst, lcfg, repeat)
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
            if not row.ok:
                worst = EXIT_INTERNAL
            print(
                f"repeat {repeat}: stop={row.stop_reason} "
                f"final_angle={_fmt(row.final_angle) or 'n/a'} "
                f"rounds={row.rounds_used}"
            )
    finally:
        fh.close()
    _write_meta(out_dir, timings)
    print(f"wrote {out_dir / 'metrics.csv'} ({repeats} rows)")
    return worst


# ---------------------------------------------------------------------------
# warmstart
# ---------------------------------------------------------------------------


def cmd_warmstart(cfg: dict) -> int:
    inst0 = build_instance(cfg)
    epsilon = float(cfg["learner"]["epsilon"])
    band_scale(inst0.noise.alpha, inst0.noise.bigA, epsilon)
    repeats = cfg["repeats"]
    d = inst0.marginal.dimension
    w = np.eye(1, d)[0] if cfg["w"] is None else _direction(cfg["w"], "w", d)
    # Signed correlation is taken with the target's component orthogonal to
    # w — the direction every certificate seeks; none when they are parallel.
    u = inst0.target - (inst0.target @ w) * w
    u_norm = float(np.linalg.norm(u))
    u = u / u_norm if u_norm >= PARALLEL_TOL else None
    out_dir = _prepare_output_dir(cfg)
    runs = []
    hits = 0
    timings = {}
    for repeat in range(repeats):
        inst = replace(inst0, seed=inst0.seed + repeat)
        t0 = time.perf_counter()
        try:
            raw = warm_start_batch(inst, cfg["warm_samples"], w, inst.noise,
                                   [(epsilon, inst.seed)])
            result = warm_start(raw, w, inst.noise, epsilon, inst.seed)
        except TsyblearnError as err:
            runs.append({"repeat": repeat, "error": f"{type(err).__name__}: {err}"})
            continue
        finally:
            timings[f"repeat_{repeat}"] = (time.perf_counter() - t0) * 1000.0
        entry = result.to_dict()
        entry["repeat"] = repeat
        if u is None:
            entry["correlation"] = None
        else:
            corr = float(result.v @ u)
            entry["correlation"] = corr
            hits += corr >= 0.05
        runs.append(entry)
    payload = {
        "runs": runs,
        "hits_at_0.05": hits,
        "repeats": repeats,
        "w": [float(v) for v in w],
    }
    _write_json(out_dir / "warmstart.json", payload)
    _write_json(out_dir / "effective_config.json", _effective_config(cfg, inst0))
    _write_meta(out_dir, timings)
    print(
        f"warm start: {hits}/{repeats} runs with correlation >= 0.05 "
        f"(wrote {out_dir / 'warmstart.json'})"
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def _sweep_points(sweep: Optional[dict]) -> list[dict]:
    """Every point of a checked grid, keys in ``SWEEP_KEYS`` order."""
    if not sweep:
        raise InvalidConfig("sweep requires a nonempty grid")
    keys = [k for k in SWEEP_KEYS if k in sweep]
    for key in keys:
        if not sweep[key]:
            raise InvalidConfig(f"sweep grid for {key!r} must be a nonempty list")
    return [
        dict(zip(keys, combo))
        for combo in itertools.product(*(sweep[k] for k in keys))
    ]


def _apply_point(cfg: dict, point: dict) -> dict:
    out = copy.deepcopy(cfg)
    for key, value in point.items():
        _set(out, SWEEP_KEYS[key], value)
    return out


def _sweep_worker(job: tuple) -> tuple[dict, int, Optional[MetricsRow], float]:
    """Run one ``(point, (point config, instance, learner config), repeat)``
    job; return ``(point, repeat, row or None on error, wall ms)``."""
    point, run, repeat = job
    t0 = time.perf_counter()
    try:
        row, _model, _trace = _run_learn_once(*run, repeat)
    except Exception as err:  # one failed grid point must not abort the sweep
        logger.error("sweep point %s repeat %d failed: %s", point, repeat, err,
                     exc_info=not isinstance(err, TsyblearnError))
        row = None
    return point, repeat, row, (time.perf_counter() - t0) * 1000.0


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
        workers = usable_cpus()
    return max(1, min(workers, n_jobs))


def cmd_sweep(cfg: dict) -> int:
    points = _sweep_points(cfg["sweep"])
    repeats = cfg["repeats"]
    jobs = []
    for point in points:  # each point built once, before any worker forks
        point_cfg = _apply_point(cfg, point)
        built = (point_cfg, *_build_learn(point_cfg))
        jobs += [(point, built, repeat) for repeat in range(repeats)]
    workers = _workers_from_env(len(jobs))
    out_dir = _prepare_output_dir(cfg)
    _write_json(
        out_dir / "effective_config.json", _effective_config(cfg, None)
    )
    logger.info("sweep: %d points x %d repeats, %d workers",
                len(points), repeats, workers)
    timings = {}
    successes = 0
    by_point: dict[str, list[MetricsRow]] = {}
    fh, writer = _open_metrics(out_dir / "metrics.csv")
    try:
        with Pool(workers) if workers > 1 else nullcontext() as pool:
            run = map if pool is None else pool.imap
            for point, repeat, row, wall_ms in run(_sweep_worker, jobs):
                label = json.dumps(point, sort_keys=True)
                timings[f"{label}#{repeat}"] = wall_ms
                if row is not None:
                    writer.writerow(row.to_csv())
                    fh.flush()
                    by_point.setdefault(label, []).append(row)
                    successes += row.ok
    finally:
        fh.close()
    summary = _sweep_summary(by_point)
    _write_json(out_dir / "summary.json", summary)
    _write_meta(out_dir, timings)
    for label, stats in summary.items():
        print(
            f"{label}: median final_angle {_fmt(stats['median_final_angle'])} "
            f"over {stats['rows']} rows"
        )
    print(f"wrote {out_dir / 'metrics.csv'} ({successes}/{len(jobs)} rows ok)")
    return EXIT_OK if successes > 0 else EXIT_INTERNAL


def _sweep_summary(by_point: dict) -> dict:
    summary = {}
    for label, rows in sorted(by_point.items()):
        angles = [r.final_angle for r in rows if r.final_angle is not None]
        errors = [r.final_01_error for r in rows if r.final_01_error is not None]
        summary[label] = {
            "rows": len(rows),
            "median_final_angle": float(np.median(angles)) if angles else None,
            "median_final_01_error": float(np.median(errors)) if errors else None,
        }
    return summary


# ---------------------------------------------------------------------------
# Argument parsing and entry point
# ---------------------------------------------------------------------------


#: Subcommand -> (handler, help).
COMMANDS = {
    "generate": (cmd_generate, "write a labeled dataset file"),
    "certify": (cmd_certify, "search for a certificate against w"),
    "learn": (cmd_learn, "run the full learning loop"),
    "warmstart": (cmd_warmstart, "warm-start diagnostics"),
    "sweep": (cmd_sweep, "grid of learning runs"),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process: parsing leaves it as it was,
    and each ``parse_args`` fills a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="tsyblearn",
        description="Halfspace learning under Tsybakov noise: experiment driver.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_handler, help_text) in COMMANDS.items():
        p_cmd = sub.add_parser(command, help=help_text)
        p_cmd.add_argument("--config", help="JSON config file")
        p_cmd.add_argument("-v", "--verbose", action="count", default=0)
        for opt in OPTIONS:
            if not opt.flags or command not in (opt.commands or COMMANDS):
                continue
            # The metavar argparse would take from the flag, not the dotted
            # dest.  Choices are left to _check, like all values.
            p_cmd.add_argument(
                *opt.flags,
                dest=opt.path,
                type=_TYPES[opt.type][0],
                metavar=opt.flags[-1].lstrip("-").replace("-", "_").upper(),
                help=opt.help or (opt.choices and " | ".join(opt.choices)),
            )
        for key in SWEEP_KEYS if command == "sweep" else ():
            p_cmd.add_argument(
                f"--sweep-{key.replace('_', '-')}",
                dest=f"sweep_{key}",
                help=f"comma-separated grid values for {key}",
            )
    return parser


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
        cfg = _apply_overrides(load_config(args.config), args)
        return COMMANDS[args.command][0](cfg)
    except InvalidConfig as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except TsyblearnError as err:
        print(f"error: {type(err).__name__}: {err}", file=sys.stderr)
        return EXIT_INTERNAL
    except OSError as err:
        print(f"io error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as err:  # no traceback leaves the program
        logger.debug("internal error", exc_info=True)
        print(f"internal error: {type(err).__name__}: {err}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
