"""Witness counts and draws of the warm-start oracle over ten seeded queries.

Usage::

    python3 tools/warm_cells.py [REPO]

Imports ``tsyblearn`` from ``REPO/src`` (default: the checkout holding this
script), so two checkouts can be compared on the same cells.  Each cell is a
marginal family (Laplace, uniform ball) and an angle between the queried
``w`` and the target (0, 0.3, 0.7 and pi/2 rad).  A cell runs ten queries,
``i = 0..9``, of ``LogConcaveWarmStartOracle`` at d = 5, margin-power-law
noise with alpha = 0.5 and scale 0.5, 200k-row rounds, 400k warm samples and
query theta = 0.15:

- the target is a unit Gaussian vector of ``default_rng(100 + i)``;
- ``w`` turns the target by the cell's angle toward a unit vector
  orthogonal to it, drawn from ``default_rng(5000 + i)``;
- the instance seed is ``200 + i`` and the oracle seed ``300 + i``.

A witness counts only when its margin terms average below 0 on 1M fresh rows
of the instance.  The script prints one line per cell (witnesses of 10, and
the median of the oracle's draws) and a JSON object with every query's
outcome.  It takes about a minute on two cores.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parents[1]

D = 5
ANGLES = (0.0, 0.3, 0.7, math.pi / 2)
FAMILIES = ("ISOTROPIC_LAPLACE", "UNIFORM_BALL")
QUERIES = 10
THETA = 0.15
ROWS_PER_ROUND = 200_000
WARM_SAMPLES = 400_000
FRESH_ROWS = 1_000_000
#: The fresh rows' batch index, far from every stream of ``BATCH_INDEX``.
FRESH_BATCH = 9_900_001


def unit(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v)


def query(synthetic, learner, family: str, angle: float, i: int) -> dict:
    """One query's outcome: whether it found a witness that holds on fresh
    rows, the witness's fresh mean, and the oracle's draws."""
    target = unit(np.random.default_rng(100 + i).standard_normal(D))
    u = np.random.default_rng(5000 + i).standard_normal(D)
    u = unit(u - (u @ target) * target)
    w = math.cos(angle) * target + math.sin(angle) * u
    marginal = synthetic.MarginalSpec(synthetic.Family[family], D)
    noise = synthetic.margin_power_law(0.5, marginal, scale=0.5)
    inst = synthetic.InstanceSpec(marginal, target, noise, seed=200 + i)
    oracle = learner.LogConcaveWarmStartOracle(
        inst, synthetic.well_behaved_params(marginal), noise,
        samples_per_round=ROWS_PER_ROUND, warm_samples=WARM_SAMPLES,
        seed=300 + i,
    )
    witness = oracle.query(unit(w), THETA, 0.05)
    fresh_mean = None
    if witness is not None:
        fresh = synthetic.sample_batch(inst, FRESH_ROWS, batch=FRESH_BATCH)
        fresh_mean = float(np.mean(witness.margin_terms(fresh)))
    return {
        "i": i,
        "witness": fresh_mean is not None and fresh_mean < 0.0,
        "fresh_mean": fresh_mean,
        "draws": oracle.samples_drawn,
    }


def main(argv: list[str]) -> int:
    if len(argv) > 1:
        print(__doc__, file=sys.stderr)
        return 2
    repo = Path(argv[0]).resolve() if argv else HERE
    sys.path.insert(0, str(repo / "src"))
    from tsyblearn import learner, synthetic

    cells = []
    for family in FAMILIES:
        for angle in ANGLES:
            runs = [query(synthetic, learner, family, angle, i) for i in range(QUERIES)]
            hits = sum(r["witness"] for r in runs)
            median = float(np.median([r["draws"] for r in runs]))
            print(f"{family:18s} angle {angle:.4f}: {hits:2d}/{QUERIES} witnesses, "
                  f"median draws {median / 1e6:.2f}M", flush=True)
            cells.append({"family": family, "angle": angle, "witnesses": hits,
                          "median_draws": median, "runs": runs})
    print(json.dumps({"cells": cells}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
