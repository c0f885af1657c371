"""Certificate search: band-condition + project, scan for a negative window.

The engine takes a candidate direction ``w`` suspected of being far from the
true halfspace normal, conditions on a thin positive band ``<w, x> in
[sigma1, sigma2]``, maps survivors through the perspective projection onto
``w``'s orthogonal complement, and searches that space for a *certificate*: a
direction ``v`` and threshold window on which the conditional label mean is
significantly negative.  A correct normal admits no such window (labels
correlate nonnegatively with every nonnegative window function), so a found
witness is one-sided evidence that ``w`` errs, and it lifts back to the
original space as a reweighting function with provably negative correlation.

The search alternates a threshold scan with perceptron-like updates of ``v``:
when no window certifies, the labeled mass in the outer window supplies a
gradient whose correlation with the unknown good direction is positive, so a
small normalized step makes progress.  Fresh samples are consumed every round
and any found witness is re-validated on a holdout batch.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

import numpy as np

from .errors import EmptyBand, InvalidConfig, SourceExhausted
from .geometry import (
    check_unit,
    normalized_update,
    perspective_projection_batch,
    random_unit,
)
from .synthetic import (
    LabeledBatch,
    NoiseSpec,
    SampleStream,
    WellBehavedParams,
)

logger = logging.getLogger(__name__)

#: Rotation (radians) applied to ``v`` by each update of the search.
AUTO_STEP_ROTATION = 0.35

#: Holdout acceptance slack and significance, in standard errors.
HOLDOUT_SLACK_SE = 3.0

#: Threshold floor: the scan threshold never drops below this many
#: standard errors of a +/-1 mean, keeping accepted witnesses significant.
THRESHOLD_FLOOR_SE = 10.0


@dataclass(frozen=True)
class TransformConfig:
    """Band-conditioning + perspective-projection parameters.

    The band on ``<w, x>`` is ``[rho*R/2, rho*R/sqrt(2)]``: a thin slab at
    distance proportional to ``rho`` inside the well-behaved radius ``R``.
    """

    w: np.ndarray
    rho: float
    R: float

    def __post_init__(self) -> None:
        w = np.asarray(self.w, dtype=np.float64)
        object.__setattr__(self, "w", w)
        check_unit(w, "w")
        if not (0.0 < self.rho <= 1.0):
            raise InvalidConfig(f"rho must lie in (0, 1], got {self.rho}")
        if self.R <= 0:
            raise InvalidConfig(f"R must be positive, got {self.R}")

    @property
    def sigma1(self) -> float:
        return self.rho * self.R / 2.0

    @property
    def sigma2(self) -> float:
        return self.rho * self.R / math.sqrt(2.0)


@dataclass
class ProjectedBatch:
    """Columnar transformed batch with its survival bookkeeping.

    ``survival`` is the fraction of raw inputs that landed in the band;
    ``n_input`` the raw count they were drawn from.
    """

    z: np.ndarray
    y: np.ndarray
    survival: float = 1.0
    n_input: int = 0

    def __post_init__(self) -> None:
        self.z = np.ascontiguousarray(self.z, dtype=np.float64)
        self.y = np.asarray(self.y)
        if self.z.ndim != 2:
            raise InvalidConfig(f"z must be 2-d, got shape {self.z.shape}")
        if self.y.shape != (self.z.shape[0],):
            raise InvalidConfig(
                f"y has shape {self.y.shape}, expected ({self.z.shape[0]},)"
            )
        if self.y.size and not np.all(np.abs(self.y) == 1):
            raise InvalidConfig("labels must be +1 or -1")
        self.y = self.y.astype(np.int8)
        if not self.n_input:
            self.n_input = len(self.y)

    def __len__(self) -> int:
        return self.z.shape[0]


def transform(batch: LabeledBatch, cfg: TransformConfig) -> ProjectedBatch:
    """Condition on the band and perspective-project the survivors.

    Keeps points with ``<w, x>`` in ``[sigma1, sigma2]`` and maps each to
    ``x / <w, x>`` minus its ``w`` component.  Raises EmptyBand when nothing
    survives.
    """
    s = batch.x @ cfg.w
    band = batch[(s >= cfg.sigma1) & (s <= cfg.sigma2)]
    if len(band) == 0:
        raise EmptyBand(
            f"no samples with <w, x> in [{cfg.sigma1:.6g}, {cfg.sigma2:.6g}] "
            f"out of {len(batch)}"
        )
    return _project_band(band, len(batch), cfg)


def _project_band(band: LabeledBatch, n: int, cfg: TransformConfig) -> ProjectedBatch:
    """Perspective-project the band rows of an ``n``-row batch.

    No band rows give a zero-row batch with survival 0.
    """
    z = perspective_projection_batch(band.x, cfg.w)
    return ProjectedBatch(z=z, y=band.y, survival=len(band) / n, n_input=n)


def certificate_value(
    batch: ProjectedBatch, v: np.ndarray, t_lo: float, t_hi: float
) -> float:
    """Empirical mean of ``1{-t_hi <= <v, z> <= -t_lo} * y`` over the batch.

    The mean is over *all* provided samples (points outside the window
    contribute zero), matching the population quantity the scan bounds.
    """
    if t_lo >= t_hi:
        raise InvalidConfig(f"need t_lo < t_hi, got [{t_lo}, {t_hi}]")
    if len(batch) == 0:
        return 0.0
    proj = batch.z @ v
    inside = (proj >= -t_hi) & (proj <= -t_lo)
    return float(np.sum(batch.y[inside]) / len(batch))


def scan_thresholds(
    batch: ProjectedBatch, v: np.ndarray, R: float, c: float
) -> Optional[float]:
    """Search thresholds ``t0`` in ``[R/2, R)`` for a window value <= -c.

    Candidates are the sample values of ``-<v, z>`` in that range plus the
    lower endpoint (the closed lower endpoint realizes the limit of the open
    scan interval).  ``R`` itself is never a candidate: the window
    ``[t0, R]`` must be nondegenerate for the holdout to re-measure it, and
    on continuous data ``t0 = R`` carries value 0, so it could never be
    returned anyway.  Returns the candidate minimizing the empirical window
    value, ties broken toward larger ``t0``, provided that minimum is at most
    ``-c``; otherwise None.
    """
    if R <= 0 or c <= 0:
        raise InvalidConfig(f"need R > 0 and c > 0, got R={R}, c={c}")
    n = len(batch)
    if n == 0:
        return None
    p = -(batch.z @ v)
    order = np.argsort(p, kind="stable")
    p_sorted = p[order]
    y_sorted = batch.y[order].astype(np.int64)
    # suffix sums of labels for p >= t0, capped at p <= R
    hi = int(np.searchsorted(p_sorted, R, side="right"))
    suffix = np.zeros(hi + 1, dtype=np.int64)
    if hi:
        suffix[:hi] = np.cumsum(y_sorted[:hi][::-1])[::-1]
    in_range = p_sorted[(p_sorted >= R / 2.0) & (p_sorted < R)]
    candidates = np.unique(np.concatenate([in_range, [R / 2.0]]))
    j = np.minimum(np.searchsorted(p_sorted, candidates, side="left"), hi)
    sums = suffix[j]
    # Candidates ascend, so the last minimum is the tie-break toward larger t0.
    best = len(sums) - 1 - int(np.argmin(sums[::-1]))
    if sums[best] / n <= -c:
        return float(candidates[best])
    return None


def update_direction(batch: ProjectedBatch, v: np.ndarray, R: float) -> np.ndarray:
    """Gradient estimate: mean of ``1{-R <= <v,z> <= -R/2} * y * z`` off ``v``.

    The returned vector has its ``v`` component removed; the empty-window
    case returns the zero vector.
    """
    if R <= 0:
        raise InvalidConfig(f"need R > 0, got R={R}")
    n = len(batch)
    if n == 0:
        return np.zeros_like(np.asarray(v, dtype=np.float64))
    proj = batch.z @ v
    inside = (proj >= -R) & (proj <= -R / 2.0)
    if not np.any(inside):
        return np.zeros(batch.z.shape[1])
    g = (batch.y[inside, None] * batch.z[inside]).sum(axis=0) / n
    g = g - (g @ v) * v
    return g


@dataclass(frozen=True)
class CertificateWitness:
    """A found certificate and the provenance needed to use it later.

    Encodes the original-space function
    ``T(x) = (1 / <w, x>) * 1{sigma1 <= <w,x> <= sigma2,
    -t1 <= <v, proj(x)> <= -t2}`` whose label correlation
    ``E[T(x) * y * <w, x>]`` was measured negative (``value``).
    """

    w: np.ndarray
    v: np.ndarray
    sigma1: float
    sigma2: float
    t1: float
    t2: float
    value: float
    n_used: int

    def __post_init__(self) -> None:
        w = np.asarray(self.w, dtype=np.float64)
        v = np.asarray(self.v, dtype=np.float64)
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "v", v)
        check_unit(w, "w")
        check_unit(v, "v")
        if abs(float(w @ v)) > 1e-9:
            raise InvalidConfig("witness directions w and v must be orthogonal")
        if not (0.0 < self.sigma1 < self.sigma2):
            raise InvalidConfig(
                f"need 0 < sigma1 < sigma2, got [{self.sigma1}, {self.sigma2}]"
            )
        if not (0.0 < self.t2 < self.t1):
            raise InvalidConfig(f"need 0 < t2 < t1, got t2={self.t2}, t1={self.t1}")
        if not self.value < 0:
            raise InvalidConfig(f"witness value must be negative, got {self.value}")

    def indicator(self, x: np.ndarray) -> np.ndarray:
        """Boolean mask of points inside the band-and-window support."""
        pts = np.asarray(x, dtype=np.float64)
        single = pts.ndim == 1
        if single:
            pts = pts[None, :]
        s = pts @ self.w
        in_band = (s >= self.sigma1) & (s <= self.sigma2)
        out = np.zeros(pts.shape[0], dtype=bool)
        if np.any(in_band):
            ratio = (pts[in_band] @ self.v) / s[in_band]
            out[in_band] = (ratio >= -self.t1) & (ratio <= -self.t2)
        return out[0] if single else out

    def t_values(self, x: np.ndarray) -> np.ndarray:
        """``T(x)``: ``1 / <w, x>`` on the support, 0 elsewhere."""
        pts = np.asarray(x, dtype=np.float64)
        single = pts.ndim == 1
        if single:
            pts = pts[None, :]
        mask = self.indicator(pts)
        out = np.zeros(pts.shape[0])
        if np.any(mask):
            out[mask] = 1.0 / (pts[mask] @ self.w)
        return out[0] if single else out

    def to_dict(self) -> dict:
        return {
            "w": [float(a) for a in self.w],
            "v": [float(a) for a in self.v],
            "sigma1": self.sigma1,
            "sigma2": self.sigma2,
            "t1": self.t1,
            "t2": self.t2,
            "value": self.value,
            "n_used": self.n_used,
        }

    @staticmethod
    def from_dict(payload: dict) -> "CertificateWitness":
        return CertificateWitness(
            w=np.asarray(payload["w"], dtype=np.float64),
            v=np.asarray(payload["v"], dtype=np.float64),
            sigma1=float(payload["sigma1"]),
            sigma2=float(payload["sigma2"]),
            t1=float(payload["t1"]),
            t2=float(payload["t2"]),
            value=float(payload["value"]),
            n_used=int(payload["n_used"]),
        )


def default_threshold(alpha: float, bigA: float, L: float, R: float) -> float:
    """Heuristic default scan threshold ``c = (R*L / (4*A))**(2/alpha) / 8``.

    The analysis only pins this constant up to polynomial factors; this
    concrete choice is conservative (small) and ``threshold_floor`` keeps it
    meaningful relative to sampling noise.
    """
    return (R * L / (4.0 * bigA)) ** (2.0 / alpha) / 8.0


def threshold_floor(n: int) -> float:
    """Smallest admissible scan threshold on ``n`` samples per round."""
    return THRESHOLD_FLOOR_SE / math.sqrt(max(n, 1))


def search_threshold(
    noise: NoiseSpec,
    params: WellBehavedParams,
    rho: float,
    band_mass: float,
    n: int,
) -> float:
    """Scan threshold ``c`` for the band at perspective scale ``rho``.

    The projection turns radius ``R`` into ``1/rho``, scales densities by
    ``(R * rho)**3`` up to the band geometry and divides the noise-tail
    constant by the band mass; ``default_threshold`` of those constants is
    floored at ``threshold_floor(n)`` for ``n`` samples per round.
    """
    c = default_threshold(
        noise.alpha,
        noise.bigA / band_mass,
        params.L * (params.R * rho) ** 3,
        1.0 / rho,
    )
    return max(c, threshold_floor(n))


@dataclass
class CertSearchTrace:
    """Per-round diagnostics of a certificate search."""

    rounds: int = 0
    scan_values: list = field(default_factory=list)
    grad_norms: list = field(default_factory=list)
    v_history: list = field(default_factory=list)
    holdout_rejections: int = 0
    n_used: int = 0
    c_used: float = 0.0


def compute_certificate(
    source: Callable[[], ProjectedBatch],
    band: TransformConfig,
    v0: np.ndarray,
    c: float,
    max_iters: int,
    trace: Optional[CertSearchTrace] = None,
) -> Optional[CertificateWitness]:
    """Run the scan-or-update loop; a witness on success, None on Fail.

    ``v0`` is one ``(d,)`` start or a ``(k, d)`` stack of starts searched in
    lockstep.  Each of at most ``max_iters`` rounds pulls one fresh
    transformed batch and, for every start in row order, scans thresholds in
    ``[R/2, R]`` (``R = 1 / band.rho``, the projected space's scan radius)
    for window value <= -c.  A hit is re-measured on its own fresh holdout
    batch and accepted when the holdout value stays below ``-c`` up to
    sampling slack (and strictly below zero); the first accepted witness is
    returned.  Otherwise the start's outer-window gradient on the round's
    batch rotates it by ``AUTO_STEP_ROTATION``.  ``None`` (Fail) is the
    contractual outcome when no certificate is found — it carries no claim
    that none exists.

    Sharing the round's batch keeps each start's guarantees: every start
    still sees a fresh batch every round; every holdout is fresh and
    independent of the window the scan picked, so each acceptance test keeps
    its false-accept bound; and the stack runs no more holdout tests than its
    starts would one after another, so the union bound over them is unchanged.

    ``source()`` returns the next transformed batch, projected through
    ``band``, whose ``w``, ``sigma1`` and ``sigma2`` are the minted witness's
    band provenance.  ``trace`` gets one entry per round in ``v_history``,
    ``scan_values`` and ``grad_norms``: a start's vector and values, or for a
    stack its ``(k, d)`` array and a list of ``k`` values; ``n_used`` counts
    each batch once.
    """
    if max_iters < 1:
        raise InvalidConfig(f"max_iters must be >= 1, got {max_iters}")
    w, R = band.w, 1.0 / band.rho
    single = np.ndim(v0) == 1
    starts = np.array(v0, dtype=np.float64, ndmin=2)
    if starts.ndim != 2 or not len(starts):
        raise InvalidConfig(f"v0 must be (d,) or (k, d), got shape {np.shape(v0)}")
    for v in starts:
        check_unit(v, "v0")
    if trace is None:
        trace = CertSearchTrace()
    trace.c_used = c
    for round_idx in range(max_iters):
        batch = source()
        trace.rounds += 1
        trace.n_used += batch.n_input
        trace.v_history.append(starts[0].copy() if single else starts.copy())
        scans, norms = [], []
        for i, v in enumerate(starts):
            t0 = scan_thresholds(batch, v, R, c)
            if t0 is not None:
                holdout = source()
                trace.n_used += holdout.n_input
                val = certificate_value(holdout, v, t0, R)
                proj = holdout.z @ v
                inside = (proj >= -R) & (proj <= -t0)
                terms = np.where(inside, holdout.y, 0).astype(np.float64)
                se = 0.0  # a zero-row holdout has value 0 and is rejected
                if len(terms):
                    se = float(np.std(terms) / math.sqrt(len(terms)))
                if val <= -c + HOLDOUT_SLACK_SE * se and val < 0:
                    return CertificateWitness(
                        w=w,
                        v=_reorthogonalize(v, w),
                        sigma1=float(band.sigma1),
                        sigma2=float(band.sigma2),
                        t1=R,
                        t2=t0,
                        value=val,
                        n_used=trace.n_used,
                    )
                trace.holdout_rejections += 1
                logger.debug(
                    "round %d, start %d: holdout rejected t0=%.4g "
                    "(value %.4g, needed <= %.4g)",
                    round_idx,
                    i,
                    t0,
                    val,
                    -c + HOLDOUT_SLACK_SE * se,
                )
            g = update_direction(batch, v, R)
            g_norm = float(np.linalg.norm(g))
            scans.append(None if t0 is None else float(t0))
            norms.append(g_norm)
            if g_norm < 1e-15:
                logger.debug(
                    "round %d, start %d: zero gradient, direction unchanged",
                    round_idx,
                    i,
                )
                continue
            v = normalized_update(v, g, math.tan(AUTO_STEP_ROTATION) / g_norm)
            # The projected points carry O(eps * ||z||^2) components along w,
            # so v accumulates drift out of the complement; remove it each
            # step to keep the minted witness exactly orthogonal.
            starts[i] = _reorthogonalize(v, w)
        trace.scan_values.append(scans[0] if single else scans)
        trace.grad_norms.append(norms[0] if single else norms)
    return None


def _reorthogonalize(v: np.ndarray, w: np.ndarray) -> np.ndarray:
    out = v - float(v @ w) * w
    return out / float(np.linalg.norm(out))


def _perspective_scale(theta: float) -> float:
    """Perspective parameter for a scan targeted at angles >= theta.

    ``rho = tan(theta)`` puts the projected decision boundary's offset
    ``1/tan(angle)`` inside the scan range ``(R'/2, R']`` exactly when the
    true angle is in the targeted regime, and beyond the window (forcing
    Fail) when the angle is below theta; capped at 1.
    """
    return float(min(1.0, math.tan(min(theta, math.pi / 2.5))))


def search_certificate(
    stream: SampleStream,
    w: np.ndarray,
    theta: float,
    starts: Iterable[np.ndarray],
    noise: NoiseSpec,
    params: WellBehavedParams,
    samples_per_round: int,
    max_iters: int,
) -> tuple[Optional[CertificateWitness], dict]:
    """The oracle procedure: is ``w`` certifiably at angle >= theta?

    Measures the mass of the band around ``w`` (perspective scale for
    ``theta``) on the stream, sizes the search from it, and runs
    ``compute_certificate`` from each entry of ``starts`` in turn.  A search
    round projects the band rows among the stream's next ``samples_per_round``
    raw rows (``SampleStream.next_band``); without band rows it holds no
    evidence.  An entry is one ``(d,)`` start or a ``(k, d)`` stack searched
    in lockstep on one batch per round; either way each start sees a fresh
    batch every round and each hit a fresh holdout, so every acceptance test
    keeps its false-accept bound and the union bound over the query's holdout
    tests is that of the starts run one by one.  Returns ``(first witness or
    None, info)``; info holds
    ``band_mass``, and ``exhausted_at_restart`` (the entry's index) if a
    dataset ran out.
    """
    if samples_per_round < 1:
        raise InvalidConfig(f"samples_per_round must be >= 1, got {samples_per_round}")
    rho = _perspective_scale(theta)
    band = TransformConfig(w=w, rho=rho, R=params.R)
    band_mass = stream.band_mass(band.w, band.sigma1, band.sigma2, samples_per_round)
    info: dict = {"band_mass": band_mass}
    if band_mass <= 0.0:
        logger.debug("empty band around w, Fail")
        return None, info
    c = search_threshold(noise, params, rho, band_mass, samples_per_round)

    def next_round() -> ProjectedBatch:
        drawn = stream.drawn
        rows = stream.next_band(samples_per_round, band.w, band.sigma1, band.sigma2)
        return _project_band(rows, stream.drawn - drawn, band)

    for restart, v0 in enumerate(starts):
        try:
            witness = compute_certificate(next_round, band, v0, c, max_iters)
        except SourceExhausted:
            info["exhausted_at_restart"] = restart
            return None, info
        if witness is not None:
            return witness, info
    return None, info


def lift_certificate(witness: CertificateWitness, batch: LabeledBatch) -> float:
    """Original-space correlation ``mean(T(x) * y * <w, x>)`` on ``batch``.

    Because ``T(x) * <w, x>`` is exactly the band-and-window indicator, this
    equals the band survival fraction times the projected-space window value
    measured on the same sample — the scale that certifies against the
    whole-space distribution rather than the conditional one.
    """
    if len(batch) == 0:
        return 0.0
    mask = witness.indicator(batch.x)
    return float(np.sum(batch.y[mask]) / len(batch))


def random_init(d: int, seed: int, orthogonal_to: Optional[np.ndarray] = None) -> np.ndarray:
    """Uniform random unit vector, optionally inside a vector's complement."""
    if d < 2:
        raise InvalidConfig(f"d must be >= 2, got {d}")
    rng = np.random.default_rng(seed)
    return random_unit(d, rng, orthogonal_to=orthogonal_to)
