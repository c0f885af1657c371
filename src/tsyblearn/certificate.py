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

import itertools
import logging
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import InvalidConfig, SourceExhausted
from .geometry import (
    as_unit,
    check_unit,
    normalized_update,
    perspective_projection_batch,
)
from .synthetic import LabeledBatch, SampleStream, WellBehavedParams

logger = logging.getLogger(__name__)

#: Rotation (radians) applied to ``v`` by each update of the search.
AUTO_STEP_ROTATION = 0.35

#: Holdout acceptance slack and significance, in standard errors.
HOLDOUT_SLACK_SE = 3.0

#: The scan threshold, in standard errors of a +/-1 mean over a round's raw
#: rows.  The scan and the holdout average over the band rows only, so ``c``
#: is about ``10 * sqrt(band_mass)`` of their standard errors (1.6 at band
#: mass 0.025); the holdout rule, not ``c``, bounds false witnesses.
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
        object.__setattr__(self, "w", check_unit(self.w, "w"))
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


def transform(band: LabeledBatch, cfg: TransformConfig) -> LabeledBatch:
    """Perspective-project the rows of a band batch.

    ``band`` holds rows with ``<w, x>`` in ``[sigma1, sigma2]``
    (``SampleStream.next_band``); each maps to ``x / <w, x>`` minus its ``w``
    component.  The result stands for the same raw rows (``n_input``), and a
    zero-row batch stays one.
    """
    z = perspective_projection_batch(band.x, cfg.w)
    return LabeledBatch(x=z, y=band.y, n_input=band.n_input)


def certificate_value(
    batch: LabeledBatch, v: np.ndarray, t_lo: float, t_hi: float
) -> float:
    """Empirical mean of ``1{-t_hi <= <v, z> <= -t_lo} * y`` over the batch.

    The rows ``z`` of ``batch.x`` are projected points (``transform``), here
    and in the scan and update below.  The mean is over *all* provided
    samples (points outside the window contribute zero), matching the
    population quantity the scan bounds.
    """
    if t_lo >= t_hi:
        raise InvalidConfig(f"need t_lo < t_hi, got [{t_lo}, {t_hi}]")
    if len(batch) == 0:
        return 0.0
    proj = batch.x @ v
    inside = (proj >= -t_hi) & (proj <= -t_lo)
    return float(np.sum(batch.y[inside]) / len(batch))


def scan_thresholds(
    batch: LabeledBatch, v: np.ndarray, R: float, c: float
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

    Only the window rows, those with ``-<v, z>`` in ``[R/2, R]``, are sorted.
    Every candidate is at least ``R/2``, so a window ``[t0, R]`` holds no
    row outside them: the other rows would only shift the sorted indices.
    The window sums are integer label sums over the same rows, hence equal
    to a full sort's, and so are the minimum and the ``t0`` it picks.  The
    cost is O(n) to filter plus O(m log m) to sort the ``m`` window rows.
    """
    if R <= 0 or c <= 0:
        raise InvalidConfig(f"need R > 0 and c > 0, got R={R}, c={c}")
    n = len(batch)
    if n == 0:
        return None
    p = -(batch.x @ v)
    window = (p >= R / 2.0) & (p <= R)
    p_window = p[window]
    order = np.argsort(p_window, kind="stable")
    p_sorted = p_window[order]
    y_sorted = batch.y[window][order].astype(np.int64)
    # suffix sums of labels for p >= t0
    hi = len(p_sorted)
    suffix = np.zeros(hi + 1, dtype=np.int64)
    if hi:
        suffix[:hi] = np.cumsum(y_sorted[::-1])[::-1]
    in_range = p_sorted[p_sorted < R]
    candidates = np.unique(np.concatenate([in_range, [R / 2.0]]))
    j = np.searchsorted(p_sorted, candidates, side="left")
    sums = suffix[j]
    # Candidates ascend, so the last minimum is the tie-break toward larger t0.
    best = len(sums) - 1 - int(np.argmin(sums[::-1]))
    if sums[best] / n <= -c:
        return float(candidates[best])
    return None


def update_direction(batch: LabeledBatch, v: np.ndarray, R: float) -> np.ndarray:
    """Gradient estimate: mean of ``1{-R <= <v,z> <= -R/2} * y * z`` off ``v``.

    The returned vector has its ``v`` component removed; the empty-window
    case returns the zero vector.
    """
    if R <= 0:
        raise InvalidConfig(f"need R > 0, got R={R}")
    proj = batch.x @ v
    inside = (proj >= -R) & (proj <= -R / 2.0)
    if not np.any(inside):
        return np.zeros(batch.x.shape[1])
    g = (batch.y[inside, None] * batch.x[inside]).sum(axis=0) / len(batch)
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
        w = check_unit(self.w, "w")
        v = check_unit(self.v, "v")
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "v", v)
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
        """Boolean mask of the ``(n, d)`` rows ``x`` in the band-and-window support."""
        pts = np.asarray(x, dtype=np.float64)
        if pts.ndim != 2:
            raise InvalidConfig(f"x must be (n, d) rows, got shape {pts.shape}")
        s = pts @ self.w
        in_band = (s >= self.sigma1) & (s <= self.sigma2)
        out = np.zeros(pts.shape[0], dtype=bool)
        ratio = (pts[in_band] @ self.v) / s[in_band]
        out[in_band] = (ratio >= -self.t1) & (ratio <= -self.t2)
        return out

    def t_values(self, x: np.ndarray) -> np.ndarray:
        """``T(x)`` at each row of ``x``: ``1 / <w, x>`` on the support, else 0."""
        pts = np.asarray(x, dtype=np.float64)
        mask = self.indicator(pts)
        out = np.zeros(pts.shape[0])
        out[mask] = 1.0 / (pts[mask] @ self.w)
        return out

    def margin_terms(self, batch: LabeledBatch) -> np.ndarray:
        """Per-sample ``sigma1 * T(x) * y * <w, x>`` values (0 off the support).

        ``sigma1 * T`` is the bounded certifying function the learner uses
        (``sup <= 1``), so their mean estimates its negative correlation.
        """
        mask = self.indicator(batch.x)
        terms = np.zeros(len(batch))
        terms[mask] = self.sigma1 * batch.y[mask]
        return terms

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


def holdout_bar(terms: np.ndarray, target: float) -> float:
    """The most a holdout's mean of ``terms`` may read to count as below
    ``target``: ``target`` plus ``HOLDOUT_SLACK_SE`` standard errors of that
    mean (none on a zero-row holdout)."""
    se = float(np.std(terms) / math.sqrt(len(terms))) if len(terms) else 0.0
    return target + HOLDOUT_SLACK_SE * se


def threshold_floor(n: int) -> float:
    """The scan threshold ``c`` on ``n`` samples per round.

    The analysis fixes ``c`` only up to polynomial factors in the noise and
    regularity constants; on every configuration the program accepts those
    factors fall below this floor, so the floor is the threshold.

    ``c`` is ``THRESHOLD_FLOOR_SE`` standard errors of a mean over the ``n``
    raw rows, but ``scan_thresholds`` and the holdout divide by the round's
    band rows, about ``band_mass * n`` of them.  Against their standard
    error ``c`` is only about ``THRESHOLD_FLOOR_SE * sqrt(band_mass)``: 1.6
    at band mass 0.025.  So a scan hit alone is not significant; what bounds
    false witnesses is the holdout rule, which accepts a fresh value at most
    ``holdout_bar(terms, -c)`` and below zero.
    """
    return THRESHOLD_FLOOR_SE / math.sqrt(max(n, 1))


@dataclass
class CertSearchTrace:
    """Per-round diagnostics of a certificate search: each round appends its
    ``(k, d)`` starts, and lists of ``k`` scan values and gradient norms."""

    rounds: int = 0
    scan_values: list = field(default_factory=list)
    grad_norms: list = field(default_factory=list)
    v_history: list = field(default_factory=list)
    holdout_rejections: int = 0
    n_used: int = 0
    c_used: float = 0.0


def compute_certificate(
    source: Callable[[], LabeledBatch],
    band: TransformConfig,
    starts: np.ndarray,
    c: float,
    max_iters: int,
    trace: Optional[CertSearchTrace] = None,
) -> Optional[CertificateWitness]:
    """Run the scan-or-update loop; a witness on success, None on Fail.

    ``starts`` is a ``(k, d)`` stack of unit starts searched in lockstep (one
    start is a ``(1, d)`` stack; any other shape raises).  Each of at most
    ``max_iters`` rounds pulls one fresh transformed batch and, for every
    start in row order, scans thresholds in ``[R/2, R]`` (``R = 1 /
    band.rho``, the projected space's scan radius) for window value <= -c.
    A hit is re-measured on its own fresh holdout batch and accepted when the
    holdout value stays below ``-c`` up to sampling slack (and strictly below
    zero); the first accepted witness is returned.  Otherwise the start's
    outer-window gradient on the round's batch rotates it by
    ``AUTO_STEP_ROTATION``.  ``None`` (Fail) is the contractual outcome when
    no certificate is found — it carries no claim that none exists.

    Sharing the round's batch keeps each start's guarantees: every start
    still sees a fresh batch every round; every holdout is fresh and
    independent of the window the scan picked, so each acceptance test keeps
    its false-accept bound; and the stack runs no more holdout tests than its
    starts would one after another, so the union bound over them is unchanged.

    ``source()`` returns the next transformed batch, projected through
    ``band``, whose ``w``, ``sigma1`` and ``sigma2`` are the minted witness's
    band provenance.  ``trace`` gets one entry per round (``CertSearchTrace``
    says which), and its ``n_used`` counts each batch once.
    """
    if max_iters < 1:
        raise InvalidConfig(f"max_iters must be >= 1, got {max_iters}")
    w, R = band.w, 1.0 / band.rho
    starts = np.array(starts, dtype=np.float64)  # a copy: rows are updated
    if starts.ndim != 2 or not len(starts):
        raise InvalidConfig(f"starts must be a (k, d) stack, got shape {starts.shape}")
    for v in starts:
        check_unit(v, "start")
    if trace is None:
        trace = CertSearchTrace()
    trace.c_used = c
    for round_idx in range(max_iters):
        batch = source()
        trace.rounds += 1
        trace.n_used += batch.n_input
        trace.v_history.append(starts.copy())
        scans, norms = [], []
        for i, v in enumerate(starts):
            t0 = scan_thresholds(batch, v, R, c)
            if t0 is not None:
                holdout = source()
                trace.n_used += holdout.n_input
                val = certificate_value(holdout, v, t0, R)
                proj = holdout.x @ v
                inside = (proj >= -R) & (proj <= -t0)
                terms = np.where(inside, holdout.y, 0).astype(np.float64)
                # A zero-row holdout has value 0 and is rejected.
                bar = holdout_bar(terms, -c)
                if val <= bar and val < 0:
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
                    bar,
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
        trace.scan_values.append(scans)
        trace.grad_norms.append(norms)
    return None


def _reorthogonalize(v: np.ndarray, w: np.ndarray) -> np.ndarray:
    return as_unit(v - float(v @ w) * w)


def search_band(
    w: np.ndarray, theta: float, params: WellBehavedParams
) -> TransformConfig:
    """The band a search for angles >= ``theta`` around ``w`` conditions on,
    inside the well-behaved radius: its scale ``rho = tan(theta)``, capped at
    1, puts the projected decision boundary's offset ``1/tan(angle)`` inside
    the scan range ``(R'/2, R']`` exactly when the true angle is in the
    targeted regime, and beyond it (forcing Fail) when the angle is below."""
    rho = float(min(1.0, math.tan(min(theta, math.pi / 2.5))))
    return TransformConfig(w=w, rho=rho, R=params.R)


def search_certificate(
    stream: SampleStream,
    band: TransformConfig,
    starts: np.ndarray,
    samples_per_round: int,
    max_iters: int,
) -> tuple[Optional[CertificateWitness], dict]:
    """The oracle procedure: does a certificate show that ``band.w`` errs?

    Runs ``compute_certificate`` on the band ``band`` (for an angle guess:
    ``search_band``) at ``c = threshold_floor(samples_per_round)`` from the
    ``(k, d)`` stack ``starts``, searched in lockstep on one batch per round
    (why that is sound: ``compute_certificate``).  A search round projects
    (``transform``) the band rows among the stream's next
    ``samples_per_round`` raw rows (``SampleStream.next_band``); without
    band rows it holds no evidence.  The first round's batch also measures
    the band: ``band_mass`` is its band rows over the raw rows it stands
    for, and a first round without band rows is the empty-band Fail,
    charged that one round.  Otherwise that batch is the search's first
    round.  Returns ``(witness or None, info)``; info holds ``band_mass``
    once the first round is drawn, and ``exhausted`` (True) if a dataset
    ran out.  A witness's ``n_used`` counts every batch the search drew.
    """
    if samples_per_round < 1:
        raise InvalidConfig(f"samples_per_round must be >= 1, got {samples_per_round}")

    def next_round() -> LabeledBatch:
        rows = stream.next_band(samples_per_round, band.w, band.sigma1, band.sigma2)
        return transform(rows, band)

    info: dict = {}
    try:
        first = next_round()
        info["band_mass"] = len(first) / first.n_input
        if not len(first):
            logger.debug("empty band around w, Fail")
            return None, info
        # The batch that measured the band is the search's first round.
        rounds = itertools.chain([first], iter(next_round, None)).__next__
        c = threshold_floor(samples_per_round)
        return compute_certificate(rounds, band, starts, c, max_iters), info
    except SourceExhausted:
        info["exhausted"] = True
    return None, info
