"""Online learning on the unit sphere driven by a non-optimality certificate oracle.

The outer learning loop runs one body each round: it asks an oracle whether
the unit iterate is certifiably non-optimal, draws the round's batch, and
turns the iterate toward the descent direction of the certificate's linear
loss.  A zero start first takes the averaging direction ``mean(y * x)``.  An
oracle Fail means no certificate was found and the current direction is
returned as the answer.
Two oracle implementations are provided — threshold scanning from one random
start and its antipode for well-behaved marginals, and a warm-started variant
for the log-concave families that first seeds the scan from label-moment
structure.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
from dataclasses import asdict, dataclass, field
from enum import Enum
from typing import List, Optional

import numpy as np

from .certificate import (
    HOLDOUT_SLACK_SE,
    CertificateWitness,
    TransformConfig,
    holdout_bar,
    search_band,
    search_certificate,
)
from .errors import (
    EmptyBand,
    EmptySubspace,
    InvalidConfig,
    SingularCovariance,
    SourceExhausted,
    TsyblearnError,
)
from .geometry import as_unit, check_unit, normalized_update, random_unit
from .synthetic import (
    LabeledBatch,
    NoiseSpec,
    SampleStream,
    WellBehavedParams,
    batch_base,
)
from .warmstart import MIN_WARM_SAMPLES, warm_start, warm_start_batch

logger = logging.getLogger(__name__)

#: Guess cap of the doubling loop in the log-concave oracle (radians).
GUESS_CAP = 1.0

#: A witness round ``t`` turns the iterate by ``TURN / sqrt(t)`` rad.  On
#: Gaussian d = 5 at constant rate 0.2 (query angle 0.1, 50k learner rows
#: and 200k oracle rows a round, 80 rounds) 10 of 10 random starts land
#: within 0.15 rad of the target in 10-18 rounds; ROADMAP.md item 3's table
#: gives other query angles and budgets.
TURN = 0.5


class CertOutcome(Enum):
    WITNESS = "Witness"
    FAIL = "Fail"
    ZERO_VECTOR = "ZeroVector"


class StopReason(Enum):
    ORACLE_FAIL = "OracleFail"
    CONTRACT_VIOLATION = "ContractViolation"
    EXHAUSTED = "Exhausted"


@dataclass(frozen=True)
class LearnerConfig:
    """Round and sample budgets for the outer loop.

    ``start`` selects the initial iterate: ``"e1"`` (the default coordinate
    vector), ``"zero"`` (the first round takes the averaging direction
    ``mean(y * x)`` of its batch), or ``"random"`` (seeded unit vector, for
    decorrelating repeated runs).
    """

    epsilon: float
    delta: float = 0.05
    max_rounds: int = 20
    samples_n: int = 200_000
    seed: int = 0
    start: str = "e1"

    def __post_init__(self) -> None:
        if not (0.0 < self.epsilon <= math.pi):
            raise InvalidConfig(f"epsilon must lie in (0, pi], got {self.epsilon}")
        if not (0.0 < self.delta < 1.0):
            raise InvalidConfig(f"delta must lie in (0, 1), got {self.delta}")
        if self.max_rounds < 1:
            raise InvalidConfig(f"max_rounds must be >= 1, got {self.max_rounds}")
        if self.samples_n < self.max_rounds:
            raise InvalidConfig("samples_n must cover at least one sample per round")
        if self.start not in ("e1", "zero", "random"):
            raise InvalidConfig(
                f"start must be 'e1', 'zero' or 'random', got {self.start!r}"
            )


@dataclass
class RoundRecord:
    """One round of the loop: the queried iterate and what happened to it."""

    index: int
    w: np.ndarray
    loss: float
    cert_outcome: CertOutcome
    step: float
    grad: Optional[np.ndarray] = None
    cert_value: Optional[float] = None

    def to_dict(self) -> dict:
        return {
            "round": self.index,
            "w": [float(a) for a in self.w],
            "loss": self.loss,
            "cert_outcome": self.cert_outcome.value,
            "step": self.step,
            "grad": None if self.grad is None else [float(a) for a in self.grad],
            "cert_value": self.cert_value,
        }


@dataclass
class LearnerTrace:
    """Full history of a run, serializable as JSON-lines (one round per line)."""

    rounds: List[RoundRecord] = field(default_factory=list)
    final_w: Optional[np.ndarray] = None
    stop_reason: Optional[StopReason] = None
    fallback_used: bool = False

    def to_jsonl(self) -> str:
        lines = [json.dumps(r.to_dict(), sort_keys=True) for r in self.rounds]
        tail = {
            "final_w": None
            if self.final_w is None
            else [float(a) for a in self.final_w],
            "stop_reason": None if self.stop_reason is None else self.stop_reason.value,
            "fallback_used": self.fallback_used,
        }
        lines.append(json.dumps(tail, sort_keys=True))
        return "\n".join(lines) + "\n"


def model_payload(w: np.ndarray, cfg: LearnerConfig) -> dict:
    """The final-model record: direction plus the config fingerprint."""
    blob = json.dumps(asdict(cfg), sort_keys=True)
    return {
        "w": [float(a) for a in w],
        "epsilon": cfg.epsilon,
        "delta": cfg.delta,
        "seed": cfg.seed,
        "config_hash": hashlib.sha256(blob.encode()).hexdigest()[:16],
    }


def loss_gradient(
    batch: LabeledBatch, witness: Optional[CertificateWitness]
) -> np.ndarray:
    """Gradient of the round's linear loss: ``-mean(T(x) * y * x)``.

    ``T`` is the witness's ``1/<w, x>`` weight rescaled by ``sigma1``, so
    ``sup |T| <= 1``; the correlation ``E[T(x) * y * <w, x>]`` is then
    ``sigma1`` times the band-and-window label mean and keeps the witness's
    negative sign.  With no witness (the zero start) ``T = 1``, and minus
    the gradient is the averaging direction ``mean(y * x)``.
    """
    if len(batch) == 0:
        raise InvalidConfig("loss gradient needs a nonempty batch")
    terms = batch.y.astype(np.float64)
    if witness is not None:
        terms = witness.sigma1 * witness.t_values(batch.x) * terms
    return -np.asarray((batch.x * terms[:, None]).mean(axis=0))


def turn(w: np.ndarray, grad: np.ndarray, angle: float) -> np.ndarray:
    """The unit ``w`` turned by ``angle`` rad toward ``-g``, ``g`` the part
    of ``grad`` orthogonal to ``w``: the certificate search's own move
    (``normalized_update``).  With ``g = 0`` there is no descent direction
    off ``w``, and ``w`` stays."""
    g = grad - (grad @ w) * w
    if not np.any(g):
        return w
    return normalized_update(w, -as_unit(g), math.tan(angle))


def angle_to_error(theta: float, params: WellBehavedParams, eps: float) -> float:
    """Convert an angle guarantee into a 0-1 error budget.

    ``U * beta^2 * log^2(1/eps) * theta + eps`` — the disagreement mass a
    well-behaved marginal can place in a wedge of angle theta, plus the
    target slack.
    """
    if theta < 0:
        raise InvalidConfig(f"theta must be >= 0, got {theta}")
    if not (0.0 < eps <= 1.0):
        raise InvalidConfig(f"eps must lie in (0, 1], got {eps}")
    return params.U * params.beta**2 * math.log(1.0 / eps) ** 2 * theta + eps


def warm_guesses(theta: float) -> list:
    """The warm oracle's angle guesses at ``theta``: ``theta, 2*theta, ...``
    below ``GUESS_CAP``, then ``GUESS_CAP``."""
    out = []
    while theta < GUESS_CAP:
        out.append(theta)
        theta *= 2.0
    out.append(GUESS_CAP)
    return out


def _start_vector(d: int, cfg: LearnerConfig) -> np.ndarray:
    if cfg.start == "zero":
        return np.zeros(d)
    if cfg.start == "random":
        return random_unit(d, np.random.default_rng(cfg.seed))
    return np.eye(1, d)[0]


def learn(stream: SampleStream, oracle, cfg: LearnerConfig):
    """Run the certificate-driven loop; returns ``(direction, trace)``.

    Every round runs one body.  A unit iterate is queried: the oracle gets
    it with ``(epsilon, delta / max_rounds)``, and Fail stops the run with
    it as the answer.  The round then draws its batch with ``stream.next``,
    so a round whose oracle returned Fail (or raised) draws none.  A witness
    is re-validated on that batch: a value above 0 plus three standard
    errors, when the batch holds any support point at all, is logged as an
    oracle contract violation and stops the run like a Fail.  Otherwise the
    iterate turns by ``a_t = TURN / sqrt(t)`` rad toward minus the witness's
    loss gradient off it (``turn``).  A zero start is not queried: its round
    moves to the averaging direction ``mean(y * x)`` of the batch, and stays
    zero if that mean is.  If no round ends the run, the answer is a
    fallback, flagged in the trace: the iterate of the witness round whose
    validation value was least negative; with no witness round, the last
    iterate, or e1 if it is still zero.
    """
    trace = LearnerTrace()
    try:
        trace.stop_reason, trace.final_w = _learn_rounds(
            stream, oracle, cfg, trace
        )
    except TsyblearnError as err:
        # Let callers flush whatever rounds completed before the failure.
        err.partial_trace = trace
        raise
    return trace.final_w, trace


def _learn_rounds(stream, oracle, cfg, trace):
    """Append ``learn``'s rounds to ``trace``; returns ``(stop, answer)``."""
    per_round = max(1, cfg.samples_n // cfg.max_rounds)
    w = _start_vector(stream.d, cfg)
    for t in range(1, cfg.max_rounds + 1):
        a = TURN / math.sqrt(t)
        if not np.any(w):
            g = loss_gradient(stream.next(per_round), None)
            trace.rounds.append(
                RoundRecord(t, w.copy(), 0.0, CertOutcome.ZERO_VECTOR, a, g)
            )
            if np.any(g):
                w = as_unit(-g)
            continue
        witness = oracle.query(w, cfg.epsilon, cfg.delta / cfg.max_rounds)
        if witness is None:
            trace.rounds.append(
                RoundRecord(t, w.copy(), 0.0, CertOutcome.FAIL, a)
            )
            return StopReason.ORACLE_FAIL, w
        batch = stream.next(per_round)
        terms = witness.margin_terms(batch)
        hval = float(np.mean(terms))
        # A batch with no support points carries no evidence either way, and
        # the negativity bar gets the oracle's own holdout slack.
        bar = holdout_bar(terms, 0.0)
        if np.any(terms) and hval > bar:
            logger.warning(
                "round %d: holdout value %.4g above 0 + %g se = %.4g",
                t, hval, HOLDOUT_SLACK_SE, bar,
            )
            trace.rounds.append(RoundRecord(
                t, w.copy(), 0.0, CertOutcome.FAIL, a, cert_value=hval
            ))
            return StopReason.CONTRACT_VIOLATION, w
        g = loss_gradient(batch, witness)
        trace.rounds.append(RoundRecord(
            t, w.copy(), float(g @ w), CertOutcome.WITNESS, a, g, hval
        ))
        w = turn(w, g, a)
    trace.fallback_used = True
    witness_rounds = [
        r for r in trace.rounds if r.cert_outcome is CertOutcome.WITNESS
    ]
    if witness_rounds:
        best = max(witness_rounds, key=lambda r: r.cert_value)
        logger.info(
            "all %d rounds produced witnesses; falling back to the least-"
            "negative round %d (value %.4g)",
            cfg.max_rounds,
            best.index,
            best.cert_value,
        )
        return StopReason.EXHAUSTED, best.w
    if np.any(w):
        return StopReason.EXHAUSTED, w
    return StopReason.EXHAUSTED, np.eye(1, w.shape[0])[0]


class WellBehavedCertOracle:
    """Certificate oracle for well-behaved marginals: one random ± pair.

    ``source`` is anything a ``SampleStream`` draws from: an
    ``InstanceSpec``, or a dataset (a ``LabeledBatch`` or a
    ``BinaryDataset``); the oracle scans its own stream of it.  A query runs
    ``search_certificate`` on each ``(band, starts)`` that ``_searches``
    gives, in order, for at most ``MAX_ITERS`` rounds each: here one search
    on the band ``search_band`` gives around ``w`` at ``theta``, from a
    random start ``v`` orthogonal to ``w`` (``_random_start``) together
    with ``-v``, both on one batch per round.  Each round without a hit
    turns a start toward the target's component orthogonal to ``w``; a
    start past 90 degrees from it would first have to turn round (and at
    d = 2 cannot), while its antipode is within 90 degrees.
    ``last_search`` is the record (``CertSearchTrace``) of the last
    ``search_certificate`` run, None before the first.  Create a fresh
    oracle per run for reproducibility.
    """

    #: The scan stream's name in ``synthetic.BATCH_INDEX``.
    STREAM = "oracle"

    #: Most rounds of each ``search_certificate`` run.
    MAX_ITERS = 25

    def __init__(self, source, params: WellBehavedParams, noise: NoiseSpec, *,
                 samples_per_round: int = 50_000, seed: int = 0) -> None:
        if samples_per_round < 1:
            raise InvalidConfig(
                f"samples_per_round must be >= 1, got {samples_per_round}"
            )
        self.params = params
        self.noise = noise
        self.samples_per_round = samples_per_round
        self.seed = seed
        self.queries = 0
        self.last_search = None
        self._stream = SampleStream(source, batch_base(self.STREAM, seed))

    @property
    def samples_drawn(self) -> int:
        """Raw samples drawn so far: the stream's ledger."""
        return self._stream.drawn

    def _random_start(self, band: TransformConfig) -> np.ndarray:
        """A random unit start orthogonal to ``band.w``, a pure function of
        the oracle's seed and the query's index."""
        rng = np.random.default_rng(self.seed + 7919 * self.queries)
        return random_unit(band.w.shape[0], rng, orthogonal_to=band.w)

    def _searches(self, w: np.ndarray, theta: float):
        """The ``(band, starts)`` of each search of a query, in order."""
        band = search_band(w, theta, self.params)
        v = self._random_start(band)
        yield band, np.stack([v, -v])

    def query(self, w: np.ndarray, theta: float, delta: float):
        """The first witness of the query's searches, or None (Fail)."""
        check_unit(w, "w")
        self.queries += 1
        for band, starts in self._searches(w, theta):
            witness, self.last_search = search_certificate(
                self._stream, band, starts, self.samples_per_round, self.MAX_ITERS
            )
            if witness is not None:
                return witness
        return None


class LogConcaveWarmStartOracle(WellBehavedCertOracle):
    """Certificate oracle that seeds the scan from label-moment structure.

    Runs the doubling loop over the angle guesses ``warm_guesses(theta)``:
    each guess warm-starts a direction ``v`` from the band/Chow pipeline
    (``warm_start``) and runs ``search_certificate`` from ``v`` and ``-v``
    in lockstep, both signs scanning and updating on one fresh batch per
    round (why that is sound: ``compute_certificate``).  The guesses share
    one ``warm_samples``-row warm-start batch (``warm_start_batch``), drawn
    and charged once per query: a guess only proposes ``v``, and the
    soundness rests on the searches' fresh rounds and holdout.  A guess
    whose warm start fails, EmptySubspace included (no direction above its
    noise floor, so no evidence), runs no search.
    After the guesses the query runs the random-init oracle's search: one
    random start ``v`` orthogonal to ``w`` together with ``-v``, on the band
    for ``theta``.  The first validated witness wins (the loop is
    sequential, so the smallest guess wins ties by construction).

    Of the sources ``WellBehavedCertOracle`` takes it takes only an
    ``InstanceSpec``: every query draws fresh warm-start samples from it,
    which a dataset cannot supply, so a dataset raises InvalidConfig.
    """

    STREAM = "warm_oracle"
    MAX_ITERS = 12

    def __init__(
        self,
        source,
        params: WellBehavedParams,
        noise: NoiseSpec,
        *,
        samples_per_round: int = 50_000,
        warm_samples: int = 400_000,
        seed: int = 0,
    ) -> None:
        if warm_samples < MIN_WARM_SAMPLES:
            raise InvalidConfig(
                f"warm_samples must be >= {MIN_WARM_SAMPLES}, got {warm_samples}"
            )
        super().__init__(source, params, noise, seed=seed,
                         samples_per_round=samples_per_round)
        if self._stream.instance is None:
            raise InvalidConfig(
                "oracle: the log-concave warm-start oracle draws its warm "
                f"starts from an instance, not a {type(source).__name__}; "
                "a dataset runs only WellBehavedRandomInit"
            )
        self.warm_samples = warm_samples
        self._warm_drawn = 0

    @property
    def samples_drawn(self) -> int:
        """Raw samples drawn so far: the scan stream's ledger plus
        ``warm_samples`` for each query's warm-start batch."""
        return self._stream.drawn + self._warm_drawn

    def _searches(self, w: np.ndarray, theta: float):
        first = self.seed + 104_729 * self.queries
        guesses = [(guess, first + index)
                   for index, guess in enumerate(warm_guesses(theta))]
        raw = warm_start_batch(self._stream.instance, self.warm_samples, w,
                               self.noise, guesses)
        self._warm_drawn += self.warm_samples
        for guess, seed in guesses:
            band = search_band(w, guess, self.params)
            try:
                v = warm_start(raw, w, self.noise, guess, seed).v
            except (EmptyBand, EmptySubspace, SourceExhausted,
                    SingularCovariance) as err:
                logger.debug("guess %.3g: warm start failed (%s)", guess, err)
                continue
            yield band, np.stack([v, -v])
        yield from super()._searches(w, theta)
