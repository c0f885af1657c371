"""Synthetic instance generation: marginals, margin-dependent label noise, sampling.

An *instance* pairs an isotropic-ish marginal distribution on R^d with a unit
target vector and a noise model whose flip probability ``eta(x) <= 1/2`` obeys
a polynomial tail bound: ``Pr[eta(x) >= 1/2 - t] <= bigA * t**(alpha/(1-alpha))``
for all ``t in (0, 1/2]``.  Every noise profile shipped here carries a certified
``bigA`` so the bound holds by construction, not by measurement.

Sampling is counter-based and reproducible: batch ``b`` of an instance with
seed ``s`` is a pure function of ``(s, b)``, so distributed and resumed runs
see identical data.  Draw order within a batch is fixed: first the point
coordinates, then the label-flip uniforms.  The ball family draws Gaussian
directions, then radial uniforms.  The Laplace family draws ``b * S * E``
per coordinate (``E ~ Exp(1)``, ``S`` an independent fair sign): first the
exponentials, then one sign bit per coordinate.

Every instance can also draw a batch in band form (``SampleStream.next_band``,
which draws it by ``_band_points``): only the rows of an ``n``-point batch
with ``<w, x>`` in a band ``[lo, hi]``, with the law of the full batch
filtered to the band.  A product or ball instance draws the full batch's
points from the same generator, keeps the band rows, and draws label-flip
uniforms for those rows only: its points are those of the filtered full batch,
its labels are not.  A standard Gaussian instance draws in conditional form
instead: the survivor count ``k ~ Binomial(n, p_band)`` with ``p_band =
Phi(hi) - Phi(lo)`` exact; each survivor's band coordinate by inverse CDF of
uniforms on ``[Phi(lo), Phi(hi)]``; its part orthogonal to ``w``, standard
normals with the ``w`` component removed; then the label-flip uniforms.  The
band form and the full form of one batch index give different labels (and, for
the Gaussian, different rows), so each consumer always uses one form: the band
search and the warm start of an instance draw band batches, every other
consumer draws full ones.

Every batch, band or full, is drawn on the caller's thread when it is
handed out, as a pure function of its index.

Seeded batch streams: every consumer of an instance starts from its own base
batch index, far from the others and from the low indices tests and
``generate`` use.  ``BATCH_INDEX`` is the one table of these ranges, as ``(base,
stride)`` per stream; a consumer running under seed ``r`` starts at ``base +
stride * r`` (``batch_base``), and a ``SampleStream`` hands out batches
``start, start + 1, ...`` from there.  The streams are ``learner`` (the
outer loop's per-round batches), ``oracle`` and ``warm_oracle`` (the scans
of the two certificate oracles), ``warm_start`` (one draw per warm-start
seed) and ``evaluation`` (``disagreement_error`` off the spherical
families).  ``generate`` writes batch 0.
"""

from __future__ import annotations

import logging
import math
import mmap
import os
import struct
import sys
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Union

import numpy as np

from .errors import InvalidConfig, SourceExhausted, UnsupportedFamily
from .geometry import angle, check_unit

logger = logging.getLogger(__name__)

#: Scale making a one-dimensional logistic coordinate unit-variance.
LOGISTIC_SCALE = math.sqrt(3.0) / math.pi
#: Scale making a one-dimensional Laplace coordinate unit-variance.
LAPLACE_SCALE = 1.0 / math.sqrt(2.0)

_BINARY_MAGIC = b"THSD1"
_BINARY_HEADER = "<5sIQ"
#: Rows per chunk of a dataset pass or band filter; a mapped dataset file is
#: copied out, and its pages dropped, one chunk at a time.  A chunk's
#: ``<w, x>`` need not have the bits of one product over all the rows (numpy
#: computes a one-row product another way, so a one-row final chunk can
#: differ in its last bits), but a dataset file and its copy in memory chunk
#: alike, so the two find the same band rows.
_READ_CHUNK = 8_192
#: Index of the byte holding a native float64's sign bit.
_SIGN_BYTE = 7 if sys.byteorder == "little" else 0


def _special():
    """``scipy.special``, imported on first use.

    Only the Gaussian band draw (``ndtr``, ``ndtri``), the ball constants
    (``gammaln``) and spherical sector noise (``betainc``) call it.  Its
    import took about 0.2 s and 25 MiB of resident memory on a 2-vCPU VM,
    which a run that never calls it (a Laplace learn, a dataset file) need
    not pay.
    """
    from scipy import special

    return special


class Family(Enum):
    """Supported marginal families, all isotropic (identity covariance)."""

    STANDARD_GAUSSIAN = "gaussian"
    ISOTROPIC_LOGISTIC = "logistic"
    ISOTROPIC_LAPLACE = "laplace"
    UNIFORM_BALL = "uniform_ball"


#: Families whose density is a function of ``norm(x)`` alone.
SPHERICAL_FAMILIES = frozenset({Family.STANDARD_GAUSSIAN, Family.UNIFORM_BALL})


@dataclass(frozen=True)
class MarginalSpec:
    """A marginal distribution: a family name plus an ambient dimension."""

    family: Family
    dimension: int

    def __post_init__(self) -> None:
        if not isinstance(self.family, Family):
            raise UnsupportedFamily(f"unknown family: {self.family!r}")
        if not isinstance(self.dimension, (int, np.integer)) or self.dimension < 2:
            raise InvalidConfig(
                f"dimension must be an integer >= 2, got {self.dimension!r}"
            )

    @property
    def ball_radius(self) -> float:
        """Radius of the support ball (``inf`` for unbounded families)."""
        if self.family is Family.UNIFORM_BALL:
            return math.sqrt(self.dimension + 2)
        return math.inf


def one_dim_density_bound(marginal: MarginalSpec) -> float:
    """Upper bound on the density of any one-dimensional projection.

    Certified per family: the Gaussian and ball families are spherically
    symmetric so every direction has the same marginal; for the product
    families the projection onto direction ``v`` is a sum of independent
    scaled coordinates whose density sup is at most the sup of the widest
    single coordinate (a convolution never increases the sup of the most
    spread component, and contracting a symmetric log-concave density's
    scale only raises its sup).
    """
    d = marginal.dimension
    if marginal.family is Family.STANDARD_GAUSSIAN:
        return 1.0 / math.sqrt(2.0 * math.pi)
    if marginal.family is Family.ISOTROPIC_LOGISTIC:
        return 1.0 / (4.0 * LOGISTIC_SCALE)
    if marginal.family is Family.ISOTROPIC_LAPLACE:
        return 1.0 / (2.0 * LAPLACE_SCALE)
    if marginal.family is Family.UNIFORM_BALL:
        # Exact marginal at 0 for radius r = sqrt(d+2):
        # f(0) = Gamma(d/2 + 1) / (sqrt(pi) * Gamma((d+1)/2) * r).
        r = marginal.ball_radius
        gammaln = _special().gammaln
        log_c = (
            gammaln(d / 2.0 + 1.0)
            - 0.5 * math.log(math.pi)
            - gammaln((d + 1) / 2.0)
        )
        return float(np.exp(log_c)) / r


# ---------------------------------------------------------------------------
# Well-behaved parameters
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WellBehavedParams:
    """Certified ``(k, L, R, U, beta)`` regularity constants for a marginal.

    Within radius ``R`` of the origin, every ``k``-dimensional projection of
    the marginal has density in ``[L, U]``, and every one-dimensional
    projection has sub-exponential tails with parameter ``beta``:
    ``Pr[|<v, x>| >= beta * t] <= exp(1 - t)`` for unit ``v`` and ``t >= 0``.
    """

    k: int
    L: float
    R: float
    U: float
    beta: float

    def __post_init__(self) -> None:
        if self.k < 2:
            raise InvalidConfig(f"k must be >= 2, got {self.k}")
        if not (0 < self.L <= self.U):
            raise InvalidConfig(f"need 0 < L <= U, got L={self.L}, U={self.U}")
        if self.R <= 0 or self.beta < 1.0:
            raise InvalidConfig(
                f"need R > 0 and beta >= 1, got R={self.R}, beta={self.beta}"
            )


# Frozen numerically-certified (L, U) for k-dim projections of the product
# families at R = 1, keyed by (family value, k).  The raw values are the
# coordinate-frame extrema (computed exactly from the factored density; the
# minimum over the radius-1 sphere is attained there or in the Gaussian limit
# of a spread-out frame) with a 2x safety margin each way, validated against
# kernel-density estimates on random frames in dimensions 5 and 10.
_PRODUCT_WB: dict[tuple[str, int], tuple[float, float]] = {
    ("logistic", 2): (0.0475, 0.412),
    ("logistic", 3): (0.0192, 0.187),
    ("laplace", 2): (0.0338, 1.0),
    ("laplace", 3): (0.0152, 0.708),
}

#: Sub-exponential tail parameter per family (k and d independent except ball).
#: Gaussian: Pr[|g| >= t] <= exp(1 - t) holds with beta = 1.
#: Logistic(s): MGF of a unit direction bounded via pi*v/sin(pi*v) <= e^{1.81 v^2}
#:   giving beta = 2.5 * s; floored at 1.
#: Laplace(b): product MGF bound gives beta = sqrt(2).
#: Ball: support radius sqrt(d+2) makes the tail bound trivial at beta = radius.
_BETA = {
    Family.STANDARD_GAUSSIAN: lambda d: 1.0,
    Family.ISOTROPIC_LOGISTIC: lambda d: max(1.0, 2.5 * LOGISTIC_SCALE),
    Family.ISOTROPIC_LAPLACE: lambda d: math.sqrt(2.0),
    Family.UNIFORM_BALL: lambda d: math.sqrt(d + 2),
}


def well_behaved_params(marginal: MarginalSpec) -> WellBehavedParams:
    """Certified regularity constants for ``marginal`` at ``R = 1``.

    Uses ``k = min(3, dimension)``.  Gaussian and ball values are exact
    closed forms; product-family values are frozen numerical constants with a
    2x safety margin (see ``_PRODUCT_WB``).
    """
    d = marginal.dimension
    k = min(3, d)
    beta = _BETA[marginal.family](d)
    if marginal.family is Family.STANDARD_GAUSSIAN:
        u = (2.0 * math.pi) ** (-k / 2.0)
        return WellBehavedParams(k=k, L=u * math.exp(-0.5), R=1.0, U=u, beta=beta)
    if marginal.family is Family.UNIFORM_BALL:
        # Projection of the uniform ball of radius r onto k coordinates has
        # exact density C * (1 - ||z||^2 / r^2)^{(d-k)/2} with
        # C = Gamma(d/2 + 1) / (pi^{k/2} * Gamma((d-k)/2 + 1) * r^k).
        r = marginal.ball_radius
        gammaln = _special().gammaln
        log_c = (
            gammaln(d / 2.0 + 1.0)
            - (k / 2.0) * math.log(math.pi)
            - gammaln((d - k) / 2.0 + 1.0)
            - k * math.log(r)
        )
        c = float(np.exp(log_c))
        lo = c * (1.0 - 1.0 / r**2) ** ((d - k) / 2.0)
        return WellBehavedParams(k=k, L=lo, R=1.0, U=c, beta=beta)
    lo, hi = _PRODUCT_WB[(marginal.family.value, k)]
    return WellBehavedParams(k=k, L=lo, R=1.0, U=hi, beta=beta)


# ---------------------------------------------------------------------------
# Noise profiles
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConstantRate:
    """Flip every label independently with probability ``eta0 < 1/2``."""

    eta0: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.eta0 < 0.5):
            raise InvalidConfig(f"eta0 must lie in [0, 0.5), got {self.eta0}")


@dataclass(frozen=True)
class MarginPowerLaw:
    """Noise approaching 1/2 polynomially as the margin shrinks.

    ``eta(x) = 1/2 - min(1/2, (|<w*, x>| / scale)**((1-alpha)/alpha) / 2)``.
    Smaller margins get noisier labels; at margin >= scale the labels are
    clean.
    """

    scale: float = 1.0

    def __post_init__(self) -> None:
        if self.scale <= 0:
            raise InvalidConfig(f"scale must be positive, got {self.scale}")


#: Most sectors of a sector-noise profile.  ``_adversarial_sector_rates``
#: holds several arrays of ``sectors`` entries and caches the rates as a
#: tuple.  In a d=3 ``generate`` of 10 rows, 1e4 sectors peaked at 56 MiB of
#: resident memory (about what the imports take), 1e6 at 193 MiB and 4e6 at
#: 601 MiB; 1e9 ran out of memory on an 8 GB machine.  At this count a sector
#: is pi/10^4 rad wide, and a product family's 200,000 Monte-Carlo draws
#: already put only about 20 in each sector to estimate its mass from.
MAX_SECTORS = 10_000


@dataclass(frozen=True)
class Adversarialish:
    """Angular-sector noise: eta is constant on each angular sector.

    The circle of angles between ``x`` and the target is cut into equal
    sectors; each gets an independently seeded rate in ``[0, 0.49]``, then the
    rates are clipped downward just enough that the tail bound with the
    instance's ``(alpha, bigA)`` holds by construction.  ``sectors`` lies in
    ``[1, MAX_SECTORS]``.
    """

    sectors: int = 12
    profile_seed: int = 0

    def __post_init__(self) -> None:
        if not 1 <= self.sectors <= MAX_SECTORS:
            raise InvalidConfig(
                f"sectors must lie in [1, {MAX_SECTORS}], got {self.sectors}"
            )


NoiseProfile = Union[ConstantRate, MarginPowerLaw, Adversarialish]


@dataclass(frozen=True)
class NoiseSpec:
    """A noise profile together with the certified tail exponents.

    ``alpha in (0, 1)`` and ``bigA > 0`` certify
    ``Pr[eta(x) >= 1/2 - t] <= bigA * t**(alpha/(1-alpha))`` for the profile
    under the instance's marginal.  A ``bigA`` below the profile's floor
    (``_min_bigA_floor``: ``2**(alpha/(1-alpha))``, and more for a constant
    rate) cannot satisfy the bound and is rejected.  Use the
    ``constant_rate`` / ``margin_power_law`` / ``adversarialish``
    constructors to get a minimal valid ``bigA`` filled in automatically.
    The tail constants set the warm start's band scales and the learner's
    ``rho``; the certificate search's threshold does not depend on them.
    """

    alpha: float
    bigA: float
    profile: NoiseProfile

    def __post_init__(self) -> None:
        floor = _min_bigA_floor(self.alpha, self.profile)
        if not 0 < self.bigA < math.inf:
            raise InvalidConfig(f"bigA must be positive and finite, got {self.bigA}")
        if self.bigA < floor * (1.0 - 1e-9):
            raise InvalidConfig(
                f"bigA={self.bigA} is below the certified minimum {floor} "
                f"for this profile at alpha={self.alpha}"
            )

    @property
    def exponent(self) -> float:
        """The tail exponent ``alpha / (1 - alpha)``."""
        return self.alpha / (1.0 - self.alpha)


def _min_bigA_floor(alpha: float, profile: NoiseProfile) -> float:
    """Smallest bigA any NoiseSpec may carry for ``profile``.

    At ``t = 1/2`` the tail event ``eta >= 0`` is certain for every profile,
    so ``1 <= bigA * (1/2)**kappa`` forces ``bigA >= 2**kappa``.  An
    ``alpha`` outside ``(0, 1)``, or one whose floor overflows a float,
    raises InvalidConfig.
    """
    if not 0.0 < alpha < 1.0:
        raise InvalidConfig(f"alpha must lie in (0, 1), got {alpha}")
    kappa = alpha / (1.0 - alpha)
    try:
        if isinstance(profile, ConstantRate):
            # Tail jumps from 0 to 1 at t = 1/2 - eta0, so the binding
            # constraint is 1 <= bigA * (1/2 - eta0)**kappa.
            return (0.5 - profile.eta0) ** (-kappa)
        return 2.0**kappa
    except OverflowError:
        raise InvalidConfig(
            f"alpha={alpha}: the certified minimum bigA for this profile "
            f"(exponent alpha/(1-alpha) = {kappa:g}) overflows a float"
        ) from None


def constant_rate(alpha: float, eta0: float, bigA: float | None = None) -> NoiseSpec:
    """Uniform-rate noise with the minimal certified ``bigA`` by default."""
    probe = ConstantRate(eta0=eta0)
    if bigA is None:
        bigA = _min_bigA_floor(alpha, probe)
    return NoiseSpec(alpha=alpha, bigA=bigA, profile=probe)


def margin_power_law(
    alpha: float,
    marginal: MarginalSpec,
    scale: float = 1.0,
    bigA: float | None = None,
) -> NoiseSpec:
    """Margin-power-law noise with a ``bigA`` certified under ``marginal``.

    The tail event ``eta >= 1/2 - t`` for ``t < 1/2`` is exactly
    ``|<w*, x>| <= scale * (2t)**(alpha/(1-alpha))``, whose probability is at
    most ``2 * U1 * scale * (2t)**(alpha/(1-alpha))`` with ``U1`` the
    one-dimensional density bound; at ``t = 1/2`` the probability is 1.  Both
    constraints hold with ``bigA = 2**(alpha/(1-alpha)) * max(1, 2*U1*scale)``.
    """
    profile = MarginPowerLaw(scale=scale)
    if bigA is None:
        u1 = one_dim_density_bound(marginal)
        bigA = _min_bigA_floor(alpha, profile) * max(1.0, 2.0 * u1 * scale)
    return NoiseSpec(alpha=alpha, bigA=bigA, profile=profile)


def adversarialish(
    alpha: float,
    bigA: float | None = None,
    sectors: int = 12,
    profile_seed: int = 0,
) -> NoiseSpec:
    """Sector noise; rates are clipped at query time to honor ``(alpha, bigA)``."""
    profile = Adversarialish(sectors=sectors, profile_seed=profile_seed)
    if bigA is None:
        bigA = 2.0 * _min_bigA_floor(alpha, profile)
    return NoiseSpec(alpha=alpha, bigA=bigA, profile=profile)


# ---------------------------------------------------------------------------
# Instances and batches
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InstanceSpec:
    """A fully specified synthetic learning instance."""

    marginal: MarginalSpec
    target: np.ndarray
    noise: NoiseSpec
    seed: int

    def __post_init__(self) -> None:
        target = check_unit(self.target, "target")
        object.__setattr__(self, "target", target)
        if target.shape[0] != self.marginal.dimension:
            raise InvalidConfig(
                f"target has dimension {target.shape[0]} but marginal has "
                f"{self.marginal.dimension}"
            )
        if not isinstance(self.seed, (int, np.integer)):
            raise InvalidConfig(f"seed must be an integer, got {self.seed!r}")


@dataclass
class LabeledBatch:
    """A columnar batch of labeled points: ``x`` is (n, d), ``y`` is (n,).

    ``n_input`` is the number of raw rows the batch stands for: ``n`` by
    default, more for the band rows of a larger batch
    (``SampleStream.next_band``: a search round, a warm start's draw), whose
    survival is ``len(batch) / n_input``.
    """

    x: np.ndarray
    y: np.ndarray
    n_input: int | None = None

    def __post_init__(self) -> None:
        self.x = np.ascontiguousarray(self.x, dtype=np.float64)
        self.y = np.asarray(self.y)
        if self.x.ndim != 2:
            raise InvalidConfig(f"x must be 2-d, got shape {self.x.shape}")
        if self.y.shape != (self.x.shape[0],):
            raise InvalidConfig(
                f"y has shape {self.y.shape}, expected ({self.x.shape[0]},)"
            )
        if self.y.size and not np.all(np.abs(self.y) == 1):
            raise InvalidConfig("labels must be +1 or -1")
        self.y = self.y.astype(np.int8, copy=False)
        if self.n_input is None:
            self.n_input = len(self.y)
        elif self.n_input < len(self.y):
            raise InvalidConfig(
                f"n_input {self.n_input} is below the batch's {len(self.y)} rows"
            )

    def __len__(self) -> int:
        return self.x.shape[0]

    def __getitem__(self, idx) -> "LabeledBatch":
        return LabeledBatch(x=self.x[idx], y=self.y[idx])

    @property
    def d(self) -> int:
        return self.x.shape[1]

    def chunks(self):
        """Yield ``(first row, x, y)`` for successive row slices (views)."""
        for start in range(0, len(self), _READ_CHUNK):
            stop = start + _READ_CHUNK
            yield start, self.x[start:stop], self.y[start:stop]


def _rng_for(seed: int, batch: int) -> np.random.Generator:
    """Counter-based generator: a pure function of ``(seed, batch)``."""
    key = np.array(
        [np.uint64(seed & 0xFFFFFFFFFFFFFFFF), np.uint64(batch & 0xFFFFFFFFFFFFFFFF)],
        dtype=np.uint64,
    )
    return np.random.Generator(np.random.Philox(key=key))


def _draw_points(
    marginal: MarginalSpec, n: int, rng: np.random.Generator
) -> np.ndarray:
    """``n`` points of ``marginal`` from ``rng``."""
    d = marginal.dimension
    if marginal.family is Family.STANDARD_GAUSSIAN:
        return rng.standard_normal((n, d))
    if marginal.family is Family.ISOTROPIC_LOGISTIC:
        return rng.logistic(0.0, LOGISTIC_SCALE, (n, d))
    if marginal.family is Family.ISOTROPIC_LAPLACE:
        # b * S * E: scale the exponentials, then set the sign bit of the
        # flipped ones in place (the exponentials' sign bits are all 0).
        # The flips are the bits of 32-bit words, lowest bit first: the bits,
        # and the generator state after them, of ``rng.integers(0, 2, (n, d),
        # dtype=bool)``, unpacked several times faster.
        pts = rng.standard_exponential((n, d))
        pts *= LAPLACE_SCALE
        words = rng.integers(0, 1 << 32, -(-n * d // 32), dtype=np.uint32)
        flip = np.unpackbits(
            words.astype("<u4", copy=False).view(np.uint8),
            count=n * d, bitorder="little",
        )
        flip *= np.uint8(0x80)
        sign_bytes = pts.view(np.uint8)[:, _SIGN_BYTE::8]
        sign_bytes |= flip.reshape(n, d)
        return pts
    if marginal.family is Family.UNIFORM_BALL:
        pts = rng.standard_normal((n, d))
        norms = np.linalg.norm(pts, axis=1)
        norms[norms == 0] = 1.0
        pts /= norms[:, None]
        pts *= (marginal.ball_radius * rng.random(n) ** (1.0 / d))[:, None]
        return pts


def _sector_index(pts: np.ndarray, target: np.ndarray, sectors: int) -> np.ndarray:
    """The sector of each row: its angle to ``target`` in ``sectors`` equal
    cuts of ``[0, pi]`` (a zero row has angle pi/2)."""
    norms = np.linalg.norm(pts, axis=1)
    norms[norms == 0] = 1.0
    ang = np.arccos(np.clip((pts @ target) / norms, -1.0, 1.0))
    return np.minimum((ang / math.pi * sectors).astype(int), sectors - 1)


@lru_cache(maxsize=128)
def _adversarial_sector_rates(
    marginal: MarginalSpec, noise: NoiseSpec, target_key: bytes
) -> tuple[float, ...]:
    """Clipped per-sector flip rates for the sector-noise profile
    ``noise.profile``, keyed on the target's bytes.

    Raw rates are seeded uniforms in [0, 0.49].  Sort sectors by how close
    their rate is to 1/2; walking outward, each prefix's cumulative angular
    mass must satisfy ``mass <= bigA * t**kappa`` where ``t = 1/2 - rate`` of
    the last sector admitted, so rates are clipped down (``t`` raised) where
    needed.  Masses are exact Beta-law values for spherical families and
    inflated Monte-Carlo estimates for product families.
    """
    sectors, profile_seed = noise.profile.sectors, noise.profile.profile_seed
    edges = np.linspace(0.0, math.pi, sectors + 1)
    if marginal.family in SPHERICAL_FAMILIES:
        # cos(angle to target) has the law 2*B - 1, B ~ Beta((d-1)/2, (d-1)/2).
        a = (marginal.dimension - 1) / 2.0
        t_edges = (np.cos(edges) + 1.0) / 2.0  # decreasing in angle
        cdf = _special().betainc(a, a, np.clip(t_edges, 0.0, 1.0))
        masses = cdf[:-1] - cdf[1:]
    else:
        # Product families are not spherically symmetric, so the angular
        # masses depend on the target direction; estimate against it directly.
        target = np.frombuffer(target_key, dtype=np.float64)
        n_mc = 200_000
        pts = _draw_points(marginal, n_mc, _rng_for(profile_seed ^ 0x5EC708, 0))
        counts = np.bincount(_sector_index(pts, target, sectors), minlength=sectors)
        masses = np.minimum(1.0, counts / n_mc * 1.2 + 3.0 / n_mc)
    rng = np.random.Generator(np.random.Philox(key=np.uint64(profile_seed & 0xFFFFFFFFFFFFFFFF)))
    raw = rng.uniform(0.0, 0.49, sectors)
    t_raw = 0.5 - raw
    order = np.argsort(t_raw)  # noisiest (smallest t) first
    cum = np.cumsum(masses[order])
    t_req = (np.minimum(cum, 1.0) / noise.bigA) ** (1.0 / noise.exponent)
    t_clipped = np.maximum(t_raw[order], t_req * (1.0 + 1e-12))
    # Keep the sequence nondecreasing so every prefix stays certified.
    t_clipped = np.maximum.accumulate(t_clipped)
    rates = np.empty(sectors)
    rates[order] = 0.5 - np.minimum(t_clipped, 0.5)
    return tuple(float(r) for r in np.clip(rates, 0.0, 0.49))


def noise_rates(spec: InstanceSpec, x: np.ndarray) -> np.ndarray:
    """Flip probability ``eta`` at each row of ``x``, an ``(n, d)`` array."""
    pts = np.asarray(x, dtype=np.float64)
    if pts.ndim != 2:
        raise InvalidConfig(f"x must be (n, d) rows, got shape {pts.shape}")
    profile = spec.noise.profile
    if isinstance(profile, ConstantRate):
        eta = np.full(pts.shape[0], profile.eta0)
    elif isinstance(profile, MarginPowerLaw):
        margin = np.abs(pts @ spec.target)
        inv_kappa = (1.0 - spec.noise.alpha) / spec.noise.alpha
        # A term that overflows to inf is past 1/2, so its row's eta is 0.
        with np.errstate(over="ignore"):
            eta = 0.5 - np.minimum(0.5, 0.5 * (margin / profile.scale) ** inv_kappa)
    elif isinstance(profile, Adversarialish):
        rates = _adversarial_sector_rates(
            spec.marginal, spec.noise, spec.target.tobytes()
        )
        eta = np.asarray(rates)[_sector_index(pts, spec.target, profile.sectors)]
    else:
        raise UnsupportedFamily(f"unknown noise profile: {profile!r}")
    return eta


def sample_batch(spec: InstanceSpec, n: int, batch: int = 0) -> LabeledBatch:
    """Draw batch number ``batch`` of ``n`` labeled points for ``spec``.

    Deterministic in ``(spec.seed, batch)``; distinct batch indices give
    independent streams, so fresh data is obtained by bumping ``batch``.
    """
    if n < 0:
        raise InvalidConfig(f"n must be nonnegative, got {n}")
    rng = _rng_for(spec.seed, batch)
    pts = _draw_points(spec.marginal, n, rng)
    return LabeledBatch(x=pts, y=_draw_labels(spec, pts, rng))


def _draw_labels(spec: InstanceSpec, pts: np.ndarray, rng) -> np.ndarray:
    """Noisy labels of ``pts``: the target's sign, flipped with ``noise_rates``."""
    u = rng.random(pts.shape[0])
    clean = np.where(pts @ spec.target >= 0, 1, -1).astype(np.int8)
    eta = noise_rates(spec, pts) if len(pts) else np.zeros(0)
    return np.where(u < eta, -clean, clean).astype(np.int8)


def _band_points(spec: InstanceSpec, n: int, w, lo, hi, batch: int):
    """The points of band batch ``batch`` (the module docstring says how
    each family draws them) and the generator to label them."""
    rng = _rng_for(spec.seed, batch)
    if spec.marginal.family is Family.STANDARD_GAUSSIAN:
        special = _special()
        f_lo, f_hi = float(special.ndtr(lo)), float(special.ndtr(hi))
        k = int(rng.binomial(n, max(f_hi - f_lo, 0.0)))
        s = np.clip(special.ndtri(rng.uniform(f_lo, f_hi, k)), lo, hi)
        g = rng.standard_normal((k, spec.marginal.dimension))
        return g - np.outer(g @ w, w) + np.outer(s, w), rng
    pts = _draw_points(spec.marginal, n, rng)
    return pts[band_filter(pts, w, lo, hi)[0]], rng


def band_filter(x: np.ndarray, w: np.ndarray, lo: float, hi: float):
    """``(rows, s)``: the indices of the rows of ``x`` with ``<w, x>`` in
    ``[lo, hi]``, ascending, and their ``<w, x>``.

    Computes ``x @ w`` one ``_READ_CHUNK`` slice at a time, so a large batch
    keeps no full-length products or masks beside it (what that does to the
    bits of ``<w, x>``: see ``_READ_CHUNK``).
    """
    rows, s = [np.zeros(0, dtype=np.intp)], [np.zeros(0)]
    for start in range(0, len(x), _READ_CHUNK):
        part = x[start : start + _READ_CHUNK] @ w
        keep = np.flatnonzero((part >= lo) & (part <= hi))
        rows.append(keep + start)
        s.append(part[keep])
    return np.concatenate(rows), np.concatenate(s)


#: Batch-index table: stream name -> (base, per-seed stride); see the module docstring.
BATCH_INDEX = {
    "learner": (3_000_017, 10_000),
    "oracle": (5_000_011, 10_000),
    "warm_oracle": (5_000_011 + 1_000_000, 10_000),
    "warm_start": (2_000_003, 1),
    "evaluation": (1_000_003, 0),
}


def batch_base(stream: str, seed: int = 0) -> int:
    """First batch index of ``stream`` for a consumer running under ``seed``."""
    base, stride = BATCH_INDEX[stream]
    return base + stride * seed


class SampleStream:
    """Raw labeled batches from an instance or a fixed dataset, with a ledger.

    Over an instance, ``next(n)`` returns ``sample_batch(instance, n, base +
    k)`` for k = 0, 1, ..., and ``next_band`` the band batch at the same
    indices (``_band_points``), each drawn when it is asked for.  A consumer
    that wants the band batch at index ``b`` takes it from a fresh
    ``SampleStream(instance, b)``.  A dataset is a ``LabeledBatch`` in memory or a
    ``BinaryDataset`` file.  ``next(n)`` on an in-memory dataset returns
    successive row slices (views of the dataset, not copies); ``next_band(n,
    ...)`` on either kind returns the band rows among the next ``n`` rows.
    Both raise SourceExhausted once every row has been handed out.
    ``drawn`` counts the raw rows handed out, or stood for by a band batch.

    A dataset finds the rows of a band in one pass over its ``chunks()``,
    keeping only the band rows; it keeps the rows of the last band it was
    asked for, and passes over its rows again for a new band.
    """

    def __init__(self, source, base: int = 0) -> None:
        self.instance = self.data = None
        if isinstance(source, InstanceSpec):
            self.instance = source
        elif isinstance(source, (LabeledBatch, BinaryDataset)):
            self.data = source
        else:
            raise InvalidConfig(f"cannot draw samples from a {type(source).__name__}")
        self._batch = base
        self.drawn = 0
        self._band = None

    @property
    def d(self) -> int:
        """The dimension of the samples."""
        if self.instance is not None:
            return self.instance.marginal.dimension
        return self.data.d

    def next(self, n: int) -> LabeledBatch:
        """The next ``n`` rows."""
        if self.instance is not None:
            out = sample_batch(self.instance, n, batch=self._batch)
            self._batch += 1
        elif isinstance(self.data, BinaryDataset):
            raise InvalidConfig(
                f"{self.data.path}: a dataset file hands out band batches only"
            )
        else:
            self._check_rows_left()
            # The ledger doubles as the dataset cursor.
            out = self.data[self.drawn : self.drawn + n]
        self.drawn += len(out)
        return out

    def next_band(self, n: int, w: np.ndarray, lo: float, hi: float) -> LabeledBatch:
        """The rows of the next ``n``-row batch with ``<w, x>`` in ``[lo, hi]``.

        An instance draws it by ``_band_points`` at the next batch index and
        labels its rows.  A dataset returns the band rows among its next
        ``n`` rows, or among the rows left when fewer remain.  The ledger
        charges the raw rows the batch stands for, its ``n_input``: ``n``,
        or the rows left.
        """
        if self.instance is not None:
            if n < 0:
                raise InvalidConfig(f"n must be nonnegative, got {n}")
            w = check_unit(w, "w")
            pts, rng = _band_points(self.instance, n, w, lo, hi, self._batch)
            out = LabeledBatch(pts, _draw_labels(self.instance, pts, rng), n)
            self._batch += 1
            self.drawn += n
            return out
        self._check_rows_left()
        rows, band = self._band_rows(w, lo, hi)
        a, b = np.searchsorted(rows, [self.drawn, self.drawn + n])
        charge = min(n, len(self.data) - self.drawn)
        self.drawn += charge
        return LabeledBatch(x=band.x[a:b], y=band.y[a:b], n_input=charge)

    def _check_rows_left(self) -> None:
        if self.drawn >= len(self.data):
            raise SourceExhausted(f"dataset exhausted after {self.drawn} samples")

    def _band_rows(self, w: np.ndarray, lo: float, hi: float):
        """(row indices, rows) of the dataset's rows in the band, ascending."""
        w = check_unit(w, "w")
        key = (w.tobytes(), float(lo), float(hi))
        if self._band is None or self._band[0] != key:
            rows = [np.zeros(0, dtype=np.int64)]
            xs = [np.zeros((0, self.data.d))]
            ys = [np.zeros(0, dtype=np.int8)]
            for start, x, y in self.data.chunks():
                keep, _ = band_filter(x, w, lo, hi)
                rows.append(keep + start)
                xs.append(x[keep])
                ys.append(y[keep])
            band = LabeledBatch(x=np.concatenate(xs), y=np.concatenate(ys))
            self._band = (key, np.concatenate(rows), band)
        return self._band[1], self._band[2]


def disagreement_error(
    spec: InstanceSpec,
    direction: np.ndarray,
    n: int,
    batch: int = batch_base("evaluation"),
) -> float:
    """``Pr[sign<direction, x> != sign<target, x>]`` under the marginal.

    On ``SPHERICAL_FAMILIES`` the law is rotation invariant, so the value is
    exactly the angle between the two directions over pi, and ``n`` and
    ``batch`` are not used.  Otherwise it is a Monte-Carlo estimate over the
    ``n`` points of ``batch``, by default the evaluation stream's, so the
    estimate does not reuse the learner's or the oracles' batches.
    """
    check_unit(direction, "direction")
    if n < 1:
        raise InvalidConfig(f"n must be >= 1, got {n}")
    if spec.marginal.family in SPHERICAL_FAMILIES:
        return angle(direction, spec.target) / math.pi
    # The points of the batch alone: they are drawn before its labels.
    x = _draw_points(spec.marginal, n, _rng_for(spec.seed, batch))
    m_hat = x @ direction
    m_star = x @ spec.target
    return float(np.mean((m_hat >= 0) != (m_star >= 0)))


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def write_text(path, batch: LabeledBatch, seed: int) -> None:
    """Write a batch in the text interchange format.

    First line is ``d n seed``; each following line is ``d`` coordinates in
    round-trip decimal followed by the integer label.
    """
    n, d = batch.x.shape
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{d} {n} {seed}\n")
        for i in range(n):
            coords = " ".join("%.17g" % v for v in batch.x[i])
            fh.write(f"{coords} {int(batch.y[i])}\n")


def read_text(path) -> tuple[LabeledBatch, int]:
    """Read a batch written by ``write_text``; returns (batch, seed).

    A file that does not parse (a non-integer header, a negative ``d`` or
    ``n``, a non-numeric field, a non-ASCII byte), has rows other than the
    header's ``n``, holds a NaN or infinite value, or has a label other than
    +1 or -1 raises InvalidConfig.
    """
    try:
        with open(path, "r", encoding="ascii") as fh:
            header = fh.readline().split()
            if len(header) != 3:
                raise InvalidConfig(f"malformed header in {path}: {header!r}")
            d, n, seed = int(header[0]), int(header[1]), int(header[2])
            if d < 0 or n < 0:
                raise InvalidConfig(f"{path}: negative d or n in header {header!r}")
            if n == 0:
                if fh.read().strip():
                    raise InvalidConfig(f"{path}: data rows after a header of 0 rows")
                data = np.zeros((0, d + 1))
            else:
                data = np.loadtxt(fh, dtype=np.float64, ndmin=2)
    except ValueError as err:  # includes UnicodeDecodeError
        raise InvalidConfig(f"{path}: malformed text dataset: {err}") from None
    if data.shape != (n, d + 1):
        raise InvalidConfig(
            f"{path}: expected {n} rows of {d + 1} columns, got {data.shape}"
        )
    if not np.all(np.isfinite(data)):
        raise InvalidConfig(f"{path}: non-finite value in the data")
    # Check the float labels; casting first would wrap 257 to 1.
    bad = np.flatnonzero(np.abs(data[:, d]) != 1)
    if bad.size:
        raise InvalidConfig(
            f"{path}: row {int(bad[0])}: label {data[bad[0], d]:g} is not +1 or -1"
        )
    return LabeledBatch(x=data[:, :d], y=data[:, d]), seed


def write_binary(path, batch: LabeledBatch) -> None:
    """Write a batch in the binary format: magic, u32 d, u64 n, packed records.

    Each record is ``d`` little-endian float64 coordinates followed by an
    int8 label.  The records are streamed: packed and written one
    ``_READ_CHUNK`` slice at a time through one reused buffer, so the file
    is never built whole in memory.
    """
    n, d = batch.x.shape
    buf = np.empty(min(n, _READ_CHUNK), dtype=[("x", "<f8", (d,)), ("y", "i1")])
    with open(path, "wb") as fh:
        fh.write(struct.pack(_BINARY_HEADER, _BINARY_MAGIC, d, n))
        for _, x, y in batch.chunks():
            rec = buf[: len(y)]
            rec["x"] = x
            rec["y"] = y
            fh.write(rec.view(np.uint8))


class BinaryDataset:
    """A dataset file in the binary format, mapped in chunks of records.

    Opening it reads the header and checks the magic and that the file is
    exactly the header plus ``n`` records.  ``chunks()`` passes over the
    records through a read-only mapping of the file, copying each row once;
    a NaN or infinite coordinate, or a label other than +1 or -1, raises
    InvalidConfig naming the file and the row.
    """

    def __init__(self, path) -> None:
        self.path = path
        head = struct.calcsize(_BINARY_HEADER)
        try:
            with open(path, "rb") as fh:
                header = fh.read(head)
                size = os.fstat(fh.fileno()).st_size
        except OSError as err:
            raise InvalidConfig(f"cannot read dataset {path}: {err}") from err
        if len(header) != head:
            raise InvalidConfig(f"{path}: truncated header")
        magic, self.d, self.n = struct.unpack(_BINARY_HEADER, header)
        if magic != _BINARY_MAGIC:
            raise InvalidConfig(f"{path}: bad magic {magic!r}")
        # Plain integers: a header's d may be too large for a numpy dtype.
        self._size = head + self.n * (8 * self.d + 1)
        if size != self._size:
            problem = "truncated payload" if size < self._size else "trailing bytes"
            raise InvalidConfig(
                f"{path}: {problem}: {size} bytes, expected {self._size} for "
                f"{self.n} records of dimension {self.d}"
            )
        try:
            self._rec = np.dtype([("x", "<f8", (self.d,)), ("y", "i1")])
        except ValueError as err:
            raise InvalidConfig(f"{path}: dimension {self.d}: {err}") from None

    def __len__(self) -> int:
        return self.n

    def chunks(self):
        """Yield ``(first row, x, y)`` for successive chunks of records.

        A pass maps the file read-only, after checking its size again, and
        copies each row once, into C-contiguous ``x`` and ``y`` buffers that
        the next chunk overwrites (a caller copies what it keeps); it then
        drops the chunk's mapped pages, so about one chunk stays resident.  A
        file truncated by another process during a pass raises SIGBUS.
        """
        head = struct.calcsize(_BINARY_HEADER)
        with open(self.path, "rb") as fh:
            if os.fstat(fh.fileno()).st_size != self._size:
                raise InvalidConfig(f"{self.path}: truncated payload")
            mm = mmap.mmap(fh.fileno(), self._size, access=mmap.ACCESS_READ)
        try:
            recs = np.frombuffer(mm, self._rec, count=self.n, offset=head)
            xbuf = np.empty((min(_READ_CHUNK, self.n), self.d))
            ybuf = np.empty(len(xbuf), dtype=np.int8)
            for start in range(0, self.n, _READ_CHUNK):
                rec = recs[start : start + _READ_CHUNK]
                x, y = xbuf[: len(rec)], ybuf[: len(rec)]
                np.copyto(x, rec["x"])
                np.copyto(y, rec["y"])
                if hasattr(mmap, "MADV_DONTNEED"):  # not on every platform
                    lo = head + start * rec.itemsize
                    page = lo - lo % mmap.PAGESIZE
                    mm.madvise(mmap.MADV_DONTNEED, page, lo + rec.nbytes - page)
                if not np.isfinite(x).all():
                    row = int(np.argmin(np.isfinite(x).all(axis=1)))
                    raise InvalidConfig(
                        f"{self.path}: row {start + row}: non-finite coordinate"
                    )
                bad = (y != 1) & (y != -1)
                if bad.any():
                    row = int(np.argmax(bad))
                    raise InvalidConfig(
                        f"{self.path}: row {start + row}: label {int(y[row])} "
                        "is not +1 or -1"
                    )
                yield start, x, y
        finally:
            recs = rec = None  # the views export the mapping; close needs none
            mm.close()


def read_binary(path) -> LabeledBatch:
    """Read a batch written by ``write_binary`` into memory.

    Checks the file as ``BinaryDataset`` does and raises InvalidConfig where
    it does.
    """
    data = BinaryDataset(path)
    x = np.empty((data.n, data.d), dtype=np.float64)
    y = np.empty(data.n, dtype=np.int8)
    for start, cx, cy in data.chunks():
        x[start : start + len(cy)] = cx
        y[start : start + len(cy)] = cy
    return LabeledBatch(x=x, y=y)


def open_dataset(path):
    """A dataset file in either format, ready for a ``SampleStream``.

    The formats are told apart by the binary magic.  A binary file stays on
    disk as a ``BinaryDataset``, read in chunks when a band is asked for; a
    text file is read into memory as a ``LabeledBatch``.  A file that cannot
    be opened, that the format's reader rejects, or that has no rows raises
    InvalidConfig naming it.
    """
    try:
        with open(path, "rb") as fh:
            magic = fh.read(len(_BINARY_MAGIC))
    except OSError as err:
        raise InvalidConfig(f"cannot read dataset {path}: {err}") from err
    data = BinaryDataset(path) if magic == _BINARY_MAGIC else read_text(path)[0]
    if len(data) == 0:
        raise InvalidConfig(f"{path}: the dataset has no rows")
    return data
