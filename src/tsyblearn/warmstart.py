"""Warm start for log-concave marginals: band, isotropize, Chow subspace.

The fast path to a good initial direction: condition on a random thin band
of ``<w, x>`` (which concentrates the interesting label structure), project
survivors orthogonally onto the complement of ``w``, re-isotropize that
conditional distribution by rejection sampling against a learned exponential
reweighting, and read the degree-1 and degree-2 label-moment structure (Chow
parameters).  The target direction correlates with the span of the first
moment and the large-eigenvalue eigenvectors of the second, so a random unit
vector of that low-dimensional subspace has non-trivial correlation with
constant probability.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    EmptyBand,
    EmptySubspace,
    InvalidConfig,
    Nonconvergence,
    SingularCovariance,
    SourceExhausted,
)
from .geometry import as_unit, check_unit, subspace_basis
from .synthetic import (InstanceSpec, LabeledBatch, NoiseSpec, SampleStream,
                        band_filter, batch_base)

logger = logging.getLogger(__name__)

#: Anti-anti-concentration cap on the band offset scale: one-dimensional
#: projections of the shipped isotropic log-concave families have density
#: bounded below on [-0.3, 0.3], so offsets up to 2s = 0.2 stay inside it.
S_CAP = 0.1

#: Fewest raw samples a warm start may be asked to draw.
MIN_WARM_SAMPLES = 100

#: Fewest band rows the tilt fit (``psgd_stationary_point``) can work with.
MIN_BAND_ROWS = 4

#: Most band rows the rejection resample keeps for the Chow moments.
RESAMPLE_N = 20_000

#: Iterations of the tilt fit (``psgd_stationary_point``).
PSGD_ITERS = 300


def noise_margin(alpha: float, bigA: float, s: float) -> float:
    """The band noise margin ``xi = (s / bigA)**(1/alpha)``.

    After conditioning on a random thin band at offset about ``s``, all but
    an ``xi``-ish fraction of the conditional distribution keeps flip
    probability bounded away from 1/2 by ``xi``.
    """
    if not (0 < alpha < 1) or bigA <= 0 or s <= 0:
        raise InvalidConfig("need alpha in (0,1), bigA > 0, s > 0")
    return (s / bigA) ** (1.0 / alpha)


def band_scale(alpha: float, bigA: float, epsilon: float) -> float:
    """The warm-start band scale ``s`` at the angle guess ``epsilon``.

    ``s`` is a small multiple of ``alpha * epsilon`` shrunk by the log of
    the noise budget and capped by the anti-anti-concentration constant, so
    it grows with ``epsilon``.  Where ``bigA * log(bigA + e) / (alpha *
    epsilon)`` overflows a float (a tiny ``alpha``, a huge ``bigA``), ``s``
    underflows to 0 and no band is left to draw: that raises InvalidConfig
    naming the three inputs.
    """
    if not (0 < alpha < 1) or bigA <= 0 or epsilon <= 0:
        raise InvalidConfig("need alpha in (0,1), bigA > 0, epsilon > 0")
    scale = alpha * epsilon
    s = 0.0
    if scale > 0.0:
        log_arg = bigA * math.log(bigA + math.e) / scale + math.e
        s = min(S_CAP, scale / (8.0 * math.log(log_arg)))
    if not 0.0 < s / 2.0 < s:
        raise InvalidConfig(
            f"the warm-start band scale underflows to {s!r} at alpha={alpha}, "
            f"bigA={bigA}, epsilon={epsilon}; raise alpha or epsilon, or "
            "lower bigA"
        )
    return s


@dataclass(frozen=True)
class RandomBandConfig:
    """A drawn conditioning band ``<w, x> in [x0, x0 + s_prime]``."""

    s: float
    s_prime: float
    x0: float

    def __post_init__(self) -> None:
        if not (0.0 < self.s_prime < self.s):
            raise InvalidConfig(
                f"need 0 < s_prime < s, got s_prime={self.s_prime}, s={self.s}"
            )
        if not (self.s <= self.x0 <= 2.0 * self.s + 1e-12):
            raise InvalidConfig(
                f"x0 must lie in [s, 2s] = [{self.s}, {2 * self.s}], got {self.x0}"
            )

    @classmethod
    def from_noise(
        cls, alpha: float, bigA: float, epsilon: float, seed: int
    ) -> "RandomBandConfig":
        """Draw the band scales from the noise parameters and a seed.

        ``s`` is ``band_scale(alpha, bigA, epsilon)``.  The band width
        ``s_prime`` is ``s/2``: the analysis's width ``xi**3 * s * epsilon``
        is below ``s/2`` on every accepted input (``xi < 0.1`` and ``epsilon
        <= pi``), and desk-scale sample budgets could not populate a band
        that thin (the width is recorded in the diagnostics).
        """
        s = band_scale(alpha, bigA, epsilon)
        rng = np.random.default_rng(seed)
        x0 = s * (1.0 + rng.random())
        return cls(s=s, s_prime=s / 2.0, x0=x0)


def random_band_project(
    batch: LabeledBatch, w: np.ndarray, cfg: RandomBandConfig
) -> LabeledBatch:
    """Keep ``<w, x> in [x0, x0 + s_prime]`` and project orthogonally off ``w``.

    The result's ``x`` holds the projected rows, and it stands for the
    input's raw rows (``n_input``).  Unlike the certificate transform this is
    the plain orthogonal projection ``x - <w, x> w`` (no division), which
    preserves log-concavity of the conditional marginal.
    """
    check_unit(w, "w")
    keep, s = band_filter(batch.x, w, cfg.x0, cfg.x0 + cfg.s_prime)
    if len(keep) == 0:
        raise EmptyBand(
            f"no samples with <w, x> in [{cfg.x0:.6g}, {cfg.x0 + cfg.s_prime:.6g}]"
        )
    z = batch.x[keep] - np.outer(s, w)
    return LabeledBatch(x=z, y=batch.y[keep], n_input=batch.n_input)


@dataclass(frozen=True)
class RejectionReweighter:
    """An exponential-tilt shift ``r`` and its measured quality.

    A point ``x`` is accepted with probability ``min(1, exp(-<r, x>))``;
    ``gamma`` is the measured reweighted-mean norm at ``r`` (the
    stationarity certificate) and ``acceptance_rate`` the measured mean
    acceptance probability.
    """

    r: np.ndarray
    gamma: float
    acceptance_rate: float

    def __post_init__(self) -> None:
        r = np.asarray(self.r, dtype=np.float64)
        object.__setattr__(self, "r", r)
        if not (0.0 < self.acceptance_rate <= 1.0):
            raise InvalidConfig(
                f"acceptance_rate must lie in (0, 1], got {self.acceptance_rate}"
            )


def _acceptance(x: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Acceptance probability ``min(1, exp(-<r, x>))`` of each row of ``x``."""
    return np.minimum(1.0, np.exp(-np.clip(x @ r, -60.0, 60.0)))


def _reweighted_mean(x: np.ndarray, r: np.ndarray) -> np.ndarray:
    return (x * _acceptance(x, r)[:, None]).mean(axis=0)


def psgd_stationary_point(
    samples,
    gamma: float,
    radius: float = 10.0,
    iters: int = PSGD_ITERS,
    seed: int = 0,
) -> RejectionReweighter:
    """Find a shift ``r`` making the reweighted mean small, by projected SGD.

    Minimizes ``F(r) = ||E[x * min(1, exp(-<r, x>))]||^2`` with the
    two-independent-halves unbiased gradient estimator (one half estimates
    the reweighted mean, the other its Jacobian), radial projection to
    ``||r|| <= radius``, step ``1 / (L_hat * sqrt(k))`` under the empirical
    smoothness estimate ``L_hat = 2 * mean ||x||^2``, and best-iterate
    selection by the measured full-sample mean norm.  ``gamma`` is the
    stationarity target: iteration stops early once the measured norm is
    below it, and Nonconvergence — carrying the best iterate — is raised
    when the norm stays above ``10 * gamma``.
    """
    if gamma <= 0 or radius <= 0 or iters < 1:
        raise InvalidConfig("need gamma > 0, radius > 0, iters >= 1")
    x = np.ascontiguousarray(np.asarray(samples, dtype=np.float64))
    if x.ndim != 2 or x.shape[0] < MIN_BAND_ROWS:
        raise InvalidConfig(
            f"need a 2-d sample array with >= {MIN_BAND_ROWS} rows, got {x.shape}"
        )
    n, m = x.shape
    rng = np.random.default_rng(seed)
    l_hat = 2.0 * float(np.mean(np.sum(x * x, axis=1)))
    r = np.zeros(m)
    best_r = r.copy()
    best_norm = float(np.linalg.norm(_reweighted_mean(x, r)))
    half = min(2048, n // 2)
    for k in range(1, iters + 1):
        idx = rng.choice(n, size=2 * half, replace=False)
        x1, x2 = x[idx[:half]], x[idx[half:]]
        g1 = _reweighted_mean(x1, r)
        s2 = x2 @ r
        active = s2 >= 0.0
        weights = np.where(active, np.exp(-np.clip(s2, 0.0, 60.0)), 0.0)
        # Jacobian of the reweighted mean applied to g1, estimated on the
        # second half: -E[x x^T 1{<r,x> >= 0} e^{-<r,x>}] @ g1
        jac_g = -(x2 * weights[:, None]).T @ (x2 @ g1) / half
        grad = 2.0 * jac_g
        r = r - grad / (l_hat * math.sqrt(k))
        norm_r = float(np.linalg.norm(r))
        if norm_r > radius:
            r = r * (radius / norm_r)
        if k % 10 == 0 or k == iters:
            cur = float(np.linalg.norm(_reweighted_mean(x, r)))
            if cur < best_norm:
                best_norm, best_r = cur, r.copy()
            if best_norm <= gamma:
                break
    acc = float(np.mean(_acceptance(x, best_r)))
    if best_norm > 10.0 * gamma:
        raise Nonconvergence(
            f"reweighted-mean norm {best_norm:.4g} above 10*gamma={10 * gamma:.4g} "
            f"after {iters} iterations",
            r=best_r,
            g_norm=best_norm,
        )
    return RejectionReweighter(r=best_r, gamma=best_norm, acceptance_rate=acc)


def _rejection_indices(
    x: np.ndarray, r: np.ndarray, target_n: int, rng: np.random.Generator
) -> np.ndarray:
    accepted = np.flatnonzero(rng.random(len(x)) < _acceptance(x, r))
    if len(accepted) < target_n:
        raise SourceExhausted(
            f"only {len(accepted)} acceptances from {len(x)} inputs, "
            f"needed {target_n}"
        )
    return accepted[:target_n]


def standardize(samples):
    """Whiten: returns ``(z, mean, cov_sqrt)`` with ``z = C^{-1/2}(x - mean)``.

    ``cov_sqrt`` is the symmetric positive square root of the empirical
    covariance; SingularCovariance if its smallest eigenvalue is <= 1e-8.
    """
    x = np.asarray(samples, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 2:
        raise InvalidConfig(f"need a 2-d array with >= 2 rows, got {x.shape}")
    mean = x.mean(axis=0)
    centered = x - mean
    cov = centered.T @ centered / x.shape[0]
    eigvals, eigvecs = np.linalg.eigh(cov)
    if eigvals.min() <= 1e-8:
        raise SingularCovariance(
            f"empirical covariance has min eigenvalue {eigvals.min():.3g}"
        )
    root = eigvecs @ np.diag(np.sqrt(eigvals)) @ eigvecs.T
    inv_root = eigvecs @ np.diag(1.0 / np.sqrt(eigvals)) @ eigvecs.T
    return centered @ inv_root, mean, root


@dataclass
class ChowParameters:
    """Empirical label moments: ``T1 = E[y x]``, ``T2 = E[y (x x^T - I)]``."""

    T1: np.ndarray
    T2: np.ndarray
    eigvals: np.ndarray
    eigvecs: np.ndarray
    n_used: int

    def __post_init__(self) -> None:
        if np.max(np.abs(self.T2 - self.T2.T)) > 1e-9:
            raise InvalidConfig("T2 must be symmetric within 1e-9")
        residual = self.T2 @ self.eigvecs - self.eigvecs * self.eigvals[None, :]
        if residual.size and np.max(np.abs(residual)) > 1e-7:
            raise InvalidConfig("eigendecomposition residual above 1e-7")


def chow_parameters(z: np.ndarray, y: np.ndarray) -> ChowParameters:
    """First and second label moments with the spectral decomposition of T2."""
    z = np.asarray(z, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if z.ndim != 2 or z.shape[0] < 2:
        raise InvalidConfig(f"need >= 2 samples, got shape {z.shape}")
    if y.shape != (z.shape[0],):
        raise InvalidConfig("labels must align with samples")
    n, m = z.shape
    t1 = (y[:, None] * z).mean(axis=0)
    t2 = (y[:, None] * z).T @ z / n - y.mean() * np.eye(m)
    t2 = (t2 + t2.T) / 2.0
    eigvals, eigvecs = np.linalg.eigh(t2)
    return ChowParameters(T1=t1, T2=t2, eigvals=eigvals, eigvecs=eigvecs, n_used=n)


def build_subspace(chow: ChowParameters, zeta: float) -> np.ndarray:
    """Orthonormal basis of ``span{T1} + span{eigvecs with |eigval| >= zeta}``.

    ``T1`` enters only when its norm clears the estimation noise floor
    ``4 * sqrt(m / n_used)`` (an exactly-zero or noise-level first moment
    contributes nothing).  Raises EmptySubspace when no direction survives.
    """
    if zeta <= 0:
        raise InvalidConfig(f"zeta must be positive, got {zeta}")
    m = chow.T1.shape[0]
    columns = []
    t1_floor = max(4.0 * math.sqrt(m / max(chow.n_used, 1)), 1e-12)
    t1_norm = float(np.linalg.norm(chow.T1))
    if t1_norm >= t1_floor:
        columns.append(chow.T1 / t1_norm)
    selected = np.abs(chow.eigvals) >= zeta
    for i in np.flatnonzero(selected):
        columns.append(chow.eigvecs[:, i])
    if not columns:
        raise EmptySubspace(
            f"no direction passed: |T1|={t1_norm:.3g} < {t1_floor:.3g} and no "
            f"|eigenvalue| >= {zeta:.3g} (max {np.max(np.abs(chow.eigvals)):.3g})"
        )
    raw = np.column_stack(columns)
    q, r_mat = np.linalg.qr(raw)
    keep = np.abs(np.diag(r_mat)) > 1e-9
    basis = q[:, keep]
    dim_bound = 10.0 * zeta**-4
    if basis.shape[1] > dim_bound:
        logger.warning(
            "subspace dimension %d exceeds the diagnostic bound %.3g",
            basis.shape[1],
            dim_bound,
        )
    return basis


@dataclass
class WarmStartResult:
    """The proposed initial direction and the pipeline's diagnostics."""

    v: np.ndarray
    subspace_dim: int
    xi: float
    diagnostics: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "v": [float(a) for a in self.v],
            "subspace_dim": self.subspace_dim,
            "xi": self.xi,
            "diagnostics": {k: float(v) for k, v in self.diagnostics.items()},
        }


def warm_start(
    raw: LabeledBatch, w: np.ndarray, noise: NoiseSpec, epsilon: float, seed: int
) -> WarmStartResult:
    """Run the full warm-start pipeline around the direction ``w``.

    ``noise`` supplies the tail ``(alpha, bigA)``, ``epsilon`` in (0, pi] is
    the angle guess and ``seed`` draws the band offset, the tilt fit, the
    resample and the subspace vector.  Steps, on the labeled batch ``raw``:
    draw the random band and project; re-isotropize the band conditional
    (SGD for the exponential-tilt shift, rejection resample to at most
    ``RESAMPLE_N`` rows, whiten); estimate Chow moments; cut the spectral
    subspace at the eigenvalue noise floor ``4 * sqrt(m / n)``, above the
    analysis's ``xi**2`` on every accepted input and recorded as
    ``zeta_floor``, raising EmptySubspace when no direction clears it; return
    a seeded random unit vector of the subspace pulled back through the
    covariance root, embedded in the complement of ``w``.
    """
    if not (0 < epsilon <= math.pi):
        raise InvalidConfig(f"epsilon must lie in (0, pi], got {epsilon}")
    check_unit(w, "w")
    band = RandomBandConfig.from_noise(noise.alpha, noise.bigA, epsilon, seed)
    projected = random_band_project(raw, w, band)
    if len(projected) < MIN_BAND_ROWS:
        raise EmptyBand(f"the band keeps {len(projected)} of {projected.n_input} rows")
    basis = subspace_basis(w)  # (d, d-1)
    coords = projected.x @ basis
    labels = projected.y.astype(np.float64)
    xi = noise_margin(noise.alpha, noise.bigA, band.s)
    # An ``xi`` that underflows to 0 (tiny alpha) takes the gamma floor, as
    # a subnormal one does.
    gamma = max(1.0 / math.log(1.0 / xi), 1e-3) if xi > 0.0 else 1e-3
    diagnostics: dict = {
        "band_survival": len(projected) / projected.n_input,
        "band_x0": band.x0,
        "band_width": band.s_prime,
        "gamma_target": gamma,
    }
    try:
        reweighter = psgd_stationary_point(coords, gamma, seed=seed)
        diagnostics["psgd_converged"] = 1.0
    except Nonconvergence as err:
        logger.warning("isotropization did not converge: %s", err)
        reweighter = RejectionReweighter(
            r=err.r,
            gamma=err.g_norm,
            acceptance_rate=float(np.mean(_acceptance(coords, err.r))),
        )
        diagnostics["psgd_converged"] = 0.0
    diagnostics["gamma_out"] = reweighter.gamma
    if reweighter.acceptance_rate < 0.05:
        logger.warning(
            "acceptance rate %.3g below the 0.05 floor; resampled set may be "
            "too small to be informative",
            reweighter.acceptance_rate,
        )
    rng = np.random.default_rng(seed)
    target_n = min(
        RESAMPLE_N,
        max(10, int(0.5 * reweighter.acceptance_rate * len(coords))),
    )
    idx = _rejection_indices(coords, reweighter.r, target_n, rng)
    acc_rate = target_n / (int(idx[-1]) + 1)
    diagnostics["acceptance_rate"] = acc_rate
    z_std, _, cov_root = standardize(coords[idx])
    chow = chow_parameters(z_std, labels[idx])
    zeta = 4.0 * math.sqrt(coords.shape[1] / chow.n_used)  # eigenvalue noise floor
    diagnostics["zeta_floor"] = zeta
    sub = build_subspace(chow, zeta)
    diagnostics["subspace_dim"] = sub.shape[1]
    coeffs = rng.standard_normal(sub.shape[1])
    v_std = sub @ coeffs
    norm = np.linalg.norm(v_std)
    if norm < 1e-12:
        raise EmptySubspace("degenerate random combination in subspace")
    v_coords = cov_root @ (v_std / norm)
    v_full = basis @ v_coords
    v_full = v_full - (v_full @ w) * w
    v = as_unit(v_full)
    return WarmStartResult(
        v=v, subspace_dim=sub.shape[1], xi=xi, diagnostics=diagnostics
    )


def warm_start_batch(
    spec: InstanceSpec, n: int, w: np.ndarray, noise: NoiseSpec, guesses,
) -> LabeledBatch:
    """The ``n``-row warm-start batch that ``warm_start`` shares across
    ``guesses``, a sequence of ``(epsilon, seed)``.

    The batch is drawn in band form, as a search round is: the band rows of
    ``SampleStream.next_band`` at ``batch_base("warm_start", seed)`` for the
    first guess's seed, standing for ``n`` raw rows, over the hull of the
    random bands ``warm_start`` draws at the guesses.  ``random_band_project``
    cuts each guess's own band out of it, so a guess sees the rows of one
    raw batch that lie in its band; with one guess the hull is its band.
    """
    bands = [RandomBandConfig.from_noise(noise.alpha, noise.bigA, epsilon, seed)
             for epsilon, seed in guesses]
    lo = min(band.x0 for band in bands)
    hi = max(band.x0 + band.s_prime for band in bands)
    return SampleStream(spec, batch_base("warm_start", guesses[0][1])).next_band(
        n, w, lo, hi
    )
