"""Independent numerical oracles used to validate derived expectations.

Everything here is computed from first principles with scipy/numpy only —
no imports from the package under test — so a test that compares library
output against an oracle value is a genuine cross-check, not a tautology.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate, optimize, special, stats

SQRT_2PI = math.sqrt(2.0 * math.pi)


def orth_component(u: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The normalized component of the unit vector ``u`` orthogonal to ``w``.

    Raises ValueError when u is parallel to +/-w (residual norm below 1e-9).
    """
    u = np.asarray(u, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    r = u - (u @ w) * w
    n = float(np.linalg.norm(r))
    if n < 1e-9:
        raise ValueError("u is parallel to w; no orthogonal component")
    return r / n


def gaussian_disagreement(theta: float) -> float:
    """Exact Pr[sign<u,x> != sign<v,x>] for rotation-invariant x at angle theta."""
    return theta / math.pi


def gaussian_band_mass(lo: float, hi: float) -> float:
    """Pr[lo <= g <= hi] for a standard normal g."""
    return float(stats.norm.cdf(hi) - stats.norm.cdf(lo))


def gaussian_pdf(x: float) -> float:
    return float(stats.norm.pdf(x))


def binomial_se(p: float, n: int) -> float:
    """Standard error of a Bernoulli(p) mean over n draws."""
    return math.sqrt(max(p * (1.0 - p), 1e-12) / n)


def tsybakov_constant(alpha: float, bigA: float) -> float:
    """The constant C = alpha * ((1 - alpha) / A)**((1 - alpha) / alpha).

    For any set S, a noise function with Tsybakov tail (alpha, A) satisfies
    E[1_S * (1 - 2*eta)] >= C * Pr[S]**(1/alpha); this is the sharp constant.
    """
    return alpha * ((1.0 - alpha) / bigA) ** ((1.0 - alpha) / alpha)


def margin_power_law_tail_gaussian(t: float, alpha: float, scale: float) -> float:
    """Exact Pr[eta >= 1/2 - t] for margin-power-law noise on a Gaussian margin.

    The event is |m| <= scale * (2t)**(alpha/(1-alpha)) with m standard normal
    (unit target, isotropic Gaussian), except t >= 1/2 where it is everything.
    """
    if t >= 0.5:
        return 1.0
    kappa = alpha / (1.0 - alpha)
    cut = scale * (2.0 * t) ** kappa
    return float(2.0 * stats.norm.cdf(cut) - 1.0)


def sphere_coordinate_abs_tail(dim: int, c: float) -> float:
    """Pr[|v_1| >= c] for v uniform on the unit sphere of R^dim.

    (v_1 + 1)/2 follows Beta((dim-1)/2, (dim-1)/2).
    """
    a = (dim - 1) / 2.0
    upper = stats.beta.sf((1.0 + c) / 2.0, a, a)
    return float(2.0 * upper)


def window_value_2d_noiseless(
    sigma1: float, sigma2: float, t0: float, r_prime: float
) -> float:
    """Population window value for the planar noiseless benchmark instance.

    Setup: x standard Gaussian on R^2, true direction e1, conditioning band
    sigma1 <= x_2 <= sigma2, rays projected to z = x/x_2 - e2 so that
    <e1, z> = x_1/x_2, labels y = sign(x_1).  The value of the window
    ``-r_prime <= <e1, z> <= -t0`` is

        E[ 1{window} * y | band ]
        = -int_{sigma1}^{sigma2} phi(s) (Phi(-t0 s) - Phi(-r_prime s)) ds
          / (Phi(sigma2) - Phi(sigma1))

    Every surviving point in the window has x_1 < 0, hence y = -1.
    """

    def integrand(s: float) -> float:
        return stats.norm.pdf(s) * (stats.norm.cdf(-t0 * s) - stats.norm.cdf(-r_prime * s))

    num, _ = integrate.quad(integrand, sigma1, sigma2, epsabs=1e-12, epsrel=1e-10)
    denom = gaussian_band_mass(sigma1, sigma2)
    return -num / denom


def product_density_extrema_on_sphere(
    log_f1, k: int, radius: float = 1.0, trials: int = 64, seed: int = 0
) -> tuple[float, float]:
    """(min over the radius sphere, value at 0) of prod_i f1(z_i) on R^k.

    For a symmetric density decreasing in |.| the max over the ball is at the
    origin and the min on the boundary sphere; the boundary minimum is found
    by multi-start Nelder-Mead over spherical angles.
    """

    def point(angles: np.ndarray) -> np.ndarray:
        out = np.zeros(k)
        c = 1.0
        for i in range(k - 1):
            out[i] = c * math.cos(angles[i])
            c *= math.sin(angles[i])
        out[k - 1] = c
        return out * radius

    def neg_log(angles: np.ndarray) -> float:
        z = point(angles)
        return float(np.sum([log_f1(abs(v)) for v in z]))

    rng = np.random.default_rng(seed)
    best = math.inf
    for _ in range(trials):
        a0 = rng.uniform(0.0, math.pi / 2.0, k - 1)
        res = optimize.minimize(
            neg_log, a0, method="Nelder-Mead",
            options={"xatol": 1e-10, "fatol": 1e-12, "maxiter": 2000},
        )
        best = min(best, math.exp(res.fun))
    at_zero = math.exp(k * log_f1(0.0))
    return best, at_zero


def log_logistic_density(u: float, scale: float = math.sqrt(3.0) / math.pi) -> float:
    a = -abs(u) / scale
    return a - math.log(scale) - 2.0 * math.log1p(math.exp(a))


def log_laplace_density(u: float, scale: float = 1.0 / math.sqrt(2.0)) -> float:
    return -abs(u) / scale - math.log(2.0 * scale)


def chow_vector_noiseless_gaussian(u: np.ndarray) -> np.ndarray:
    """E[y x] for y = sign(<u, x>), x standard Gaussian: sqrt(2/pi) * u."""
    return math.sqrt(2.0 / math.pi) * np.asarray(u, dtype=float)


def reweighted_mean_norm(points: np.ndarray, r: np.ndarray) -> float:
    """|| E[x * min(1, exp(-<r, x>))] || evaluated on a sample."""
    pts = np.asarray(points, dtype=float)
    w = np.minimum(1.0, np.exp(-np.clip(pts @ np.asarray(r, dtype=float), -60, 60)))
    return float(np.linalg.norm(np.mean(pts * w[:, None], axis=0)))


def grid_search_shift(points: np.ndarray, direction: np.ndarray, grid=None):
    """Dense 1-d search for the reweighting shift along ``direction``.

    Returns (best_r_vector, best_norm) minimizing the reweighted-mean norm
    over r = t * direction for t in the grid.  Serves as an independent
    attainability oracle for stationary-point searches.
    """
    if grid is None:
        grid = np.linspace(0.0, 3.0, 601)
    direction = np.asarray(direction, dtype=float)
    best_t, best_val = 0.0, math.inf
    for t in grid:
        val = reweighted_mean_norm(points, t * direction)
        if val < best_val:
            best_t, best_val = float(t), val
    return best_t * direction, best_val


def quadratic_threshold_coeffs(theta: float) -> tuple[float, float]:
    """Coefficients (a, b) with q(m) = b*(m^2 - 1) + a*m for the shifted root pair.

    q has roots at theta and -1/theta: q(m) = (m - theta) * (m + 1/theta)
    = m^2 + (1/theta - theta) m - 1, so a = 1/theta - theta and b = 1.
    """
    return 1.0 / theta - theta, 1.0


def hermite_norm(a: float, b: float) -> float:
    """sqrt(E[q(g)^2]) for q = b*(g^2-1) + a*g with g standard normal."""
    return math.sqrt(a * a + 2.0 * b * b)


def regularized_beta_masses(d: int, edges: np.ndarray) -> np.ndarray:
    """Angular sector masses for a spherically symmetric marginal in R^d.

    cos(angle to any fixed direction) = 2B - 1 with B ~ Beta((d-1)/2, (d-1)/2);
    returns Pr[angle in [edges[j], edges[j+1])] per sector.
    """
    a = (d - 1) / 2.0
    t = (np.cos(np.asarray(edges, dtype=float)) + 1.0) / 2.0
    cdf = special.betainc(a, a, np.clip(t, 0.0, 1.0))
    return cdf[:-1] - cdf[1:]


def band_flip_constant(
    z_margins: np.ndarray,
    theta: float,
    x0: float,
    s_prime: float,
    eta0: float,
) -> np.ndarray:
    """Conditional flip probability of band-projected points, constant-rate noise.

    Setup: Gaussian marginal, target at angle theta from the band normal w,
    conditioning on <w, x> in [x0, x0 + s_prime].  For a projected point z
    with margin m = <u, z> (u the unit in-plane part of the target), the
    latent coordinate s is truncated standard normal on the band and the
    clean label is sign(sin(theta) * m + s * cos(theta)).  The reference
    classifier is the biased halfspace sign(m + b) with b the midpoint bias
    (x0 + s_prime/2) / tan(theta).  Returns Pr[label != reference | z].
    """
    m = np.asarray(z_margins, dtype=float)
    lo, hi = stats.norm.cdf(x0), stats.norm.cdf(x0 + s_prime)
    s_star = -m * math.tan(theta)
    p_neg = np.clip((stats.norm.cdf(s_star) - lo) / (hi - lo), 0.0, 1.0)
    b = (x0 + s_prime / 2.0) / math.tan(theta)
    flip_clean = np.where(m > -b, p_neg, 1.0 - p_neg)
    return eta0 + (1.0 - 2.0 * eta0) * flip_clean


def band_flip_margin_power_law(
    z_margins: np.ndarray,
    theta: float,
    x0: float,
    s_prime: float,
    alpha: float,
    scale: float,
    nodes: int = 200,
) -> np.ndarray:
    """Conditional flip probability under margin-power-law noise, by quadrature.

    Same geometry as band_flip_constant; the flip rate at full margin g is
    eta(g) = 1/2 - min(1/2, (|g|/scale)**((1-alpha)/alpha) / 2) and the
    latent band coordinate is integrated on a Gauss-Legendre grid weighted
    by the standard normal density.
    """
    m = np.asarray(z_margins, dtype=float)
    glnodes, glweights = np.polynomial.legendre.leggauss(nodes)
    s = x0 + (glnodes + 1.0) * (s_prime / 2.0)
    w = glweights * (s_prime / 2.0) * stats.norm.pdf(s)
    w = w / w.sum()
    margins = np.sin(theta) * m[:, None] + np.cos(theta) * s[None, :]
    kappa = (1.0 - alpha) / alpha
    eta = 0.5 - np.minimum(0.5, (np.abs(margins) / scale) ** kappa / 2.0)
    b = (x0 + s_prime / 2.0) / math.tan(theta)
    ref = np.sign(m + b)[:, None]
    clean = np.sign(margins)
    flip_pointwise = np.where(clean == ref, eta, 1.0 - eta)
    return flip_pointwise @ w
