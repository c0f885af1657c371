"""Vector and subspace primitives shared by every other module.

All directions are dense float64 arrays.  A *unit vector* is any array whose
Euclidean norm is 1 within ``UNIT_TOL``; the helpers here validate rather than
wrap, so ordinary numpy arrays flow through the whole pipeline.

The two non-obvious primitives:

* :func:`perspective_projection_batch` sends each row x to the component of
  x / <w, x> orthogonal to w.  On a positive band of <w, x> this map keeps
  noiseless halfspace data linearly separable (by a biased hyperplane),
  which plain orthogonal projection does not.
* :func:`normalized_update` is the perceptron-style move
  (v + step * g) / ||v + step * g|| used by the certificate search; when g is
  orthogonal to v, has norm at most beta, and correlates with a target at
  least c / beta, the step c / (2 beta^3) provably increases the correlation
  with that target by at least (step * beta)^2 / 2.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateDirection, DivisionNearZero, InvalidConfig

UNIT_TOL = 1e-9
PARALLEL_TOL = 1e-9
DIVISION_TOL = 1e-12

__all__ = [
    "UNIT_TOL",
    "PARALLEL_TOL",
    "DIVISION_TOL",
    "angle",
    "as_unit",
    "check_unit",
    "project_to_ball",
    "perspective_projection_batch",
    "normalized_update",
    "random_unit",
    "subspace_basis",
]


def check_unit(v: np.ndarray, name: str = "vector") -> np.ndarray:
    """Validate that ``v`` is a unit vector of dimension >= 2 and return it."""
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 1 or v.shape[0] < 2:
        raise InvalidConfig(f"{name} must be a 1-d vector with d >= 2, got shape {v.shape}")
    n = float(np.linalg.norm(v))
    if abs(n - 1.0) > UNIT_TOL:
        raise InvalidConfig(f"{name} must have unit norm (got {n!r})")
    return v


#: Below this norm the squares of a vector's entries leave the normal float
#: range, so ``np.linalg.norm`` loses bits or underflows to 0.
_NORM_FLOOR = np.sqrt(np.finfo(np.float64).tiny)


def as_unit(v: np.ndarray, name: str = "vector") -> np.ndarray:
    """``v / ||v||``; only the zero vector is degenerate.  Below
    ``_NORM_FLOOR`` (a learner iterate when rho is tiny) the norm is taken
    of a copy rescaled by ``max |v_i|``."""
    v = np.asarray(v, dtype=np.float64)
    n = float(np.linalg.norm(v))
    if n < _NORM_FLOOR:
        if not np.any(v):
            raise DegenerateDirection(f"{name} is the zero vector")
        v = v / np.max(np.abs(v))
        n = float(np.linalg.norm(v))
    return v / n


def angle(u: np.ndarray, v: np.ndarray) -> float:
    """Angle in [0, pi] between two unit vectors.

    The inner product is clamped to [-1, 1] before arccos so floating-point
    excursions never produce NaN.
    """
    u = check_unit(u, "u")
    v = check_unit(v, "v")
    return float(np.arccos(np.clip(float(u @ v), -1.0, 1.0)))


def perspective_projection_batch(X: np.ndarray, w: np.ndarray) -> np.ndarray:
    """proj_{w-perp}(x / <w, x>) for each row x of X, shape (n, d).

    Invariant under positive rescaling of a row.  Raises DivisionNearZero
    when a row has |<w, x>| < 1e-12; callers pre-filter to a positive band.
    """
    X = np.asarray(X, dtype=np.float64)
    s = X @ w
    if np.any(np.abs(s) < DIVISION_TOL):
        raise DivisionNearZero("a row has |<w, x>| below the safe threshold")
    Z = X / s[:, None]
    return Z - np.outer(Z @ w, w)


def normalized_update(v: np.ndarray, g: np.ndarray, step: float) -> np.ndarray:
    """(v + step * g) / ||v + step * g||, the correlation-improving move."""
    if step <= 0:
        raise InvalidConfig(f"step must be positive, got {step!r}")
    v = check_unit(v, "v")
    u = v + step * np.asarray(g, dtype=np.float64)
    n = float(np.linalg.norm(u))
    if n < DIVISION_TOL:
        raise DegenerateDirection("update cancelled v to a near-zero vector")
    return u / n


def project_to_ball(w: np.ndarray) -> np.ndarray:
    """Radial projection onto the closed unit ball."""
    w = np.asarray(w, dtype=np.float64)
    n = float(np.linalg.norm(w))
    if n <= 1.0:
        return w
    return w / n


def random_unit(
    d: int,
    rng: np.random.Generator,
    orthogonal_to: np.ndarray | None = None,
) -> np.ndarray:
    """Uniform unit vector in R^d, optionally confined to the complement of one direction.

    Spherical symmetry of the Gaussian draw makes the normalized vector
    uniform on the sphere; removing the ``orthogonal_to`` component before
    normalizing makes it uniform on the (d-2)-sphere inside that complement.
    """
    if d < 2:
        raise InvalidConfig(f"d must be >= 2, got {d}")
    for _ in range(16):
        g = rng.standard_normal(d)
        if orthogonal_to is not None:
            g = g - (g @ orthogonal_to) * orthogonal_to
        n = float(np.linalg.norm(g))
        if n > 1e-12:
            return g / n
    raise DegenerateDirection("failed to draw a non-degenerate direction")


def subspace_basis(w: np.ndarray) -> np.ndarray:
    """Deterministic orthonormal basis of the complement of ``w``.

    Returns a (d, d-1) matrix Q with Q^T Q = I and Q^T w = 0, derived from the
    SVD of the rank-one complement projector so the basis depends only on w.
    """
    w = check_unit(w, "w")
    d = w.shape[0]
    P = np.eye(d) - np.outer(w, w)
    # The projector's top d-1 left singular vectors span the complement.
    U, s, _ = np.linalg.svd(P)
    Q = U[:, : d - 1]
    # Strip any residual w-component picked up by numerical error.
    Q = Q - np.outer(w, w @ Q)
    Q, _ = np.linalg.qr(Q)
    return Q
