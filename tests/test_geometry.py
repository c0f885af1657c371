"""Unit and property tests for the geometry primitives."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import orth_component
from tsyblearn.errors import DegenerateDirection, DivisionNearZero, InvalidConfig
from tsyblearn.geometry import (
    angle,
    as_unit,
    check_unit,
    normalized_update,
    perspective_projection_batch,
    random_unit,
    subspace_basis,
)


def e(i: int, d: int) -> np.ndarray:
    v = np.zeros(d)
    v[i] = 1.0
    return v


def random_pair(seed: int, d: int = 5) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    u = as_unit(rng.standard_normal(d))
    w = as_unit(rng.standard_normal(d))
    return u, w


class TestCheckUnit:
    def test_accepts_unit(self):
        check_unit(e(0, 3), "v")

    def test_rejects_nonunit(self):
        with pytest.raises(InvalidConfig):
            check_unit(np.array([1.0, 1.0]), "v")

    def test_rejects_dimension_one(self):
        with pytest.raises(InvalidConfig):
            check_unit(np.array([1.0]), "v")

    def test_rejects_matrix(self):
        with pytest.raises(InvalidConfig):
            check_unit(np.eye(3), "v")


class TestAsUnit:
    def test_underflowing_norm_keeps_its_direction(self):
        # The squares of 3e-300 and 4e-300 underflow to 0, so the norm is
        # taken of a rescaled copy.
        got = as_unit(1e-300 * np.array([3.0, 4.0]))
        assert np.allclose(got, [0.6, 0.8], rtol=0, atol=1e-15)

    def test_zero_vector_raises(self):
        with pytest.raises(DegenerateDirection, match="zero vector"):
            as_unit(np.zeros(3), "w")


class TestAngle:
    def test_identity(self):
        assert angle(e(0, 3), e(0, 3)) == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal(self):
        assert angle(e(0, 3), e(1, 3)) == pytest.approx(math.pi / 2, abs=1e-12)

    def test_antipodal(self):
        assert angle(e(0, 3), -e(0, 3)) == pytest.approx(math.pi, abs=1e-12)

    def test_clamping_survives_rounding(self):
        v = as_unit(np.array([1.0, 1e-9, 0.0]))
        assert angle(v, v) == 0.0


class TestOrthComponent:
    """The tests' reference ``oracles.orth_component``."""

    def test_hand_projection(self):
        u = np.array([1.0, 1.0, 0.0]) / math.sqrt(2.0)
        out = orth_component(u, e(1, 3))
        assert np.allclose(out, e(0, 3), atol=1e-12)

    def test_already_orthogonal(self):
        assert np.allclose(orth_component(e(2, 3), e(0, 3)), e(2, 3), atol=1e-12)

    def test_parallel_raises(self):
        with pytest.raises(ValueError):
            orth_component(e(0, 3), e(0, 3))

    def test_antiparallel_raises(self):
        with pytest.raises(ValueError):
            orth_component(-e(0, 3), e(0, 3))

    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_output_unit_orthogonal_in_span(self, seed):
        u, w = random_pair(seed)
        out = orth_component(u, w)
        assert abs(np.linalg.norm(out) - 1.0) < 1e-9
        assert abs(out @ w) < 1e-9
        # residual after projecting onto span{u, w}
        basis = np.linalg.qr(np.stack([u, w], axis=1))[0]
        residual = out - basis @ (basis.T @ out)
        assert np.linalg.norm(residual) < 1e-9


class TestPerspectiveProjection:
    @staticmethod
    def one_row(x, w):
        return perspective_projection_batch(np.array([x], dtype=np.float64), w)[0]

    def test_componentwise_formula(self):
        out = self.one_row([2.0, 4.0, 6.0], e(0, 3))
        assert np.allclose(out, [0.0, 2.0, 3.0], atol=1e-12)

    def test_parallel_maps_to_zero(self):
        out = self.one_row([5.0, 0.0, 0.0], e(0, 3))
        assert np.allclose(out, 0.0, atol=1e-12)

    def test_scale_invariance_example(self):
        a = self.one_row([2.0, 4.0, 6.0], e(0, 3))
        b = self.one_row([1.0, 2.0, 3.0], e(0, 3))
        assert np.allclose(a, b, atol=1e-12)

    def test_near_zero_inner_product_raises(self):
        with pytest.raises(DivisionNearZero):
            self.one_row([1e-13, 1.0, 0.0], e(0, 3))

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_scale_invariance_property(self, seed):
        rng = np.random.default_rng(seed)
        w = as_unit(rng.standard_normal(4))
        xs = rng.standard_normal((1000, 4))
        xs = xs[xs @ w > 1e-3]
        base = perspective_projection_batch(xs, w)
        for lam in (0.5, 2.0, 10.0):
            scaled = perspective_projection_batch(lam * xs, w)
            assert np.allclose(scaled, base, atol=1e-9)
        # output orthogonal to w
        assert np.max(np.abs(base @ w)) < 1e-9

    def test_batch_matches_single(self):
        rng = np.random.default_rng(3)
        w = as_unit(rng.standard_normal(5))
        xs = rng.standard_normal((50, 5))
        xs = xs[xs @ w > 0.1]
        batch = perspective_projection_batch(xs, w)
        for i in range(len(xs)):
            z = xs[i] / float(xs[i] @ w)
            assert np.allclose(batch[i], z - (z @ w) * w, atol=1e-12)


class TestNormalizedUpdate:
    def test_direct_formula(self):
        out = normalized_update(np.array([1.0, 0.0]), np.array([0.0, 0.5]), 0.1)
        assert np.allclose(out, [0.99875, 0.04994], atol=5e-5)

    def test_zero_gradient(self):
        assert np.allclose(normalized_update(e(0, 3), np.zeros(3), 0.7), e(0, 3))

    def test_forty_five_degrees(self):
        out = normalized_update(np.array([1.0, 0.0]), np.array([0.0, 1.0]), 1.0)
        assert np.allclose(out, np.array([1.0, 1.0]) / math.sqrt(2.0), atol=1e-12)

    def test_nonpositive_step_raises(self):
        with pytest.raises(InvalidConfig):
            normalized_update(e(0, 2), np.zeros(2), 0.0)

    def test_degenerate_sum_raises(self):
        with pytest.raises(DegenerateDirection):
            normalized_update(e(0, 2), -e(0, 2), 1.0)

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(min_value=0, max_value=10**6),
        st.floats(min_value=1.0, max_value=4.0),
        st.floats(min_value=0.05, max_value=0.9),
    )
    def test_correlation_improvement(self, seed, beta, frac):
        """With g ⟂ v, <g, v*> >= c/beta, ||g|| <= beta and step c/(2 beta^3),
        the correlation with v* improves by at least step^2 * beta^2 / 2."""
        rng = np.random.default_rng(seed)
        d = 5
        v = as_unit(rng.standard_normal(d))
        vstar = as_unit(rng.standard_normal(d))
        if v @ vstar < 0:
            vstar = -vstar
        if abs(v @ vstar) > 1.0 - 1e-6:
            return
        u = orth_component(vstar, v)  # unit, ⟂ v, positive correlation with v*
        s = float(u @ vstar)
        assert s > 0
        r = rng.standard_normal(d)
        r -= (r @ v) * v
        r -= (r @ u) * u
        gamma1 = frac * beta
        gamma2 = 0.0
        if np.linalg.norm(r) > 1e-9:
            r = r / np.linalg.norm(r)
            gamma2 = math.sqrt(max(beta**2 * 0.99 - gamma1**2, 0.0))
        g = gamma1 * u + gamma2 * r
        c = gamma1 * s * beta  # makes <g, v*> = c/beta exactly
        assert c <= beta**2 + 1e-12
        lam = c / (2.0 * beta**3)
        out = normalized_update(v, g, lam)
        gain = float(out @ vstar) - float(v @ vstar)
        assert gain >= lam**2 * beta**2 / 2.0 - 1e-12


class TestBandAndHelpers:
    def test_random_unit_basic(self):
        rng = np.random.default_rng(0)
        v = random_unit(6, rng)
        assert abs(np.linalg.norm(v) - 1.0) < 1e-9

    def test_random_unit_orthogonal(self):
        rng = np.random.default_rng(1)
        w = as_unit(np.arange(1.0, 6.0))
        for _ in range(20):
            v = random_unit(5, rng, orthogonal_to=w)
            assert abs(v @ w) < 1e-9
            assert abs(np.linalg.norm(v) - 1.0) < 1e-9

    def test_random_unit_mean_concentrates(self):
        rng = np.random.default_rng(2)
        d, n = 4, 10_000
        draws = np.stack([random_unit(d, rng) for _ in range(n)])
        assert np.linalg.norm(draws.mean(axis=0)) <= 3.0 / math.sqrt(n) * math.sqrt(d)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=2, max_value=12))
    def test_subspace_basis_orthonormal_complement(self, seed, d):
        rng = np.random.default_rng(seed)
        w = as_unit(rng.standard_normal(d))
        basis = subspace_basis(w)
        assert basis.shape == (d, d - 1)
        assert np.allclose(basis.T @ basis, np.eye(d - 1), atol=1e-9)
        assert np.max(np.abs(basis.T @ w)) < 1e-9
        again = subspace_basis(w)
        assert np.array_equal(basis, again)


class TestRandomUnitFromSeed:
    """``random_unit`` on a fresh generator per seed, as the random-init
    oracle draws its start directions."""

    @staticmethod
    def draw(d, seed, orthogonal_to=None):
        return random_unit(d, np.random.default_rng(seed), orthogonal_to=orthogonal_to)

    def test_planar_complement_is_sign_choice(self):
        w = as_unit(np.array([1.0, 1.0]))
        u = np.array([w[1], -w[0]])
        for seed in range(10):
            v = self.draw(2, seed, orthogonal_to=w)
            assert min(np.linalg.norm(v - u), np.linalg.norm(v + u)) < 1e-9

    def test_mean_norm_symmetry(self):
        d, n = 5, 10_000
        draws = np.stack([self.draw(d, seed) for seed in range(n)])
        assert np.linalg.norm(draws.mean(axis=0)) <= 3.0 / math.sqrt(n) * math.sqrt(d)

    def test_high_dim_coordinate_mass(self):
        d = 100
        w = e(0, d)
        u = e(1, d)
        thresh = 0.1 / math.sqrt(d - 1)
        hits = 0
        n = 400
        for seed in range(n):
            v = self.draw(d, seed, orthogonal_to=w)
            if abs(float(v @ u)) >= thresh:
                hits += 1
        exact = oracles.sphere_coordinate_abs_tail(d - 1, thresh)
        assert exact >= 0.9  # the oracle itself says this is very likely
        assert hits / n >= 0.5

    def test_determinism(self):
        assert np.array_equal(self.draw(6, 3), self.draw(6, 3))

    def test_dimension_validation(self):
        with pytest.raises(InvalidConfig):
            self.draw(1, 0)
