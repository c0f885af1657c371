"""Tests for the warm-start pipeline: band, isotropize, Chow subspace."""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy import stats

import oracles
from oracles import orth_component
from tsyblearn import synthetic, warmstart
from tsyblearn.errors import (
    EmptyBand,
    EmptySubspace,
    InvalidConfig,
    Nonconvergence,
    SingularCovariance,
    SourceExhausted,
)
from tsyblearn.geometry import subspace_basis
from tsyblearn.synthetic import (
    Family,
    InstanceSpec,
    LabeledBatch,
    MarginalSpec,
    SampleStream,
    batch_base,
    constant_rate,
    margin_power_law,
    sample_batch,
)
from tsyblearn.warmstart import (
    ChowParameters,
    RandomBandConfig,
    RejectionReweighter,
    band_scale,
    build_subspace,
    chow_parameters,
    noise_margin,
    psgd_stationary_point,
    random_band_project,
    standardize,
    warm_start,
    warm_start_batch,
)

E1_3 = np.array([1.0, 0.0, 0.0])
E3_3 = np.array([0.0, 0.0, 1.0])

#: The noise tail the warm-start tests use: alpha = 1/2, bigA = 2.
NOISE = constant_rate(0.5, 0.0)
assert (NOISE.alpha, NOISE.bigA) == (0.5, 2.0)


def gaussian_instance(d, target, *, eta0=0.0, alpha=0.5, seed=0):
    return InstanceSpec(
        MarginalSpec(Family.STANDARD_GAUSSIAN, d),
        np.asarray(target, dtype=float),
        constant_rate(alpha, eta0),
        seed=seed,
    )


def warm_batch(inst, n, seed):
    """The full batch at the warm-start batch index of ``seed``."""
    return SampleStream(inst, batch_base("warm_start", seed)).next(n)


def warm_band_batch(inst, n, w, noise, epsilon, seed):
    """The band batch of one guess: the band rows of the warm-start batch
    index of ``seed``, in the band ``warm_start`` keeps."""
    band = RandomBandConfig.from_noise(noise.alpha, noise.bigA, epsilon, seed)
    return SampleStream(inst, batch_base("warm_start", seed)).next_band(
        n, w, band.x0, band.x0 + band.s_prime
    )


class TestBandConfig:
    def test_from_noise_scales(self):
        cfg = RandomBandConfig.from_noise(0.5, 2.0, 0.5, seed=11)
        assert 0 < cfg.s <= 0.1
        assert cfg.s_prime == cfg.s / 2.0
        assert cfg.s <= cfg.x0 <= 2.0 * cfg.s

    def test_from_noise_deterministic(self):
        a = RandomBandConfig.from_noise(0.5, 2.0, 0.3, seed=4)
        b = RandomBandConfig.from_noise(0.5, 2.0, 0.3, seed=4)
        c = RandomBandConfig.from_noise(0.5, 2.0, 0.3, seed=5)
        assert a == b
        assert a.x0 != c.x0

    def test_noise_margin_value(self):
        assert noise_margin(0.5, 2.0, 0.01) == pytest.approx((0.01 / 2.0) ** 2)

    @pytest.mark.parametrize(
        "alpha, big_a, epsilon",
        [(1e-308, 2.0, 0.15), (0.5, 1.7976931348623157e308, 0.15),
         (0.5, 2.0, 1e-323)],
        ids=["tiny-alpha", "huge-bigA", "tiny-epsilon"],
    )
    def test_band_scale_that_underflows_raises(self, alpha, big_a, epsilon):
        # bigA * log(bigA + e) / (alpha * epsilon) overflows (or alpha *
        # epsilon underflows), so s would be 0 and the band empty.
        with pytest.raises(InvalidConfig) as got:
            band_scale(alpha, big_a, epsilon)
        message = str(got.value)
        for name in ("alpha", "bigA", "epsilon"):
            assert f"{name}=" in message
        with pytest.raises(InvalidConfig, match="underflows"):
            RandomBandConfig.from_noise(alpha, big_a, epsilon, seed=0)

    def test_band_scale_grows_with_epsilon(self):
        scales = [band_scale(0.5, 2.0, eps) for eps in (0.01, 0.1, 0.5, 1.0)]
        assert scales == sorted(scales) and scales[0] > 0
        assert RandomBandConfig.from_noise(0.5, 2.0, 0.1, seed=3).s == scales[1]

    def test_validation(self):
        with pytest.raises(InvalidConfig):
            RandomBandConfig(s=0.02, s_prime=0.03, x0=0.03)
        with pytest.raises(InvalidConfig):
            RandomBandConfig(s=0.02, s_prime=0.01, x0=0.05)
        with pytest.raises(InvalidConfig):
            RandomBandConfig.from_noise(1.2, 2.0, 0.1, seed=0)
        with pytest.raises(InvalidConfig):
            RandomBandConfig.from_noise(0.5, 2.0, -0.1, seed=0)


class TestRandomBandProject:
    def test_orthogonal_projection_componentwise(self):
        cfg = RandomBandConfig(s=0.1, s_prime=0.05, x0=0.1)
        batch = LabeledBatch(
            x=np.array([[0.12, 3.0, 4.0], [0.9, 1.0, 1.0]]),
            y=np.array([1, -1], dtype=np.int8),
        )
        out = random_band_project(batch, E1_3, cfg)
        assert len(out) == 1
        np.testing.assert_allclose(out.x[0], [0.0, 3.0, 4.0], atol=1e-12)
        assert out.y[0] == 1
        assert len(out) / out.n_input == pytest.approx(0.5)

    def test_survivors_orthogonal_to_w(self):
        inst = gaussian_instance(4, [0.0, 1.0, 0.0, 0.0], seed=3)
        raw = sample_batch(inst, 200_000, batch=1)
        w = np.array([1.0, 0.0, 0.0, 0.0])
        cfg = RandomBandConfig.from_noise(0.5, 2.0, 0.5, seed=1)
        out = random_band_project(raw, w, cfg)
        assert np.max(np.abs(out.x @ w)) < 1e-9

    def test_gaussian_survival_matches_density(self):
        inst = gaussian_instance(3, E1_3, seed=5)
        raw = sample_batch(inst, 400_000, batch=9)
        cfg = RandomBandConfig.from_noise(0.5, 2.0, 0.5, seed=11)
        out = random_band_project(raw, E3_3, cfg)
        predicted = oracles.gaussian_band_mass(cfg.x0, cfg.x0 + cfg.s_prime)
        se = oracles.binomial_se(predicted, 400_000)
        assert abs(len(out) / out.n_input - predicted) <= 3.0 * se
        # thin band: mass is within 1% of density * width
        assert predicted == pytest.approx(
            oracles.gaussian_pdf(cfg.x0) * cfg.s_prime, rel=0.01
        )

    def test_empty_band_raises(self):
        # Ball of radius 2 cannot reach a band starting at 3.
        inst = InstanceSpec(
            MarginalSpec(Family.UNIFORM_BALL, 2),
            np.array([1.0, 0.0]),
            constant_rate(0.5, 0.0),
            seed=0,
        )
        raw = sample_batch(inst, 10_000, batch=0)
        cfg = RandomBandConfig(s=3.0, s_prime=0.5, x0=3.0)
        with pytest.raises(EmptyBand):
            random_band_project(raw, np.array([1.0, 0.0]), cfg)
        with pytest.raises(EmptyBand):
            random_band_project(
                LabeledBatch(x=np.zeros((0, 2)), y=np.zeros(0, dtype=np.int8)),
                np.array([1.0, 0.0]),
                cfg,
            )


class TestPsgdStationaryPoint:
    def test_symmetric_input_stays_near_zero(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((20_000, 2))
        out = psgd_stationary_point(x, gamma=0.02, seed=1)
        assert out.gamma <= 0.02 + 1e-12
        assert np.linalg.norm(out.r) < 0.2
        assert out.acceptance_rate > 0.9

    def test_one_dim_shifted_mean_gives_positive_shift(self):
        rng = np.random.default_rng(8)
        x = (rng.standard_normal(20_000) + 0.5)[:, None]
        out = psgd_stationary_point(x, gamma=0.02, seed=2)
        assert out.r[0] > 0.1
        assert out.gamma <= 0.05

    def test_two_dim_shifted_matches_grid_oracle(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((40_000, 2))
        x[:, 0] += 0.3
        out = psgd_stationary_point(x, gamma=0.02, seed=3)
        assert out.gamma <= 0.05
        assert oracles.reweighted_mean_norm(x, out.r) <= 0.05
        r_grid, norm_grid = oracles.grid_search_shift(x, np.array([1.0, 0.0]))
        assert norm_grid <= 0.05  # the target is attainable on this data
        assert abs(out.r[0] - r_grid[0]) < 0.25

    def test_nonconvergence_carries_best_iterate(self):
        rng = np.random.default_rng(10)
        x = rng.standard_normal((5_000, 2)) + np.array([0.5, 0.0])
        with pytest.raises(Nonconvergence) as info:
            psgd_stationary_point(x, gamma=1e-4, iters=1, seed=0)
        assert info.value.r.shape == (2,)
        assert info.value.g_norm > 1e-3

    def test_radius_clipping(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((5_000, 1)) + 4.0
        try:
            out = psgd_stationary_point(x, gamma=0.5, radius=0.5, iters=50, seed=0)
            r = out.r
        except Nonconvergence as err:
            r = err.r
        assert np.linalg.norm(r) <= 0.5 + 1e-9

    def test_validation(self):
        with pytest.raises(InvalidConfig):
            psgd_stationary_point(np.zeros((10, 2)), gamma=-1.0)
        with pytest.raises(InvalidConfig):
            psgd_stationary_point(np.zeros((2, 2)), gamma=0.1)


def rejection_resample(x, r, target_n, seed):
    """The accepted rows and the acceptance rate of ``warm_start``'s
    rejection step, at a given seed."""
    idx = warmstart._rejection_indices(x, r, target_n, np.random.default_rng(seed))
    return x[idx], len(idx) / (int(idx[-1]) + 1)


class TestRejectionResample:
    def test_zero_shift_accepts_everything(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((500, 3))
        accepted, rate = rejection_resample(x, np.zeros(3), 500, seed=0)
        assert rate == pytest.approx(1.0)
        np.testing.assert_array_equal(accepted, x)

    def test_nonpositive_inner_products_accept_everything(self):
        rng = np.random.default_rng(2)
        x = -np.abs(rng.standard_normal((300, 1)))
        accepted, rate = rejection_resample(x, np.array([2.0]), 300, seed=0)
        assert rate == pytest.approx(1.0)
        assert len(accepted) == 300

    def test_shifted_population_centered_after_resampling(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((60_000, 2))
        x[:, 0] += 0.3
        shift = psgd_stationary_point(x, gamma=0.02, seed=1)
        accepted, rate = rejection_resample(x, shift.r, 20_000, seed=2)
        assert np.linalg.norm(accepted.mean(axis=0)) <= 0.05
        assert rate >= 0.05

    def test_source_exhausted(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((100, 2))
        with pytest.raises(SourceExhausted):
            rejection_resample(x, np.zeros(2), 101, seed=0)

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((2_000, 2)) + 0.4
        a, _ = rejection_resample(x, np.array([1.0, 0.0]), 500, seed=9)
        b, _ = rejection_resample(x, np.array([1.0, 0.0]), 500, seed=9)
        np.testing.assert_array_equal(a, b)


class TestStandardize:
    def test_output_moments_are_exact(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((5_000, 3)) * np.array([1.0, 2.0, 0.5]) + 1.0
        z, mean, root = standardize(x)
        assert np.linalg.norm(z.mean(axis=0)) <= 1e-9
        cov = z.T @ z / len(z)
        assert np.max(np.abs(cov - np.eye(3))) <= 1e-7
        np.testing.assert_allclose(mean, x.mean(axis=0))

    def test_two_point_one_dim(self):
        z, mean, root = standardize(np.array([[-1.0], [1.0]]))
        assert mean == pytest.approx(0.0)
        assert root[0, 0] == pytest.approx(1.0)
        np.testing.assert_allclose(np.sort(z[:, 0]), [-1.0, 1.0])

    def test_scale_equivariance(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((4_000, 2))
        z1, _, root1 = standardize(x)
        z3, _, root3 = standardize(3.0 * x)
        np.testing.assert_allclose(z1, z3, atol=1e-6)
        np.testing.assert_allclose(root3, 3.0 * root1, atol=1e-6)

    def test_singular_covariance(self):
        x = np.zeros((100, 2))
        x[:, 0] = np.arange(100.0)
        with pytest.raises(SingularCovariance):
            standardize(x)

    def test_near_isotropic_input_gives_near_identity_root(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((100_000, 3))
        _, mean, root = standardize(x)
        assert np.linalg.norm(mean) < 0.02
        assert np.max(np.abs(root - np.eye(3))) < 0.02


class TestChowParameters:
    def test_noiseless_gaussian_first_moment(self):
        rng = np.random.default_rng(9)
        u = np.array([0.6, 0.8])
        z = rng.standard_normal((200_000, 2))
        y = np.sign(z @ u)
        chow = chow_parameters(z, y)
        expected = oracles.chow_vector_noiseless_gaussian(u)
        assert np.linalg.norm(chow.T1 - expected) < 3.0 * math.sqrt(2.0 / 200_000)

    def test_constant_labels_give_null_moments(self):
        rng = np.random.default_rng(10)
        z = rng.standard_normal((100_000, 3))
        chow = chow_parameters(z, np.ones(100_000))
        assert np.linalg.norm(chow.T1) < 0.02
        assert np.max(np.abs(chow.T2)) < 0.03

    def test_independent_labels_give_null_moments(self):
        rng = np.random.default_rng(11)
        z = rng.standard_normal((100_000, 3))
        y = rng.choice([-1.0, 1.0], size=100_000)
        chow = chow_parameters(z, y)
        assert np.linalg.norm(chow.T1) < 4.0 * math.sqrt(3.0 / 100_000)
        assert np.max(np.abs(chow.eigvals)) < 0.05

    def test_decomposition_identity_exact_on_shared_sample(self):
        # a <u, T1> + b u' T2 u equals E[y q(<u, z>)] with q = b(m^2-1) + am,
        # as an algebraic identity on any fixed sample with unit u.
        rng = np.random.default_rng(12)
        z = rng.standard_normal((50_000, 3))
        y = np.sign(z[:, 0] - 0.05)
        chow = chow_parameters(z, y)
        for seed in range(5):
            u = np.random.default_rng(seed).standard_normal(3)
            u /= np.linalg.norm(u)
            a, b = oracles.quadratic_threshold_coeffs(0.07)
            m = z @ u
            direct = float(np.mean(y * (b * (m**2 - 1.0) + a * m)))
            via_moments = a * float(u @ chow.T1) + b * float(u @ chow.T2 @ u)
            assert abs(direct - via_moments) < 1e-9

    def test_eigendecomposition_consistency(self):
        rng = np.random.default_rng(13)
        z = rng.standard_normal((20_000, 4))
        y = np.sign(z[:, 1])
        chow = chow_parameters(z, y)
        recon = chow.eigvecs @ np.diag(chow.eigvals) @ chow.eigvecs.T
        assert np.max(np.abs(recon - chow.T2)) < 1e-9

    def test_validation(self):
        with pytest.raises(InvalidConfig):
            chow_parameters(np.zeros((10, 2)), np.ones(9))


class TestQuadraticCorrelation:
    def test_normalized_quadratic_correlates_with_biased_labels(self):
        # On a standardized noiseless instance y = sign(m - theta_b) the
        # normalized shifted-root quadratic has positive label correlation.
        rng = np.random.default_rng(14)
        for theta_b in (0.02, 0.05, 0.1):
            m = rng.standard_normal(200_000)
            y = np.sign(m - theta_b)
            a, b = oracles.quadratic_threshold_coeffs(theta_b)
            p = (b * (m**2 - 1.0) + a * m) / oracles.hermite_norm(a, b)
            corr = float(np.mean(y * p))
            se = float(np.std(y * p) / math.sqrt(len(m)))
            assert corr > 3.0 * se


class TestBuildSubspace:
    def _chow(self, t1, eigvals, n_used=100_000):
        m = len(t1)
        t2 = np.diag(np.asarray(eigvals, dtype=float))
        vals, vecs = np.linalg.eigh(t2)
        return ChowParameters(
            T1=np.asarray(t1, dtype=float),
            T2=t2,
            eigvals=vals,
            eigvecs=vecs,
            n_used=n_used,
        )

    def test_first_moment_only(self):
        basis = build_subspace(self._chow([1.0, 0.0], [0.0, 0.0]), zeta=0.5)
        assert basis.shape == (2, 1)
        np.testing.assert_allclose(np.abs(basis[:, 0]), [1.0, 0.0], atol=1e-12)

    def test_eigenvector_only(self):
        basis = build_subspace(self._chow([0.0, 0.0], [1.0, 0.1]), zeta=0.5)
        assert basis.shape == (2, 1)
        np.testing.assert_allclose(np.abs(basis[:, 0]), [1.0, 0.0], atol=1e-12)

    def test_union_spans_both(self):
        basis = build_subspace(self._chow([1.0, 0.0], [0.0, 1.0]), zeta=0.5)
        assert basis.shape == (2, 2)
        gram = basis.T @ basis
        np.testing.assert_allclose(gram, np.eye(2), atol=1e-12)

    def test_duplicate_directions_deduplicated(self):
        basis = build_subspace(self._chow([1.0, 0.0], [1.0, 0.0]), zeta=0.5)
        assert basis.shape == (2, 1)

    def test_noise_level_first_moment_excluded(self):
        # |T1| below 4*sqrt(m/n) contributes nothing.
        chow = self._chow([0.001, 0.0], [0.0, 0.0], n_used=10_000)
        with pytest.raises(EmptySubspace):
            build_subspace(chow, zeta=0.5)

    def test_negative_eigenvalues_count_by_magnitude(self):
        basis = build_subspace(self._chow([0.0, 0.0], [-0.9, 0.0]), zeta=0.5)
        assert basis.shape == (2, 1)

    def test_validation(self):
        with pytest.raises(InvalidConfig):
            build_subspace(self._chow([1.0, 0.0], [0.0, 0.0]), zeta=0.0)


class TestWarmStart:
    @pytest.mark.parametrize("epsilon", [0.0, -0.1, math.pi + 1e-9, 100.0])
    def test_config_rejects_epsilon_outside_angle_range(self, epsilon):
        inst = gaussian_instance(3, [0.8, 0.6, 0.0], seed=2)
        raw = warm_batch(inst, 50_000, 0)
        with pytest.raises(InvalidConfig, match="epsilon must lie in"):
            warm_start(raw, E1_3, NOISE, epsilon, 0)
        res = warm_start(raw, E1_3, NOISE, math.pi, 0)
        assert abs(np.linalg.norm(res.v) - 1.0) < 1e-9

    def test_recovers_planted_direction_with_constant_probability(self):
        theta = 0.2
        wstar = np.array([math.cos(theta), math.sin(theta), 0.0])
        w = E1_3
        u_ref = orth_component(wstar, w)
        inst = gaussian_instance(3, wstar, seed=21)
        hits = 0
        for seed in range(20):
            res = warm_start(warm_batch(inst, 400_000, seed), w, NOISE, 0.5, seed)
            assert abs(np.linalg.norm(res.v) - 1.0) < 1e-9
            assert abs(res.v @ w) < 1e-9
            assert res.diagnostics["acceptance_rate"] >= 0.05
            assert res.subspace_dim <= 10.0 * res.diagnostics["zeta_floor"] ** -4
            if float(res.v @ u_ref) >= 0.05:
                hits += 1
        assert hits >= 6

    def test_deterministic_per_seed(self):
        inst = gaussian_instance(3, [0.8, 0.6, 0.0], seed=2)
        a = warm_start(warm_batch(inst, 200_000, 3), E1_3, NOISE, 0.5, 3)
        b = warm_start(warm_batch(inst, 200_000, 3), E1_3, NOISE, 0.5, 3)
        np.testing.assert_array_equal(a.v, b.v)
        assert a.subspace_dim == b.subspace_dim

    def test_scrambled_labels_raise_empty_subspace(self):
        inst = gaussian_instance(3, [0.8, 0.6, 0.0], seed=2)
        raw = sample_batch(inst, 300_000, batch=78)
        rng = np.random.default_rng(0)
        scrambled = LabeledBatch(
            x=raw.x, y=rng.permutation(raw.y).astype(np.int8)
        )
        # The cutoff is the eigenvalue noise floor: permuted labels clear it
        # nowhere, so the warm start proposes no (noise) direction.
        with pytest.raises(EmptySubspace):
            warm_start(scrambled, E1_3, NOISE, 0.5, 3)

    @pytest.mark.parametrize("kept", [1, 3])
    def test_band_with_too_few_rows_is_empty(self, kept):
        # The tilt fit needs 4 band rows; fewer is an empty band, which the
        # oracle and the warmstart command treat as a failed warm start.
        band = RandomBandConfig.from_noise(0.5, 2.0, 0.5, seed=4)
        x = np.zeros((100, 3))
        x[:, 1] = 1.0
        x[:kept, 0] = band.x0 + 0.5 * band.s_prime
        raw = LabeledBatch(x=x, y=np.ones(100, dtype=np.int8))
        with pytest.raises(EmptyBand, match=f"keeps {kept} of 100 rows"):
            warm_start(raw, E1_3, NOISE, 0.5, 4)

    def test_noise_margin_that_underflows_takes_the_gamma_floor(self, monkeypatch):
        # At alpha = 0.01 the band noise margin (s / bigA)**(1/alpha)
        # underflows to 0.0; the tilt fit then targets the 1e-3 floor that a
        # subnormal margin gets, instead of dividing by zero.  These labels
        # clear no noise floor, so the warm start ends in EmptySubspace.
        inst = gaussian_instance(3, [0.8, 0.6, 0.0], alpha=0.01, seed=2)
        s = RandomBandConfig.from_noise(0.01, inst.noise.bigA, 1.0, seed=0).s
        assert noise_margin(0.01, inst.noise.bigA, s) == 0.0
        gammas = []
        fit = warmstart.psgd_stationary_point

        def recording_fit(samples, gamma, **kwargs):
            gammas.append(gamma)
            return fit(samples, gamma, **kwargs)

        monkeypatch.setattr(warmstart, "psgd_stationary_point", recording_fit)
        with pytest.raises(EmptySubspace, match="no direction passed"):
            warm_start(warm_batch(inst, 400_000, 0), E1_3, inst.noise, 1.0, 0)
        assert gammas == [1e-3]

    def test_works_under_label_noise(self):
        theta = 0.25
        wstar = np.array([math.cos(theta), math.sin(theta), 0.0])
        inst = gaussian_instance(3, wstar, eta0=0.2, seed=31)
        res = warm_start(warm_batch(inst, 400_000, 1), E1_3, NOISE, 0.5, 1)
        # noise shrinks the Chow signal but the direction is still extracted
        u_ref = orth_component(wstar, E1_3)
        assert abs(float(res.v @ u_ref)) > 0.5

    def test_uniform_ball_instance_runs(self):
        theta = 0.3
        wstar = np.array([math.cos(theta), math.sin(theta), 0.0])
        inst = InstanceSpec(
            MarginalSpec(Family.UNIFORM_BALL, 3),
            wstar,
            constant_rate(0.5, 0.1),
            seed=8,
        )
        res = warm_start(warm_batch(inst, 400_000, 2), E1_3, NOISE, 0.5, 2)
        assert abs(np.linalg.norm(res.v) - 1.0) < 1e-9
        assert res.diagnostics["acceptance_rate"] >= 0.05


class TestWarmStartBatch:
    """The oracle's and the warmstart command's draw: one band batch, drawn
    as a search round draws one (``SampleStream.next_band``), over the hull
    of the guesses' bands."""

    @pytest.mark.parametrize("family", list(Family))
    def test_same_result_as_on_the_band_batch(self, family):
        # With one guess the hull is that guess's own band.
        marg = MarginalSpec(family, 3)
        wstar = np.array([math.cos(0.4), math.sin(0.4), 0.0])
        inst = InstanceSpec(marg, wstar, margin_power_law(0.5, marg), seed=17)
        got = warm_start_batch(inst, 200_000, E1_3, inst.noise, [(0.5, 5)])
        raw = warm_band_batch(inst, 200_000, E1_3, inst.noise, 0.5, 5)
        assert raw.n_input == got.n_input == 200_000 and 100 < len(raw) < 20_000
        assert got.x.tobytes() == raw.x.tobytes()
        assert got.y.tobytes() == raw.y.tobytes()
        expect = warm_start(raw, E1_3, inst.noise, 0.5, 5)
        assert warm_start(got, E1_3, inst.noise, 0.5, 5).to_dict() == expect.to_dict()

    @pytest.mark.parametrize("family", list(Family))
    def test_guesses_share_the_first_seeds_batch_over_their_hull(self, family):
        marg = MarginalSpec(family, 3)
        wstar = np.array([math.cos(0.4), math.sin(0.4), 0.0])
        inst = InstanceSpec(marg, wstar, margin_power_law(0.5, marg), seed=17)
        guesses = [(0.15, 5), (0.3, 6), (0.6, 7), (1.0, 8)]
        bands = [RandomBandConfig.from_noise(0.5, inst.noise.bigA, eps, seed)
                 for eps, seed in guesses]
        lo = min(band.x0 for band in bands)
        hi = max(band.x0 + band.s_prime for band in bands)
        raw = warm_start_batch(inst, 100_000, E1_3, inst.noise, guesses)
        expect = SampleStream(inst, batch_base("warm_start", 5)).next_band(
            100_000, E1_3, lo, hi
        )
        assert raw.n_input == 100_000
        assert raw.x.tobytes() == expect.x.tobytes()
        assert raw.y.tobytes() == expect.y.tobytes()
        assert np.all((raw.x[:, 0] >= lo) & (raw.x[:, 0] <= hi))

    def test_gaussian_draws_in_conditional_form(self, monkeypatch):
        # No n-row point draw: only the band rows are drawn, and their count
        # is Binomial(n, p_band) with p_band the Gaussian mass of the band.
        sizes = []
        draw_points = synthetic._draw_points

        def recorded(marginal, n, *args):
            sizes.append(n)
            return draw_points(marginal, n, *args)

        monkeypatch.setattr(synthetic, "_draw_points", recorded)
        inst = gaussian_instance(3, [math.cos(0.4), math.sin(0.4), 0.0], seed=17)
        n = 200_000
        raw = warm_start_batch(inst, n, E1_3, NOISE, [(0.5, 5)])
        res = warm_start(raw, E1_3, NOISE, 0.5, 5)
        assert sizes == []
        band = RandomBandConfig.from_noise(NOISE.alpha, NOISE.bigA, 0.5, 5)
        p_band = stats.norm.cdf(band.x0 + band.s_prime) - stats.norm.cdf(band.x0)
        se = math.sqrt(p_band * (1.0 - p_band) / n)
        assert abs(res.diagnostics["band_survival"] - p_band) <= 3.0 * se

    def test_empty_band_is_the_same_failure(self):
        inst = gaussian_instance(3, [0.8, 0.6, 0.0], seed=2)
        with pytest.raises(EmptyBand) as got:
            warm_start(warm_start_batch(inst, 200, E1_3, NOISE, [(0.5, 0)]),
                       E1_3, NOISE, 0.5, 0)
        with pytest.raises(EmptyBand) as expect:
            warm_start(warm_band_batch(inst, 200, E1_3, NOISE, 0.5, 0),
                       E1_3, NOISE, 0.5, 0)
        assert str(got.value) == str(expect.value)


class TestIsotropizationPipeline:
    def test_holdout_moments_after_fit(self):
        # Fit the reweighting + whitening on one half of an anisotropic
        # log-concave sample; the held-out half, pushed through the same
        # transform, has near-zero mean and near-identity covariance.
        rng = np.random.default_rng(42)
        n = 100_000
        raw = rng.standard_normal((n, 4)) @ np.diag([1.3, 0.8, 1.0, 0.9])
        raw[:, 0] += 0.3
        fit, hold = raw[: n // 2], raw[n // 2 :]
        shift = psgd_stationary_point(fit, gamma=0.02, seed=1)
        accepted, rate = rejection_resample(fit, shift.r, 20_000, seed=2)
        assert rate >= 0.05
        _, mean, root = standardize(accepted)
        inv_root = np.linalg.inv(root)
        probs = warmstart._acceptance(hold, shift.r)
        keep = np.random.default_rng(3).random(len(hold)) < probs
        z_hold = (hold[keep] - mean) @ inv_root
        assert np.linalg.norm(z_hold.mean(axis=0)) <= 0.1
        eigs = np.linalg.eigvalsh(z_hold.T @ z_hold / len(z_hold))
        assert eigs.min() >= 0.9
        assert eigs.max() <= 1.1


class TestBandNoiseProfile:
    def _band_draws(self, profile, theta, n_draws=20):
        wstar = np.array([math.cos(theta), math.sin(theta), 0.0])
        inst = InstanceSpec(
            MarginalSpec(Family.STANDARD_GAUSSIAN, 3), wstar, profile, seed=4
        )
        raw = sample_batch(inst, 400_000, batch=55)
        w = E1_3
        u = orth_component(wstar, w)
        out = []
        for seed in range(n_draws):
            cfg = RandomBandConfig.from_noise(
                profile.alpha, profile.bigA, 0.5, seed=200 + seed
            )
            pb = random_band_project(raw, w, cfg)
            out.append((cfg, pb.x @ u, len(pb)))
        return out

    def test_constant_rate_band_noise_margins(self):
        # Conditioning on a random thin band leaves (a) almost no points
        # whose conditional flip probability exceeds 1/2 relative to the
        # reference biased halfspace and (b) a 2/3 majority with flip
        # probability bounded away from 1/2 by the margin xi — for most
        # draws of the band offset.
        theta = 0.3
        profile = constant_rate(0.5, 0.2)
        ok_hi = ok_lo = 0
        for cfg, margins, n in self._band_draws(profile, theta):
            fl = oracles.band_flip_constant(
                margins, theta, cfg.x0, cfg.s_prime, 0.2
            )
            xi = noise_margin(profile.alpha, profile.bigA, cfg.s)
            frac_hi = float(np.mean(fl > 0.5))
            frac_lo = float(np.mean(fl <= 0.5 - xi))
            se = oracles.binomial_se(max(frac_hi, 1.0 / n), n)
            if frac_hi <= xi**3 + 3.0 * se:
                ok_hi += 1
            if frac_lo >= 2.0 / 3.0 - 3.0 * oracles.binomial_se(2.0 / 3.0, n):
                ok_lo += 1
        assert ok_lo >= 14  # hard bound: clean majority on most band draws
        assert ok_hi >= 14  # contaminated fraction at noise level on most draws

    def test_margin_power_law_band_noise_margins(self):
        theta = 0.3
        marginal = MarginalSpec(Family.STANDARD_GAUSSIAN, 3)
        profile = margin_power_law(0.5, marginal, scale=1.0)
        ok_hi = ok_lo = 0
        for cfg, margins, n in self._band_draws(profile, theta):
            fl = oracles.band_flip_margin_power_law(
                margins, theta, cfg.x0, cfg.s_prime, 0.5, 1.0
            )
            xi = noise_margin(profile.alpha, profile.bigA, cfg.s)
            frac_hi = float(np.mean(fl > 0.5))
            frac_lo = float(np.mean(fl <= 0.5 - xi))
            se = oracles.binomial_se(max(frac_hi, 1.0 / n), n)
            if frac_hi <= xi**3 + 3.0 * se:
                ok_hi += 1
            if frac_lo >= 2.0 / 3.0 - 3.0 * oracles.binomial_se(2.0 / 3.0, n):
                ok_lo += 1
        assert ok_lo >= 14
        assert ok_hi >= 14


class TestRejectionReweighter:
    def test_acceptance_probabilities(self):
        rw = RejectionReweighter(r=np.array([1.0, 0.0]), gamma=0.01, acceptance_rate=0.8)
        probs = warmstart._acceptance(np.array([[2.0, 0.0], [-2.0, 0.0]]), rw.r)
        np.testing.assert_allclose(probs, [math.exp(-2.0), 1.0])

    def test_validation(self):
        with pytest.raises(InvalidConfig):
            RejectionReweighter(r=np.zeros(2), gamma=0.1, acceptance_rate=0.0)
