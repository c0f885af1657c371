"""Tests for synthetic instance generation, noise certification, serialization."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

import oracles
from tsyblearn.errors import InvalidConfig, UnsupportedFamily
from tsyblearn.geometry import as_unit
from tsyblearn.synthetic import (
    Adversarialish,
    ConstantRate,
    Family,
    InstanceSpec,
    LabeledBatch,
    MarginalSpec,
    MarginPowerLaw,
    NoiseSpec,
    adversarialish,
    constant_rate,
    disagreement_error,
    margin_power_law,
    noise_rates,
    one_dim_density_bound,
    read_binary,
    read_text,
    sample_band,
    sample_batch,
    well_behaved_params,
    write_binary,
    write_text,
)

ALL_FAMILIES = list(Family)


def gaussian_instance(d=5, noise=None, seed=11) -> InstanceSpec:
    marg = MarginalSpec(Family.STANDARD_GAUSSIAN, d)
    if noise is None:
        noise = constant_rate(0.5, 0.0)
    target = np.zeros(d)
    target[0] = 1.0
    return InstanceSpec(marg, target, noise, seed)


class TestSpecs:
    def test_dimension_validation(self):
        with pytest.raises(InvalidConfig):
            MarginalSpec(Family.STANDARD_GAUSSIAN, 1)

    def test_alpha_range(self):
        with pytest.raises(InvalidConfig):
            NoiseSpec(alpha=1.0, bigA=2.0, profile=ConstantRate(0.1))
        with pytest.raises(InvalidConfig):
            NoiseSpec(alpha=0.0, bigA=2.0, profile=ConstantRate(0.1))

    def test_eta0_range(self):
        with pytest.raises(InvalidConfig):
            ConstantRate(0.5)
        with pytest.raises(InvalidConfig):
            ConstantRate(-0.1)

    def test_bigA_floor_enforced(self):
        # ConstantRate(0.2) at alpha=0.5 needs bigA >= (0.3)^-1
        floor = (0.5 - 0.2) ** (-1.0)
        with pytest.raises(InvalidConfig):
            NoiseSpec(alpha=0.5, bigA=floor * 0.9, profile=ConstantRate(0.2))
        NoiseSpec(alpha=0.5, bigA=floor, profile=ConstantRate(0.2))

    def test_target_must_be_unit(self):
        marg = MarginalSpec(Family.STANDARD_GAUSSIAN, 3)
        with pytest.raises(InvalidConfig):
            InstanceSpec(marg, np.array([1.0, 1.0, 0.0]), constant_rate(0.5, 0.1), 0)

    def test_target_dimension_mismatch(self):
        marg = MarginalSpec(Family.STANDARD_GAUSSIAN, 3)
        with pytest.raises(InvalidConfig):
            InstanceSpec(marg, np.array([1.0, 0.0]), constant_rate(0.5, 0.1), 0)


class TestSampleBatch:
    def test_noiseless_labels_match_sign(self):
        for fam in ALL_FAMILIES:
            marg = MarginalSpec(fam, 4)
            target = as_unit(np.array([1.0, 2.0, -1.0, 0.5]))
            spec = InstanceSpec(marg, target, constant_rate(0.5, 0.0), seed=5)
            batch = sample_batch(spec, 5000)
            assert np.array_equal(batch.y, np.where(batch.x @ target >= 0, 1, -1))

    def test_flip_fraction_binomial(self):
        spec = gaussian_instance(noise=constant_rate(0.5, 0.3), seed=23)
        n = 100_000
        batch = sample_batch(spec, n)
        clean = np.where(batch.x @ spec.target >= 0, 1, -1)
        flip = float(np.mean(batch.y != clean))
        assert abs(flip - 0.3) <= 0.005

    def test_same_seed_identical(self):
        spec = gaussian_instance(seed=99)
        a = sample_batch(spec, 1000, batch=4)
        b = sample_batch(spec, 1000, batch=4)
        assert a.x.tobytes() == b.x.tobytes()
        assert a.y.tobytes() == b.y.tobytes()

    def test_distinct_batches_differ(self):
        spec = gaussian_instance(seed=99)
        a = sample_batch(spec, 1000, batch=0)
        b = sample_batch(spec, 1000, batch=1)
        assert not np.array_equal(a.x, b.x)

    def test_batch_iteration_and_indexing(self):
        spec = gaussian_instance(seed=1)
        batch = sample_batch(spec, 10)
        sub = batch[2:5]
        assert isinstance(sub, LabeledBatch) and len(sub) == 3

    def test_labels_are_plus_minus_one(self):
        spec = gaussian_instance(noise=constant_rate(0.5, 0.4), seed=2)
        batch = sample_batch(spec, 2000)
        assert set(np.unique(batch.y)) <= {-1, 1}

    def test_label_validation(self):
        with pytest.raises(InvalidConfig):
            LabeledBatch(x=np.zeros((2, 2)), y=np.array([1, 2]))


class TestIsotropy:
    @pytest.mark.parametrize("family", ALL_FAMILIES, ids=lambda f: f.value)
    def test_mean_and_covariance(self, family):
        d, n = 10, 1_000_000
        marg = MarginalSpec(family, d)
        spec = InstanceSpec(marg, np.eye(d)[0], constant_rate(0.5, 0.0), seed=31)
        xs = sample_batch(spec, n).x
        assert np.linalg.norm(xs.mean(axis=0)) <= 3.0 * math.sqrt(d / n)
        eigs = np.linalg.eigvalsh(np.cov(xs.T))
        slack = 5.0 * math.sqrt(d / n)
        assert eigs.min() >= 1.0 - slack
        assert eigs.max() <= 1.0 + slack


class TestNoiseRate:
    def test_constant_profile(self):
        spec = gaussian_instance(noise=constant_rate(0.5, 0.2))
        xs = np.random.default_rng(0).standard_normal((50, 5))
        assert np.allclose(noise_rates(spec, xs), 0.2)
        assert noise_rates(spec, xs[0]) == 0.2

    def test_margin_power_law_boundary(self):
        marg = MarginalSpec(Family.STANDARD_GAUSSIAN, 3)
        spec = InstanceSpec(
            marg, np.eye(3)[0], margin_power_law(0.5, marg, scale=1.0), seed=0
        )
        assert noise_rates(spec, np.array([0.0, 2.0, 1.0])) == pytest.approx(0.5)
        assert noise_rates(spec, np.array([1.0, 0.3, 0.0])) == pytest.approx(0.0)

    def test_margin_power_law_midpoint(self):
        # alpha = 0.5 -> exponent 1: eta = 1/2 - |m|/2 for |m| <= 1
        marg = MarginalSpec(Family.STANDARD_GAUSSIAN, 3)
        spec = InstanceSpec(
            marg, np.eye(3)[0], margin_power_law(0.5, marg, scale=1.0), seed=0
        )
        assert noise_rates(spec, np.array([0.4, 0.0, 0.0])) == pytest.approx(0.3)

    def test_vectorized_matches_scalar(self):
        marg = MarginalSpec(Family.STANDARD_GAUSSIAN, 4)
        spec = InstanceSpec(
            marg, np.eye(4)[0], adversarialish(0.6, sectors=10, profile_seed=4), seed=0
        )
        xs = np.random.default_rng(1).standard_normal((30, 4))
        vec = noise_rates(spec, xs)
        assert np.allclose(vec, [noise_rates(spec, x) for x in xs])

    def test_adversarialish_rates_bounded_and_deterministic(self):
        marg = MarginalSpec(Family.STANDARD_GAUSSIAN, 4)
        spec = InstanceSpec(
            marg, np.eye(4)[0], adversarialish(0.5, sectors=12, profile_seed=7), seed=0
        )
        xs = np.random.default_rng(2).standard_normal((2000, 4))
        eta = noise_rates(spec, xs)
        assert np.all((eta >= 0.0) & (eta <= 0.49))
        assert np.allclose(eta, noise_rates(spec, xs))
        # distinct sectors actually occur
        assert len(np.unique(np.round(eta, 6))) > 1


class TestTsybakovCertification:
    @pytest.mark.parametrize(
        "label, make",
        [
            ("constant", lambda m: constant_rate(0.5, 0.2)),
            ("mpl-half", lambda m: margin_power_law(0.5, m)),
            ("mpl-point8", lambda m: margin_power_law(0.8, m)),
            ("adversarialish", lambda m: adversarialish(0.5, sectors=9, profile_seed=3)),
        ],
    )
    @pytest.mark.parametrize("family", ALL_FAMILIES, ids=lambda f: f.value)
    def test_tail_bound_on_grid(self, family, label, make):
        d, n = 5, 200_000
        marg = MarginalSpec(family, d)
        noise = make(marg)
        spec = InstanceSpec(marg, np.eye(d)[0], noise, seed=17)
        xs = sample_batch(spec, n).x
        eta = noise_rates(spec, xs)
        kappa = noise.alpha / (1.0 - noise.alpha)
        for t in (0.05, 0.1, 0.25, 0.5):
            p_hat = float(np.mean(eta >= 0.5 - t))
            bound = noise.bigA * t**kappa
            se = oracles.binomial_se(min(p_hat, 0.999), n)
            assert p_hat <= bound + 3.0 * se, (family, label, t, p_hat, bound)

    def test_margin_power_law_tail_matches_exact_oracle(self):
        d, n = 4, 400_000
        marg = MarginalSpec(Family.STANDARD_GAUSSIAN, d)
        noise = margin_power_law(0.5, marg, scale=1.0)
        spec = InstanceSpec(marg, np.eye(d)[0], noise, seed=29)
        eta = noise_rates(spec, sample_batch(spec, n).x)
        for t in (0.1, 0.25, 0.4):
            exact = oracles.margin_power_law_tail_gaussian(t, 0.5, 1.0)
            p_hat = float(np.mean(eta >= 0.5 - t))
            assert abs(p_hat - exact) <= 3.0 * oracles.binomial_se(exact, n)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_expectation_predicate_on_slabs(self, seed):
        """E[1_S (1 - 2 eta)] >= C * E[1_S]^(1/alpha) - 3 s.e. for slab sets S."""
        rng = np.random.default_rng(seed)
        d, n = 4, 100_000
        marg = MarginalSpec(Family.STANDARD_GAUSSIAN, d)
        noise = margin_power_law(0.7, marg)
        spec = InstanceSpec(marg, np.eye(d)[0], noise, seed=int(seed))
        xs = sample_batch(spec, n).x
        eta = noise_rates(spec, xs)
        u = as_unit(rng.standard_normal(d))
        a = rng.uniform(-1.5, 0.5)
        b = a + rng.uniform(0.1, 2.0)
        proj = xs @ u
        inside = (proj >= a) & (proj <= b)
        p_hat = float(np.mean(inside))
        if p_hat < 1e-3:
            return
        lhs = float(np.mean(inside * (1.0 - 2.0 * eta)))
        c_const = oracles.tsybakov_constant(noise.alpha, noise.bigA)
        se = 3.0 / math.sqrt(n)
        assert lhs >= c_const * p_hat ** (1.0 / noise.alpha) - 3.0 * se


class TestWellBehavedParams:
    def test_gaussian_exact(self):
        wb = well_behaved_params(MarginalSpec(Family.STANDARD_GAUSSIAN, 6))
        assert wb.k == 3 and wb.R == 1.0 and wb.beta == 1.0
        assert wb.U == pytest.approx((2 * math.pi) ** -1.5, rel=1e-12)
        assert wb.L == pytest.approx(math.exp(-0.5) * (2 * math.pi) ** -1.5, rel=1e-12)
        assert wb.U == pytest.approx(0.0635, abs=5e-4)
        assert wb.L == pytest.approx(0.0382, abs=5e-4)

    def test_logistic_certified_bounds(self):
        wb = well_behaved_params(MarginalSpec(Family.ISOTROPIC_LOGISTIC, 6))
        assert 0 < wb.L <= wb.U and wb.R > 0 and wb.beta >= 1.0
        # The library constants must bound the density on two known frames:
        # the coordinate frame (exact product extrema by multistart search)
        # and the Gaussian limit of a maximally spread frame.
        coord_min, coord_max = oracles.product_density_extrema_on_sphere(
            oracles.log_logistic_density, k=3, radius=wb.R
        )
        gauss_min = math.exp(-0.5) * (2 * math.pi) ** -1.5
        gauss_max = (2 * math.pi) ** -1.5
        assert wb.L <= min(coord_min, gauss_min)
        assert wb.U >= max(coord_max, gauss_max)

    def test_laplace_certified_bounds(self):
        wb = well_behaved_params(MarginalSpec(Family.ISOTROPIC_LAPLACE, 6))
        coord_min, coord_max = oracles.product_density_extrema_on_sphere(
            oracles.log_laplace_density, k=3, radius=wb.R
        )
        assert wb.L <= min(coord_min, math.exp(-0.5) * (2 * math.pi) ** -1.5)
        assert wb.U >= max(coord_max, (2 * math.pi) ** -1.5)

    def test_ball_exact_projection_density(self):
        d = 7
        wb = well_behaved_params(MarginalSpec(Family.UNIFORM_BALL, d))
        r = math.sqrt(d + 2)
        log_c = (
            math.lgamma(d / 2 + 1)
            - 1.5 * math.log(math.pi)
            - math.lgamma((d - 3) / 2 + 1)
            - 3 * math.log(r)
        )
        c = math.exp(log_c)
        assert wb.U == pytest.approx(c, rel=1e-9)
        assert wb.L == pytest.approx(c * (1 - 1 / r**2) ** ((d - 3) / 2), rel=1e-9)
        assert wb.beta == pytest.approx(r)

    def test_k_drops_to_two_in_the_plane(self):
        wb = well_behaved_params(MarginalSpec(Family.STANDARD_GAUSSIAN, 2))
        assert wb.k == 2
        assert wb.U == pytest.approx(1.0 / (2 * math.pi), rel=1e-12)

    def test_density_bounds_hold_empirically(self):
        # Histogram check on the first three coordinates of each family.
        for fam in ALL_FAMILIES:
            d = 6
            wb = well_behaved_params(MarginalSpec(fam, d))
            spec = InstanceSpec(
                MarginalSpec(fam, d), np.eye(d)[0], constant_rate(0.5, 0.0), seed=47
            )
            xs = sample_batch(spec, 2_000_000).x[:, :3]
            # density near the origin and near the certified radius, keeping
            # the whole probe cube inside the radius-R ball so the lower
            # bound applies to every point it covers
            h = 0.25
            inner = (wb.R - h * math.sqrt(3.0) / 2.0) / math.sqrt(3.0)
            for center in (np.zeros(3), np.full(3, inner)):
                inside = np.all(np.abs(xs - center) <= h / 2, axis=1)
                dens = inside.mean() / h**3
                se = oracles.binomial_se(max(inside.mean(), 1e-6), len(xs)) / h**3
                assert dens <= wb.U * 1.05 + 3 * se, (fam, center)
                assert dens >= wb.L * 0.95 - 3 * se, (fam, center)

    def test_subexponential_tail(self):
        for fam in ALL_FAMILIES:
            d = 6
            wb = well_behaved_params(MarginalSpec(fam, d))
            spec = InstanceSpec(
                MarginalSpec(fam, d), np.eye(d)[0], constant_rate(0.5, 0.0), seed=53
            )
            n = 500_000
            proj = sample_batch(spec, n).x @ as_unit(np.ones(d))
            for t in (1.0, 2.0, 4.0):
                p_hat = float(np.mean(np.abs(proj) >= wb.beta * t))
                bound = math.exp(1.0 - t)
                assert p_hat <= bound + 3 * oracles.binomial_se(min(bound, 0.5), n), (
                    fam,
                    t,
                )

    def test_one_dim_density_bound_empirical(self):
        for fam in ALL_FAMILIES:
            d = 5
            marg = MarginalSpec(fam, d)
            u1 = one_dim_density_bound(marg)
            spec = InstanceSpec(marg, np.eye(d)[0], constant_rate(0.5, 0.0), seed=59)
            xs = sample_batch(spec, 1_000_000).x
            rng = np.random.default_rng(61)
            for _ in range(3):
                v = as_unit(rng.standard_normal(d))
                proj = xs @ v
                h = 0.1
                p_hat = float(np.mean(np.abs(proj) <= h / 2))
                dens = p_hat / h
                se = oracles.binomial_se(max(p_hat, 1e-4), len(xs)) / h
                assert dens <= u1 + 3 * se, fam


class TestDisagreementError:
    def test_identical_and_complement(self):
        spec = gaussian_instance(d=4, seed=3)
        assert disagreement_error(spec, spec.target, 1000) == 0.0
        assert disagreement_error(spec, -spec.target, 1000) == 1.0

    def test_gaussian_angle_law(self):
        spec = gaussian_instance(d=6, seed=7)
        h = as_unit(spec.target + np.eye(6)[1])  # 45 degrees from target
        n = 200_000
        est = disagreement_error(spec, h, n)
        exact = oracles.gaussian_disagreement(math.pi / 4)
        assert abs(est - exact) <= 3.0 * oracles.binomial_se(exact, n)

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_gaussian_angle_law_random_angles(self, seed):
        rng = np.random.default_rng(seed)
        d = 5
        spec = gaussian_instance(d=d, seed=int(seed))
        h = as_unit(rng.standard_normal(d))
        theta = math.acos(float(np.clip(h @ spec.target, -1, 1)))
        n = 100_000
        est = disagreement_error(spec, h, n)
        exact = oracles.gaussian_disagreement(theta)
        assert abs(est - exact) <= 3.0 * oracles.binomial_se(max(exact, 1e-4), n) + 1e-4


def two_proportion_p(k1: int, n1: int, k2: int, n2: int) -> float:
    """Two-sided p-value of the pooled two-proportion z-test."""
    pooled = (k1 + k2) / (n1 + n2)
    se = math.sqrt(pooled * (1.0 - pooled) * (1.0 / n1 + 1.0 / n2))
    return float(2.0 * stats.norm.sf(abs(k1 / n1 - k2 / n2) / se))


def band_setup(family, d, profile):
    """An instance with noisy labels in the band, and a ``w`` at 0.8 rad."""
    marg = MarginalSpec(family, d)
    target = as_unit(np.arange(1.0, d + 1.0))
    if profile == "margin_power_law":
        noise = margin_power_law(0.5, marg, scale=0.5)
    else:
        noise = adversarialish(0.5, sectors=6, profile_seed=4)
    spec = InstanceSpec(marg, target, noise, seed=29)
    # w at 0.8 rad from the target, so the band's labels are mixed.
    ortho = np.zeros(d)
    ortho[0] = 1.0
    ortho = as_unit(ortho - (ortho @ target) * target)
    w = math.cos(0.8) * target + math.sin(0.8) * ortho
    return spec, w


class TestBandSampling:
    """``sample_band`` against ``sample_batch`` filtered to the band."""

    LO, HI = 0.25, 0.5
    N, BATCHES = 100_000, 3
    #: Per-test significance: small enough that the fixed seeds stay stable.
    ALPHA = 1e-4

    @pytest.mark.parametrize("d", [2, 5])
    @pytest.mark.parametrize("profile", ["margin_power_law", "adversarialish"])
    def test_same_law_as_filtered_batch(self, d, profile):
        marg = MarginalSpec(Family.STANDARD_GAUSSIAN, d)
        target = as_unit(np.arange(1.0, d + 1.0))
        if profile == "margin_power_law":
            noise = margin_power_law(0.5, marg, scale=0.5)
        else:
            noise = adversarialish(0.5, sectors=6, profile_seed=4)
        spec = InstanceSpec(marg, target, noise, seed=29)
        # w at 0.8 rad from the target, so the band's labels are mixed.
        ortho = np.zeros(d)
        ortho[0] = 1.0
        ortho = as_unit(ortho - (ortho @ target) * target)
        w = math.cos(0.8) * target + math.sin(0.8) * ortho
        u = as_unit(target - (target @ w) * w)  # one coordinate of w-perp
        band = [sample_band(spec, self.N, w, self.LO, self.HI, batch=b)
                for b in range(self.BATCHES)]
        x_band = np.concatenate([b.x for b in band])
        y_band = np.concatenate([b.y for b in band])
        full = [sample_batch(spec, self.N, batch=100 + b) for b in range(self.BATCHES)]
        x_full = np.concatenate([b.x for b in full])
        y_full = np.concatenate([b.y for b in full])
        s = x_full @ w
        keep = (s >= self.LO) & (s <= self.HI)
        x_filt, y_filt = x_full[keep], y_full[keep]
        total = self.N * self.BATCHES

        assert two_proportion_p(len(x_band), total, len(x_filt), total) > self.ALPHA
        for stat in (lambda x: x @ w, lambda x: x @ u,
                     lambda x: np.linalg.norm(x, axis=1)):
            assert stats.ks_2samp(stat(x_band), stat(x_filt)).pvalue > self.ALPHA
        k_band, k_filt = int(np.sum(y_band == 1)), int(np.sum(y_filt == 1))
        assert two_proportion_p(k_band, len(y_band), k_filt, len(y_filt)) > self.ALPHA
        # Both match the analytic band law of <w, x>.
        f_lo, f_hi = stats.norm.cdf([self.LO, self.HI])
        cdf = lambda t: (stats.norm.cdf(t) - f_lo) / (f_hi - f_lo)
        for x in (x_band, x_filt):
            assert stats.kstest(x @ w, cdf).pvalue > self.ALPHA

    @pytest.mark.parametrize(
        "family",
        [Family.ISOTROPIC_LAPLACE, Family.ISOTROPIC_LOGISTIC, Family.UNIFORM_BALL],
    )
    @pytest.mark.parametrize("d", [2, 5])
    @pytest.mark.parametrize("profile", ["margin_power_law", "adversarialish"])
    def test_filtered_families_same_law(self, family, d, profile):
        # Survivor count and label mean against full batches at other indices.
        spec, w = band_setup(family, d, profile)
        y_band = np.concatenate([
            sample_band(spec, self.N, w, self.LO, self.HI, batch=b).y
            for b in range(self.BATCHES)
        ])
        y_filt = []
        for b in range(self.BATCHES):
            full = sample_batch(spec, self.N, batch=100 + b)
            s = full.x @ w
            y_filt.append(full.y[(s >= self.LO) & (s <= self.HI)])
        y_filt = np.concatenate(y_filt)
        total = self.N * self.BATCHES
        assert two_proportion_p(len(y_band), total, len(y_filt), total) > self.ALPHA
        k_band, k_filt = int(np.sum(y_band == 1)), int(np.sum(y_filt == 1))
        assert two_proportion_p(k_band, len(y_band), k_filt, len(y_filt)) > self.ALPHA

    def test_deterministic_and_inside_band(self):
        spec = gaussian_instance(d=3, seed=5)
        w = as_unit(np.array([1.0, 2.0, 2.0]))
        a = sample_band(spec, 50_000, w, 0.25, 0.5, batch=9)
        b = sample_band(spec, 50_000, w, 0.25, 0.5, batch=9)
        assert a.x.tobytes() == b.x.tobytes() and a.y.tobytes() == b.y.tobytes()
        s = a.x @ w
        assert len(a) > 0 and np.all((s >= 0.25 - 1e-12) & (s <= 0.5 + 1e-12))

    @pytest.mark.parametrize(
        "family",
        [Family.UNIFORM_BALL, Family.ISOTROPIC_LOGISTIC, Family.ISOTROPIC_LAPLACE],
    )
    def test_points_equal_filtered_batch(self, family):
        marg = MarginalSpec(family, 3)
        noise = margin_power_law(0.5, marg, scale=0.5)
        spec = InstanceSpec(marg, np.array([1.0, 0.0, 0.0]), noise, 1)
        w = as_unit(np.array([1.0, 2.0, 2.0]))
        band = sample_band(spec, 20_000, w, 0.25, 0.5, batch=7)
        full = sample_batch(spec, 20_000, batch=7)
        s = full.x @ w
        expect = full.x[(s >= 0.25) & (s <= 0.5)]
        assert len(band) > 0
        assert band.x.tobytes() == expect.tobytes()


class TestLaplaceSampler:
    """The Laplace draw ``b * S * E`` against the Laplace law."""

    N, D = 200_000, 4
    ALPHA = 1e-4

    def _points(self) -> np.ndarray:
        marg = MarginalSpec(Family.ISOTROPIC_LAPLACE, self.D)
        target = np.eye(self.D)[0]
        spec = InstanceSpec(marg, target, constant_rate(0.5, 0.0), seed=37)
        return sample_batch(spec, self.N, batch=3).x

    def test_coordinates_follow_laplace_law(self):
        x = self._points()
        law = stats.laplace(scale=1.0 / math.sqrt(2.0))
        for j in range(self.D):
            assert stats.kstest(x[:, j], law.cdf).pvalue > self.ALPHA

    def test_sign_is_fair_and_independent_of_magnitude(self):
        x = self._points().ravel()
        negative = int(np.sum(x < 0))
        assert stats.binomtest(negative, x.size, 0.5).pvalue > self.ALPHA
        assert stats.pearsonr(x < 0, np.abs(x)).pvalue > self.ALPHA

    def test_identity_covariance(self):
        x = self._points()
        # Var(x_i^2) = 5 for a unit-variance Laplace coordinate; 6 standard errors.
        tol = 6.0 * math.sqrt(5.0 / self.N)
        assert np.max(np.abs(np.cov(x, rowvar=False) - np.eye(self.D))) < tol


class TestSerialization:
    def test_text_round_trip(self, tmp_path):
        spec = gaussian_instance(noise=constant_rate(0.5, 0.25), seed=13)
        batch = sample_batch(spec, 257)
        path = tmp_path / "data.txt"
        write_text(path, batch, seed=13)
        back, seed = read_text(path)
        assert seed == 13
        assert np.array_equal(back.x, batch.x)
        assert np.array_equal(back.y, batch.y)

    def test_binary_round_trip(self, tmp_path):
        spec = gaussian_instance(noise=constant_rate(0.5, 0.25), seed=13)
        batch = sample_batch(spec, 257)
        path = tmp_path / "data.bin"
        write_binary(path, batch)
        back = read_binary(path)
        assert np.array_equal(back.x, batch.x)
        assert np.array_equal(back.y, batch.y)

    def test_text_header_format(self, tmp_path):
        spec = gaussian_instance(d=3, seed=2)
        batch = sample_batch(spec, 4)
        path = tmp_path / "data.txt"
        write_text(path, batch, seed=2)
        first = path.read_text().splitlines()[0]
        assert first == "3 4 2"

    def test_malformed_header_raises(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("3 4\n")
        with pytest.raises(InvalidConfig):
            read_text(path)

    def test_bad_magic_raises(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"NOPE!" + b"\x00" * 16)
        with pytest.raises(InvalidConfig):
            read_binary(path)

    @pytest.mark.parametrize("cut", range(17))
    def test_truncated_header_raises(self, tmp_path, cut):
        path = tmp_path / "data.bin"
        write_binary(path, sample_batch(gaussian_instance(seed=3), 4))
        path.write_bytes(path.read_bytes()[:cut])
        with pytest.raises(InvalidConfig):
            read_binary(path)

    def test_binary_round_trip_across_chunks(self, tmp_path):
        # More rows than one read chunk, so the reader stitches chunks.
        batch = sample_batch(gaussian_instance(d=2, seed=17), 65_536 + 3)
        path = tmp_path / "data.bin"
        write_binary(path, batch)
        back = read_binary(path)
        assert back.x.tobytes() == batch.x.tobytes()
        assert back.y.tobytes() == batch.y.tobytes()

    def test_truncated_payload_raises(self, tmp_path):
        path = tmp_path / "data.bin"
        write_binary(path, sample_batch(gaussian_instance(seed=3), 4))
        path.write_bytes(path.read_bytes()[:-1])
        with pytest.raises(InvalidConfig):
            read_binary(path)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_coordinate_raises(self, tmp_path, value):
        batch = sample_batch(gaussian_instance(d=3, seed=3), 70_000)
        batch.x[69_999, 2] = value  # in a later read chunk
        path = tmp_path / "data.bin"
        write_binary(path, batch)
        with pytest.raises(InvalidConfig):
            read_binary(path)

    def test_trailing_bytes_raise(self, tmp_path):
        path = tmp_path / "data.bin"
        write_binary(path, sample_batch(gaussian_instance(seed=3), 5))
        path.write_bytes(path.read_bytes() + b"\x00" * 10)
        with pytest.raises(InvalidConfig, match="trailing bytes") as err:
            read_binary(path)
        assert str(path) in str(err.value)

    def test_bad_label_in_later_chunk_names_file_and_row(self, tmp_path):
        path = tmp_path / "data.bin"
        write_binary(path, sample_batch(gaussian_instance(d=2, seed=3), 20_000))
        raw = bytearray(path.read_bytes())
        # Header of 17 bytes, then records of 2 float64 coordinates and a label.
        raw[17 + 17 * 19_999 + 16] = 3
        path.write_bytes(bytes(raw))
        with pytest.raises(InvalidConfig, match="row 19999: label 3") as err:
            read_binary(path)
        assert str(path) in str(err.value)

    def test_empty_batch_round_trip(self, tmp_path):
        batch = LabeledBatch(x=np.zeros((0, 3)), y=np.zeros(0, dtype=np.int8))
        p = tmp_path / "e.txt"
        write_text(p, batch, seed=0)
        back, _ = read_text(p)
        assert len(back) == 0 and back.x.shape == (0, 3)


class TestConstructors:
    def test_constant_rate_minimal_A(self):
        spec = constant_rate(0.5, 0.2)
        assert spec.bigA == pytest.approx((0.3) ** -1.0)

    def test_margin_power_law_A_formula(self):
        marg = MarginalSpec(Family.STANDARD_GAUSSIAN, 3)
        spec = margin_power_law(0.5, marg, scale=2.0)
        u1 = 1.0 / math.sqrt(2 * math.pi)
        assert spec.bigA == pytest.approx(2.0 * max(1.0, 2.0 * u1 * 2.0))

    def test_unknown_family_rejected(self):
        with pytest.raises((UnsupportedFamily, InvalidConfig)):
            MarginalSpec("weibull", 3)
