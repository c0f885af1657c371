"""Tests for synthetic instance generation, noise certification, serialization."""

from __future__ import annotations

import math
import struct
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special, stats

import oracles
from tsyblearn import synthetic
from tsyblearn.certificate import search_band
from tsyblearn.errors import EmptyBand, InvalidConfig, UnsupportedFamily
from tsyblearn.geometry import DIVISION_TOL, as_unit
from tsyblearn.synthetic import (
    MAX_SECTORS,
    SPHERICAL_FAMILIES,
    Adversarialish,
    BinaryDataset,
    ConstantRate,
    Family,
    InstanceSpec,
    LabeledBatch,
    MarginalSpec,
    MarginPowerLaw,
    NoiseSpec,
    SampleStream,
    adversarialish,
    band_filter,
    constant_rate,
    disagreement_error,
    margin_power_law,
    noise_rates,
    one_dim_density_bound,
    open_dataset,
    read_text,
    sample_batch,
    well_behaved_params,
    write_binary,
    write_text,
)
from tsyblearn.warmstart import (
    RandomBandConfig,
    random_band_project,
    warm_start_batch,
)

ALL_FAMILIES = list(Family)


def gaussian_instance(d=5, noise=None, seed=11) -> InstanceSpec:
    marg = MarginalSpec(Family.STANDARD_GAUSSIAN, d)
    if noise is None:
        noise = constant_rate(0.5, 0.0)
    target = np.zeros(d)
    target[0] = 1.0
    return InstanceSpec(marg, target, noise, seed)


def file_rows(path) -> tuple[np.ndarray, np.ndarray]:
    """Every row of a binary dataset file, copied out of one chunked pass."""
    data = BinaryDataset(path)
    xs, ys = [np.zeros((0, data.d))], [np.zeros(0, dtype=np.int8)]
    for _, x, y in data.chunks():
        xs.append(x.copy())
        ys.append(y.copy())
    return np.concatenate(xs), np.concatenate(ys)


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
        # ConstantRate(0.2) at alpha=0.5 needs bigA >= (0.3)^-1; every other
        # profile needs bigA >= 2**(alpha/(1-alpha)), since the tail event
        # at t = 1/2 is certain.
        for profile, floor in [
            (ConstantRate(0.2), (0.5 - 0.2) ** (-1.0)),
            (MarginPowerLaw(), 2.0),
            (Adversarialish(), 2.0),
        ]:
            with pytest.raises(InvalidConfig):
                NoiseSpec(alpha=0.5, bigA=floor * 0.9, profile=profile)
            NoiseSpec(alpha=0.5, bigA=floor, profile=profile)
        with pytest.raises(InvalidConfig, match="below the certified minimum"):
            margin_power_law(0.5, MarginalSpec(Family.STANDARD_GAUSSIAN, 3), bigA=1e-3)

    def test_sector_count_range(self):
        assert Adversarialish(sectors=MAX_SECTORS).sectors == MAX_SECTORS
        for sectors in (0, MAX_SECTORS + 1):
            with pytest.raises(InvalidConfig, match="sectors must lie in"):
                Adversarialish(sectors=sectors)

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

    def test_n_input_defaults_to_the_rows_and_is_no_fewer(self):
        x, y = np.zeros((2, 2)), np.array([1, -1])
        assert LabeledBatch(x=x, y=y).n_input == 2
        assert LabeledBatch(x=x, y=y, n_input=5).n_input == 5
        assert LabeledBatch(x=x, y=y, n_input=5)[:1].n_input == 1
        with pytest.raises(InvalidConfig, match="n_input"):
            LabeledBatch(x=x, y=y, n_input=1)


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
        assert noise_rates(spec, xs[:1]).tolist() == [0.2]

    def test_margin_power_law_boundary(self):
        marg = MarginalSpec(Family.STANDARD_GAUSSIAN, 3)
        spec = InstanceSpec(
            marg, np.eye(3)[0], margin_power_law(0.5, marg, scale=1.0), seed=0
        )
        assert noise_rates(spec, np.array([[0.0, 2.0, 1.0]]))[0] == pytest.approx(0.5)
        assert noise_rates(spec, np.array([[1.0, 0.3, 0.0]]))[0] == pytest.approx(0.0)

    def test_margin_power_law_midpoint(self):
        # alpha = 0.5 -> exponent 1: eta = 1/2 - |m|/2 for |m| <= 1
        marg = MarginalSpec(Family.STANDARD_GAUSSIAN, 3)
        spec = InstanceSpec(
            marg, np.eye(3)[0], margin_power_law(0.5, marg, scale=1.0), seed=0
        )
        assert noise_rates(spec, np.array([[0.4, 0.0, 0.0]]))[0] == pytest.approx(0.3)

    def test_vectorized_matches_scalar(self):
        marg = MarginalSpec(Family.STANDARD_GAUSSIAN, 4)
        spec = InstanceSpec(
            marg, np.eye(4)[0], adversarialish(0.6, sectors=10, profile_seed=4), seed=0
        )
        xs = np.random.default_rng(1).standard_normal((30, 4))
        vec = noise_rates(spec, xs)
        rows = [noise_rates(spec, xs[i:i + 1]) for i in range(len(xs))]
        assert np.allclose(vec, np.concatenate(rows))

    @pytest.mark.parametrize("shape", [(5,), (2, 3, 5), ()])
    def test_rows_of_any_other_rank_raise(self, shape):
        # A (d,) point is not one row: it raises rather than being read as d
        # rows of one coordinate each.
        spec = gaussian_instance(noise=constant_rate(0.5, 0.2))
        with pytest.raises(InvalidConfig, match=r"\(n, d\) rows, got shape"):
            noise_rates(spec, np.ones(shape))

    @pytest.mark.parametrize("alpha, scale", [(0.001, 1.0), (0.5, 1e-310)])
    def test_margin_power_law_overflow_warns_nothing(self, alpha, scale):
        # The power (small alpha) or the division (tiny scale) overflows to
        # inf on rows far from the boundary, where eta is 0.
        marg = MarginalSpec(Family.STANDARD_GAUSSIAN, 3)
        spec = InstanceSpec(
            marg, np.eye(3)[0], margin_power_law(alpha, marg, scale=scale),
            seed=0,
        )
        xs = np.vstack([
            np.random.default_rng(3).standard_normal((200, 3)),
            [[0.0, 1.0, 0.0], [3.0, 0.0, 0.0], [-50.0, 1.0, 2.0]],
        ])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            eta = noise_rates(spec, xs)
        assert np.all((eta >= 0.0) & (eta <= 0.5))
        assert eta[-3] == 0.5
        assert np.all(eta[-2:] == 0.0)

    def test_sector_rates_are_cached_per_instance(self):
        cached = synthetic._adversarial_sector_rates
        marg = MarginalSpec(Family.ISOTROPIC_LAPLACE, 3)
        spec = InstanceSpec(
            marg, as_unit(np.array([1.0, 2.0, 2.0])),
            adversarialish(0.5, sectors=7, profile_seed=30_011), seed=0,
        )
        xs = np.random.default_rng(4).standard_normal((50, 3))
        before = cached.cache_info()
        first = noise_rates(spec, xs)
        middle = cached.cache_info()
        assert (middle.misses - before.misses, middle.hits - before.hits) == (1, 0)
        second = noise_rates(spec, xs)
        after = cached.cache_info()
        assert (after.misses - middle.misses, after.hits - middle.hits) == (0, 1)
        assert np.array_equal(first, second)

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

    @settings(max_examples=20, deadline=None, derandomize=True)
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

    @pytest.mark.parametrize("n", [0, -1])
    def test_no_samples_raises(self, n):
        spec = gaussian_instance(d=4, seed=3)
        with pytest.raises(InvalidConfig, match="n must be >= 1"):
            disagreement_error(spec, spec.target, n)

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_value_of_the_batch_points(self, family):
        # Off the spherical families only the points are drawn, and they are
        # those of the labeled batch.  On them the value is exact: the angle
        # over pi, whatever the point count and batch.
        marg = MarginalSpec(family, 4)
        target = as_unit(np.arange(1.0, 5.0))
        spec = InstanceSpec(marg, target, margin_power_law(0.5, marg), 9)
        h = as_unit(np.array([1.0, -1.0, 0.5, 2.0]))
        value = disagreement_error(spec, h, 20_000, batch=77)
        if family in SPHERICAL_FAMILIES:
            exact = math.acos(float(h @ target)) / math.pi
            assert value == pytest.approx(exact, rel=1e-12, abs=0.0)
            assert disagreement_error(spec, h, 1, batch=3) == value
        else:
            x = sample_batch(spec, 20_000, batch=77).x
            expect = float(np.mean((x @ h >= 0) != (x @ spec.target >= 0)))
            assert value == expect

    @staticmethod
    def _monte_carlo(spec, h, n):
        """The disagreement rate of ``h`` over ``n`` of the instance's points."""
        x = sample_batch(spec, n).x
        return float(np.mean((x @ h >= 0) != (x @ spec.target >= 0)))

    def test_gaussian_angle_law(self):
        spec = gaussian_instance(d=6, seed=7)
        h = as_unit(spec.target + np.eye(6)[1])  # 45 degrees from target
        n = 200_000
        exact = oracles.gaussian_disagreement(math.pi / 4)
        est = self._monte_carlo(spec, h, n)
        assert abs(est - exact) <= 3.0 * oracles.binomial_se(exact, n)
        assert disagreement_error(spec, h, n) == pytest.approx(exact, rel=1e-12)

    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_gaussian_angle_law_random_angles(self, seed):
        rng = np.random.default_rng(seed)
        d = 5
        spec = gaussian_instance(d=d, seed=int(seed))
        h = as_unit(rng.standard_normal(d))
        theta = math.acos(float(np.clip(h @ spec.target, -1, 1)))
        n = 100_000
        exact = oracles.gaussian_disagreement(theta)
        est = self._monte_carlo(spec, h, n)
        assert abs(est - exact) <= 3.0 * oracles.binomial_se(max(exact, 1e-4), n) + 1e-4
        assert disagreement_error(spec, h, n) == pytest.approx(exact, rel=1e-12)


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
    elif profile == "constant_rate":
        noise = constant_rate(0.5, 0.2)
    else:
        noise = adversarialish(0.5, sectors=6, profile_seed=4)
    spec = InstanceSpec(marg, target, noise, seed=29)
    # w at 0.8 rad from the target, so the band's labels are mixed.
    ortho = np.zeros(d)
    ortho[0] = 1.0
    ortho = as_unit(ortho - (ortho @ target) * target)
    w = math.cos(0.8) * target + math.sin(0.8) * ortho
    return spec, w


def full_vector_project(batch, w, cfg):
    """``random_band_project`` from one ``x @ w`` over the whole batch:
    ``(z, y, survival, n_input)``."""
    s = batch.x @ w
    keep = (s >= cfg.x0) & (s <= cfg.x0 + cfg.s_prime)
    n_keep = int(np.count_nonzero(keep))
    if n_keep == 0:
        raise EmptyBand("no samples in the band")
    z = batch.x[keep] - np.outer(s[keep], w)
    return z, batch.y[keep], n_keep / len(batch), len(batch)


class TestWarmStartBandBatch:
    """The warm start's draw: the band rows of ``SampleStream.next_band``,
    standing for the whole batch, with labels of the labeled batch's law."""

    N, BATCH = 50_000, 61
    BAND = RandomBandConfig(s=0.2, s_prime=0.15, x0=0.3)
    #: Per-test significance: small enough that the fixed seeds stay stable.
    ALPHA = 1e-4

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    @pytest.mark.parametrize(
        "profile", ["constant_rate", "margin_power_law", "adversarialish"]
    )
    def test_band_rows_drawn_as_a_search_round_draws_them(self, family, profile):
        spec, w = band_setup(family, 4, profile)
        lo, hi = self.BAND.x0, self.BAND.x0 + self.BAND.s_prime
        part = SampleStream(spec, self.BATCH).next_band(self.N, w, lo, hi)
        s = part.x @ w
        assert len(part) > 100 and part.n_input == self.N
        assert np.all((s >= lo - 1e-12) & (s <= hi + 1e-12))
        # The projection keeps the band rows and charges the whole batch.
        got = random_band_project(part, w, self.BAND)
        z, y, _, _ = full_vector_project(part, w, self.BAND)
        assert got.x.tobytes() == z.tobytes() and got.y.tobytes() == y.tobytes()
        assert got.n_input == self.N
        if family is not Family.STANDARD_GAUSSIAN:
            # Drawn by filtering: the points of the full batch in the band.
            full = sample_batch(spec, self.N, self.BATCH)
            f = full.x @ w
            assert part.x.tobytes() == full.x[(f >= lo) & (f <= hi)].tobytes()
        # Some band labels are flipped: the noise was drawn for them.
        clean = np.where(part.x @ spec.target >= 0, 1, -1)
        assert np.any(part.y != clean)
        # Band survival and label mean match the full batch filtered to the
        # band, at another batch index.
        full = sample_batch(spec, self.N, self.BATCH + 100)
        f = full.x @ w
        y_filt = full.y[(f >= lo) & (f <= hi)]
        assert two_proportion_p(len(part), self.N, len(y_filt), self.N) > self.ALPHA
        k_band, k_filt = int(np.sum(part.y == 1)), int(np.sum(y_filt == 1))
        assert two_proportion_p(k_band, len(part), k_filt, len(y_filt)) > self.ALPHA


class TestChunkedBandFilter:
    """The band rows found one read chunk at a time, and their projected
    bytes, are those of one product over the whole batch on these batches.
    A one-row final chunk's ``<w, x>`` may differ from the whole product's
    in its last bits (see ``synthetic._READ_CHUNK``), so a row on a band
    edge could fall on either side."""

    BATCH = 23

    @pytest.mark.parametrize(
        "family", [Family.ISOTROPIC_LAPLACE, Family.STANDARD_GAUSSIAN]
    )
    @pytest.mark.parametrize("n", [1, 8_192, 8_193, 50_000])
    def test_same_as_a_full_vector_filter(self, family, n):
        spec, w = band_setup(family, 5, "margin_power_law")
        got = sample_batch(spec, n, self.BATCH)
        # A band around the batch's first <w, x>, so it has band rows.
        first = float(got.x[0] @ w)
        if first < 0:
            w, first = -w, -first
        cfg = RandomBandConfig(s=first / 1.5, s_prime=0.9 * first / 1.5, x0=first / 1.5)
        projected = random_band_project(got, w, cfg)
        z, y, survival, n_input = full_vector_project(got, w, cfg)
        assert len(projected) >= 1
        assert projected.x.tobytes() == z.tobytes()
        assert projected.y.tobytes() == y.tobytes()
        assert (len(projected) / projected.n_input, projected.n_input) == (
            survival, n_input,
        )

    @pytest.mark.parametrize("n", [1, 8_193])
    def test_empty_band_still_raises(self, n):
        spec, w = band_setup(Family.ISOTROPIC_LAPLACE, 5, "margin_power_law")
        cfg = RandomBandConfig(s=50.0, s_prime=1.0, x0=50.0)
        got = sample_batch(spec, n, self.BATCH)
        with pytest.raises(EmptyBand):
            full_vector_project(got, w, cfg)
        with pytest.raises(EmptyBand, match="no samples with <w, x> in"):
            random_band_project(got, w, cfg)


def one_range_band(data, w, lo, hi):
    """``(row indices, x, y)`` of the band rows found by one pass over all
    of ``data.chunks()`` on this thread."""
    parts = []
    for start, x, y in data.chunks():
        keep = band_filter(x, w, lo, hi)[0]
        parts.append((keep + start, x[keep], y[keep]))
    return [np.concatenate(col) for col in zip(*parts)]


class TestSplitPass:
    """A dataset's band pass (``SampleStream._band_rows``) runs on row ranges
    of whole chunks in parallel and returns the bytes of a one-range pass."""

    def _dataset(self, tmp_path, n, source):
        batch = sample_batch(gaussian_instance(d=3, seed=29), n)
        if source == "memory":
            return batch
        write_binary(tmp_path / "data.bin", batch)
        return BinaryDataset(tmp_path / "data.bin")

    def _spy_ranges(self, monkeypatch, data):
        ranges, chunks = [], data.chunks

        def spy(first=0, stop=None):
            ranges.append((first, stop))
            return chunks(first, stop)

        monkeypatch.setattr(data, "chunks", spy)
        return ranges

    @pytest.mark.parametrize("source", ["file", "memory"])
    @pytest.mark.parametrize("cpus", [1, 2, 3, 4])
    @pytest.mark.parametrize("n", [1, 8_192, 8_193, 3 * 8_192 + 5])
    def test_same_bytes_as_one_range(self, tmp_path, monkeypatch, n, cpus, source):
        data = self._dataset(tmp_path, n, source)
        w = as_unit(np.array([1.0, -2.0, 0.5]))
        # A band around the first row's <w, x>, so it holds a row at any n.
        s0 = float(next(data.chunks())[1][0] @ w)
        lo, hi = s0 - 0.4, s0 + 0.4
        rows, x, y = one_range_band(data, w, lo, hi)
        monkeypatch.setattr(synthetic, "usable_cpus", lambda: cpus)
        ranges = self._spy_ranges(monkeypatch, data)
        before = threading.active_count()
        got_rows, band = SampleStream(data)._band_rows(w, lo, hi)
        assert threading.active_count() == before
        assert len(rows) >= 1
        assert np.array_equal(got_rows, rows)
        assert band.x.tobytes() == x.tobytes()
        assert band.y.tobytes() == y.tobytes()
        # One range per worker, or per chunk when there are fewer chunks:
        # contiguous, covering every row, each starting on a chunk boundary.
        ranges.sort()
        assert len(ranges) == min(cpus, -(-n // 8_192))
        assert ranges[0][0] == 0 and ranges[-1][1] == n
        for (_, stop), (first, _) in zip(ranges, ranges[1:]):
            assert stop == first and first % 8_192 == 0

    def test_at_most_the_worker_cap(self, tmp_path, monkeypatch):
        data = self._dataset(tmp_path, 6 * 8_192, "memory")
        monkeypatch.setattr(synthetic, "usable_cpus", lambda: 64)
        ranges = self._spy_ranges(monkeypatch, data)
        SampleStream(data)._band_rows(as_unit(np.ones(3)), -0.1, 0.1)
        assert len(ranges) == synthetic._PASS_WORKERS

    @pytest.mark.parametrize("cpus", [2, 4])
    def test_error_names_the_first_bad_row_and_no_thread_is_left(
        self, tmp_path, monkeypatch, cpus
    ):
        # Bad rows in an early range and in the last; the earlier is named
        # whichever range fails first.
        n = 4 * 8_192
        batch = sample_batch(gaussian_instance(d=2, seed=3), n)
        rec = np.empty(n, dtype=[("x", "<f8", (2,)), ("y", "i1")])
        rec["x"], rec["y"] = batch.x, batch.y
        rec["x"][8_500, 0] = math.nan
        rec["y"][n - 3] = 5
        path = tmp_path / "bad.bin"
        path.write_bytes(struct.pack("<5sIQ", b"THSD1", 2, n) + rec.tobytes())
        monkeypatch.setattr(synthetic, "usable_cpus", lambda: cpus)
        stream = SampleStream(BinaryDataset(path))
        before = threading.active_count()
        for _ in range(3):
            with pytest.raises(InvalidConfig, match="row 8500: non-finite"):
                stream._band_rows(as_unit(np.ones(2)), -0.5, 0.5)
            assert threading.active_count() == before


class TestBandSampling:
    """Band batches (``SampleStream.next_band``) against ``sample_batch``
    filtered to the band."""

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
        band = [SampleStream(spec, b).next_band(self.N, w, self.LO, self.HI)
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
            SampleStream(spec, b).next_band(self.N, w, self.LO, self.HI).y
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
        a = SampleStream(spec, 9).next_band(50_000, w, 0.25, 0.5)
        b = SampleStream(spec, 9).next_band(50_000, w, 0.25, 0.5)
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
        band = SampleStream(spec, 7).next_band(20_000, w, 0.25, 0.5)
        full = sample_batch(spec, 20_000, batch=7)
        s = full.x @ w
        expect = full.x[(s >= 0.25) & (s <= 0.5)]
        assert len(band) > 0
        assert band.x.tobytes() == expect.tobytes()

    @pytest.mark.parametrize(
        "family", [Family.STANDARD_GAUSSIAN, Family.ISOTROPIC_LAPLACE]
    )
    def test_stands_for_the_whole_batch(self, family):
        # The band rows stand for the n raw rows, which the ledger charges.
        marg = MarginalSpec(family, 3)
        noise = margin_power_law(0.5, marg, scale=0.5)
        spec = InstanceSpec(marg, np.array([1.0, 0.0, 0.0]), noise, 1)
        w = as_unit(np.array([1.0, 2.0, 2.0]))
        stream = SampleStream(spec, 7)
        band = stream.next_band(10_000, w, 0.25, 0.5)
        assert 0 < len(band) < 10_000
        assert band.n_input == stream.drawn == 10_000

    @pytest.mark.parametrize("family", [Family.ISOTROPIC_LAPLACE, Family.UNIFORM_BALL])
    def test_full_batch_between_band_batches(self, family):
        # A full batch between two band batches takes the next batch index,
        # and the band batch after it the one after that.
        marg = MarginalSpec(family, 3)
        noise = margin_power_law(0.5, marg)
        spec = InstanceSpec(marg, np.array([1.0, 0.0, 0.0]), noise, 12)
        w = np.array([0.0, 1.0, 0.0])
        stream = SampleStream(spec, 7)
        got = [
            stream.next_band(5_000, w, 0.2, 0.7),
            stream.next(5_000),
            stream.next_band(5_000, w, 0.2, 0.7),
        ]
        assert stream.drawn == 15_000
        got.append(stream.next(5_000))
        expect = [
            SampleStream(spec, 7).next_band(5_000, w, 0.2, 0.7),
            sample_batch(spec, 5_000, batch=8),
            SampleStream(spec, 9).next_band(5_000, w, 0.2, 0.7),
            sample_batch(spec, 5_000, batch=10),
        ]
        for a, b in zip(got, expect):
            assert a.x.tobytes() == b.x.tobytes() and a.y.tobytes() == b.y.tobytes()

    @pytest.mark.parametrize("family", [Family.ISOTROPIC_LAPLACE, Family.UNIFORM_BALL])
    def test_band_sequence_across_a_band_change(self, family):
        # Three batches of one band, then two of another band and row count:
        # each is the band batch drawn at its own index, and the ledger
        # counts the raw rows of every batch.
        marg = MarginalSpec(family, 3)
        noise = margin_power_law(0.5, marg)
        spec = InstanceSpec(marg, np.array([1.0, 0.0, 0.0]), noise, 11)
        w1, w2 = np.array([0.0, 1.0, 0.0]), np.array([0.0, 0.0, 1.0])
        bands = [(20_000, w1, 0.2, 0.7)] * 3 + [(10_000, w2, -0.3, 0.4)] * 2
        stream = SampleStream(spec, 40)
        for k, (rows, w, lo, hi) in enumerate(bands):
            got = stream.next_band(rows, w, lo, hi)
            expect = SampleStream(spec, 40 + k).next_band(rows, w, lo, hi)
            assert got.x.tobytes() == expect.x.tobytes()
            assert got.y.tobytes() == expect.y.tobytes()
            assert stream.drawn == sum(b[0] for b in bands[: k + 1])
        nxt = stream.next(1_000)
        assert nxt.x.tobytes() == sample_batch(spec, 1_000, batch=45).x.tobytes()


def same_bits(a, b) -> bool:
    """Whether ``a`` and ``b`` hold the same float64 bits."""
    return np.float64(a).tobytes() == np.float64(b).tobytes()


#: Cephes' ``ndtri`` central branch: ``(E2, 1 - E2]`` (``1 - E2`` as a double).
E2 = 0.13533528323661269189


class TestCephesPhi:
    """``_ndtr`` and ``_ndtri`` are scipy.special's ``ndtr`` and ``ndtri``,
    bit for bit, on the domains ``_band_points`` calls them on."""

    N = 1_000_000

    def ndtr_points(self) -> np.ndarray:
        below_one = np.nextafter(1.0, 0.0)
        tiny = np.finfo(np.float64).tiny
        edges = [0.0, -0.0, 5e-324, -5e-324, tiny / 3, -tiny / 3, tiny, -tiny,
                 below_one, -below_one, 0.5, -0.5]
        grid = np.linspace(-below_one, below_one, 200_001)
        rand = np.random.default_rng(4).uniform(-1.0, 1.0, self.N)
        return np.concatenate([edges, grid, rand])

    def ndtri_points(self) -> np.ndarray:
        top = 1.0 - E2
        edges = [np.nextafter(E2, 1.0), top, np.nextafter(top, 0.0), 0.5,
                 np.nextafter(0.5, 0.0), np.nextafter(0.5, 1.0),
                 special.ndtr(-1.0), special.ndtr(1.0)]
        grid = np.linspace(np.nextafter(E2, 1.0), top, 200_001)
        rand = np.random.default_rng(5).uniform(E2, top, self.N)
        return np.concatenate([edges, grid, rand])

    def test_ndtr_matches_scipy(self):
        a = self.ndtr_points()
        assert same_bits(synthetic._ndtr(a), special.ndtr(a))

    def test_ndtri_matches_scipy(self):
        y = self.ndtri_points()
        assert same_bits(synthetic._ndtri(y), special.ndtri(y))

    def test_python_floats_match_scipy(self):
        # Band edges reach ``_ndtr`` as Python floats.
        for a in self.ndtr_points()[:2_000].tolist():
            assert same_bits(synthetic._ndtr(a), special.ndtr(a)), a
        for y in self.ndtri_points()[:2_000].tolist():
            assert same_bits(synthetic._ndtri(y), special.ndtri(y)), y

    def test_guard_stays_on_the_ported_branches(self):
        # |a| < 1 keeps Cephes' ndtr on its erf branch (|a / sqrt 2| <
        # sqrt(1/2)), and Phi of such an edge inside ndtri's central branch.
        below_one = np.nextafter(1.0, 0.0)
        assert abs(below_one * synthetic._SQRT1_2) < synthetic._SQRT1_2
        assert E2 < synthetic._ndtr(-below_one) < synthetic._ndtr(below_one) <= 1.0 - E2


def scipy_band_points(spec, n, w, lo, hi, batch):
    """The Gaussian band draw with scipy.special's ``ndtr`` and ``ndtri``
    throughout: ``(x, y)``."""
    rng = synthetic._rng_for(spec.seed, batch)
    f_lo, f_hi = float(special.ndtr(lo)), float(special.ndtr(hi))
    k = int(rng.binomial(n, max(f_hi - f_lo, 0.0)))
    s = np.clip(special.ndtri(rng.uniform(f_lo, f_hi, k)), lo, hi)
    g = rng.standard_normal((k, spec.marginal.dimension))
    x = g - np.outer(g @ w, w) + np.outer(s, w)
    return x, synthetic._draw_labels(spec, x, rng)


class TestGaussianBandPhi:
    """A Gaussian band batch draws the same bytes with the in-house ``Phi``
    and ``Phi^-1`` as with scipy.special's; a band reaching |x| >= 1 calls
    scipy's."""

    N = 200_000

    def with_scipy(self, monkeypatch, draw):
        monkeypatch.setattr(synthetic, "_ndtr", special.ndtr)
        monkeypatch.setattr(synthetic, "_ndtri", special.ndtri)
        out = draw()
        monkeypatch.undo()
        return out

    @pytest.mark.parametrize(
        "theta", [DIVISION_TOL, 0.05, 0.15, 0.7, math.pi / 2],
        ids=["floor", "0.05", "0.15", "0.7", "pi/2"],
    )
    def test_search_band_bytes(self, monkeypatch, theta):
        spec, w = band_setup(Family.STANDARD_GAUSSIAN, 5, "margin_power_law")
        band = search_band(w, theta, well_behaved_params(spec.marginal))

        def draw():
            return SampleStream(spec, 33).next_band(
                self.N, w, band.sigma1, band.sigma2
            )

        got, expect = draw(), self.with_scipy(monkeypatch, draw)
        assert got.x.tobytes() == expect.x.tobytes()
        assert got.y.tobytes() == expect.y.tobytes()

    def test_warm_hull_band_bytes(self, monkeypatch):
        spec, w = band_setup(Family.STANDARD_GAUSSIAN, 5, "margin_power_law")
        guesses = [(0.15, 5), (0.3, 6), (0.6, 7), (1.0, 8)]

        def draw():
            return warm_start_batch(spec, self.N, w, spec.noise, guesses)

        got, expect = draw(), self.with_scipy(monkeypatch, draw)
        assert len(got) > 0
        assert got.x.tobytes() == expect.x.tobytes()
        assert got.y.tobytes() == expect.y.tobytes()

    @pytest.mark.parametrize(
        "lo, hi",
        [(-1.0, 0.5), (0.5, 1.0), (1.0, 2.5), (-3.0, -1.2), (-2.0, 2.0),
         (-math.inf, 0.3), (0.3, math.inf)],
    )
    def test_band_beyond_one_calls_scipy(self, monkeypatch, lo, hi):
        spec, w = band_setup(Family.STANDARD_GAUSSIAN, 5, "margin_power_law")

        def refuse(*args):
            raise AssertionError("in-house Phi called outside (-1, 1)")

        monkeypatch.setattr(synthetic, "_ndtr", refuse)
        monkeypatch.setattr(synthetic, "_ndtri", refuse)
        got = SampleStream(spec, 34).next_band(self.N, w, lo, hi)
        x, y = scipy_band_points(spec, self.N, w, lo, hi, 34)
        assert len(got) > 0
        assert got.x.tobytes() == x.tobytes() and got.y.tobytes() == y.tobytes()


class TestBandCheck:
    """A band with a NaN edge or ``lo > hi`` is refused before any draw or
    charge, from an instance of every family and from either dataset kind;
    infinite edges are a band."""

    BAD = [(math.nan, 0.5), (0.25, math.nan), (math.nan, math.nan), (0.5, 0.25),
           (math.inf, -math.inf)]

    def streams(self, tmp_path):
        out = {}
        for family in Family:
            spec, w = band_setup(family, 3, "constant_rate")
            out[family.value] = (SampleStream(spec, 5), w)
        data = sample_batch(gaussian_instance(d=3), 1_000)
        if not (tmp_path / "data.bin").exists():
            write_binary(tmp_path / "data.bin", data)
        w = as_unit(np.array([1.0, 2.0, 2.0]))
        out["memory"] = (SampleStream(data), w)
        out["file"] = (SampleStream(BinaryDataset(tmp_path / "data.bin")), w)
        return out

    @pytest.mark.parametrize("lo, hi", BAD)
    def test_nan_or_inverted_band_is_refused(self, tmp_path, lo, hi):
        fresh = self.streams(tmp_path)
        for name, (stream, w) in self.streams(tmp_path).items():
            with pytest.raises(InvalidConfig, match="must have lo <= hi"):
                stream.next_band(100, w, lo, hi)
            assert stream.drawn == 0, name
            # The refused band took no batch index and no rows.
            got = stream.next_band(100, w, -0.5, 0.5)
            expect = fresh[name][0].next_band(100, w, -0.5, 0.5)
            assert got.x.tobytes() == expect.x.tobytes(), name

    def test_infinite_edges_are_a_band(self, tmp_path):
        for name, (stream, w) in self.streams(tmp_path).items():
            assert len(stream.next_band(100, w, -math.inf, 0.0)) > 0, name
            assert len(stream.next_band(100, w, math.inf, math.inf)) == 0, name
            assert stream.drawn == 200, name


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

    @pytest.mark.parametrize("n, d", [(0, 3), (1, 2), (16, 2), (7, 5), (33, 3), (1_001, 20)])
    def test_sign_bits_are_a_bool_draw(self, n, d):
        # The reference draws one bool per coordinate; the sampler unpacks
        # the same bits from 32-bit words and leaves the generator where the
        # reference does, so the labels drawn after the points agree too.
        marg = MarginalSpec(Family.ISOTROPIC_LAPLACE, d)
        got_rng = np.random.Generator(np.random.Philox(5))
        ref_rng = np.random.Generator(np.random.Philox(5))
        got = synthetic._draw_points(marg, n, got_rng)
        ref = ref_rng.standard_exponential((n, d)) * synthetic.LAPLACE_SCALE
        flip = ref_rng.integers(0, 2, (n, d), dtype=np.bool_)
        ref[flip] = -ref[flip]
        assert got.tobytes() == ref.tobytes()
        assert got_rng.random(3).tobytes() == ref_rng.random(3).tobytes()


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
        x, y = file_rows(path)
        assert np.array_equal(x, batch.x)
        assert np.array_equal(y, batch.y)

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

    @pytest.mark.parametrize(
        "text",
        ["2 0 5\n1.0 2.0 1\n3.0 4.0 -1\n", "-1 0 5\n", "2 -1 5\n1.0 2.0 1\n"],
        ids=["rows-after-empty-header", "negative-d", "negative-n"],
    )
    def test_header_contradicting_the_file_raises(self, tmp_path, text):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        with pytest.raises(InvalidConfig, match="bad.txt"):
            read_text(path)

    def test_bad_magic_raises(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"NOPE!" + b"\x00" * 16)
        with pytest.raises(InvalidConfig):
            file_rows(path)

    @pytest.mark.parametrize("n", [0, 1])
    def test_dimension_too_large_for_numpy_raises(self, tmp_path, n):
        # A record of 2**32 - 1 coordinates has no numpy dtype; the file is
        # rejected by its size, or, with no records, by its dimension.
        path = tmp_path / "huge.bin"
        path.write_bytes(struct.pack("<5sIQ", b"THSD1", 2**32 - 1, n) + b"\x00" * 9)
        with pytest.raises(InvalidConfig, match="huge.bin"):
            open_dataset(path)

    @pytest.mark.parametrize("cut", range(17))
    def test_truncated_header_raises(self, tmp_path, cut):
        path = tmp_path / "data.bin"
        write_binary(path, sample_batch(gaussian_instance(seed=3), 4))
        path.write_bytes(path.read_bytes()[:cut])
        with pytest.raises(InvalidConfig):
            file_rows(path)

    def test_binary_round_trip_across_chunks(self, tmp_path):
        # More rows than one read chunk, so the reader stitches chunks.
        batch = sample_batch(gaussian_instance(d=2, seed=17), 65_536 + 3)
        path = tmp_path / "data.bin"
        write_binary(path, batch)
        x, y = file_rows(path)
        assert x.tobytes() == batch.x.tobytes()
        assert y.tobytes() == batch.y.tobytes()

    def test_truncated_payload_raises(self, tmp_path):
        path = tmp_path / "data.bin"
        write_binary(path, sample_batch(gaussian_instance(seed=3), 4))
        path.write_bytes(path.read_bytes()[:-1])
        with pytest.raises(InvalidConfig):
            file_rows(path)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_coordinate_raises(self, tmp_path, value):
        batch = sample_batch(gaussian_instance(d=3, seed=3), 70_000)
        batch.x[69_999, 2] = value  # in a later read chunk
        path = tmp_path / "data.bin"
        write_binary(path, batch)
        with pytest.raises(InvalidConfig):
            file_rows(path)

    def test_truncated_after_opening_raises(self, tmp_path):
        # The size is checked again when a pass maps the file.
        path = tmp_path / "data.bin"
        write_binary(path, sample_batch(gaussian_instance(d=2, seed=3), 20_000))
        data = BinaryDataset(path)
        with open(path, "r+b") as fh:
            fh.truncate(17 + 17 * 10_000)
        with pytest.raises(InvalidConfig, match="truncated payload") as err:
            list(data.chunks())
        assert str(path) in str(err.value)

    def test_pass_closed_early_leaves_the_next_pass_whole(self, tmp_path):
        batch = sample_batch(gaussian_instance(d=3, seed=5), 3 * 8_192 + 7)
        path = tmp_path / "data.bin"
        write_binary(path, batch)
        data = BinaryDataset(path)
        first = data.chunks()
        start, x, y = next(first)
        assert start == 0 and x.tobytes() == batch.x[:8_192].tobytes()
        first.close()  # releases the mapping with no BufferError
        xs, ys = [], []
        for _, x, y in data.chunks():
            xs.append(x.copy())
            ys.append(y.copy())
        assert np.concatenate(xs).tobytes() == batch.x.tobytes()
        assert np.concatenate(ys).tobytes() == batch.y.tobytes()

    def test_trailing_bytes_raise(self, tmp_path):
        path = tmp_path / "data.bin"
        write_binary(path, sample_batch(gaussian_instance(seed=3), 5))
        path.write_bytes(path.read_bytes() + b"\x00" * 10)
        with pytest.raises(InvalidConfig, match="trailing bytes") as err:
            file_rows(path)
        assert str(path) in str(err.value)

    def test_bad_label_in_later_chunk_names_file_and_row(self, tmp_path):
        path = tmp_path / "data.bin"
        write_binary(path, sample_batch(gaussian_instance(d=2, seed=3), 20_000))
        raw = bytearray(path.read_bytes())
        # Header of 17 bytes, then records of 2 float64 coordinates and a label.
        raw[17 + 17 * 19_999 + 16] = 3
        path.write_bytes(bytes(raw))
        with pytest.raises(InvalidConfig, match="row 19999: label 3") as err:
            file_rows(path)
        assert str(path) in str(err.value)

    @pytest.mark.parametrize("d", [2, 20])
    @pytest.mark.parametrize("n", [0, 1, 8_191, 8_192, 8_193, 3 * 8_192 + 5])
    def test_streamed_writer_matches_a_one_shot_writer(self, tmp_path, n, d):
        batch = sample_batch(gaussian_instance(d=d, noise=constant_rate(0.5, 0.3)), n)
        # The whole file built in memory at once: the format, written plainly.
        rec = np.dtype([("x", "<f8", (d,)), ("y", "i1")])
        arr = np.empty(n, dtype=rec)
        arr["x"] = batch.x
        arr["y"] = batch.y
        expect = struct.pack("<5sIQ", b"THSD1", d, n) + arr.tobytes()
        path = tmp_path / "data.bin"
        write_binary(path, batch)
        assert path.read_bytes() == expect
        data = BinaryDataset(path)
        assert (data.n, data.d) == (n, d)
        starts, xs, ys = [], [np.zeros((0, d))], [np.zeros(0, dtype=np.int8)]
        for start, x, y in data.chunks():
            starts.append(start)
            xs.append(x.copy())
            ys.append(y.copy())
        assert starts == list(range(0, n, 8_192))
        assert np.concatenate(xs).tobytes() == batch.x.tobytes()
        assert np.concatenate(ys).tobytes() == batch.y.tobytes()

    @pytest.mark.parametrize("bad", ["coordinate", "label"])
    def test_both_formats_report_a_bad_row_alike(self, tmp_path, bad):
        # One row check serves both readers; the bad row is in the binary
        # file's second read chunk.
        batch = sample_batch(gaussian_instance(d=2, seed=3), 9_000)
        x, y = batch.x.copy(), batch.y.copy()
        if bad == "coordinate":
            x[8_500, 1] = math.nan
        else:
            y[8_500] = 3
        text = tmp_path / "rows.txt"
        text.write_text("2 9000 0\n" + "".join(
            f"{a:.17g} {b:.17g} {c}\n" for (a, b), c in zip(x, y)
        ))
        rec = np.empty(9_000, dtype=[("x", "<f8", (2,)), ("y", "i1")])
        rec["x"], rec["y"] = x, y
        binary = tmp_path / "rows.bin"
        binary.write_bytes(struct.pack("<5sIQ", b"THSD1", 2, 9_000) + rec.tobytes())
        messages = []
        for path, read in [(text, read_text), (binary, file_rows)]:
            with pytest.raises(InvalidConfig, match="row 8500: ") as err:
                read(path)
            messages.append(str(err.value).replace(str(path), "FILE"))
        assert messages[0] == messages[1]

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

    def test_infinite_bigA_raises(self):
        # 2**99 * 2 * U1 * 1e300 overflows to inf; no tail bound is certified.
        marg = MarginalSpec(Family.STANDARD_GAUSSIAN, 3)
        with pytest.raises(InvalidConfig, match="finite"):
            margin_power_law(0.99, marg, scale=1e300)

    def test_margin_power_law_A_formula(self):
        marg = MarginalSpec(Family.STANDARD_GAUSSIAN, 3)
        spec = margin_power_law(0.5, marg, scale=2.0)
        u1 = 1.0 / math.sqrt(2 * math.pi)
        assert spec.bigA == pytest.approx(2.0 * max(1.0, 2.0 * u1 * 2.0))

    def test_unknown_family_rejected(self):
        with pytest.raises((UnsupportedFamily, InvalidConfig)):
            MarginalSpec("weibull", 3)
