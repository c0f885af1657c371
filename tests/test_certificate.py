"""Tests for the band transform and the certificate search engine."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import orth_component
from tsyblearn import certificate
from tsyblearn.certificate import (
    CertificateWitness,
    CertSearchTrace,
    TransformConfig,
    certificate_value,
    compute_certificate,
    holdout_bar,
    scan_thresholds,
    search_band,
    search_certificate,
    threshold_floor,
    transform,
    update_direction,
)
from tsyblearn.errors import InvalidConfig, SourceExhausted
from tsyblearn.geometry import (
    DIVISION_TOL,
    as_unit,
    perspective_projection_batch,
    random_unit,
)
from tsyblearn.synthetic import (
    BinaryDataset,
    Family,
    InstanceSpec,
    LabeledBatch,
    MarginalSpec,
    SampleStream,
    constant_rate,
    margin_power_law,
    sample_batch,
    well_behaved_params,
    write_binary,
)


def e(i: int, d: int) -> np.ndarray:
    v = np.zeros(d)
    v[i] = 1.0
    return v


def lifted_value(witness: CertificateWitness, batch: LabeledBatch) -> float:
    """Original-space correlation ``mean(T(x) * y * <w, x>)`` on ``batch``.

    ``T(x) * <w, x>`` is exactly the band-and-window indicator, so this is
    the labels' sum over the witness's support divided by the batch size.
    """
    return float(np.sum(batch.y[witness.indicator(batch.x)]) / len(batch))


def planar_instance(seed=101) -> InstanceSpec:
    """Noiseless 2-d Gaussian with target e1; probed at w = e2."""
    marg = MarginalSpec(Family.STANDARD_GAUSSIAN, 2)
    return InstanceSpec(marg, e(0, 2), constant_rate(0.5, 0.0), seed)


def band_transform(batch: LabeledBatch, tc: TransformConfig) -> LabeledBatch:
    """``transform`` of the rows of a raw batch in the band, found by one
    ``x @ w`` over the whole batch; the result stands for every raw row."""
    s = batch.x @ tc.w
    keep = (s >= tc.sigma1) & (s <= tc.sigma2)
    rows = LabeledBatch(x=batch.x[keep], y=batch.y[keep], n_input=batch.n_input)
    return transform(rows, tc)


def round_source(tc, samples_per_round, stream):
    """``search_certificate``'s round source, as the reference it must equal:
    the band rows of the stream's next ``samples_per_round`` raw rows,
    perspective-projected, standing for the raw rows the stream charged."""

    def source():
        drawn = stream.drawn
        band = stream.next_band(samples_per_round, tc.w, tc.sigma1, tc.sigma2)
        n = stream.drawn - drawn
        z = perspective_projection_batch(band.x, tc.w)
        return LabeledBatch(x=z, y=band.y, n_input=n)

    return source


def search_source(spec, tc, samples_per_round):
    """A round source on ``spec`` and the search's threshold for its rounds."""
    source = round_source(tc, samples_per_round, SampleStream(spec))
    return source, threshold_floor(samples_per_round)


def planar_search(seed=101, samples_per_round=100_000):
    """Search setup at w = e2 with rho = 1: the scan radius is 1."""
    spec = planar_instance(seed)
    tc = TransformConfig(w=e(1, 2), rho=1.0, R=well_behaved_params(spec.marginal).R)
    source, c = search_source(spec, tc, samples_per_round)
    return spec, tc, source, c


class RoundLog:
    """The rounds of the searches run while this log watches the search's
    seams, ``certificate.scan_thresholds`` and
    ``certificate.update_direction``.

    ``v_history`` holds each round's ``(k, d)`` stack of starts, and
    ``scan_values`` and ``grad_norms`` the ``k`` scan results and gradient
    norms of each round that every start finished, so not of a round that
    returned a witness.  A round begins at the first scan of a new batch.
    Each start the search scans is a row of its own stack, which it updates
    in place, so that stack, read at a round's first scan, holds the starts
    of the whole round.
    """

    def __init__(self, scan, update):
        self._scan, self._update = scan, update
        self._batch = None
        self._rounds = []  # per round: (starts, scan results, gradient norms)

    def scan(self, batch, v, R, c):
        if batch is not self._batch:
            self._batch = batch
            self._rounds.append((v.base.copy(), [], []))
        t0 = self._scan(batch, v, R, c)
        self._rounds[-1][1].append(t0)
        return t0

    def update(self, batch, v, R):
        g = self._update(batch, v, R)
        self._rounds[-1][2].append(float(np.linalg.norm(g)))
        return g

    @property
    def v_history(self):
        return [starts for starts, _, _ in self._rounds]

    @property
    def scan_values(self):
        return [s for _, s, g in self._rounds if len(g) == len(s)]

    @property
    def grad_norms(self):
        return [g for _, s, g in self._rounds if len(g) == len(s)]


@pytest.fixture
def round_log(monkeypatch):
    """``round_log()`` starts a ``RoundLog`` of the searches run after it,
    until the next one starts; ``round_log(scan=f)`` also runs ``f`` in
    place of ``scan_thresholds``."""
    real_scan, update = certificate.scan_thresholds, certificate.update_direction

    def start(scan=real_scan):
        log = RoundLog(scan, update)
        monkeypatch.setattr(certificate, "scan_thresholds", log.scan)
        monkeypatch.setattr(certificate, "update_direction", log.update)
        return log

    return start


class TestTransformConfig:
    def test_band_endpoints(self):
        tc = TransformConfig(w=e(0, 3), rho=0.5, R=1.0)
        assert tc.sigma1 == pytest.approx(0.25)
        assert tc.sigma2 == pytest.approx(0.5 / math.sqrt(2.0))

    def test_validation(self):
        with pytest.raises(InvalidConfig):
            TransformConfig(w=e(0, 2), rho=0.0, R=1.0)
        with pytest.raises(InvalidConfig):
            TransformConfig(w=e(0, 2), rho=0.5, R=-1.0)
        with pytest.raises(InvalidConfig):
            TransformConfig(w=np.array([1.0, 1.0]), rho=0.5, R=1.0)


class TestTransform:
    def test_perspective_formula(self):
        tc = TransformConfig(w=e(0, 3), rho=0.5, R=1.0)
        batch = LabeledBatch(x=np.array([[0.3, 1.0, 2.0]]), y=np.array([1]))
        out = transform(batch, tc)
        assert len(out) == 1
        assert np.allclose(out.x[0], [0.0, 10.0 / 3.0, 20.0 / 3.0], atol=1e-12)
        assert out.y[0] == 1

    def test_zero_row_band_batch_keeps_its_n_input(self):
        # A round with no band rows still stands for its raw rows.
        tc = TransformConfig(w=e(0, 2), rho=0.5, R=1.0)
        empty = LabeledBatch(x=np.zeros((0, 2)), y=np.zeros(0), n_input=1_000)
        out = transform(empty, tc)
        assert out.x.shape == (0, 2) and len(out.y) == 0
        assert out.n_input == 1_000

    def test_survival_matches_gaussian_cdf(self):
        marg = MarginalSpec(Family.STANDARD_GAUSSIAN, 3)
        spec = InstanceSpec(marg, e(0, 3), constant_rate(0.5, 0.0), 3)
        tc = TransformConfig(w=e(2, 3), rho=0.5, R=1.0)
        n = 200_000
        out = band_transform(sample_batch(spec, n), tc)
        exact = oracles.gaussian_band_mass(tc.sigma1, tc.sigma2)
        assert exact == pytest.approx(0.0397, abs=5e-4)
        assert abs(len(out) / out.n_input - exact) <= 3.0 * oracles.binomial_se(exact, n)

    def test_outputs_orthogonal_to_w(self):
        spec = planar_instance()
        tc = TransformConfig(w=e(1, 2), rho=1.0, R=1.0)
        out = band_transform(sample_batch(spec, 10_000), tc)
        assert np.max(np.abs(out.x @ tc.w)) < 1e-9

    def test_noiseless_biased_separability(self):
        """Survivors obey y = sign(<u, z> + 1/tan(theta)) with u the
        target's unit component orthogonal to w — for every sample."""
        marg = MarginalSpec(Family.STANDARD_GAUSSIAN, 4)
        rng = np.random.default_rng(5)
        wstar = as_unit(rng.standard_normal(4))
        w = as_unit(rng.standard_normal(4))
        theta = math.acos(float(np.clip(w @ wstar, -1, 1)))
        spec = InstanceSpec(marg, wstar, constant_rate(0.5, 0.0), 9)
        tc = TransformConfig(w=w, rho=0.6, R=1.0)
        out = band_transform(sample_batch(spec, 100_000), tc)
        u = orth_component(wstar, w)
        pred = np.sign(out.x @ u + 1.0 / math.tan(theta))
        assert np.array_equal(pred.astype(np.int8), out.y)

    def test_tsybakov_tail_preserved_with_inflated_A(self):
        marg = MarginalSpec(Family.STANDARD_GAUSSIAN, 4)
        noise = margin_power_law(0.5, marg)
        spec = InstanceSpec(marg, e(0, 4), noise, 21)
        w = as_unit(np.array([1.0, 1.0, 0.0, 0.0]))
        tc = TransformConfig(w=w, rho=0.5, R=1.0)
        n = 400_000
        raw = sample_batch(spec, n)
        s = raw.x @ w
        keep = (s >= tc.sigma1) & (s <= tc.sigma2)
        from tsyblearn.synthetic import noise_rates

        eta = noise_rates(spec, raw.x[keep])
        band_mass = keep.mean()
        a_prime = noise.bigA / band_mass
        kappa = noise.alpha / (1.0 - noise.alpha)
        m = int(keep.sum())
        for t in (0.05, 0.1, 0.25, 0.5):
            p_hat = float(np.mean(eta >= 0.5 - t))
            bound = a_prime * t**kappa
            assert p_hat <= bound + 3.0 * oracles.binomial_se(min(p_hat, 0.99), m)


class TestCertificateValue:
    def test_all_positive_labels_nonnegative(self):
        rng = np.random.default_rng(0)
        batch = LabeledBatch(x=rng.standard_normal((500, 3)), y=np.ones(500))
        v = e(0, 3)
        assert certificate_value(batch, v, 0.5, 1.0) >= 0.0

    def test_two_sample_window(self):
        batch = LabeledBatch(
            x=np.array([[-0.6, 0.0], [-0.7, 0.0]]), y=np.array([-1, -1])
        )
        assert certificate_value(batch, e(0, 2), 0.5, 1.0) == -1.0

    def test_empty_input_zero(self):
        batch = LabeledBatch(x=np.zeros((0, 2)), y=np.zeros(0))
        assert certificate_value(batch, e(0, 2), 0.5, 1.0) == 0.0

    def test_bad_window_raises(self):
        batch = LabeledBatch(x=np.zeros((1, 2)), y=np.array([1]))
        with pytest.raises(InvalidConfig):
            certificate_value(batch, e(0, 2), 1.0, 0.5)

    def test_matches_quadrature_oracle(self):
        spec, tc, source, _ = planar_search(seed=31)
        batch = source()
        v = e(0, 2)
        val = certificate_value(batch, v, 0.5, 1.0)
        exact = oracles.window_value_2d_noiseless(tc.sigma1, tc.sigma2, 0.5, 1.0)
        se = oracles.binomial_se(abs(exact), len(batch))
        assert val < 0
        assert abs(val - exact) <= 3.0 * se

    def test_mean_is_over_all_samples(self):
        batch = LabeledBatch(
            x=np.array([[-0.6, 0.0], [-0.7, 0.0], [5.0, 0.0], [5.0, 0.0]]),
            y=np.array([-1, -1, 1, 1]),
        )
        assert certificate_value(batch, e(0, 2), 0.5, 1.0) == -0.5


def reference_scan(batch: LabeledBatch, v, R: float, c: float):
    """``scan_thresholds`` as a loop over candidates: the reference it must equal."""
    n = len(batch)
    if n == 0:
        return None
    p = -(batch.x @ v)
    order = np.argsort(p, kind="stable")
    p_sorted = p[order]
    y_sorted = batch.y[order].astype(np.int64)
    hi = int(np.searchsorted(p_sorted, R, side="right"))
    suffix = np.zeros(hi + 1, dtype=np.int64)
    if hi:
        suffix[:hi] = np.cumsum(y_sorted[:hi][::-1])[::-1]
    in_range = p_sorted[(p_sorted >= R / 2.0) & (p_sorted < R)]
    candidates = np.unique(np.concatenate([in_range, [R / 2.0]]))
    best_t0, best_val = None, math.inf
    for t0 in candidates:
        j = int(np.searchsorted(p_sorted, t0, side="left"))
        val = suffix[min(j, hi)] / n
        if val <= best_val:  # ties prefer larger t0; candidates ascend
            best_t0, best_val = float(t0), val
    if best_val <= -c:
        return best_t0
    return None


class TestScanThresholds:
    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 80),
        kind=st.sampled_from(["continuous", "lattice", "ties"]),
        R=st.sampled_from([0.5, 1.0, 2.0]),
        c=st.floats(1e-3, 0.6),
    )
    def test_matches_reference_loop(self, seed, n, kind, R, c):
        rng = np.random.default_rng(seed)
        v = e(0, 2)
        if kind == "continuous":
            z = rng.standard_normal((n, 2)) * R
            v = as_unit(rng.standard_normal(2))
        elif kind == "lattice":
            z = np.round(rng.standard_normal((n, 2)) * R * 4) / 4
        else:
            # Few distinct values, the scan's endpoints among them.
            z = rng.choice([-R, -0.75 * R, -R / 2, -0.25 * R, 0.0, R], size=(n, 2))
        y = rng.choice([-1, 1], size=n, p=[0.7, 0.3])
        batch = LabeledBatch(x=z, y=y)
        assert scan_thresholds(batch, v, R, c) == reference_scan(batch, v, R, c)

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1000, 5000),
        window_share=st.sampled_from([0.0, 0.01, 0.1, 0.3]),
        R=st.sampled_from([0.5, 1.0, 2.0]),
        c=st.floats(1e-3, 0.1),
    )
    def test_round_sized_batch_matches_reference(self, seed, n, window_share, R, c):
        """A search round's shape: most rows outside ``[R/2, R]``, rows at
        both ends, repeated values inside, or no row inside at all."""
        rng = np.random.default_rng(seed)
        m = int(window_share * n)
        below = rng.uniform(-2 * R, R / 2, n - m)
        above = rng.uniform(R, 3 * R, n - m)
        outside = np.where(rng.random(n - m) < 0.5, below, above)
        outside = outside[(outside < R / 2) | (outside > R)]
        inside = np.zeros(0)
        if m:
            values = np.concatenate([[R / 2, R], rng.uniform(R / 2, R, m // 8)])
            inside = np.concatenate([[R / 2, R], rng.choice(values, m)])
        p = np.concatenate([outside, inside])
        y = np.concatenate([
            rng.choice([-1, 1], size=len(outside)),
            rng.choice([-1, 1], size=len(inside), p=[0.7, 0.3]),
        ])
        perm = rng.permutation(len(p))
        z = np.column_stack([-p[perm], rng.standard_normal(len(p))])
        batch = LabeledBatch(x=z, y=y[perm])
        t0 = scan_thresholds(batch, e(0, 2), R, c)
        assert t0 == reference_scan(batch, e(0, 2), R, c)
        if not m:
            assert t0 is None

    def test_no_certificate_when_all_positive(self):
        rng = np.random.default_rng(1)
        batch = LabeledBatch(x=rng.standard_normal((200, 2)), y=np.ones(200))
        assert scan_thresholds(batch, e(0, 2), 1.0, 0.25) is None

    def test_single_point_scan(self):
        batch = LabeledBatch(x=np.array([[-0.8, 0.3]]), y=np.array([-1]))
        t0 = scan_thresholds(batch, e(0, 2), 1.0, 0.5)
        assert t0 == pytest.approx(0.8)
        assert certificate_value(batch, e(0, 2), t0, 1.0) == -1.0

    def test_ties_break_to_larger_t0(self):
        # Value is equally minimal for any t0 <= 0.9; the largest candidate
        # at that value is the sample point itself.
        batch = LabeledBatch(
            x=np.array([[-0.9, 0.0], [0.5, 0.0]]), y=np.array([-1, 1])
        )
        t0 = scan_thresholds(batch, e(0, 2), 1.0, 0.25)
        assert t0 == pytest.approx(0.9)

    def test_threshold_not_met_returns_none(self):
        batch = LabeledBatch(x=np.array([[-0.8, 0.0]]), y=np.array([-1]))
        assert scan_thresholds(batch, e(0, 2), 1.0, 1.5) is None

    def test_finds_min_over_candidates(self):
        # mixed labels: value([0.5, 1]) = (-3 + 1)/5; value([0.75, 1]) = -3/5
        zs = np.array([[-0.8, 0], [-0.85, 0], [-0.9, 0], [-0.6, 0], [0.2, 0]])
        ys = np.array([-1, -1, -1, 1, 1])
        batch = LabeledBatch(x=zs, y=ys)
        t0 = scan_thresholds(batch, e(0, 2), 1.0, 0.1)
        assert t0 == pytest.approx(0.8)
        assert certificate_value(batch, e(0, 2), t0, 1.0) == pytest.approx(-0.6)

    def test_lattice_data_never_returns_scan_radius(self):
        # Five points sit exactly at p = R: the window [R, R] would hold
        # value -5/6, but it is degenerate, so the scan settles for the best
        # nondegenerate window and the holdout can re-measure it.
        zs = np.array([[0.0, -1.0]] * 5 + [[0.0, -0.7]])
        batch = LabeledBatch(x=zs, y=np.array([-1] * 5 + [1]))
        t0 = scan_thresholds(batch, e(1, 2), 1.0, 0.1)
        assert t0 == pytest.approx(0.7)
        assert certificate_value(batch, e(1, 2), t0, 1.0) == pytest.approx(-4 / 6)

    def test_derived_instance_scan(self):
        spec, tc, source, _ = planar_search(seed=37)
        batch = source()
        exact = oracles.window_value_2d_noiseless(tc.sigma1, tc.sigma2, 0.5, 1.0)
        c = abs(exact) / 2.0
        t0 = scan_thresholds(batch, e(0, 2), 1.0, c)
        assert t0 is not None
        assert certificate_value(batch, e(0, 2), t0, 1.0) <= -c

    def test_input_validation(self):
        batch = LabeledBatch(x=np.zeros((1, 2)), y=np.array([1]))
        with pytest.raises(InvalidConfig):
            scan_thresholds(batch, e(0, 2), -1.0, 0.5)
        with pytest.raises(InvalidConfig):
            scan_thresholds(batch, e(0, 2), 1.0, 0.0)


class TestUpdateDirection:
    def test_empty_window_zero_vector(self):
        batch = LabeledBatch(x=np.array([[5.0, 1.0]]), y=np.array([1]))
        assert np.allclose(update_direction(batch, e(0, 2), 1.0), 0.0)
        # A zero-row batch has an empty window too.
        empty = LabeledBatch(x=np.zeros((0, 2)), y=np.zeros(0), n_input=1_000)
        assert update_direction(empty, e(0, 2), 1.0).tolist() == [0.0, 0.0]

    def test_single_sample_formula(self):
        batch = LabeledBatch(x=np.array([[-0.75, 2.0]]), y=np.array([1]))
        g = update_direction(batch, e(0, 2), 1.0)
        assert np.allclose(g, [0.0, 2.0], atol=1e-12)

    def test_orthogonal_to_v(self):
        rng = np.random.default_rng(2)
        v = as_unit(rng.standard_normal(4))
        batch = LabeledBatch(
            x=rng.standard_normal((500, 4)), y=rng.choice([-1, 1], 500)
        )
        g = update_direction(batch, v, 1.0)
        assert abs(g @ v) < 1e-9

    def test_norm_bounded_by_max_sample_norm(self):
        rng = np.random.default_rng(3)
        batch = LabeledBatch(
            x=rng.standard_normal((200, 3)), y=rng.choice([-1, 1], 200)
        )
        g = update_direction(batch, e(0, 3), 1.0)
        assert np.linalg.norm(g) <= np.max(np.linalg.norm(batch.x, axis=1))

    def test_correlates_with_good_direction(self):
        """The estimate on n samples correlates with the target direction at
        least as strongly as a 10x-larger population estimate minus noise."""
        marg = MarginalSpec(Family.STANDARD_GAUSSIAN, 3)
        spec = InstanceSpec(marg, e(0, 3), constant_rate(0.5, 0.0), 43)
        wb = well_behaved_params(marg)
        rho = min(1.0, (math.pi / 2) / math.sqrt(3.0))
        tc = TransformConfig(w=e(2, 3), rho=rho, R=wb.R)
        vstar = e(0, 3)  # target's component in the complement of w
        v = as_unit(0.15 * vstar + math.sqrt(1 - 0.15**2) * e(1, 3))
        r_scan = 1.0 / rho
        small = band_transform(sample_batch(spec, 100_000, batch=0), tc)
        big = band_transform(sample_batch(spec, 1_000_000, batch=1), tc)
        g_small = update_direction(small, v, r_scan)
        g_big = update_direction(big, v, r_scan)
        corr_small = float(g_small @ vstar)
        corr_big = float(g_big @ vstar)
        assert corr_big > 0
        se = np.std(np.linalg.norm(big.x, axis=1)) / math.sqrt(len(small))
        assert corr_small > 0
        assert corr_small >= corr_big - 3.0 * se


class TestThresholdFloor:
    def test_floor(self):
        # Ten standard errors of a +/-1 mean over one round's raw rows.
        assert threshold_floor(100) == pytest.approx(1.0)
        assert threshold_floor(10_000) == pytest.approx(0.1)
        assert threshold_floor(0) == threshold_floor(1) == pytest.approx(10.0)


class TestHoldoutBar:
    def test_zero_row_holdout_is_its_target(self):
        assert holdout_bar(np.zeros(0), -0.25) == -0.25

    def test_slack_in_standard_errors(self):
        # Terms +/-1 in equal parts: standard deviation 1, so 4 terms have
        # standard error 1/2 and the bar sits 1.5 above the target.
        terms = np.array([1.0, -1.0, 1.0, -1.0])
        assert holdout_bar(terms, -0.25) == pytest.approx(-0.25 + 1.5)


class TestComputeCertificate:
    def test_immediate_exit_when_v0_certifies(self):
        spec, tc, source, c = planar_search(seed=41)
        trace = CertSearchTrace()
        witness = compute_certificate(source, tc, e(0, 2)[None], c, 25, trace=trace)
        assert witness is not None
        assert trace.rounds == 1
        assert trace.c_used == c
        assert witness.value <= -c + 3.0 / math.sqrt(1000)
        assert witness.t1 == 1.0
        assert 0 < witness.t2 < witness.t1

    def test_all_positive_labels_fail(self):
        rng = np.random.default_rng(7)

        def constant_source():
            return LabeledBatch(
                x=np.column_stack([rng.standard_normal(1000), np.zeros(1000)]),
                y=np.ones(1000),
            )

        c = threshold_floor(1000)
        tc = TransformConfig(w=e(1, 2), rho=1.0, R=1.0)
        assert compute_certificate(constant_source, tc, e(0, 2)[None], c, 5) is None

    def test_empty_holdout_rejects_hit(self):
        # Every row sits in the window with label -1, so the scan hits; the
        # holdout round has no band rows, so its value 0 is rejected.
        hit = LabeledBatch(x=np.tile([-0.75, 0.0], (1000, 1)), y=-np.ones(1000))
        empty = LabeledBatch(x=np.zeros((0, 2)), y=np.zeros(0), n_input=1000)
        tc = TransformConfig(w=e(1, 2), rho=1.0, R=1.0)
        trace = CertSearchTrace()
        witness = compute_certificate(
            replay([hit, empty]), tc, e(0, 2)[None], 0.1, 1, trace
        )
        assert witness is None
        assert trace.holdout_rejections == 1 and trace.n_used == 2000

    def test_max_iters_below_one_raises(self):
        tc = TransformConfig(w=e(1, 2), rho=1.0, R=1.0)
        with pytest.raises(InvalidConfig):
            compute_certificate(unused_source, tc, e(0, 2)[None], 0.1, 0)

    def test_three_dim_tilted_start_converges(self):
        marg = MarginalSpec(Family.STANDARD_GAUSSIAN, 3)
        spec = InstanceSpec(marg, e(0, 3), constant_rate(0.5, 0.0), 11)
        wb = well_behaved_params(marg)
        rho = min(1.0, (math.pi / 2) / math.sqrt(3.0))
        tc = TransformConfig(w=e(2, 3), rho=rho, R=wb.R)
        source, c = search_source(spec, tc, 100_000)
        vstar = e(0, 3)
        v0 = as_unit(0.12 * vstar + math.sqrt(1 - 0.12**2) * e(1, 3))
        trace = CertSearchTrace()
        witness = compute_certificate(source, tc, v0[None], c, 25, trace=trace)
        assert witness is not None
        assert witness.value <= -c + 0.01
        assert trace.rounds <= 25

    def test_win_win_correlation_nondecreasing(self, round_log):
        """Across non-certifying update rounds, correlation with the good
        direction never drops by more than estimation noise."""
        marg = MarginalSpec(Family.STANDARD_GAUSSIAN, 3)
        spec = InstanceSpec(marg, e(0, 3), constant_rate(0.5, 0.0), 13)
        wb = well_behaved_params(marg)
        rho = min(1.0, (math.pi / 2) / math.sqrt(3.0))
        tc = TransformConfig(w=e(2, 3), rho=rho, R=wb.R)
        source = round_source(tc, 50_000, SampleStream(spec))
        v0 = as_unit(0.1 * e(0, 3) + math.sqrt(1 - 0.01) * e(1, 3))
        log = round_log()
        # large threshold so no round certifies: pure update dynamics
        assert compute_certificate(source, tc, v0[None], 10.0, 8) is None
        corrs = [float(vs[0] @ e(0, 3)) for vs in log.v_history]
        assert len(corrs) == 8
        noise_slack = 3.0 * 0.35  # per-step rotation cap bounds a noisy step
        for a, b in zip(corrs, corrs[1:]):
            assert b >= a - noise_slack
        assert corrs[-1] > corrs[0]

    def test_each_round_without_a_hit_turns_v_toward_u_star(self, round_log):
        # The oracle's search at d = 5: a random pair v, -v orthogonal to
        # w = e1, queried at 0.15 rad with the target 0.7 rad away and 10%
        # flips.  Until a start is within 0.5 rad of u*, the target's unit
        # component orthogonal to w, each of its rounds without a scan hit
        # turns it toward u* by at least 0.25 rad (an update rotates by
        # AUTO_STEP_ROTATION = 0.35 at most).
        marg = MarginalSpec(Family.STANDARD_GAUSSIAN, 5)
        target = np.array([math.cos(0.7), math.sin(0.7), 0.0, 0.0, 0.0])
        spec = InstanceSpec(marg, target, constant_rate(0.5, 0.1), 17)
        w = e(0, 5)
        u_star = orth_component(target, w)
        tc = search_band(w, 0.15, well_behaved_params(marg))
        source, c = search_source(spec, tc, 50_000)
        v = random_unit(5, np.random.default_rng(19), orthogonal_to=w)
        log = round_log()
        compute_certificate(source, tc, np.stack([v, -v]), c, 25)
        checked = 0
        rounds = zip(log.v_history, log.v_history[1:], log.scan_values)
        for before, after, scans in rounds:
            for v0, v1, hit in zip(before, after, scans):
                start = math.acos(float(np.clip(v0 @ u_star, -1.0, 1.0)))
                if hit is None and start > 0.5:
                    end = math.acos(float(np.clip(v1 @ u_star, -1.0, 1.0)))
                    assert start - end >= 0.25
                    checked += 1
        assert checked >= 2

    def test_soundness_holdout_significantly_negative(self):
        for seed in (51, 52, 53):
            spec, tc, source, c = planar_search(seed=seed, samples_per_round=50_000)
            witness = compute_certificate(source, tc, e(0, 2)[None], c, 25)
            assert witness is not None
            fresh = sample_batch(spec, 200_000, batch=900)
            lifted = lifted_value(witness, fresh)
            terms = witness.indicator(fresh.x) * fresh.y
            se = float(np.std(terms)) / math.sqrt(len(fresh))
            assert lifted < -3.0 * se


def unused_source():
    raise AssertionError("drew a batch")


def recording(source, batches):
    """``source``, keeping every batch it hands out in ``batches``, holdouts
    included."""

    def record():
        batches.append(source())
        return batches[-1]

    return record


def replay(batches):
    """Hands out a fixed list of transformed batches in order."""
    return iter(batches).__next__


class TestLockstepSearch:
    """A ``(k, d)`` stack searches each start as a solo search would on the
    same batches, one shared batch per round."""

    def _tilted_3d(self, seed):
        marg = MarginalSpec(Family.STANDARD_GAUSSIAN, 3)
        spec = InstanceSpec(marg, e(0, 3), constant_rate(0.5, 0.0), seed)
        rho = min(1.0, (math.pi / 2) / math.sqrt(3.0))
        tc = TransformConfig(w=e(2, 3), rho=rho, R=well_behaved_params(marg).R)
        return spec, tc

    def test_each_start_follows_its_solo_path(self, round_log):
        spec, tc = self._tilted_3d(13)
        source = round_source(tc, 20_000, SampleStream(spec))
        batches = [source() for _ in range(6)]
        starts = np.stack([
            as_unit(0.1 * e(0, 3) + math.sqrt(1 - 0.01) * e(1, 3)),
            as_unit(0.3 * e(0, 3) - math.sqrt(1 - 0.09) * e(1, 3)),
        ])
        # A threshold no window reaches: every round updates both starts.
        both, both_log = CertSearchTrace(), round_log()
        assert compute_certificate(
            replay(batches), tc, starts, 10.0, 6, trace=both
        ) is None
        assert both.rounds == 6
        assert both.n_used == sum(b.n_input for b in batches)
        for i, v0 in enumerate(starts):
            solo, solo_log = CertSearchTrace(), round_log()
            assert compute_certificate(
                replay(batches), tc, v0[None], 10.0, 6, trace=solo
            ) is None
            both_vs, solo_vs = both_log.v_history, solo_log.v_history
            assert len(solo_vs) == len(both_vs) == 6
            for lock_v, solo_v in zip(both_vs, solo_vs):
                assert np.array_equal(lock_v[i], solo_v[0])
            both_g, solo_g = both_log.grad_norms, solo_log.grad_norms
            assert [g[i] for g in both_g] == [g[0] for g in solo_g]
            both_t, solo_t = both_log.scan_values, solo_log.scan_values
            assert [t[i] for t in both_t] == [t[0] for t in solo_t]
            assert solo.n_used == both.n_used

    def test_witness_matches_solo_search(self, round_log):
        spec, tc = self._tilted_3d(11)
        source, c = search_source(spec, tc, 100_000)
        hitter = as_unit(0.12 * e(0, 3) + math.sqrt(1 - 0.12**2) * e(1, 3))
        batches = []
        solo, solo_log = CertSearchTrace(), round_log()
        witness = compute_certificate(
            recording(source, batches), tc, hitter[None], c, 25, trace=solo
        )
        assert witness is not None
        # A start facing away from the target scans first and never hits, so
        # the stack draws the same batches, holdouts included.
        starts = np.stack([-hitter, hitter])
        both, both_log = CertSearchTrace(), round_log()
        replayed = compute_certificate(replay(batches), tc, starts, c, 25, trace=both)
        assert replayed is not None
        assert replayed.to_dict() == witness.to_dict()
        assert both.rounds == solo.rounds > 1
        assert both.holdout_rejections == solo.holdout_rejections
        for lock_vs, solo_vs in zip(both_log.v_history, solo_log.v_history):
            assert np.array_equal(lock_vs[1], solo_vs[0])
        assert all(t[0] is None for t in both_log.scan_values)

    def test_a_bare_start_raises(self):
        # One start is a (1, d) stack; a (d,) start raises, naming its shape.
        tc = TransformConfig(w=e(1, 2), rho=1.0, R=1.0)
        with pytest.raises(InvalidConfig, match=r"\(k, d\) stack, got shape \(2,\)"):
            compute_certificate(unused_source, tc, e(0, 2), 0.1, 3)

    def test_empty_or_nonunit_stack_raises(self):
        tc = TransformConfig(w=e(1, 2), rho=1.0, R=1.0)
        with pytest.raises(InvalidConfig):
            compute_certificate(unused_source, tc, np.zeros((0, 2)), 0.1, 3)
        with pytest.raises(InvalidConfig):
            compute_certificate(unused_source, tc, np.ones((2, 2)), 0.1, 3)


class TestSearchMatchesReferenceScan:
    """A whole search takes the same path with the loop reference in place
    of ``scan_thresholds``: the same scans, updates and outcome."""

    @pytest.mark.parametrize("seed, finds", [(4, True), (5, False)])
    def test_gaussian_d5_search(self, round_log, seed, finds):
        marg = MarginalSpec(Family.STANDARD_GAUSSIAN, 5)
        spec = InstanceSpec(marg, e(0, 5), constant_rate(0.5, 0.1), seed)
        w = as_unit(math.sin(0.5) * e(1, 5) + math.cos(0.5) * e(0, 5))
        tc = search_band(w, 0.3, well_behaved_params(marg))
        source, c = search_source(spec, tc, 20_000)
        v0 = random_unit(5, np.random.default_rng(seed), orthogonal_to=w)
        batches = []
        real, real_log = CertSearchTrace(), round_log()
        witness = compute_certificate(
            recording(source, batches), tc, v0[None], c, 25, real
        )
        assert (witness is not None) == finds
        if not finds:  # a hit the holdout rejected: a scan value to compare
            assert real.holdout_rejections >= 1
        ref, ref_log = CertSearchTrace(), round_log(scan=reference_scan)
        ref_witness = compute_certificate(replay(batches), tc, v0[None], c, 25, ref)
        if finds:
            assert ref_witness.to_dict() == witness.to_dict()
        else:
            assert ref_witness is None
        assert ref_log.scan_values == real_log.scan_values
        assert ref_log.grad_norms == real_log.grad_norms
        assert ref.holdout_rejections == real.holdout_rejections
        assert len(ref_log.v_history) == len(real_log.v_history)
        for a, b in zip(ref_log.v_history, real_log.v_history):
            assert np.array_equal(a, b)


class TestLiftCertificate:
    def _witness(self, seed=61):
        spec, tc, source, c = planar_search(seed=seed)
        witness = compute_certificate(source, tc, e(0, 2)[None], c, 25)
        assert witness is not None
        return spec, tc, witness

    def test_identity_with_projected_value(self):
        spec, tc, witness = self._witness()
        shared = sample_batch(spec, 100_000, batch=500)
        lifted = lifted_value(witness, shared)
        projected = band_transform(shared, tc)
        proj_val = certificate_value(projected, witness.v, witness.t2, witness.t1)
        assert lifted == pytest.approx(len(projected) / projected.n_input * proj_val, abs=1e-15)

    def test_empty_band_gives_zero(self):
        _, _, witness = self._witness()
        xs = np.array([[5.0, -1.0], [3.0, -2.0]])  # <w, x> < 0: outside band
        assert not witness.indicator(xs).any()
        assert lifted_value(witness, LabeledBatch(x=xs, y=np.array([1, 1]))) == 0.0

    def test_lifted_magnitude_scales_with_band_mass(self):
        spec, tc, witness = self._witness(seed=67)
        fresh = sample_batch(spec, 200_000, batch=700)
        lifted = lifted_value(witness, fresh)
        band_mass = oracles.gaussian_band_mass(tc.sigma1, tc.sigma2)
        c = abs(witness.value)
        # the measured constant: |lifted| >= half the predicted band_mass * c
        assert lifted <= -0.5 * band_mass * c

    def test_t_values_sup_norm(self):
        _, tc, witness = self._witness(seed=71)
        rng = np.random.default_rng(0)
        xs = rng.standard_normal((50_000, 2))
        tv = witness.t_values(xs)
        mask = witness.indicator(xs)
        assert np.all(tv[~mask] == 0.0)
        if np.any(mask):
            assert np.max(np.abs(tv)) <= 1.0 / witness.sigma1 + 1e-9
            assert np.min(tv[mask]) >= 1.0 / witness.sigma2 - 1e-9


    @pytest.mark.parametrize("method", ["indicator", "t_values"])
    def test_a_single_point_raises(self, method):
        # A (d,) point is not one row: read as rows, it would give a
        # length-d mask.  It raises, naming its shape.
        witness = CertificateWitness(
            w=e(1, 2), v=e(0, 2), sigma1=0.25, sigma2=0.35, t1=1.0, t2=0.5,
            value=-0.1, n_used=10,
        )
        point = np.array([-0.2, 0.3])  # inside the support as a (1, 2) row
        assert witness.indicator(point[None]).tolist() == [True]
        with pytest.raises(InvalidConfig, match=r"\(n, d\) rows, got shape \(2,\)"):
            getattr(witness, method)(point)


class TestCertifyingFunctionNeverNegativeForTruth:
    def test_fifty_random_windows_at_target(self):
        """With w = w*, every nonnegative window function has nonnegative
        label correlation up to noise — the one-sided safety that makes a
        found witness evidence of error."""
        marg = MarginalSpec(Family.STANDARD_GAUSSIAN, 3)
        spec = InstanceSpec(marg, e(0, 3), constant_rate(0.5, 0.3), 73)
        n = 100_000
        batch = sample_batch(spec, n)
        rng = np.random.default_rng(75)
        wstar = spec.target
        for _ in range(50):
            v = random_unit(
                3, np.random.default_rng(int(rng.integers(2**31))), orthogonal_to=wstar
            )
            lo = rng.uniform(0.05, 0.3)
            hi = lo + rng.uniform(0.05, 0.3)
            t2 = rng.uniform(0.1, 1.0)
            t1 = t2 + rng.uniform(0.1, 2.0)
            s = batch.x @ wstar
            in_band = (s >= lo) & (s <= hi)
            ratio = np.zeros(n)
            ratio[in_band] = (batch.x[in_band] @ v) / s[in_band]
            window = in_band & (ratio >= -t1) & (ratio <= -t2)
            value = float(np.sum(batch.y[window]) / n)
            se = oracles.binomial_se(max(window.mean(), 1e-5), n)
            assert value >= -3.0 * se


class TestWitnessSerialization:
    def test_round_trip(self):
        _, _, witness = TestLiftCertificate()._witness(seed=79)
        payload = witness.to_dict()
        back = json.loads(json.dumps(payload))
        assert back == payload
        assert np.array_equal(back["w"], witness.w)
        assert np.array_equal(back["v"], witness.v)
        assert back["value"] == witness.value
        assert back["n_used"] == witness.n_used

    def test_invariant_validation(self):
        with pytest.raises(InvalidConfig):
            CertificateWitness(
                w=e(0, 2), v=e(1, 2), sigma1=0.25, sigma2=0.35, t1=1.0, t2=0.5,
                value=0.1, n_used=10,
            )
        with pytest.raises(InvalidConfig):
            CertificateWitness(
                w=e(0, 2), v=e(1, 2), sigma1=0.35, sigma2=0.25, t1=1.0, t2=0.5,
                value=-0.1, n_used=10,
            )
        with pytest.raises(InvalidConfig):
            CertificateWitness(
                w=e(0, 2), v=e(1, 2), sigma1=0.25, sigma2=0.35, t1=0.5, t2=1.0,
                value=-0.1, n_used=10,
            )
        with pytest.raises(InvalidConfig):
            CertificateWitness(
                w=e(0, 2), v=e(0, 2), sigma1=0.25, sigma2=0.35, t1=1.0, t2=0.5,
                value=-0.1, n_used=10,
            )


class TestSearchCertificate:
    def _band(self, spec, w, theta):
        return search_band(w, theta, well_behaved_params(spec.marginal))

    def test_dataset_exhaustion_is_reported(self):
        # Queried at the target itself there is no certificate, so the pair
        # search keeps drawing until the 2k rows run out.
        spec = planar_instance(95)
        data = sample_batch(spec, 2_000)
        stream = SampleStream(data)
        v = random_unit(2, np.random.default_rng(0), orthogonal_to=e(0, 2))
        witness, search = search_certificate(
            stream, self._band(spec, e(0, 2), 0.15), np.stack([v, -v]), 500, 25
        )
        assert witness is None
        assert search.exhausted is True
        assert stream.drawn == 2_000
        assert 0.0 < search.band_mass < 1.0

    @pytest.mark.parametrize("backing", ["instance", "dataset"])
    def test_empty_first_round_fails_charged_one_round(self, backing):
        # An instance's Gaussian band [40, 56.6] has mass 0 in double
        # precision; a dataset's first two rows miss the band and its next
        # two are in it.  Either way the first round holds no band rows:
        # Fail, charged that round.
        if backing == "instance":
            tc = TransformConfig(w=e(1, 2), rho=1.0, R=80.0)
            stream, spr = SampleStream(planar_instance(97)), 1_000
        else:
            tc = self._band(planar_instance(97), e(1, 2), 0.15)
            mid = (tc.sigma1 + tc.sigma2) / 2.0
            x = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, mid], [0.5, mid]])
            stream = SampleStream(LabeledBatch(x=x, y=np.array([1, -1, 1, -1])))
            spr = 2
        witness, search = search_certificate(stream, tc, e(0, 2)[None], spr, 25)
        assert witness is None
        assert (search.band_mass, search.exhausted) == (0.0, False)
        assert (search.rounds, search.n_used) == (1, spr)
        assert stream.drawn == spr

    def test_tiny_angle_band_is_floored(self):
        # At 1e-13 rad the band [5e-14, 7.1e-14] would hold the rows at
        # 6e-14, below DIVISION_TOL, and projecting them raises; the floored
        # band [1e-12, 1.4e-12] holds no row: the empty-band Fail.
        params = well_behaved_params(MarginalSpec(Family.STANDARD_GAUSSIAN, 3))
        x = np.array([[6e-14, 1.0, 0.0]] * 5 + [[0.5, 0.2, 0.1]] * 10)
        stream = SampleStream(LabeledBatch(x=x, y=np.ones(15)))
        band = search_band(e(0, 3), 1e-13, params)
        assert band.sigma1 == DIVISION_TOL
        witness, search = search_certificate(stream, band, e(1, 3)[None], 3, 25)
        assert witness is None and search.band_mass == 0.0
        # Above the floor the scale is tan(theta); no angle is <= 0.
        for theta in (1e-11, 0.15):
            assert search_band(e(0, 3), theta, params).rho == math.tan(theta)
        for theta in (0.0, -0.1, math.nan):
            with pytest.raises(InvalidConfig, match="theta"):
                search_band(e(0, 3), theta, params)

    def test_rows_run_out_in_the_first_round(self):
        # 2,000 rows in rounds of 5,000: the first round takes every row and
        # measures the band on them; the next draw finds no rows left.
        spec = planar_instance(95)
        data = sample_batch(spec, 2_000)
        tc = self._band(spec, e(0, 2), 0.15)
        s = data.x @ tc.w
        in_band = int(np.sum((s >= tc.sigma1) & (s <= tc.sigma2)))
        assert in_band > 0
        stream = SampleStream(data)
        witness, search = search_certificate(stream, tc, e(1, 2)[None], 5_000, 25)
        assert witness is None
        assert (search.band_mass, search.exhausted) == (in_band / 2_000, True)
        assert stream.drawn == 2_000
        # On the spent stream no first round is drawn, so no band is measured.
        witness, search = search_certificate(stream, tc, e(1, 2)[None], 5_000, 25)
        assert witness is None
        assert (search.band_mass, search.exhausted) == (None, True)
        assert stream.drawn == 2_000

    def test_instance_witness_carries_band_provenance(self):
        spec = planar_instance(99)
        stream = SampleStream(spec, 40)
        witness, search = search_certificate(
            stream, self._band(spec, e(1, 2), math.pi / 2), e(0, 2)[None], 100_000, 25
        )
        assert witness is not None and witness.value < 0.0
        assert np.array_equal(witness.w, e(1, 2))
        tc = TransformConfig(w=e(1, 2), rho=1.0, R=1.0)
        assert (witness.sigma1, witness.sigma2) == (tc.sigma1, tc.sigma2)
        # at least one search round and its holdout, all in the witness
        assert stream.drawn >= 200_000 and stream.drawn % 100_000 == 0
        assert witness.n_used == stream.drawn
        first = SampleStream(spec, 40).next_band(100_000, tc.w, tc.sigma1, tc.sigma2)
        assert len(first) > 0
        assert search.band_mass == len(first) / 100_000

    @pytest.mark.parametrize("backing", ["instance", "dataset"])
    def test_rounds_match_reference_round_source(self, backing):
        # The search's rounds are those of ``round_source`` on the stream:
        # the same witness from the same rows, with the same ledger.
        spec = planar_instance(99)
        data = sample_batch(spec, 400_000, batch=3)

        def stream():
            if backing == "instance":
                return SampleStream(spec, 40)
            return SampleStream(data)

        params = well_behaved_params(spec.marginal)
        spr = 50_000
        searched = stream()
        witness, search = search_certificate(
            searched, search_band(e(1, 2), math.pi / 2, params), e(0, 2)[None], spr, 25
        )
        assert witness is not None
        # theta = pi/2 puts the perspective scale rho at its cap of 1.
        tc = TransformConfig(w=e(1, 2), rho=1.0, R=params.R)
        ref = stream()
        source, rounds = round_source(tc, spr, ref), []

        def recorded():
            rounds.append(source())
            return rounds[-1]

        c = threshold_floor(spr)
        expect = compute_certificate(recorded, tc, e(0, 2)[None], c, 25)
        assert witness.to_dict() == expect.to_dict()
        assert searched.drawn == ref.drawn
        # The search stopped early, and the stream goes on where it stopped.
        assert len(rounds) < 25
        assert searched.next(1_000).x.tobytes() == ref.next(1_000).x.tobytes()
        # The band mass is measured on the first round's batch.
        assert search.band_mass == len(rounds[0]) / rounds[0].n_input

    @staticmethod
    def _planar(family: Family, seed: int) -> InstanceSpec:
        """Noiseless 2-d instance of ``family`` with target e1."""
        return InstanceSpec(MarginalSpec(family, 2), e(0, 2), constant_rate(0.5, 0.0), seed)

    @pytest.mark.parametrize("family", [Family.ISOTROPIC_LAPLACE, Family.UNIFORM_BALL])
    def test_search_that_stops_early_with_a_witness(self, family):
        # On the families whose band batches are drawn by filtering, the
        # witness, the ledger and the next index equal those of the same
        # search run round by round on the band batch drawn at each index.
        spec = self._planar(family, 21)
        params = well_behaved_params(spec.marginal)
        base, spr, w = 40, 50_000, e(1, 2)
        stream = SampleStream(spec, base)
        witness, search = search_certificate(
            stream, search_band(w, math.pi / 2, params), e(0, 2)[None], spr, 25
        )
        assert witness is not None
        # theta = pi/2 puts the perspective scale rho at its cap of 1.
        tc = TransformConfig(w=w, rho=1.0, R=params.R)
        first = SampleStream(spec, base).next_band(spr, w, tc.sigma1, tc.sigma2)
        assert search.band_mass == len(first) / spr
        index = base

        def source():
            nonlocal index
            band = SampleStream(spec, index).next_band(spr, w, tc.sigma1, tc.sigma2)
            index += 1
            z = perspective_projection_batch(band.x, w)
            return LabeledBatch(x=z, y=band.y, n_input=spr)

        expect = compute_certificate(source, tc, e(0, 2)[None], threshold_floor(spr), 25)
        assert witness.to_dict() == expect.to_dict()
        assert index - base < 25
        assert stream.drawn == (index - base) * spr
        # The stream goes on at the next index, band batch or full.
        expect = SampleStream(spec, index).next_band(1_000, w, 0.1, 0.9)
        assert stream.next_band(1_000, w, 0.1, 0.9).x.tobytes() == expect.x.tobytes()
        expect = sample_batch(spec, 1_000, batch=index + 1)
        assert stream.next(1_000).x.tobytes() == expect.x.tobytes()

    @pytest.mark.parametrize("family", [Family.ISOTROPIC_LAPLACE, Family.UNIFORM_BALL])
    def test_search_outcomes_on_filtered_families(self, family):
        spec = self._planar(family, 31)
        params = well_behaved_params(spec.marginal)

        def search(w, max_iters):
            stream = SampleStream(spec, 5)
            band = search_band(w, math.pi / 2, params)
            witness, _ = search_certificate(
                stream, band, e(0, 2)[None], 20_000, max_iters
            )
            return witness, stream

        witness, stream = search(e(1, 2), 25)
        assert witness is not None and witness.n_used == stream.drawn
        # At the target nothing certifies: an honest Fail after every round.
        witness, stream = search(e(0, 2), 3)
        assert witness is None and stream.drawn == 3 * 20_000
        with pytest.raises(InvalidConfig, match="max_iters"):
            search(e(1, 2), 0)

    @pytest.mark.parametrize("backing", ["instance", "dataset"])
    def test_witness_n_used_is_the_search_charge(self, backing):
        # A witness counts the raw rows of its rounds and holdouts, the
        # first round's included: the whole charge of its search.
        spec = planar_instance(99)
        spr = 50_000
        if backing == "instance":
            stream = SampleStream(spec, 40)
        else:
            stream = SampleStream(sample_batch(spec, 400_000, batch=3))
        witness, _ = search_certificate(
            stream, self._band(spec, e(1, 2), math.pi / 2), e(0, 2)[None], spr, 25
        )
        assert witness is not None
        assert witness.n_used == stream.drawn
        assert witness.n_used >= 2 * spr

    def test_rejects_rounds_below_one_row(self):
        spec = planar_instance(99)
        stream = SampleStream(spec)
        with pytest.raises(InvalidConfig, match="samples_per_round"):
            search_certificate(
                stream, self._band(spec, e(1, 2), 0.5), e(0, 2)[None], 0, 25
            )
        assert stream.drawn == 0

    @pytest.mark.parametrize("backing", ["instance", "dataset"])
    def test_each_round_is_one_transform_of_a_band_batch(self, monkeypatch, backing):
        # Every band batch the stream hands out, each round's (the first,
        # which measures the band, included) and each holdout's, goes
        # through ``transform`` exactly once.
        spec = planar_instance(99)
        stream = SampleStream(
            spec if backing == "instance" else sample_batch(spec, 400_000, batch=3)
        )
        handed, transformed = [], []
        next_band, real_transform = stream.next_band, certificate.transform

        def recorded_next_band(*args):
            handed.append(next_band(*args))
            return handed[-1]

        def counted_transform(band, cfg):
            transformed.append(band)
            return real_transform(band, cfg)

        monkeypatch.setattr(stream, "next_band", recorded_next_band)
        monkeypatch.setattr(certificate, "transform", counted_transform)
        witness, _ = search_certificate(
            stream, self._band(spec, e(1, 2), math.pi / 2), e(0, 2)[None], 50_000, 25
        )
        assert witness is not None
        assert len(handed) >= 2
        assert [id(b) for b in transformed] == [id(b) for b in handed]


class TestSampleSources:
    def test_dataset_chunks_then_exhausts(self):
        spec = planar_instance(83)
        data = sample_batch(spec, 30_000)
        stream = SampleStream(data)
        sizes = [len(stream.next(10_000)) for _ in range(3)]
        assert sizes == [10_000, 10_000, 10_000]
        assert stream.drawn == 30_000
        with pytest.raises(SourceExhausted):
            stream.next(10_000)

    def test_dataset_chunks_are_views(self):
        data = sample_batch(planar_instance(83), 3_000)
        chunk = SampleStream(data).next(1_000)
        assert np.shares_memory(chunk.x, data.x)
        assert np.shares_memory(chunk.y, data.y)
        assert np.array_equal(chunk.x, data.x[:1_000])

    def test_instance_batches_advance(self):
        spec = planar_instance(89)
        stream = SampleStream(spec, 2)
        for index in (2, 3):
            expect = sample_batch(spec, 5_000, batch=index)
            got = stream.next(5_000)
            assert got.x.tobytes() == expect.x.tobytes()
            assert got.y.tobytes() == expect.y.tobytes()
        assert stream.drawn == 10_000

    def test_requires_exactly_one_backing(self):
        with pytest.raises(InvalidConfig):
            SampleStream("bogus")
        with pytest.raises(InvalidConfig):
            SampleStream([np.zeros(2)])

    @pytest.mark.parametrize(
        "family", [Family.ISOTROPIC_LAPLACE, Family.STANDARD_GAUSSIAN]
    )
    def test_instance_band_mass_is_the_first_rounds_share(self, family):
        # A search measures the band on its first round, the band batch at
        # the stream's next index: a product family keeps the band rows of
        # the full batch there, a Gaussian draws the band in conditional form.
        spec = InstanceSpec(
            MarginalSpec(family, 2), e(0, 2), constant_rate(0.5, 0.0), 93
        )
        tc = TransformConfig(w=e(1, 2), rho=1.0, R=0.6)
        stream = SampleStream(spec, 7)
        witness, search = search_certificate(stream, tc, e(0, 2)[None], 2_000, 1)
        if family is Family.ISOTROPIC_LAPLACE:
            s = sample_batch(spec, 2_000, batch=7).x @ tc.w
            expect = float(np.mean((s >= tc.sigma1) & (s <= tc.sigma2)))
        else:
            band = SampleStream(spec, 7).next_band(2_000, tc.w, tc.sigma1, tc.sigma2)
            expect = len(band) / 2_000
        assert search.band_mass == expect > 0.0
        # One round, and its holdout if it found a witness: no other draw.
        assert stream.drawn == (2_000 if witness is None else witness.n_used)

    def test_next_band_advances_and_charges(self):
        spec = planar_instance(85)
        stream = SampleStream(spec, 4)
        for index in (4, 5):
            expect = SampleStream(spec, index).next_band(3_000, e(1, 2), 0.25, 0.5)
            got = stream.next_band(3_000, e(1, 2), 0.25, 0.5)
            assert got.x.tobytes() == expect.x.tobytes()
            assert got.y.tobytes() == expect.y.tobytes()
            assert np.all((got.x[:, 1] >= 0.25) & (got.x[:, 1] <= 0.5))
        assert stream.drawn == 6_000

    def test_next_band_slices_dataset_rows(self):
        # A dataset's band batch is the band rows among its next n rows; the
        # last slice is short, and then the rows run out.
        data = sample_batch(planar_instance(1), 100)
        stream = SampleStream(data)
        s = data.x @ e(1, 2)
        in_band = (s >= 0.25) & (s <= 0.5)
        for lo, hi in ((0, 40), (40, 80), (80, 100)):
            got = stream.next_band(40, e(1, 2), 0.25, 0.5)
            assert got.x.tobytes() == data.x[lo:hi][in_band[lo:hi]].tobytes()
            assert got.y.tobytes() == data.y[lo:hi][in_band[lo:hi]].tobytes()
            assert stream.drawn == hi
        with pytest.raises(SourceExhausted):
            stream.next_band(40, e(1, 2), 0.25, 0.5)
        assert stream.drawn == 100

    def _dataset_file(self, tmp_path, n):
        spec = InstanceSpec(
            MarginalSpec(Family.STANDARD_GAUSSIAN, 3), e(0, 3),
            constant_rate(0.5, 0.2), 61,
        )
        data = sample_batch(spec, n)
        write_binary(tmp_path / "data.bin", data)
        return data, BinaryDataset(tmp_path / "data.bin")

    @pytest.mark.parametrize("backing", ["instance", "memory", "file"])
    def test_next_band_n_input_is_the_ledger_charge(self, tmp_path, backing):
        # 20,003 rows in rounds of 3,000: a dataset's last batch stands for
        # the 2,003 rows left; an instance's every batch for 3,000.
        data, data_file = self._dataset_file(tmp_path, 20_003)
        stream = {
            "instance": SampleStream(planar_instance(61), 3),
            "memory": SampleStream(data),
            "file": SampleStream(data_file),
        }[backing]
        w = e(1, 2) if backing == "instance" else e(1, 3)
        charges = []
        for _ in range(7):
            drawn = stream.drawn
            got = stream.next_band(3_000, w, 0.25, 0.5)
            assert got.n_input == stream.drawn - drawn
            assert 0 < len(got) < got.n_input
            charges.append(got.n_input)
        assert charges[:6] == [3_000] * 6
        assert charges[6] == (3_000 if backing == "instance" else 2_003)

    @pytest.mark.parametrize("backing", ["instance", "memory", "file"])
    def test_negative_n_is_refused_before_any_charge(self, tmp_path, backing):
        data, data_file = self._dataset_file(tmp_path, 100)
        stream = {
            "instance": SampleStream(planar_instance(61), 3),
            "memory": SampleStream(data),
            "file": SampleStream(data_file),
        }[backing]
        w = e(1, 2) if backing == "instance" else e(1, 3)
        with pytest.raises(InvalidConfig, match="n must be nonnegative, got -1"):
            stream.next(-1)
        with pytest.raises(InvalidConfig, match="n must be nonnegative, got -3"):
            stream.next_band(-3, w, -0.5, 0.5)
        assert stream.drawn == 0

    def test_file_and_memory_sources_agree(self, tmp_path):
        # 20,003 rows span three read chunks; rounds of 3,000 rows end in a
        # short slice of 2,003, and then the rows run out.
        data, data_file = self._dataset_file(tmp_path, 20_003)
        tc = TransformConfig(w=e(1, 3), rho=1.0, R=1.0)
        on_file, in_memory = SampleStream(data_file), SampleStream(data)
        sources = [round_source(tc, 3_000, s) for s in (on_file, in_memory)]
        for lo in range(0, 20_003, 3_000):
            got, ref = (source() for source in sources)
            expect = band_transform(data[lo : lo + 3_000], tc)
            for batch in (got, ref):
                assert batch.x.tobytes() == expect.x.tobytes()
                assert batch.y.tobytes() == expect.y.tobytes()
                assert batch.n_input == expect.n_input
            assert on_file.drawn == in_memory.drawn == min(lo + 3_000, 20_003)
        for source in sources:
            with pytest.raises(SourceExhausted):
                source()
        assert on_file.drawn == in_memory.drawn == 20_003

    def test_file_and_memory_agree_on_a_one_row_final_chunk(self, tmp_path):
        # 16,385 rows end in a one-row read chunk, whose <w, x> numpy need
        # not compute with the bits of a product over more rows; a file and
        # its copy in memory chunk alike, so their streams agree.  The band
        # is built around the last row, so the last round holds it.
        data, data_file = self._dataset_file(tmp_path, 16_385)
        w = as_unit(np.array([1.0, 2.0, -2.0]))
        last = float((data.x[-1:] @ w)[0])
        if last < 0:
            w, last = -w, -last
        tc = TransformConfig(w=w, rho=1.0, R=last / 0.6)
        assert tc.sigma1 < last < tc.sigma2
        on_file, in_memory = SampleStream(data_file), SampleStream(data)
        sources = [round_source(tc, 5_000, s) for s in (on_file, in_memory)]
        for _ in range(4):
            got, ref = (source() for source in sources)
            assert len(got) > 0
            assert got.x.tobytes() == ref.x.tobytes()
            assert got.y.tobytes() == ref.y.tobytes()
            assert got.n_input == ref.n_input
        assert on_file.drawn == in_memory.drawn == 16_385

    def test_file_band_mass_is_the_first_rounds_share(self, tmp_path):
        # After 4,000 rows drawn for another band, a search measures its band
        # on its first round's 3,000 rows, not on all rows, and moves the
        # cursor by its rounds alone; file and memory agree.
        data, data_file = self._dataset_file(tmp_path, 10_000)
        on_file, in_memory = SampleStream(data_file), SampleStream(data)
        tc = TransformConfig(w=e(1, 3), rho=1.0, R=0.6)
        s = data.x[4_000:7_000] @ tc.w
        expect = float(np.mean((s >= tc.sigma1) & (s <= tc.sigma2)))
        results = []
        for stream in (on_file, in_memory):
            stream.next_band(4_000, e(2, 3), 0.25, 0.5)
            witness, search = search_certificate(stream, tc, e(2, 3)[None], 3_000, 1)
            assert search.band_mass == expect > 0.0
            charge = 3_000 if witness is None else witness.n_used
            assert stream.drawn == 4_000 + charge
            results.append(None if witness is None else witness.to_dict())
        assert results[0] == results[1]
        a, b = (st.next_band(1_000, e(1, 3), 0.25, 0.5) for st in (on_file, in_memory))
        assert a.x.tobytes() == b.x.tobytes()
        # A new band passes over the file again.
        a = on_file.next_band(1_000, e(2, 3), 0.0, 0.5)
        b = in_memory.next_band(1_000, e(2, 3), 0.0, 0.5)
        assert len(a) > 0 and a.x.tobytes() == b.x.tobytes()
        with pytest.raises(InvalidConfig):
            on_file.next(10)

    def test_gaussian_source_projects_band_batch(self):
        spec = planar_instance(87)
        tc = TransformConfig(w=e(1, 2), rho=1.0, R=1.0)
        stream = SampleStream(spec, 5)
        got = round_source(tc, 4_000, stream)()
        band = SampleStream(spec, 5).next_band(4_000, tc.w, tc.sigma1, tc.sigma2)
        assert got.n_input == 4_000 and len(got) == len(band)
        assert got.x.tobytes() == perspective_projection_batch(band.x, tc.w).tobytes()
        assert got.y.tobytes() == band.y.tobytes()
        assert stream.drawn == 4_000

    def test_gaussian_source_empty_band_gives_empty_batch(self):
        # The band [40, 56.6] has Gaussian mass 0 in double precision: the
        # round holds no evidence, so it scans to nothing and does not move v.
        tc = TransformConfig(w=e(1, 2), rho=1.0, R=80.0)
        stream = SampleStream(planar_instance(3))
        got = round_source(tc, 1_000, stream)()
        assert got.x.shape == (0, 2) and len(got.y) == 0
        assert got.n_input == 1_000
        assert stream.drawn == 1_000
        assert scan_thresholds(got, e(0, 2), 1.0, 0.1) is None
        assert not np.any(update_direction(got, e(0, 2), 1.0))

    def test_ball_source_projects_filtered_points(self):
        # The band batch has the full batch's band rows; only labels move.
        ball = MarginalSpec(Family.UNIFORM_BALL, 2)
        spec = InstanceSpec(ball, e(0, 2), constant_rate(0.5, 0.2), 89)
        tc = TransformConfig(w=e(1, 2), rho=1.0, R=1.0)
        stream = SampleStream(spec, 5)
        got = round_source(tc, 4_000, stream)()
        expect = band_transform(sample_batch(spec, 4_000, batch=5), tc)
        assert got.x.tobytes() == expect.x.tobytes()
        assert (len(got), got.n_input) == (len(expect), expect.n_input)
        band = SampleStream(spec, 5).next_band(4_000, tc.w, tc.sigma1, tc.sigma2)
        assert got.y.tobytes() == band.y.tobytes()
        assert stream.drawn == 4_000
