"""Tests for drawing band batches ahead on worker threads.

``SampleStream.read_ahead`` draws the points of an instance's next band
batches on worker threads while the certificate search works on the current
one.  These tests pin what must not depend on it: the batches handed out,
the ledger and the next batch index, and which thread runs the traced
functions.
"""

from __future__ import annotations

import importlib.util
import math
import threading
from pathlib import Path

import numpy as np
import pytest

from tsyblearn import synthetic
from tsyblearn.certificate import (
    ProjectedBatch,
    TransformConfig,
    compute_certificate,
    search_certificate,
    search_threshold,
)
from tsyblearn.errors import InvalidConfig
from tsyblearn.geometry import perspective_projection_batch
from tsyblearn.learner import LogConcaveWarmStartOracle
from tsyblearn.synthetic import (
    Family,
    InstanceSpec,
    MarginalSpec,
    SampleStream,
    constant_rate,
    margin_power_law,
    sample_band,
    sample_batch,
    well_behaved_params,
)

READ_AHEAD_FAMILIES = (Family.ISOTROPIC_LAPLACE, Family.UNIFORM_BALL)
SPARE_CORE = synthetic._spare_core


@pytest.fixture(autouse=True)
def spare_core(monkeypatch):
    """Read ahead as on a machine with an idle core, whatever this one has."""
    monkeypatch.setattr(synthetic, "_spare_core", lambda: True)


def e(i: int, d: int) -> np.ndarray:
    v = np.zeros(d)
    v[i] = 1.0
    return v


def instance(family: Family, d: int, seed: int, noisy: bool = True) -> InstanceSpec:
    marginal = MarginalSpec(family, d)
    noise = margin_power_law(0.5, marginal) if noisy else constant_rate(0.5, 0.0)
    return InstanceSpec(marginal, e(0, d), noise, seed)


def assert_same_batch(got, expect) -> None:
    assert got.x.tobytes() == expect.x.tobytes()
    assert got.y.tobytes() == expect.y.tobytes()


def assert_next_index(stream: SampleStream, spec: InstanceSpec, index: int) -> None:
    """The stream's next batch, band or full, is the one at ``index``."""
    w = e(1, spec.marginal.dimension)
    expect = sample_band(spec, 1_000, w, 0.1, 0.9, index)
    assert_same_batch(stream.next_band(1_000, w, 0.1, 0.9), expect)
    assert_same_batch(stream.next(1_000), sample_batch(spec, 1_000, index + 1))


@pytest.mark.parametrize("family", READ_AHEAD_FAMILIES)
class TestStreamStaysExact:
    def test_band_sequence_across_a_band_change(self, family):
        # Three batches of one band, then two of another band and row count:
        # the draw ahead for the first band is dropped, and every batch
        # is still the one ``sample_band`` draws at its index.
        spec = instance(family, 3, 11)
        base, n = 40, 20_000
        bands = [(n, e(1, 3), 0.2, 0.7)] * 3 + [(n // 2, e(2, 3), -0.3, 0.4)] * 2
        stream = SampleStream(spec, base)
        with stream.read_ahead():
            for k, (rows, w, lo, hi) in enumerate(bands):
                got = stream.next_band(rows, w, lo, hi)
                assert_same_batch(got, sample_band(spec, rows, w, lo, hi, base + k))
                assert stream.drawn == sum(b[0] for b in bands[: k + 1])
        assert_next_index(stream, spec, base + len(bands))

    def test_full_batch_between_band_batches(self, family):
        # A full batch takes the index a pending band draw was made for.
        spec = instance(family, 3, 12)
        stream = SampleStream(spec, 7)
        w = e(1, 3)
        with stream.read_ahead():
            got = stream.next_band(5_000, w, 0.2, 0.7)
            assert_same_batch(got, sample_band(spec, 5_000, w, 0.2, 0.7, 7))
            assert_same_batch(stream.next(5_000), sample_batch(spec, 5_000, 8))
            got = stream.next_band(5_000, w, 0.2, 0.7)
            assert_same_batch(got, sample_band(spec, 5_000, w, 0.2, 0.7, 9))
            # The draw made for index 8 was dropped; only the next is ahead.
            assert stream._ahead.ahead[0] == 10
        assert stream.drawn == 15_000
        assert_next_index(stream, spec, 10)

    def test_search_that_stops_early_with_a_witness(self, family):
        # The witness, the ledger and the next index equal those of the same
        # search run round by round on ``sample_band`` alone.
        spec = instance(family, 2, 21, noisy=False)
        params = well_behaved_params(spec.marginal)
        base, spr, w = 40, 50_000, e(1, 2)
        stream = SampleStream(spec, base)
        witness, info = search_certificate(
            stream, w, math.pi / 2, [e(0, 2)], spec.noise, params, spr, 25
        )
        assert witness is not None
        # theta = pi/2 puts the perspective scale rho at its cap of 1.
        tc = TransformConfig(w=w, rho=1.0, R=params.R)
        pilot = sample_band(spec, spr, w, tc.sigma1, tc.sigma2, base)
        assert info["band_mass"] == len(pilot) / spr
        index = base + 1

        def source():
            nonlocal index
            band = sample_band(spec, spr, w, tc.sigma1, tc.sigma2, index)
            index += 1
            z = perspective_projection_batch(band.x, w)
            return ProjectedBatch(z=z, y=band.y, survival=len(band) / spr, n_input=spr)

        c = search_threshold(spec.noise, params, 1.0, info["band_mass"], spr)
        expect = compute_certificate(source, tc, e(0, 2), c, 25)
        assert witness.to_dict() == expect.to_dict()
        # The search stopped before its last round, with draws still ahead.
        assert index - base < 1 + 25
        assert stream.drawn == (index - base) * spr
        assert_next_index(stream, spec, index)


class TestThreads:
    def _search(self, family, w, max_iters):
        spec = instance(family, 2, 31, noisy=False)
        params = well_behaved_params(spec.marginal)
        stream = SampleStream(spec, 5)
        return search_certificate(
            stream, w, math.pi / 2, [e(0, 2)], spec.noise, params, 20_000, max_iters
        )

    def test_read_ahead_threads_live_only_inside_the_block(self):
        spec = instance(Family.ISOTROPIC_LAPLACE, 3, 32)
        stream = SampleStream(spec)
        before = threading.active_count()
        with stream.read_ahead():
            stream.next_band(10_000, e(1, 3), 0.2, 0.7)
            assert threading.active_count() == before + 1
        assert threading.active_count() == before

    def test_gaussian_logistic_and_dataset_streams_start_no_thread(self):
        gauss = instance(Family.STANDARD_GAUSSIAN, 3, 33)
        logistic = instance(Family.ISOTROPIC_LOGISTIC, 3, 33)
        before = threading.active_count()
        for source in (gauss, logistic, sample_batch(gauss, 10_000)):
            stream = SampleStream(source)
            with stream.read_ahead():
                stream.next_band(5_000, e(1, 3), 0.2, 0.7)
                assert threading.active_count() == before

    @pytest.mark.parametrize(
        "parent, cpus", [(None, 1), (object(), 2)], ids=["one-cpu", "pool-worker"]
    )
    def test_no_read_ahead_without_a_spare_core(self, monkeypatch, parent, cpus):
        # On one CPU, or in a process multiprocessing started (the sweep's
        # pool has one per CPU), a worker thread would find no idle core.
        monkeypatch.setattr(synthetic, "_spare_core", SPARE_CORE)
        monkeypatch.setattr(synthetic.multiprocessing, "parent_process", lambda: parent)
        monkeypatch.setattr(synthetic.os, "cpu_count", lambda: cpus)
        spec = instance(Family.ISOTROPIC_LAPLACE, 3, 35)
        stream = SampleStream(spec, 3)
        before = threading.active_count()
        with stream.read_ahead():
            got = stream.next_band(5_000, e(1, 3), 0.2, 0.7)
            assert threading.active_count() == before
        assert_same_batch(got, sample_band(spec, 5_000, e(1, 3), 0.2, 0.7, 3))

    @pytest.mark.parametrize("family", READ_AHEAD_FAMILIES)
    def test_no_thread_outlives_a_search(self, family):
        before = threading.active_count()
        witness, _ = self._search(family, e(1, 2), 25)
        assert witness is not None
        assert threading.active_count() == before
        # At the target nothing certifies: an honest Fail after every round.
        witness, _ = self._search(family, e(0, 2), 3)
        assert witness is None
        assert threading.active_count() == before
        # compute_certificate raises after the pilot started the draws ahead.
        with pytest.raises(InvalidConfig, match="max_iters"):
            self._search(family, e(1, 2), 0)
        assert threading.active_count() == before

    def test_traced_functions_run_on_the_calling_thread(self, monkeypatch):
        # Every function the benchmark's tracer wraps, noise_rates among
        # them, runs on the main thread during a warm-start oracle query on
        # a Laplace instance, while band points are drawn on the worker.
        path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
        module_spec = importlib.util.spec_from_file_location("tracing", path)
        tracing = importlib.util.module_from_spec(module_spec)
        module_spec.loader.exec_module(tracing)
        calls: dict = {}

        class ThreadRecorder(tracing.Tracer):
            def _wrap(self, fn, name, count):
                def traced(*args, **kwargs):
                    calls.setdefault(name, set()).add(threading.get_ident())
                    return fn(*args, **kwargs)

                return traced

        draws = set()
        band_points = synthetic._band_points

        def recorded_band_points(*args, **kwargs):
            draws.add(threading.get_ident())
            return band_points(*args, **kwargs)

        monkeypatch.setattr(synthetic, "_band_points", recorded_band_points)
        spec = instance(Family.ISOTROPIC_LAPLACE, 3, 34)
        oracle = LogConcaveWarmStartOracle(
            spec, well_behaved_params(spec.marginal), spec.noise,
            samples_per_round=20_000, warm_samples=100_000, max_iters=4,
        )
        w = np.array([math.cos(1.0), math.sin(1.0), 0.0])
        with ThreadRecorder().operation(0):
            oracle.query(w, 0.15, 0.05)
        main = threading.main_thread().ident
        assert calls["synthetic.noise_rates"] == {main}
        assert all(threads == {main} for threads in calls.values()), calls
        assert draws - {main}, "no band batch was drawn ahead"
