"""Tests for drawing band batches ahead on worker threads.

``SampleStream.read_ahead`` draws the points of an instance's next band
batches on worker threads while a certificate search works on the current
one.  An oracle holds it open for a whole query; a search never opens it.
These tests pin what must not depend on it: the batches handed out, the
ledger and the next batch index, the oracle's answers, and which thread runs
the traced functions.
"""

from __future__ import annotations

import contextlib
import importlib.util
import logging
import math
import threading
from pathlib import Path

import numpy as np
import pytest

from tsyblearn import learner, synthetic
from tsyblearn.certificate import (
    TransformConfig,
    compute_certificate,
    search_band,
    search_certificate,
    threshold_floor,
)
from tsyblearn.errors import InvalidConfig
from tsyblearn.geometry import perspective_projection_batch
from tsyblearn.learner import LogConcaveWarmStartOracle
from tsyblearn.synthetic import (
    Family,
    InstanceSpec,
    LabeledBatch,
    MarginalSpec,
    SampleStream,
    constant_rate,
    margin_power_law,
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


def instance(
    family: Family, d: int, seed: int, noisy: bool = True, angle: float = 0.0
) -> InstanceSpec:
    """An instance whose target is ``angle`` from e1 in the e1-e2 plane."""
    marginal = MarginalSpec(family, d)
    noise = margin_power_law(0.5, marginal) if noisy else constant_rate(0.5, 0.0)
    target = np.cos(angle) * e(0, d) + np.sin(angle) * e(1, d)
    return InstanceSpec(marginal, target, noise, seed)


def assert_same_batch(got, expect) -> None:
    assert got.x.tobytes() == expect.x.tobytes()
    assert got.y.tobytes() == expect.y.tobytes()


def band_batch(spec, n, w, lo, hi, index) -> LabeledBatch:
    """The band batch at ``index``, drawn on the caller's thread."""
    return SampleStream(spec, index).next_band(n, w, lo, hi)


def assert_next_index(stream: SampleStream, spec: InstanceSpec, index: int) -> None:
    """The stream's next batch, band or full, is the one at ``index``."""
    w = e(1, spec.marginal.dimension)
    expect = band_batch(spec, 1_000, w, 0.1, 0.9, index)
    assert_same_batch(stream.next_band(1_000, w, 0.1, 0.9), expect)
    assert_same_batch(stream.next(1_000), sample_batch(spec, 1_000, index + 1))


@pytest.mark.parametrize("family", READ_AHEAD_FAMILIES)
class TestStreamStaysExact:
    def test_band_sequence_across_a_band_change(self, family):
        # Three batches of one band, then two of another band and row count:
        # the draw ahead for the first band is dropped, and every batch
        # is still the one drawn at its index without reading ahead.
        spec = instance(family, 3, 11)
        base, n = 40, 20_000
        bands = [(n, e(1, 3), 0.2, 0.7)] * 3 + [(n // 2, e(2, 3), -0.3, 0.4)] * 2
        stream = SampleStream(spec, base)
        with stream.read_ahead():
            for k, (rows, w, lo, hi) in enumerate(bands):
                got = stream.next_band(rows, w, lo, hi)
                assert_same_batch(got, band_batch(spec, rows, w, lo, hi, base + k))
                assert stream.drawn == sum(b[0] for b in bands[: k + 1])
        assert_next_index(stream, spec, base + len(bands))

    def test_full_batch_between_band_batches(self, family):
        # A full batch takes the index a pending band draw was made for.
        spec = instance(family, 3, 12)
        stream = SampleStream(spec, 7)
        w = e(1, 3)
        with stream.read_ahead():
            got = stream.next_band(5_000, w, 0.2, 0.7)
            assert_same_batch(got, band_batch(spec, 5_000, w, 0.2, 0.7, 7))
            assert_same_batch(stream.next(5_000), sample_batch(spec, 5_000, 8))
            got = stream.next_band(5_000, w, 0.2, 0.7)
            assert_same_batch(got, band_batch(spec, 5_000, w, 0.2, 0.7, 9))
            # The draw made for index 8 was dropped; only the next is ahead.
            assert stream._ahead.ahead[0] == 10
        assert stream.drawn == 15_000
        assert_next_index(stream, spec, 10)

    def test_search_that_stops_early_with_a_witness(self, family):
        # The witness, the ledger and the next index equal those of the same
        # search run round by round on band batches drawn without the worker.
        spec = instance(family, 2, 21, noisy=False)
        params = well_behaved_params(spec.marginal)
        base, spr, w = 40, 50_000, e(1, 2)
        stream = SampleStream(spec, base)
        with stream.read_ahead():
            witness, info = search_certificate(
                stream, search_band(w, math.pi / 2, params), [e(0, 2)], spr, 25
            )
        assert witness is not None
        # theta = pi/2 puts the perspective scale rho at its cap of 1.
        tc = TransformConfig(w=w, rho=1.0, R=params.R)
        first = band_batch(spec, spr, w, tc.sigma1, tc.sigma2, base)
        assert info["band_mass"] == len(first) / spr
        index = base

        def source():
            nonlocal index
            band = band_batch(spec, spr, w, tc.sigma1, tc.sigma2, index)
            index += 1
            z = perspective_projection_batch(band.x, w)
            return LabeledBatch(x=z, y=band.y, n_input=spr)

        expect = compute_certificate(source, tc, e(0, 2), threshold_floor(spr), 25)
        assert witness.to_dict() == expect.to_dict()
        # The search stopped before its last round, with draws still ahead.
        assert index - base < 25
        assert stream.drawn == (index - base) * spr
        assert_next_index(stream, spec, index)


class TestDrawAhead:
    """Which draw ahead a band batch takes or drops."""

    W = e(1, 3)

    def _blocking(self, monkeypatch, block_lo, block_batch=None):
        """Make worker draws of band ``lo == block_lo`` (and ``batch ==
        block_batch``, if given) wait for ``release``; ``entered`` is set
        when one starts.  Records, per ``(lo, batch)``, whether the caller's
        thread drew it first."""
        entered, release, on_caller = threading.Event(), threading.Event(), {}
        band_points = synthetic._band_points

        def recorded(spec, n, w, lo, hi, batch, out=None):
            worker = threading.current_thread() is not threading.main_thread()
            on_caller.setdefault((lo, batch), not worker)
            if worker and lo == block_lo and block_batch in (None, batch):
                entered.set()
                assert release.wait(30)
            return band_points(spec, n, w, lo, hi, batch, out)

        monkeypatch.setattr(synthetic, "_band_points", recorded)
        return entered, release, on_caller

    def test_a_draw_not_started_is_drawn_by_the_caller(self, monkeypatch):
        spec = instance(Family.ISOTROPIC_LAPLACE, 3, 36)
        entered, release, on_caller = self._blocking(monkeypatch, -1.0)
        stream = SampleStream(spec, 20)
        with stream.read_ahead():
            # The worker is held up drawing batch 21 for another band, so the
            # draw of batch 22 asked of it has not started when 22 is asked
            # for: the caller draws 21 and 22.
            stream.next_band(1_000, self.W, -1.0, 1.0)
            try:
                assert entered.wait(30)
                got = [stream.next_band(1_000, self.W, 0.2, 0.7) for _ in range(2)]
                assert on_caller[0.2, 21] and on_caller[0.2, 22]
                assert stream._ahead.ahead[0] == 23
            finally:
                release.set()
            got.append(stream.next_band(1_000, self.W, 0.2, 0.7))
            for index, batch in zip((21, 22, 23), got):
                assert_same_batch(batch, band_batch(spec, 1_000, self.W, 0.2, 0.7, index))
        assert_next_index(stream, spec, 24)

    def test_the_caller_and_the_worker_draw_alternate_batches(self, monkeypatch):
        spec = instance(Family.ISOTROPIC_LAPLACE, 3, 37)
        entered, release, on_caller = self._blocking(monkeypatch, 0.2, 31)
        stream = SampleStream(spec, 30)
        with stream.read_ahead():
            try:
                got = [stream.next_band(1_000, self.W, 0.2, 0.7)]
                assert entered.wait(30)  # the worker draws 31
                assert on_caller[0.2, 30] and not on_caller[0.2, 31]
            finally:
                release.set()
            # 31 is the worker's draw; the caller draws 32, the worker 33.
            got += [stream.next_band(1_000, self.W, 0.2, 0.7) for _ in range(3)]
            assert on_caller[0.2, 32]
        for index, batch in zip(range(30, 34), got):
            assert_same_batch(batch, band_batch(spec, 1_000, self.W, 0.2, 0.7, index))
        assert stream.drawn == 4_000


class TestThreads:
    def _search(self, family, w, max_iters, read_ahead=True):
        """``(witness, info, stream)`` of a search at ``w``, with the
        stream's ``read_ahead`` open around it or not."""
        spec = instance(family, 2, 31, noisy=False)
        band = search_band(w, math.pi / 2, well_behaved_params(spec.marginal))
        stream = SampleStream(spec, 5)
        block = stream.read_ahead() if read_ahead else contextlib.nullcontext()
        with block:
            witness, info = search_certificate(
                stream, band, [e(0, 2)], 20_000, max_iters
            )
        return witness, info, stream

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
        "parent, cpus", [(None, {0}), (object(), {0, 1})],
        ids=["one-cpu", "pool-worker"],
    )
    def test_no_read_ahead_without_a_spare_core(self, monkeypatch, parent, cpus):
        # Pinned to one CPU of a two-CPU machine, or in a process
        # multiprocessing started (the sweep's pool has one per CPU), a
        # worker thread would find no idle core.
        monkeypatch.setattr(synthetic, "_spare_core", SPARE_CORE)
        monkeypatch.setattr(synthetic.multiprocessing, "parent_process", lambda: parent)
        monkeypatch.setattr(synthetic.os, "cpu_count", lambda: 2)
        monkeypatch.setattr(
            synthetic.os, "sched_getaffinity", lambda pid: cpus, raising=False
        )
        spec = instance(Family.ISOTROPIC_LAPLACE, 3, 35)
        stream = SampleStream(spec, 3)
        before = threading.active_count()
        with stream.read_ahead():
            got = stream.next_band(5_000, e(1, 3), 0.2, 0.7)
            assert threading.active_count() == before
        assert_same_batch(got, band_batch(spec, 5_000, e(1, 3), 0.2, 0.7, 3))

    @pytest.mark.parametrize("family", READ_AHEAD_FAMILIES)
    def test_no_thread_outlives_a_search(self, family):
        before = threading.active_count()
        witness, _, _ = self._search(family, e(1, 2), 25)
        assert witness is not None
        assert threading.active_count() == before
        # At the target nothing certifies: an honest Fail after every round.
        witness, _, _ = self._search(family, e(0, 2), 3)
        assert witness is None
        assert threading.active_count() == before
        # compute_certificate raises after the first round started the
        # draws ahead.
        with pytest.raises(InvalidConfig, match="max_iters"):
            self._search(family, e(1, 2), 0)
        assert threading.active_count() == before

    @pytest.mark.parametrize("family", READ_AHEAD_FAMILIES)
    def test_a_search_opens_no_read_ahead(self, monkeypatch, family):
        # Outside a ``read_ahead`` block a search starts no worker thread,
        # and it returns the witness, info and ledger it returns inside one.
        before = threading.active_count()
        started = []
        real_start = synthetic._ReadAhead.__init__

        def recorded_start(self, spec):
            started.append(spec)
            real_start(self, spec)

        monkeypatch.setattr(synthetic._ReadAhead, "__init__", recorded_start)
        witness, info, stream = self._search(family, e(1, 2), 25, read_ahead=False)
        assert started == [] and threading.active_count() == before
        assert witness is not None
        expect, expect_info, ahead = self._search(family, e(1, 2), 25)
        assert len(started) == 1
        assert witness.to_dict() == expect.to_dict() and info == expect_info
        assert (stream.drawn, stream._batch) == (ahead.drawn, ahead._batch)

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
            samples_per_round=20_000, warm_samples=100_000,
        )
        oracle.MAX_ITERS = 4
        w = np.array([math.cos(1.0), math.sin(1.0), 0.0])
        with ThreadRecorder().operation(0):
            oracle.query(w, 0.15, 0.05)
        main = threading.main_thread().ident
        assert {
            "synthetic.noise_rates", "warmstart.warm_start",
            "warmstart.random_band_project",
            "certificate.compute_certificate",
        } <= calls.keys()
        assert calls["synthetic.noise_rates"] == {main}
        assert all(threads == {main} for threads in calls.values()), calls
        assert draws - {main}, "no band batch was drawn ahead"


def warm_oracle(spec: InstanceSpec, warm_samples: int, max_iters: int):
    oracle = LogConcaveWarmStartOracle(
        spec, well_behaved_params(spec.marginal), spec.noise,
        samples_per_round=20_000, warm_samples=warm_samples, seed=spec.seed,
    )
    oracle.MAX_ITERS = max_iters
    return oracle


#: Warm-start queries at e1: ``(instance args, warm samples, max iters)``.
#: "fail" queries the target itself, so every guess's search fails; in
#: "failed-guess" the first guess's 4000-row warm batch has too few band
#: rows and a later guess certifies; "witness" certifies at the first guess.
QUERIES = {
    "fail": ((0.0, 3, True), 20_000, 3),
    "failed-guess": ((1.2, 1, False), 4_000, 6),
    "witness": ((1.2, 1, False), 100_000, 6),
}


@pytest.mark.parametrize("family", READ_AHEAD_FAMILIES)
@pytest.mark.parametrize("case", list(QUERIES))
def test_warm_query_is_the_same_without_read_ahead(monkeypatch, caplog, family, case):
    (angle, seed, noisy), warm_samples, max_iters = QUERIES[case]
    spec = instance(family, 3, seed, noisy, angle)
    results = []
    for spare in (True, False):
        monkeypatch.setattr(synthetic, "_spare_core", lambda: spare)
        oracle = warm_oracle(spec, warm_samples, max_iters)
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="tsyblearn.learner"):
            witness = oracle.query(e(0, 3), 0.15, 0.05)
        failed = [
            r.getMessage() for r in caplog.records if "warm start failed" in r.getMessage()
        ]
        results.append((
            None if witness is None else witness.to_dict(),
            oracle.samples_drawn, oracle._stream._batch, failed,
        ))
    assert results[0] == results[1]
    witness, drawn, _, failed = results[0]
    if case == "fail":
        assert witness is None and drawn > 4 * 20_000
    else:
        assert witness is not None
    if case == "failed-guess":
        assert failed[0].startswith("guess 0.15: warm start failed (")
        assert "band keeps" in failed[0] or "no samples" in failed[0]
    if case == "witness":
        assert failed == []


class TestWarmQueryThreads:
    #: Noiseless, 0.3 rad from e1: at e1 the three guesses' searches fail in
    #: two rounds each and the random pair's search certifies.
    SPEC = instance(Family.ISOTROPIC_LAPLACE, 3, 1, noisy=False, angle=0.3)

    #: The function that raises and its call that does: a warm start, a
    #: guess's search, and the pair's search after the guesses' three.
    RAISES = {
        "warm_start_from": ("warm_start_from", 2),
        "search_certificate": ("search_certificate", 2),
        "pair-search": ("search_certificate", 4),
    }

    @pytest.mark.parametrize("case", list(RAISES))
    def test_no_thread_outlives_a_query_that_raises(self, monkeypatch, case):
        where, raising = self.RAISES[case]
        real = getattr(learner, where)
        calls = []

        def one_call_raises(*args, **kwargs):
            calls.append(1)
            if len(calls) == raising:
                raise RuntimeError("boom")
            return real(*args, **kwargs)

        monkeypatch.setattr(learner, where, one_call_raises)
        oracle = warm_oracle(self.SPEC, 100_000, 2)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="boom"):
            oracle.query(e(0, 3), 0.15, 0.05)
        assert len(calls) == raising
        assert threading.active_count() == before
