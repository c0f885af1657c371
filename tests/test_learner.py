"""Tests for the certificate-driven learner and its oracles."""

from __future__ import annotations

import dataclasses
import functools
import json
import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import orth_component
from tsyblearn.certificate import (
    CertificateWitness,
    search_band,
    search_certificate,
)
from tsyblearn import learner, synthetic, warmstart
from tsyblearn.errors import (
    EmptySubspace,
    InvalidConfig,
    SourceExhausted,
    TsyblearnError,
)
from tsyblearn.geometry import angle, as_unit, random_unit
from tsyblearn.learner import (
    CertOutcome,
    LearnerConfig,
    LearnerTrace,
    LogConcaveWarmStartOracle,
    RoundRecord,
    StopReason,
    WellBehavedCertOracle,
    angle_to_error,
    learn,
    loss_gradient,
    model_payload,
    turn,
    warm_guesses,
)
from tsyblearn.synthetic import (
    Family,
    InstanceSpec,
    LabeledBatch,
    MarginalSpec,
    SampleStream,
    WellBehavedParams,
    batch_base,
    constant_rate,
    disagreement_error,
    margin_power_law,
    sample_batch,
    well_behaved_params,
)

E1_3 = np.array([1.0, 0.0, 0.0])


def record_search_stacks(monkeypatch):
    """The start stack of each ``search_certificate`` run the oracles make,
    in order."""
    stacks = []
    search = learner.search_certificate

    def recorded(stream, band, starts, *args):
        stacks.append(np.array(starts))
        return search(stream, band, starts, *args)

    monkeypatch.setattr(learner, "search_certificate", recorded)
    return stacks


def planted_instance(d, theta0, *, eta0=0.1, alpha=0.5, seed=0):
    """Instance whose target sits at angle ``theta0`` from the e1 axis."""
    w_star = np.zeros(d)
    w_star[0] = math.cos(theta0)
    w_star[1] = math.sin(theta0)
    return InstanceSpec(
        MarginalSpec(Family.STANDARD_GAUSSIAN, d),
        w_star,
        constant_rate(alpha, eta0),
        seed=seed,
    )


def axis_design(d, n):
    """``n`` rows cycling through ``+-e_i``, every label +1: a batch's
    ``mean(<x, u> * x)`` is exactly ``u / d`` when the batch holds whole
    cycles of ``2 d`` rows."""
    x = np.tile(np.vstack([np.eye(d), -np.eye(d)]), (n // (2 * d), 1))
    return LabeledBatch(x=x, y=np.ones(len(x), dtype=np.int8))


def positive_label_batch(d, n, seed=0):
    rng = np.random.default_rng(seed)
    return LabeledBatch(
        x=rng.standard_normal((n, d)), y=np.ones(n, dtype=np.int8)
    )


class StubWitness:
    """Witness with a fixed T function and ``sigma1 = 1``; enough surface
    for the learner."""

    sigma1 = 1.0

    def __init__(self, t_fn, w_query):
        self.t_fn = t_fn
        self.w_query = np.asarray(w_query, dtype=float)

    def t_values(self, x):
        return self.t_fn(np.asarray(x, dtype=float))

    def margin_terms(self, batch):
        x, y = batch.x, batch.y
        return self.t_values(x) * y * (x @ self.w_query)


class DriftOracle:
    """Always certifies with T(x) = <x, w_star - c * w> at the queried ``w``:
    on positive labels the descent direction off ``w`` points at ``w_star``,
    and the correlation ``<w_star, w> - c`` (on an isotropic batch) turns
    positive once ``w`` is within ``arccos(c)`` of ``w_star``, where the
    learner flags the contract violation itself."""

    def __init__(self, w_star, c=math.cos(0.5)):
        self.w_star = np.asarray(w_star, dtype=float)
        self.c = c

    def query(self, w, theta, delta):
        u = self.w_star - self.c * w
        return StubWitness(lambda x: x @ u, w)


class AlwaysFailOracle:
    def __init__(self):
        self.queries = 0

    def query(self, w, theta, delta):
        self.queries += 1
        return None


class LyingOracle:
    """Returns a witness whose correlation is blatantly positive."""

    def query(self, w, theta, delta):
        class _H:
            sigma1 = 1.0

            def t_values(self, x):
                return np.zeros(np.asarray(x).shape[0])

            def margin_terms(self, batch):
                return np.full(len(batch), 0.5)

        return _H()


@functools.lru_cache(maxsize=4)
def _genuine_witness(eta0=0.1):
    """One genuine oracle witness: query e1 against a target 0.3 rad away."""
    inst = planted_instance(5, 0.3, eta0=eta0)
    params = well_behaved_params(inst.marginal)
    oracle = WellBehavedCertOracle(inst, params, inst.noise, seed=0)
    w = np.zeros(5)
    w[0] = 1.0
    witness = oracle.query(w, 0.15, 0.05)
    assert witness is not None
    return inst, w, witness


@functools.lru_cache(maxsize=2)
def _exhaustion_run():
    """A run whose oracle keeps certifying: three rounds, then fallback."""
    inst = planted_instance(5, 0.2, seed=1)
    params = well_behaved_params(inst.marginal)
    oracle = WellBehavedCertOracle(
        inst, params, inst.noise, samples_per_round=200_000, seed=1
    )
    cfg = LearnerConfig(
        epsilon=0.15, max_rounds=3, samples_n=30_000, seed=1, start="e1"
    )
    stream = SampleStream(inst, batch_base("learner", cfg.seed))
    w_hat, trace = learn(stream, oracle, cfg)
    return inst, cfg, w_hat, trace


@functools.lru_cache(maxsize=2)
def _drift_run():
    """Fixed-stub run from e1, 1.4 rad from ``w_star``: three witness
    rounds, then a flagged violation within 0.5 rad of ``w_star``."""
    w_star = np.array([math.cos(1.4), math.sin(1.4), 0.0])
    cfg = LearnerConfig(
        epsilon=0.3, max_rounds=6, samples_n=6 * 600, start="e1"
    )
    data = axis_design(3, cfg.samples_n)
    w_hat, trace = learn(SampleStream(data), DriftOracle(w_star), cfg)
    return w_star, cfg, w_hat, trace


class TestLearnerConfig:
    def test_defaults(self):
        cfg = LearnerConfig(epsilon=0.1)
        assert cfg.delta == 0.05
        assert cfg.max_rounds == 20
        assert cfg.start == "e1"

    def test_rejects_bad_epsilon(self):
        for eps in (0.0, -0.1, math.pi + 0.01):
            with pytest.raises(InvalidConfig):
                LearnerConfig(epsilon=eps)

    def test_rejects_bad_delta(self):
        for delta in (0.0, 1.0, -0.5):
            with pytest.raises(InvalidConfig):
                LearnerConfig(epsilon=0.1, delta=delta)

    def test_rejects_bad_round_budgets(self):
        with pytest.raises(InvalidConfig):
            LearnerConfig(epsilon=0.1, max_rounds=0)
        with pytest.raises(InvalidConfig):
            LearnerConfig(epsilon=0.1, max_rounds=100, samples_n=50)

    def test_rejects_unknown_start(self):
        with pytest.raises(InvalidConfig):
            LearnerConfig(epsilon=0.1, start="center")

    def test_has_no_rho_eps(self):
        # The turn needs no certificate-magnitude floor, so the config has no
        # field for one.
        assert "rho_eps" not in {f.name for f in dataclasses.fields(LearnerConfig)}
        with pytest.raises(TypeError):
            LearnerConfig(epsilon=0.1, rho_eps=1e-3)


class TestLossGradient:
    def test_a_witness_without_support_gives_zero(self):
        batch = positive_label_batch(3, 50)
        witness = StubWitness(lambda x: np.zeros(x.shape[0]), E1_3)
        g = loss_gradient(batch, witness)
        assert not np.any(g)

    def test_single_point_closed_form(self):
        # x = e1, y = +1, T(x) = 1: gradient -e1.
        batch = LabeledBatch(x=E1_3[None, :], y=np.array([1], dtype=np.int8))
        witness = StubWitness(lambda x: np.ones(x.shape[0]), E1_3)
        g = loss_gradient(batch, witness)
        assert np.array_equal(g, [-1.0, 0.0, 0.0])

    def test_no_witness_is_minus_the_label_mean(self):
        # The zero start's gradient: minus the averaging direction.
        rng = np.random.default_rng(3)
        batch = LabeledBatch(
            x=rng.standard_normal((200, 4)),
            y=rng.choice(np.array([-1, 1], dtype=np.int8), size=200),
        )
        g = loss_gradient(batch, None)
        expect = -(batch.x * batch.y[:, None]).mean(axis=0)
        assert np.allclose(g, expect, atol=1e-15)

    def test_rejects_empty_batch(self):
        empty = LabeledBatch(x=np.zeros((0, 3)), y=np.zeros(0, dtype=np.int8))
        with pytest.raises(InvalidConfig):
            loss_gradient(empty, None)


class TestTurn:
    """``turn(w, grad, a)``: the unit ``w`` rotated by ``a`` rad toward
    minus the part of ``grad`` orthogonal to ``w``."""

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.floats(1e-6, 1.0))
    def test_turns_by_the_angle_toward_minus_the_orthogonal_part(
        self, seed, a
    ):
        rng = np.random.default_rng(seed)
        w = random_unit(4, rng)
        grad = rng.standard_normal(4)
        out = turn(w, grad, a)
        assert np.linalg.norm(out) == pytest.approx(1.0, abs=1e-12)
        assert angle(w, out) == pytest.approx(a, abs=1e-7)
        g_perp = grad - (grad @ w) * w
        assert angle(orth_component(out, w), as_unit(-g_perp)) < 1e-7

    def test_tiny_orthogonal_part_still_turns(self):
        # A gradient whose squares underflow still has a direction.
        out = turn(E1_3, np.array([5.0, -3e-300, 0.0]), 0.25)
        assert np.allclose(out, [math.cos(0.25), math.sin(0.25), 0.0],
                           rtol=0, atol=1e-15)

    @pytest.mark.parametrize("grad", [np.zeros(3), -0.0 * E1_3, 2.0 * E1_3])
    def test_no_orthogonal_part_stays(self, grad):
        assert np.array_equal(turn(E1_3, grad, 0.5), E1_3)


class TestAngleToError:
    def test_zero_angle_is_eps(self):
        params = well_behaved_params(MarginalSpec(Family.STANDARD_GAUSSIAN, 4))
        assert angle_to_error(0.0, params, 0.2) == pytest.approx(0.2)

    def test_closed_form_point(self):
        # U=2, beta=3, theta=0.5, eps=1/e: 2*9*1*0.5 + 1/e.
        params = WellBehavedParams(k=2, L=0.5, R=1.0, U=2.0, beta=3.0)
        expect = 9.0 + math.exp(-1.0)
        assert angle_to_error(0.5, params, math.exp(-1.0)) == pytest.approx(
            expect, rel=1e-12
        )

    def test_bounds_measured_disagreement(self):
        # A rotation by theta disagrees on mass theta/pi under a spherically
        # symmetric marginal; the budget must cover the measurement.
        inst = planted_instance(4, 0.0, eta0=0.0)
        params = well_behaved_params(inst.marginal)
        for theta in (0.01, 0.1, 0.5):
            rotated = np.zeros(4)
            rotated[0] = math.cos(theta)
            rotated[1] = math.sin(theta)
            measured = disagreement_error(inst, rotated, 200_000)
            assert measured == pytest.approx(theta / math.pi, abs=3e-3)
            assert measured <= angle_to_error(theta, params, theta)

    def test_rejects_bad_inputs(self):
        params = well_behaved_params(MarginalSpec(Family.STANDARD_GAUSSIAN, 4))
        with pytest.raises(InvalidConfig):
            angle_to_error(-0.1, params, 0.1)
        with pytest.raises(InvalidConfig):
            angle_to_error(0.1, params, 0.0)


class TestCertificateHandleContract:
    """The witness as the learner uses it: ``sigma1 * T`` and its margin terms."""

    def test_sup_norm_bounded(self):
        inst, _, witness = _genuine_witness()
        fresh = sample_batch(inst, 200_000, batch=9_600_001)
        t_x = witness.sigma1 * witness.t_values(fresh.x)
        assert np.max(np.abs(t_x)) <= 1.0 + 1e-12

    def test_margin_identity_two_routes(self):
        inst, _, witness = _genuine_witness()
        fresh = sample_batch(inst, 50_000, batch=9_600_002)
        via_terms = float(np.mean(witness.margin_terms(fresh)))
        t_x = witness.sigma1 * witness.t_values(fresh.x)
        via_t = float(np.mean(t_x * fresh.y * (fresh.x @ witness.w)))
        assert via_terms == pytest.approx(via_t, abs=1e-12)

    def test_fresh_batch_correlation_negative(self):
        inst, _, witness = _genuine_witness()
        fresh = sample_batch(inst, 200_000, batch=9_600_003)
        assert np.mean(witness.margin_terms(fresh)) < 0.0

    def test_handle_direction_is_queried_direction(self):
        _, w, witness = _genuine_witness()
        assert np.allclose(witness.w, w, atol=1e-12)
        assert isinstance(witness, CertificateWitness)


class TestModelPayloadTrace:
    def test_payload_fields_and_hash(self):
        cfg = LearnerConfig(epsilon=0.15, seed=3)
        w = np.array([0.6, 0.8])
        payload = model_payload(w, cfg)
        assert payload["w"] == [0.6, 0.8]
        assert payload["epsilon"] == 0.15
        assert payload["seed"] == 3
        assert len(payload["config_hash"]) == 16
        assert payload == model_payload(w, cfg)
        other = model_payload(w, LearnerConfig(epsilon=0.2, seed=3))
        assert other["config_hash"] != payload["config_hash"]

    def test_hash_covers_every_config_field(self):
        # The bytes hashed are those of the config's six fields as
        # sorted-key JSON; changing any one field changes the hash.
        w = np.array([0.6, 0.8])
        base = LearnerConfig(epsilon=0.15)
        assert model_payload(w, base)["config_hash"] == "51ace3b3e872cbd1"
        changed = {
            "epsilon": 0.3, "delta": 0.2, "max_rounds": 7,
            "samples_n": 1234, "seed": 9, "start": "random",
        }
        assert set(changed) == {f.name for f in dataclasses.fields(base)}
        for name, value in changed.items():
            other = dataclasses.replace(base, **{name: value})
            assert model_payload(w, other)["config_hash"] != "51ace3b3e872cbd1"
        every = LearnerConfig(**changed)
        assert model_payload(w, every)["config_hash"] == "da9bb176b0ee1be9"

    def test_trace_jsonl_roundtrip(self):
        _, cfg, _, trace = _drift_run()
        lines = trace.to_jsonl().strip().split("\n")
        assert len(lines) == len(trace.rounds) + 1
        records = [json.loads(line) for line in lines]
        for rec, rnd in zip(records[:-1], trace.rounds):
            assert rec["round"] == rnd.index
            assert rec["cert_outcome"] == rnd.cert_outcome.value
            assert all(math.isfinite(v) for v in rec["w"])
        tail = records[-1]
        assert tail["stop_reason"] == trace.stop_reason.value
        assert tail["fallback_used"] is False
        assert np.allclose(tail["final_w"], trace.final_w)

    def test_witness_rounds_carry_grad_and_value(self):
        _, _, _, trace = _drift_run()
        for rnd in trace.rounds:
            if rnd.cert_outcome is CertOutcome.WITNESS:
                assert rnd.grad is not None
                assert rnd.cert_value is not None
                rec = rnd.to_dict()
                assert rec["grad"] == [float(a) for a in rnd.grad]

    def test_empty_trace_serializes(self):
        trace = LearnerTrace()
        tail = json.loads(trace.to_jsonl().strip())
        assert tail == {
            "final_w": None, "stop_reason": None, "fallback_used": False
        }


class TestLearnDynamics:
    def test_always_fail_returns_start(self):
        data = positive_label_batch(3, 1_000)
        cfg = LearnerConfig(epsilon=0.2, max_rounds=5, samples_n=1_000)
        w_hat, trace = learn(SampleStream(data), AlwaysFailOracle(), cfg)
        assert np.allclose(w_hat, E1_3)
        assert trace.stop_reason is StopReason.ORACLE_FAIL
        assert len(trace.rounds) == 1
        assert trace.rounds[0].cert_outcome is CertOutcome.FAIL
        assert np.allclose(trace.final_w, w_hat)

    def test_fail_round_draws_no_batch(self):
        # The zero start's averaging step uses its round's batch; the next
        # round's query Fails and draws none.  A Fail-ending learn charges
        # (rounds - 1) x per_round beside the oracle's draws.
        inst = planted_instance(3, 0.0, eta0=0.2)
        oracle = WellBehavedCertOracle(
            inst, well_behaved_params(inst.marginal), inst.noise,
            samples_per_round=20_000,
        )
        oracle.MAX_ITERS = 3
        cfg = LearnerConfig(epsilon=0.15, max_rounds=10, samples_n=100_000,
                            start="zero")
        stream = SampleStream(inst, batch_base("learner", cfg.seed))
        _, trace = learn(stream, oracle, cfg)
        assert [r.cert_outcome for r in trace.rounds] == [
            CertOutcome.ZERO_VECTOR, CertOutcome.FAIL
        ]
        assert stream.drawn == (len(trace.rounds) - 1) * 10_000
        # The Fail query is one pair search of 3 rounds, with no holdout.
        assert oracle.samples_drawn == 3 * 20_000

    def test_random_start_is_the_seeds_unit_vector(self):
        # Round 1 queries random_unit(d, default_rng(seed)): a unit vector,
        # the same on every run of a seed, and another on another seed.
        def first_w(seed):
            inst = planted_instance(5, 0.3, seed=seed)
            oracle = WellBehavedCertOracle(
                inst, well_behaved_params(inst.marginal), inst.noise,
                samples_per_round=20_000, seed=seed,
            )
            cfg = LearnerConfig(epsilon=0.15, max_rounds=2, samples_n=40_000,
                                seed=seed, start="random")
            _, trace = learn(
                SampleStream(inst, batch_base("learner", seed)), oracle, cfg
            )
            return trace.rounds[0].w

        w = first_w(0)
        assert w.tobytes() == random_unit(5, np.random.default_rng(0)).tobytes()
        assert np.linalg.norm(w) == pytest.approx(1.0, abs=1e-12)
        assert first_w(0).tobytes() == w.tobytes()
        assert not np.array_equal(first_w(1), w)

    @pytest.mark.parametrize("max_rounds", [1, 2])
    def test_zero_start_averaging_step_recovers_direction(self, max_rounds):
        # Noiseless labels: the first step goes to the unit label-weighted
        # mean, which points along the target.  The next round queries it;
        # with one round the fallback returns it.
        rng = np.random.default_rng(11)
        w_star = np.array([0.0, 0.6, -0.8])
        x = rng.standard_normal((20_000, 3))
        y = np.where(x @ w_star >= 0, 1, -1).astype(np.int8)
        cfg = LearnerConfig(epsilon=0.2, max_rounds=max_rounds,
                            samples_n=20_000, start="zero")
        oracle = AlwaysFailOracle()
        w_hat, trace = learn(SampleStream(LabeledBatch(x=x, y=y)), oracle, cfg)
        first = trace.rounds[0]
        assert first.cert_outcome is CertOutcome.ZERO_VECTOR
        per_round = x.shape[0] // max_rounds
        mean = (x[:per_round] * y[:per_round, None]).mean(axis=0)
        assert np.array_equal(first.grad, -mean)
        assert oracle.queries == max_rounds - 1
        if max_rounds == 2:
            assert np.array_equal(trace.rounds[1].w, as_unit(mean))
            assert trace.rounds[1].cert_outcome is CertOutcome.FAIL
            assert trace.stop_reason is StopReason.ORACLE_FAIL
        else:
            assert trace.stop_reason is StopReason.EXHAUSTED
            assert trace.fallback_used
        assert np.array_equal(w_hat, as_unit(mean))
        assert angle(w_hat, w_star) < 0.1

    def test_fixed_handle_drift_then_violation(self):
        # Each witness round turns the unit iterate toward w_star by its
        # recorded angle 0.5 / sqrt(t); within 0.5 rad the stub's value
        # turns positive and the learner flags it.
        w_star, _, w_hat, trace = _drift_run()
        outcomes = [r.cert_outcome for r in trace.rounds]
        assert outcomes == [CertOutcome.WITNESS] * 3 + [CertOutcome.FAIL]
        assert trace.stop_reason is StopReason.CONTRACT_VIOLATION
        steps = [r.step for r in trace.rounds]
        assert steps == [0.5 / math.sqrt(t) for t in range(1, 5)]
        angles = [angle(r.w, w_star) for r in trace.rounds]
        assert angles[0] == pytest.approx(1.4, abs=1e-12)
        for rnd, before, after in zip(trace.rounds, angles, angles[1:]):
            assert before - after == pytest.approx(rnd.step, abs=1e-12)
        assert np.array_equal(w_hat, trace.rounds[-1].w)
        assert angles[-1] < 0.5 and trace.rounds[-1].cert_value > 0.0

    def test_contract_violation_direct(self):
        data = positive_label_batch(3, 1_000)
        cfg = LearnerConfig(epsilon=0.2, max_rounds=5, samples_n=1_000)
        w_hat, trace = learn(SampleStream(data), LyingOracle(), cfg)
        assert trace.stop_reason is StopReason.CONTRACT_VIOLATION
        assert len(trace.rounds) == 1
        assert trace.rounds[0].cert_value == pytest.approx(0.5)
        assert np.allclose(w_hat, E1_3)

    def test_a_witness_without_support_rows_is_accepted(self):
        # The validation batch holds no support row of the witness, so its
        # value 0.0 (above the bar of 0) carries no evidence and is not
        # flagged.
        class NoSupportOracle(AlwaysFailOracle):
            def query(self, w, theta, delta):
                self.queries += 1
                return StubWitness(lambda x: np.zeros(x.shape[0]), w)

        data = positive_label_batch(3, 1_000)
        cfg = LearnerConfig(epsilon=0.2, max_rounds=2, samples_n=1_000)
        oracle = NoSupportOracle()
        _, trace = learn(SampleStream(data), oracle, cfg)
        assert [r.cert_outcome for r in trace.rounds] == [
            CertOutcome.WITNESS, CertOutcome.WITNESS
        ]
        assert [r.cert_value for r in trace.rounds] == [0.0, 0.0]
        assert oracle.queries == 2
        assert trace.stop_reason is StopReason.EXHAUSTED
        assert trace.fallback_used

    def test_an_iterate_that_stays_zero_falls_back_to_e1(self):
        # Every batch holds as many -1 as +1 labels on one point, so each
        # averaging direction is 0 and the iterate never leaves zero.
        x = np.tile(E1_3, (40, 1))
        y = np.where(np.arange(40) % 2 == 0, 1, -1).astype(np.int8)
        cfg = LearnerConfig(epsilon=0.2, max_rounds=4, samples_n=40,
                            start="zero")
        oracle = AlwaysFailOracle()
        w_hat, trace = learn(SampleStream(LabeledBatch(x=x, y=y)), oracle, cfg)
        assert [r.cert_outcome for r in trace.rounds] == (
            [CertOutcome.ZERO_VECTOR] * 4
        )
        assert oracle.queries == 0
        assert trace.stop_reason is StopReason.EXHAUSTED
        assert trace.fallback_used
        assert np.array_equal(w_hat, E1_3)
        assert np.array_equal(trace.final_w, E1_3)

    def test_exhaustion_fallback_picks_least_negative_round(self):
        _, cfg, w_hat, trace = _exhaustion_run()
        assert trace.stop_reason is StopReason.EXHAUSTED
        assert trace.fallback_used
        assert len(trace.rounds) == cfg.max_rounds
        assert all(
            r.cert_outcome is CertOutcome.WITNESS for r in trace.rounds
        )
        best = max(trace.rounds, key=lambda r: r.cert_value)
        assert np.allclose(w_hat, best.w / np.linalg.norm(best.w), atol=1e-12)
        assert np.linalg.norm(w_hat) == pytest.approx(1.0, abs=1e-12)

    def test_dataset_exhaustion_propagates(self):
        data = positive_label_batch(3, 10)
        cfg = LearnerConfig(epsilon=0.2, max_rounds=4, samples_n=40)
        with pytest.raises(SourceExhausted):
            learn(SampleStream(data), DriftOracle(-E1_3), cfg)


class TestRegretAndComparator:
    def test_comparator_loss_nonpositive_noiseless(self):
        # Noiseless labels agree with the target on every support point, so
        # the comparator's linear loss is a mean of nonpositive terms.
        inst, _, witness = _genuine_witness(eta0=0.0)
        fresh = sample_batch(inst, 200_000, batch=9_600_004)
        g = loss_gradient(fresh, witness)
        assert float(g @ inst.target) < 0.0

    def test_paid_loss_identity(self):
        # The loss paid at the queried w is minus the witness's value.
        inst, w, witness = _genuine_witness()
        fresh = sample_batch(inst, 50_000, batch=9_600_005)
        g = loss_gradient(fresh, witness)
        hval = float(np.mean(witness.margin_terms(fresh)))
        assert float(g @ w) == pytest.approx(-hval, abs=1e-12)

    @staticmethod
    def _regret_bound_holds(trace, w_star):
        """Criterion 8's ledger over the witness rounds: the regret against
        ``w_star`` is at most ``3 G sqrt(T)``, ``G`` the largest gradient
        norm."""
        witness = [
            r for r in trace.rounds if r.cert_outcome is CertOutcome.WITNESS
        ]
        assert witness
        big_t = len(witness)
        big_g = max(float(np.linalg.norm(r.grad)) for r in witness)
        regret = sum(r.loss - float(r.grad @ w_star) for r in witness)
        return regret <= 3.0 * big_g * math.sqrt(big_t) + 1e-9

    def test_regret_bound_fixed_handle(self):
        w_star, _, _, trace = _drift_run()
        assert self._regret_bound_holds(trace, w_star)

    def test_regret_bound_real_trace(self):
        inst, _, _, trace = _exhaustion_run()
        assert self._regret_bound_holds(trace, inst.target)


class TestTermination:
    def test_fail_termination_within_budget(self):
        # Start 0.2 rad off target with eps=0.15: the oracle's threshold
        # floor at 50k samples per round cannot certify angles this small,
        # so runs must end via Fail well inside the round budget.
        hits = 0
        for seed in range(10):
            inst = planted_instance(5, 0.2, seed=seed)
            params = well_behaved_params(inst.marginal)
            oracle = WellBehavedCertOracle(
                inst, params, inst.noise, samples_per_round=50_000, seed=seed
            )
            cfg = LearnerConfig(
                epsilon=0.15, max_rounds=40, samples_n=400_000, seed=seed,
                start="e1",
            )
            stream = SampleStream(inst, batch_base("learner", cfg.seed))
            w_hat, trace = learn(stream, oracle, cfg)
            assert len(trace.rounds) <= cfg.max_rounds
            assert np.linalg.norm(w_hat) == pytest.approx(1.0, abs=1e-9)
            hits += trace.stop_reason is StopReason.ORACLE_FAIL
        assert hits >= 9


class TestFullPipeline:
    def test_zero_start_recovers_target(self):
        # d=5, 20% constant flips: the averaging first step lands near the
        # target and the oracle then confirms by Failing to certify.
        hits = 0
        for seed in range(10):
            inst = planted_instance(5, 0.0, eta0=0.2, seed=seed)
            params = well_behaved_params(inst.marginal)
            oracle = WellBehavedCertOracle(
                inst, params, inst.noise, samples_per_round=200_000, seed=seed
            )
            cfg = LearnerConfig(
                epsilon=0.15, max_rounds=20, samples_n=200_000, seed=seed,
                start="zero",
            )
            stream = SampleStream(inst, batch_base("learner", cfg.seed))
            w_hat, trace = learn(stream, oracle, cfg)
            assert np.linalg.norm(w_hat) == pytest.approx(1.0, abs=1e-9)
            if angle(w_hat, inst.target) <= cfg.epsilon:
                hits += 1
                assert trace.stop_reason is StopReason.ORACLE_FAIL
        assert hits >= 8


@functools.lru_cache(maxsize=1)
def _random_start_runs():
    """Criterion 7's constant-rate instances and seeds, learned from the
    seed's random unit vector with the query angle at 0.1: per run the
    final angle, the samples used, and the median over its witness rounds
    of the cosine of the descent direction off ``w`` with ``u*``, the
    target's unit component orthogonal to ``w``."""
    d = 5
    marg = MarginalSpec(Family.STANDARD_GAUSSIAN, d)
    params = well_behaved_params(marg)
    noise = constant_rate(0.5, 0.2)
    runs = []
    for rep in range(10):
        target = as_unit(np.random.default_rng(7300 + rep).standard_normal(d))
        inst = InstanceSpec(marg, target, noise, seed=7400 + rep)
        oracle = WellBehavedCertOracle(
            inst, params, noise, samples_per_round=200_000, seed=7500 + rep
        )
        cfg = LearnerConfig(epsilon=0.1, max_rounds=80,
                            samples_n=80 * 50_000, seed=7600 + rep,
                            start="random")
        stream = SampleStream(inst, batch_base("learner", cfg.seed))
        w_hat, trace = learn(stream, oracle, cfg)
        cosines = [
            float(as_unit(r.w * (r.grad @ r.w) - r.grad)
                  @ orth_component(target, r.w))
            for r in trace.rounds if r.cert_outcome is CertOutcome.WITNESS
        ]
        runs.append((angle(w_hat, target),
                     stream.drawn + oracle.samples_drawn,
                     float(np.median(cosines))))
    return runs


class TestCertificatesLearn:
    """From a random start the certificates do the learning: each witness
    round turns the iterate toward the target, until the oracle Fails."""

    def test_random_starts_land_near_the_target(self):
        """At least 8 of 10 runs end within 0.15 rad of the target.  The
        gate is 1.5 times the query angle 0.1, because the oracle returns
        Fail at true angles up to about 1.4 times the query angle."""
        runs = _random_start_runs()
        print("samples_used:", [used for _, used, _ in runs])
        hits = sum(final <= 0.15 for final, _, _ in runs)
        assert hits >= 8, [final for final, _, _ in runs]

    def test_witness_gradients_point_at_the_target(self):
        # The win-win claim at the learner: a witness's descent direction
        # off w correlates with u*.
        cosines = [cos for _, _, cos in _random_start_runs()]
        assert np.median(cosines) >= 0.3, cosines


class TestWellBehavedOracle:
    def _oracle(self, seed=0):
        inst = planted_instance(5, 0.3)
        params = well_behaved_params(inst.marginal)
        return inst, WellBehavedCertOracle(inst, params, inst.noise, seed=seed)

    def test_rejects_nonunit_query(self):
        _, oracle = self._oracle()
        with pytest.raises(InvalidConfig):
            oracle.query(np.array([1.0, 1.0, 0.0, 0.0, 0.0]), 0.15, 0.05)

    @pytest.mark.parametrize(
        "oracle_cls", [WellBehavedCertOracle, LogConcaveWarmStartOracle]
    )
    def test_rejects_rounds_below_one_row(self, oracle_cls):
        inst = planted_instance(5, 0.3)
        params = well_behaved_params(inst.marginal)
        with pytest.raises(InvalidConfig, match="samples_per_round"):
            oracle_cls(inst, params, inst.noise, samples_per_round=0)

    def test_fail_at_target(self):
        inst, oracle = self._oracle()
        assert oracle.query(inst.target, 0.15, 0.05) is None

    def test_witness_off_target_deterministic(self):
        _, oracle_a = self._oracle(seed=0)
        _, oracle_b = self._oracle(seed=0)
        w = np.zeros(5)
        w[0] = 1.0
        wa = oracle_a.query(w, 0.15, 0.05)
        wb = oracle_b.query(w, 0.15, 0.05)
        assert wa is not None and wb is not None
        assert wa.value == wb.value
        assert np.array_equal(wa.v, wb.v)
        assert wa.value < 0.0

    def test_antipodal_start_at_d2_certifies_in_its_one_search(
        self, monkeypatch
    ):
        # At d = 2 the complement of w is one line, so a start is u* or -u*,
        # u* the target's unit component orthogonal to w.  Each step is
        # re-orthogonalized to w, so a -u* start never turns and alone it
        # Fails; in the pair, its antipode u* certifies.  The oracle seed 0
        # gives the query the start -u*.
        inst = planted_instance(2, 0.7)
        params = well_behaved_params(inst.marginal)
        oracle = WellBehavedCertOracle(inst, params, inst.noise, seed=0)
        w = np.array([1.0, 0.0])
        band = search_band(w, 0.15, params)
        u_star = orth_component(inst.target, w)
        stacks = record_search_stacks(monkeypatch)
        witness = oracle.query(w, 0.15, 0.05)
        start = oracle._random_start(band)
        np.testing.assert_allclose(start, -u_star, atol=1e-12)
        [stack] = stacks
        np.testing.assert_array_equal(stack, np.stack([start, -start]))
        assert witness is not None
        np.testing.assert_allclose(witness.v, u_star, atol=1e-12)
        alone = SampleStream(inst, batch_base(oracle.STREAM, 0))
        solo, _ = search_certificate(
            alone, band, stack[:1], oracle.samples_per_round, oracle.MAX_ITERS
        )
        assert solo is None

    def test_dataset_source(self):
        # At the target nothing certifies; 10k-row rounds use up the rows.
        inst = planted_instance(5, 0.3)
        params = well_behaved_params(inst.marginal)
        data = sample_batch(inst, 100_000, batch=9_800_001)
        oracle = WellBehavedCertOracle(
            data, params, inst.noise, samples_per_round=10_000
        )
        assert oracle.last_search is None
        assert oracle.query(inst.target, 0.15, 0.05) is None
        assert oracle.samples_drawn == len(data)
        assert oracle.last_search.band_mass > 0.0
        assert oracle.last_search.exhausted is True


class TestQueryLedger:
    """A query charges each search's rounds and holdouts, and each warm
    start's batch; the first round of a search also measures its band
    (the warm-start oracle's Fail ledger: ``TestLogConcaveOracle``)."""

    SPR, WARM = 20_000, 20_000

    def _oracle(self, oracle_cls):
        inst = planted_instance(3, 0.3)
        params = well_behaved_params(inst.marginal)
        kwargs = {"samples_per_round": self.SPR}
        if oracle_cls is LogConcaveWarmStartOracle:
            kwargs["warm_samples"] = self.WARM
        return inst, oracle_cls(inst, params, inst.noise, **kwargs)

    def test_random_init_fail_charges_its_rounds_alone(self):
        # At the target no scan hits, so no holdout is drawn: one pair
        # search of 3 rounds, v and -v sharing each round's batch.
        inst, oracle = self._oracle(WellBehavedCertOracle)
        oracle.MAX_ITERS = 3
        assert oracle.query(inst.target, 0.15, 0.05) is None
        assert oracle.samples_drawn == 3 * self.SPR

    @pytest.mark.parametrize(
        "oracle_cls", [WellBehavedCertOracle, LogConcaveWarmStartOracle]
    )
    def test_witness_n_used_is_its_search_charge(self, oracle_cls):
        # One guess (theta at the guess cap), certified by the first entry
        # of its search: the witness counts every row the scan stream drew.
        _, oracle = self._oracle(oracle_cls)
        w = np.array([math.cos(1.5), math.sin(1.5), 0.0])
        witness = oracle.query(w, learner.GUESS_CAP, 0.05)
        assert witness is not None
        assert witness.n_used == oracle._stream.drawn >= 2 * self.SPR
        warm = self.WARM if oracle_cls is LogConcaveWarmStartOracle else 0
        assert oracle.samples_drawn == witness.n_used + warm


class TestSearchEntries:
    """What each oracle hands ``search_certificate``: for every search, one
    ``(2, d)`` stack whose rows are a start ``v`` and its antipode ``-v``,
    searched in lockstep on one batch per round."""

    @pytest.mark.parametrize(
        "oracle_cls", [WellBehavedCertOracle, LogConcaveWarmStartOracle]
    )
    def test_every_search_is_one_pair(self, monkeypatch, oracle_cls):
        # At the target every search fails, so each one the query has runs.
        inst = planted_instance(3, 0.3)
        kwargs = {"samples_per_round": 20_000}
        if oracle_cls is LogConcaveWarmStartOracle:
            kwargs["warm_samples"] = 20_000
        oracle = oracle_cls(
            inst, well_behaved_params(inst.marginal), inst.noise, **kwargs
        )
        oracle.MAX_ITERS = 2
        stacks = record_search_stacks(monkeypatch)
        assert oracle.query(inst.target, 0.15, 0.05) is None
        assert stacks
        for stack in stacks:
            assert stack.shape == (2, 3)
            np.testing.assert_array_equal(stack[1], -stack[0])


class TestLogConcaveOracle:
    def _oracle(self, d=3, theta0=0.3, seed=0):
        inst = planted_instance(d, theta0)
        params = well_behaved_params(inst.marginal)
        return inst, LogConcaveWarmStartOracle(
            inst, params, inst.noise, seed=seed
        )

    def test_guess_doubling(self):
        assert warm_guesses(0.3) == pytest.approx([0.3, 0.6, 1.0])
        assert warm_guesses(0.25) == pytest.approx([0.25, 0.5, 1.0])
        assert warm_guesses(1.5) == [1.0]

    def test_rejects_nonunit_query(self):
        _, oracle = self._oracle()
        with pytest.raises(InvalidConfig):
            oracle.query(np.array([2.0, 0.0, 0.0]), 0.15, 0.05)

    def test_rejects_too_few_warm_samples(self):
        inst = planted_instance(3, 0.3)
        params = well_behaved_params(inst.marginal)
        with pytest.raises(InvalidConfig):
            LogConcaveWarmStartOracle(inst, params, inst.noise, warm_samples=99)

    def test_rejects_dataset_source(self):
        inst = planted_instance(3, 0.3)
        params = well_behaved_params(inst.marginal)
        data = sample_batch(inst, 1_000)
        with pytest.raises(InvalidConfig, match="oracle"):
            LogConcaveWarmStartOracle(data, params, inst.noise)

    def test_fail_ledger_counts_one_batch_per_round_for_both_signs(self):
        # At its target the query is an honest Fail.  The guesses share one
        # warm-start batch, and no direction clears its noise floor
        # (EmptySubspace), so no guess searches.  The random pair draws one
        # shared batch per round for v and -v, the first of which measures
        # the band, with no holdout: at the benchmark's sizes 400k warm rows
        # plus 12 x 200k pair rows.
        inst = planted_instance(3, 0.3)
        params = well_behaved_params(inst.marginal)
        oracle = LogConcaveWarmStartOracle(
            inst, params, inst.noise, samples_per_round=200_000,
            warm_samples=400_000,
        )
        assert oracle.query(inst.target, 0.15, 0.05) is None
        guesses = warm_guesses(0.15)
        assert len(guesses) == 4 and oracle.MAX_ITERS == 12
        assert oracle.samples_drawn == 400_000 + 2_400_000

    @staticmethod
    def _record(monkeypatch):
        """Record ``(guess, result)`` per warm start that returned, ``(guess,
        error)`` per warm start that raised and ``(band, starts)`` per search
        of the oracle's queries."""
        warm, failed, searches = [], [], []
        warm_start, search = learner.warm_start, learner.search_certificate

        def recorded_warm_start(*args):
            try:
                ws = warm_start(*args)
            except TsyblearnError as err:
                failed.append((args[3], err))
                raise
            warm.append((args[3], ws))
            return ws

        def recorded_search(stream, band, starts, *args):
            searches.append((band, np.array(starts)))
            return search(stream, band, starts, *args)

        monkeypatch.setattr(learner, "warm_start", recorded_warm_start)
        monkeypatch.setattr(learner, "search_certificate", recorded_search)
        return warm, failed, searches

    @staticmethod
    def _assert_random_pair(oracle, band, starts, theta):
        assert band.rho == search_band(band.w, theta, oracle.params).rho
        v = oracle._random_start(band)
        assert abs(float(v @ band.w)) < 1e-12
        np.testing.assert_array_equal(starts, np.stack([v, -v]))

    def test_evidence_free_guesses_run_no_search(self, monkeypatch):
        # Labels flipped with probability 0.499 carry almost no signal: no
        # guess's warm start finds a direction above its noise floor, so each
        # raises EmptySubspace, and the query runs exactly one search, the
        # random pair's, on the band for theta.  The shared warm-start batch
        # is charged once.
        marg = MarginalSpec(Family.ISOTROPIC_LAPLACE, 3)
        target = np.array([math.cos(1.2), math.sin(1.2), 0.0])
        inst = InstanceSpec(marg, target, constant_rate(0.5, 0.499), seed=0)
        oracle = LogConcaveWarmStartOracle(
            inst, well_behaved_params(marg), inst.noise,
            samples_per_round=20_000, warm_samples=100_000,
        )
        oracle.MAX_ITERS = 3
        warm, failed, searches = self._record(monkeypatch)
        assert oracle.query(E1_3, 0.15, 0.05) is None
        assert warm == []
        assert [guess for guess, _ in failed] == warm_guesses(0.15)
        for _, err in failed:
            assert isinstance(err, EmptySubspace)
        [(band, starts)] = searches
        self._assert_random_pair(oracle, band, starts, 0.15)
        assert oracle.samples_drawn == 100_000 + 3 * 20_000

    def test_a_guess_with_evidence_searches_before_the_pair(self, monkeypatch):
        # Noiseless labels, target 0.3 rad from e1: the warm start of guess
        # 0.15 finds no direction above its noise floor, and each later guess
        # searches its v and -v, in guess order; all fail within two rounds,
        # and the random pair, searched last, certifies.  The guesses' one
        # warm-start batch is charged once beside the scan stream's draws.
        marg = MarginalSpec(Family.ISOTROPIC_LAPLACE, 3)
        target = np.array([math.cos(0.3), math.sin(0.3), 0.0])
        inst = InstanceSpec(marg, target, constant_rate(0.5, 0.0), seed=1)
        oracle = LogConcaveWarmStartOracle(
            inst, well_behaved_params(marg), inst.noise,
            samples_per_round=20_000, warm_samples=100_000, seed=1,
        )
        oracle.MAX_ITERS = 2
        warm, failed, searches = self._record(monkeypatch)
        assert oracle.query(E1_3, 0.15, 0.05) is not None
        assert [guess for guess, _ in failed] == [0.15]
        assert isinstance(failed[0][1], EmptySubspace)
        assert [guess for guess, _ in warm] == warm_guesses(0.15)[1:]
        assert len(searches) == len(warm) + 1
        for (guess, ws), (band, starts) in zip(warm, searches):
            assert band.rho == search_band(E1_3, guess, oracle.params).rho
            np.testing.assert_array_equal(starts, np.stack([ws.v, -ws.v]))
        self._assert_random_pair(oracle, *searches[-1], 0.15)
        assert oracle.samples_drawn == oracle._stream.drawn + 100_000

    def test_ledger_charges_one_batch_for_the_warm_starts_tried(self, monkeypatch):
        # The shared 4000-row warm batch keeps too few rows in the first
        # guess's band, and no later guess's rows give a direction above its
        # noise floor; the random pair certifies.  The batch every warm start
        # ran on is charged once beside the scan stream's draws.
        marg = MarginalSpec(Family.ISOTROPIC_LAPLACE, 3)
        target = np.array([math.cos(1.2), math.sin(1.2), 0.0])
        inst = InstanceSpec(marg, target, constant_rate(0.5, 0.0), seed=1)
        oracle = LogConcaveWarmStartOracle(
            inst, well_behaved_params(marg), inst.noise,
            samples_per_round=20_000, warm_samples=4_000, seed=1,
        )
        oracle.MAX_ITERS = 6
        tried, failed = [], []
        warm_start = learner.warm_start

        def recorded(*args):
            tried.append(args[3])
            try:
                return warm_start(*args)
            except TsyblearnError:
                failed.append(args[3])
                raise

        monkeypatch.setattr(learner, "warm_start", recorded)
        assert oracle.query(E1_3, 0.15, 0.05) is not None
        assert failed == tried == warm_guesses(0.15)
        assert oracle.samples_drawn == oracle._stream.drawn + 4_000

    #: Warm-start queries at e1: ``(target angle from e1, seed, noisy, warm
    #: samples, max iters)``.  "fail" queries the target itself, so every
    #: search fails; in "failed-guess" the first guess's 4000-row warm batch
    #: has too few band rows, no warm start returns a direction and the
    #: random pair certifies; "witness" certifies, and each warm start that
    #: fails there finds no direction above its noise floor.
    QUERIES = {
        "fail": (0.0, 3, True, 20_000, 3),
        "failed-guess": (1.2, 1, False, 4_000, 6),
        "witness": (1.2, 1, False, 100_000, 6),
    }

    @pytest.mark.parametrize("family", [Family.ISOTROPIC_LAPLACE, Family.UNIFORM_BALL])
    @pytest.mark.parametrize("case", list(QUERIES))
    def test_warm_query_outcome(self, caplog, family, case):
        theta0, seed, noisy, warm_samples, max_iters = self.QUERIES[case]
        marg = MarginalSpec(family, 3)
        noise = margin_power_law(0.5, marg) if noisy else constant_rate(0.5, 0.0)
        target = np.array([math.cos(theta0), math.sin(theta0), 0.0])
        inst = InstanceSpec(marg, target, noise, seed)
        oracle = LogConcaveWarmStartOracle(
            inst, well_behaved_params(marg), noise,
            samples_per_round=20_000, warm_samples=warm_samples, seed=seed,
        )
        oracle.MAX_ITERS = max_iters
        with caplog.at_level(logging.DEBUG, logger="tsyblearn.learner"):
            witness = oracle.query(E1_3, 0.15, 0.05)
        failed = [
            r.getMessage() for r in caplog.records if "warm start failed" in r.getMessage()
        ]
        if case == "fail":
            assert witness is None
            assert oracle.samples_drawn == oracle._stream.drawn + 20_000
        else:
            assert witness is not None
        if case == "failed-guess":
            assert failed[0].startswith("guess 0.15: warm start failed (")
            assert "band keeps" in failed[0] or "no samples" in failed[0]
        if case == "witness":
            assert failed
            # None is a band failure or an exhausted source.
            assert all("no direction passed" in message for message in failed)

    @pytest.mark.parametrize("family", [Family.ISOTROPIC_LAPLACE, Family.UNIFORM_BALL])
    def test_warm_query_is_reproducible(self, caplog, family):
        # Two oracles built alike answer the "failed-guess" query alike: the
        # witness, the ledger, the stream's next index and the failed guess.
        theta0, seed, noisy, warm_samples, max_iters = self.QUERIES["failed-guess"]
        marg = MarginalSpec(family, 3)
        target = np.array([math.cos(theta0), math.sin(theta0), 0.0])
        inst = InstanceSpec(marg, target, constant_rate(0.5, 0.0), seed)
        results = []
        for _ in range(2):
            oracle = LogConcaveWarmStartOracle(
                inst, well_behaved_params(marg), inst.noise,
                samples_per_round=20_000, warm_samples=warm_samples, seed=seed,
            )
            oracle.MAX_ITERS = max_iters
            caplog.clear()
            with caplog.at_level(logging.DEBUG, logger="tsyblearn.learner"):
                witness = oracle.query(E1_3, 0.15, 0.05)
            failed = [
                r.getMessage() for r in caplog.records
                if "warm start failed" in r.getMessage()
            ]
            results.append((witness.to_dict(), oracle.samples_drawn,
                            oracle._stream._batch, failed))
        assert results[0] == results[1]
        assert results[0][3]

    #: The function that raises and the call of it that does: a warm start,
    #: a guess's search, and the pair's search after the guesses' three.
    RAISES = {
        "warm_start": ("warm_start", 2),
        "search_certificate": ("search_certificate", 2),
        "pair-search": ("search_certificate", 4),
    }

    @pytest.mark.parametrize("case", list(RAISES))
    def test_query_passes_on_an_unexpected_error(self, monkeypatch, case):
        # Only a warm start's documented failures are caught (and logged as a
        # failed guess); any other error ends the query at the call that
        # raised it.  Noiseless, 0.3 rad from e1: at e1 the three guesses'
        # searches fail in two rounds each and the random pair's certifies.
        where, raising = self.RAISES[case]
        real = getattr(learner, where)
        calls = []

        def one_call_raises(*args, **kwargs):
            calls.append(1)
            if len(calls) == raising:
                raise RuntimeError("boom")
            return real(*args, **kwargs)

        monkeypatch.setattr(learner, where, one_call_raises)
        marg = MarginalSpec(Family.ISOTROPIC_LAPLACE, 3)
        inst = InstanceSpec(
            marg, np.array([math.cos(0.3), math.sin(0.3), 0.0]),
            constant_rate(0.5, 0.0), 1,
        )
        oracle = LogConcaveWarmStartOracle(
            inst, well_behaved_params(marg), inst.noise,
            samples_per_round=20_000, warm_samples=100_000, seed=1,
        )
        oracle.MAX_ITERS = 2
        with pytest.raises(RuntimeError, match="boom"):
            oracle.query(E1_3, 0.15, 0.05)
        assert len(calls) == raising

    def test_witness_via_moment_seeding(self):
        inst, oracle = self._oracle()
        w = np.zeros(3)
        w[0] = 1.0
        witness = oracle.query(w, 0.15, 0.05)
        assert witness is not None
        fresh = sample_batch(inst, 200_000, batch=9_700_001)
        assert np.mean(witness.margin_terms(fresh)) < 0.0
        t_x = witness.sigma1 * witness.t_values(fresh.x)
        assert np.max(np.abs(t_x)) <= 1.0 + 1e-12

    #: One warm query each way: ``(family, target angle from e1, seed,
    #: noisy)``.  "fail" queries the target itself; in "later-guess" the
    #: first two guesses find no direction and the third guess's search, the
    #: query's only one, certifies.
    ONE_BATCH = {
        "fail": (Family.ISOTROPIC_LAPLACE, 0.0, 3, True),
        "later-guess": (Family.UNIFORM_BALL, 1.2, 1, False),
    }

    @pytest.mark.parametrize("case", list(ONE_BATCH))
    def test_a_query_draws_one_warm_batch(self, monkeypatch, case):
        # The only band draws are the warm-start batch of the query's first
        # guess, once, and the scan stream's rounds; the ledger charges
        # warm_samples once plus the rows of those rounds.
        family, theta0, seed, noisy = self.ONE_BATCH[case]
        marg = MarginalSpec(family, 3)
        noise = margin_power_law(0.5, marg) if noisy else constant_rate(0.5, 0.0)
        target = np.array([math.cos(theta0), math.sin(theta0), 0.0])
        inst = InstanceSpec(marg, target, noise, seed)
        oracle = LogConcaveWarmStartOracle(
            inst, well_behaved_params(marg), noise,
            samples_per_round=20_000, warm_samples=100_000, seed=seed,
        )
        oracle.MAX_ITERS = 3
        drawn = []
        band_points = synthetic._band_points

        def recorded(spec, n, w, lo, hi, batch):
            drawn.append((batch, n))
            return band_points(spec, n, w, lo, hi, batch)

        monkeypatch.setattr(synthetic, "_band_points", recorded)
        searches = []
        search = learner.search_certificate

        def recorded_search(stream, band, *args):
            searches.append(band)
            return search(stream, band, *args)

        monkeypatch.setattr(learner, "search_certificate", recorded_search)
        witness = oracle.query(E1_3, 0.15, 0.05)
        scan = range(batch_base("warm_oracle", seed), oracle._stream._batch)
        assert sorted(drawn) == sorted(
            [(batch_base("warm_start", seed + 104_729), 100_000)]
            + [(b, 20_000) for b in scan]
        )
        assert oracle._stream.drawn == 20_000 * len(scan)
        assert oracle.samples_drawn == oracle._stream.drawn + 100_000
        if case == "fail":
            assert witness is None
        else:
            assert witness is not None
            [band] = searches
            guess = warm_guesses(0.15)[2]
            assert band.rho == search_band(E1_3, guess, oracle.params).rho

    @pytest.mark.parametrize("family", [Family.ISOTROPIC_LAPLACE, Family.UNIFORM_BALL])
    def test_each_guess_sees_the_raw_rows_in_its_band(self, monkeypatch, family):
        # The query's raw batch is the full batch at its first guess's
        # warm-start index; each guess's warm start keeps exactly the rows
        # of it in that guess's own band, projected off w (at w = e1 the
        # projection zeroes the first coordinate, so the bits are exact).
        marg = MarginalSpec(family, 3)
        inst = InstanceSpec(marg, E1_3, margin_power_law(0.5, marg), 3)
        oracle = LogConcaveWarmStartOracle(
            inst, well_behaved_params(marg), inst.noise,
            samples_per_round=20_000, warm_samples=100_000, seed=3,
        )
        oracle.MAX_ITERS = 1
        projected = []
        project = warmstart.random_band_project

        def recorded(batch, w, cfg):
            out = project(batch, w, cfg)
            projected.append((cfg, out))
            return out

        monkeypatch.setattr(warmstart, "random_band_project", recorded)
        oracle.query(E1_3, 0.15, 0.05)
        raw = sample_batch(
            inst, 100_000, batch=batch_base("warm_start", 3 + 104_729)
        ).x
        assert len(projected) == len(warm_guesses(0.15))
        assert len({cfg.x0 for cfg, _ in projected}) == len(projected)
        for cfg, out in projected:
            inside = raw[(raw[:, 0] >= cfg.x0) & (raw[:, 0] <= cfg.x0 + cfg.s_prime)]
            assert out.n_input == 100_000 and len(inside) > 0
            np.testing.assert_array_equal(out.x, inside * [0.0, 1.0, 1.0])

    def test_laplace_honest_fail_charges_one_warm_batch(self):
        # The benchmark's learn-laplace-warm query at small sizes: at its
        # target every guess finds no direction, and the random pair runs
        # all its rounds without a witness.
        marg = MarginalSpec(Family.ISOTROPIC_LAPLACE, 5)
        target = np.random.default_rng(11).standard_normal(5)
        target /= np.linalg.norm(target)
        noise = margin_power_law(0.5, marg)
        inst = InstanceSpec(marg, target, noise, seed=11)
        oracle = LogConcaveWarmStartOracle(
            inst, well_behaved_params(marg), noise,
            samples_per_round=20_000, warm_samples=40_000, seed=11,
        )
        assert oracle.query(target, 0.15, 0.05) is None
        assert oracle.samples_drawn == 40_000 + oracle.MAX_ITERS * 20_000


class TestWarmOracleCompleteness:
    """The warm oracle certifies on the log-concave families: the cells of
    ``tools/warm_cells.py`` at 0.7 rad, with fewer fresh rows."""

    @pytest.mark.parametrize("family", [Family.ISOTROPIC_LAPLACE, Family.UNIFORM_BALL])
    def test_nine_of_ten_queries_certify_at_0_7_rad(self, family):
        # Ten queries at d = 5, margin-power-law noise (alpha 0.5, scale
        # 0.5), 200k-row rounds and 400k warm samples, w turned 0.7 rad from
        # a Gaussian target.  A witness counts only when its margin terms
        # average below 0 on 200k fresh rows (4-6 standard errors below at
        # every witness here).
        d, hits = 5, 0
        marg = MarginalSpec(family, d)
        noise = margin_power_law(0.5, marg, scale=0.5)
        for i in range(10):
            target = np.random.default_rng(100 + i).standard_normal(d)
            target /= np.linalg.norm(target)
            u = np.random.default_rng(5000 + i).standard_normal(d)
            u = orth_component(u, target)
            w = math.cos(0.7) * target + math.sin(0.7) * u
            inst = InstanceSpec(marg, target, noise, seed=200 + i)
            oracle = LogConcaveWarmStartOracle(
                inst, well_behaved_params(marg), noise,
                samples_per_round=200_000, warm_samples=400_000, seed=300 + i,
            )
            witness = oracle.query(w / np.linalg.norm(w), 0.15, 0.05)
            if witness is not None:
                fresh = sample_batch(inst, 200_000, batch=9_900_001)
                hits += float(np.mean(witness.margin_terms(fresh))) < 0.0
        assert hits >= 9
