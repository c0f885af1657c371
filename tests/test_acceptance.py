"""Acceptance gate: ten statistical and algebraic criteria, one verdict each.

Every criterion prints one ``ACCEPTANCE n: PASS/FAIL`` line (echoed in the
terminal summary) and asserts the same condition, with its tolerance stated
in the test's docstring.  All randomness is seeded, so the verdicts are
reproducible bit-for-bit; statistical checks use 3-standard-error slack
unless noted.  Oracles here are independent of the library internals: window
values, identities, and bounds are recomputed from raw samples.
"""

from __future__ import annotations

import json
import math
import time
from itertools import product

import numpy as np
import pytest

from conftest import ACCEPTANCE_LINES
from oracles import orth_component
from tsyblearn import cli
from tsyblearn.certificate import normalized_update
from tsyblearn.geometry import angle, perspective_projection_batch
from tsyblearn.learner import (
    LearnerConfig,
    LogConcaveWarmStartOracle,
    WellBehavedCertOracle,
    learn,
)
from tsyblearn.synthetic import (
    Family,
    InstanceSpec,
    MarginalSpec,
    SampleStream,
    adversarialish,
    batch_base,
    constant_rate,
    margin_power_law,
    noise_rates,
    sample_batch,
    well_behaved_params,
)
from tsyblearn.warmstart import (
    _rejection_indices,
    chow_parameters,
    psgd_stationary_point,
    standardize,
)


def _unit(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v)


def _draw(inst: InstanceSpec, n: int, batch: int):
    b = sample_batch(inst, n, batch=batch)
    return b.x, b.y


def _report(num: int, ok: bool, detail: str) -> None:
    line = f"ACCEPTANCE {num:2d}: {'PASS' if ok else 'FAIL'} — {detail}"
    ACCEPTANCE_LINES.append(line)
    print(line)
    assert ok, line


def _shared_instances():
    """Ten seeded instances: d in {2,5,10} x {Gaussian, logistic} x two noises."""
    out = []
    combos = list(
        product(
            (2, 5, 10),
            (Family.STANDARD_GAUSSIAN, Family.ISOTROPIC_LOGISTIC),
            ("cr", "mpl"),
        )
    )[:10]
    for i, (d, fam, kind) in enumerate(combos):
        marg = MarginalSpec(fam, d)
        rng = np.random.default_rng(1000 + i)
        target = _unit(rng.standard_normal(d))
        noise = (
            constant_rate(0.5, 0.2)
            if kind == "cr"
            else margin_power_law(0.5, marg, scale=0.5)
        )
        out.append((i, InstanceSpec(marg, target, noise, seed=2026 + i), kind))
    return out


def test_criterion_01_certifying_function_soundness():
    """At the true target, no random band-and-window value dips below -3 s.e.

    10 instances x 50 windows at n = 1e5 each; the certifying value is the
    mean of T(x) * y * <w*, x> with T the (1/margin)-weighted indicator of a
    random band on the margin and window on a random orthogonal coordinate,
    so each term is y on the support and 0 off it.  Gate: worst studentized
    value >= -3.  Runtime < 60 s.
    """
    t0 = time.perf_counter()
    worst = np.inf
    for i, inst, _kind in _shared_instances():
        x, y = _draw(inst, 100_000, 0)
        m = x @ inst.target
        rng = np.random.default_rng(7000 + i)
        for _ in range(50):
            v = orth_component(
                _unit(rng.standard_normal(inst.marginal.dimension)), inst.target
            )
            s1 = rng.uniform(0.1, 0.5)
            s2 = s1 * rng.uniform(1.2, 2.0)
            t2 = rng.uniform(0.5, 3.0)
            t1 = t2 * rng.uniform(1.2, 2.0)
            band = (m > s1) & (m <= s2)
            q = np.zeros_like(m)
            q[band] = (x[band] @ v) / m[band]
            support = band & (q >= -t1) & (q <= -t2)
            vals = np.where(support, y.astype(float), 0.0)
            se = vals.std(ddof=1) / math.sqrt(vals.size)
            if se > 0:
                worst = min(worst, float(vals.mean()) / se)
    wall = time.perf_counter() - t0
    ok = worst >= -3.0 and wall < 60.0
    _report(
        1,
        ok,
        f"soundness at the target: worst window t-stat {worst:+.2f} >= -3 "
        f"(10 instances x 50 windows, n=1e5) [{wall:.1f}s < 60s]",
    )


def test_criterion_02_certificate_completeness():
    """Random-init search certifies wrong candidates in >= 9/10 instances.

    Angles {0.3, 0.7, pi/2} between candidate and target; the oracle runs
    with per-round estimates of 200k samples (<= 1e6, the budget the round
    values are measured on; total stream consumption is reported per cell).
    A win requires a holdout-validated witness with negative stored value
    whose margin terms on 200k independent samples are not significantly
    positive (mean <= +3 s.e.).  Runtime < 600 s.
    """
    t0 = time.perf_counter()
    per_round = 200_000
    assert per_round <= 1_000_000
    summary = []
    all_ok = True
    for theta in (0.3, 0.7, math.pi / 2):
        wins = 0
        totals = []
        for i, inst, _kind in _shared_instances():
            d = inst.marginal.dimension
            rng = np.random.default_rng(5000 + i)
            u = orth_component(_unit(rng.standard_normal(d)), inst.target)
            w = _unit(math.cos(theta) * inst.target + math.sin(theta) * u)
            oracle = WellBehavedCertOracle(
                inst,
                well_behaved_params(inst.marginal),
                inst.noise,
                samples_per_round=per_round,
                seed=33 + i,
            )
            handle = oracle.query(w, 0.1, 0.05)
            totals.append(oracle.samples_drawn)
            ok = handle is not None
            if ok:
                fresh = sample_batch(inst, 200_000, batch=777_000 + 100 * i)
                terms = handle.margin_terms(fresh)
                se = float(terms.std(ddof=1)) / math.sqrt(terms.size)
                ok = handle.value < 0 and (
                    se == 0 or float(terms.mean()) <= 3 * se
                )
            wins += ok
        all_ok = all_ok and wins >= 9
        summary.append(
            f"theta={theta:.2f}: {wins}/10 (draws {min(totals)//1000}k-"
            f"{max(totals)//1000}k)"
        )
    wall = time.perf_counter() - t0
    ok = all_ok and wall < 600.0
    _report(
        2,
        ok,
        "completeness >= 9/10 per angle: "
        + "; ".join(summary)
        + f" [{wall:.1f}s < 600s]",
    )


def test_criterion_03_separability_preservation():
    """Projected noiseless band samples obey the biased-halfspace rule exactly.

    d = 5 Gaussian, candidate at angle 0.7 from the target, band (0.2, 0.9]
    on the candidate margin; every survivor must satisfy
    y == sign(<u, pi_w(x)> + cot(theta)) with no tolerance, over >= 1e5
    samples.
    """
    t0 = time.perf_counter()
    d = 5
    rng = np.random.default_rng(301)
    w = _unit(rng.standard_normal(d))
    u = orth_component(_unit(rng.standard_normal(d)), w)
    theta = 0.7
    target = _unit(math.cos(theta) * w + math.sin(theta) * u)
    inst = InstanceSpec(
        MarginalSpec(Family.STANDARD_GAUSSIAN, d),
        target,
        constant_rate(0.5, 0.0),
        seed=302,
    )
    total = 0
    matches = 0
    batch = 0
    while total < 100_000:
        x, y = _draw(inst, 400_000, batch)
        batch += 1
        m = x @ w
        mask = (m > 0.2) & (m <= 0.9)
        z = perspective_projection_batch(x[mask], w)
        pred = np.sign(z @ u + 1.0 / math.tan(theta))
        matches += int(np.sum(pred == y[mask]))
        total += int(mask.sum())
    wall = time.perf_counter() - t0
    ok = matches == total and total >= 100_000
    _report(
        3,
        ok,
        f"separability: {matches}/{total} projected band samples match the "
        f"biased-halfspace sign exactly [{wall:.1f}s]",
    )


def test_criterion_04_step_size_improvement():
    """The normalized update gains at least lambda^2 beta^2 / 2 correlation.

    1000 random (v, v*, g) triples satisfying the preconditions
    (<g, v> = 0, <g, v*> >= c/beta, ||g|| <= beta, c <= beta^2 sin(theta));
    with lambda = c / (2 beta^3) the correlation gain must be at least
    lambda^2 beta^2 / 2 - 1e-12, zero failures.
    """
    t0 = time.perf_counter()
    rng = np.random.default_rng(401)
    worst_gap = np.inf
    for _ in range(1000):
        d = int(rng.integers(2, 12))
        vstar = _unit(rng.standard_normal(d))
        v = _unit(rng.standard_normal(d))
        if abs(v @ vstar) > 0.999:
            v = orth_component(v, vstar)
        sin_theta = math.sqrt(max(1e-12, 1.0 - float(v @ vstar) ** 2))
        beta = float(rng.uniform(1.0, 4.0))
        c = float(rng.uniform(0.05, 1.0)) * beta**2 * sin_theta
        along = orth_component(vstar, v)
        coeff = (c / beta) / float(along @ vstar)
        g = coeff * along
        extra = rng.standard_normal(d)
        extra -= (extra @ v) * v + (extra @ along) * along
        norm_extra = float(np.linalg.norm(extra))
        if norm_extra > 1e-9 and coeff < beta:
            room = math.sqrt(max(0.0, beta**2 - coeff**2))
            g = g + (float(rng.uniform(0.0, 1.0)) * room / norm_extra) * extra
        assert abs(g @ v) <= 1e-9
        assert g @ vstar >= c / beta - 1e-9
        assert np.linalg.norm(g) <= beta + 1e-9
        lam = c / (2.0 * beta**3)
        v_next = normalized_update(v, g, lam)
        gain = float(v_next @ vstar) - float(v @ vstar)
        worst_gap = min(worst_gap, gain - lam**2 * beta**2 / 2.0)
    wall = time.perf_counter() - t0
    ok = worst_gap >= -1e-12
    _report(
        4,
        ok,
        f"step-size gain: worst slack {worst_gap:+.2e} >= -1e-12 over 1000 "
        f"feasible triples [{wall:.1f}s]",
    )


def _projected_band_gaussian(n: int, seed: int, d: int = 5, phi_deg: float = 14.0,
                             a: float = 0.1, b: float = 4.0) -> np.ndarray:
    """Band-conditioned Gaussian pushed to the candidate's complement.

    The target direction u is tilted phi degrees from e1; conditioning the
    first coordinate to the band (a, b] and projecting out u leaves a
    (d-1)-dimensional sample whose mean is pushed along the leaked target
    component — the anisotropic input the isotropizer must fix.
    """
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, d))
    phi = math.radians(phi_deg)
    u = np.zeros(d)
    u[0], u[1] = math.cos(phi), math.sin(phi)
    basis = np.linalg.svd(np.eye(d) - np.outer(u, u))[0][:, : d - 1]
    keep = (x[:, 0] > a) & (x[:, 0] <= b)
    kept = x[keep]
    return (kept - np.outer(kept @ u, u)) @ basis


def test_criterion_05_isotropization():
    """PSGD + rejection pulls a 0.2-mean band projection back to isotropy.

    Gates: initial projected mean norm >= 0.2; accepted mean norm <= 0.05 at
    1e5 accepted samples; acceptance rate >= 0.05; whitened-output holdout
    second-moment eigenvalues within [0.9, 1.1] (whitening fit on the first
    half of the accepted sample, evaluated on the second half — the pipeline's
    own standardize step delivers the O(1) moment bound); PSGD tilt within
    20% of a 401-point 1-d grid search along the dominant direction.
    Runtime < 300 s.
    """
    t0 = time.perf_counter()
    train = _projected_band_gaussian(400_000, seed=1)
    mean0 = float(np.linalg.norm(train.mean(axis=0)))
    reweighter = psgd_stationary_point(train, gamma=0.02, iters=4000, seed=2)
    fresh = _projected_band_gaussian(500_000, seed=3)
    idx = _rejection_indices(fresh, reweighter.r, 100_000, np.random.default_rng(4))
    accepted, rate = fresh[idx], len(idx) / (int(idx[-1]) + 1)
    mean_acc = float(np.linalg.norm(accepted.mean(axis=0)))

    half = len(accepted) // 2
    _, mean_fit, cov_root = standardize(accepted[:half])
    z2 = np.linalg.solve(cov_root, (accepted[half:] - mean_fit).T).T
    eigs = np.linalg.eigvalsh(z2.T @ z2 / len(z2))

    dominant = _unit(train.mean(axis=0))
    proj = train @ dominant
    grid = np.linspace(0.0, 2.0, 401)
    objective = [
        abs(float(np.mean(np.minimum(1.0, np.exp(-g * proj)) * proj)))
        for g in grid
    ]
    r_grid = float(grid[int(np.argmin(objective))])
    r_dom = float(reweighter.r @ dominant)
    rel = abs(r_dom - r_grid) / r_grid

    wall = time.perf_counter() - t0
    ok = (
        mean0 >= 0.2
        and mean_acc <= 0.05
        and rate >= 0.05
        and float(eigs.min()) >= 0.9
        and float(eigs.max()) <= 1.1
        and rel <= 0.2
        and wall < 300.0
    )
    _report(
        5,
        ok,
        f"isotropization: mean {mean0:.3f}->{mean_acc:.4f} (<=0.05), rate "
        f"{rate:.3f} (>=0.05), whitened holdout eigs [{eigs.min():.3f}, "
        f"{eigs.max():.3f}] in [0.9,1.1], grid-oracle gap {rel:.3f} <= 0.2 "
        f"[{wall:.1f}s < 300s]",
    )


def test_criterion_06_chow_identity_and_warm_start(tmp_path):
    """Label moments: exact quadratic identity, closed form, warm-start hits.

    (a) a<u,T1> + b u'T2u equals E[y p(x)] on shared samples within 1e-9;
    (b) for a noiseless Gaussian halfspace, T1 matches sqrt(2/pi) w* within
    3 s.e. per coordinate at n = 2e5; (c) the warm-start command at d = 3,
    initial angle 1.3, noiseless, reaches signed correlation >= 0.05 with the
    certificate direction in >= 6/20 seeded runs.
    """
    t0 = time.perf_counter()
    d = 4
    rng = np.random.default_rng(601)
    target = _unit(rng.standard_normal(d))
    inst = InstanceSpec(
        MarginalSpec(Family.STANDARD_GAUSSIAN, d),
        target,
        constant_rate(0.5, 0.0),
        seed=602,
    )
    x, y = _draw(inst, 200_000, 0)
    chow = chow_parameters(x, y)
    u = _unit(rng.standard_normal(d))
    a, b = 0.7, -1.3
    lhs = a * float(u @ chow.T1) + b * float(u @ chow.T2 @ u)
    poly = a * (x @ u) + b * ((x @ u) ** 2 - 1.0)
    identity_gap = abs(lhs - float(np.mean(y * poly)))

    t1_err = np.abs(chow.T1 - math.sqrt(2.0 / math.pi) * target)
    se = np.std(y[:, None] * x, axis=0, ddof=1) / math.sqrt(len(y))
    t1_sigmas = float(np.max(t1_err / se))

    code = cli.main(
        ["warmstart", "--output-dir", str(tmp_path), "-d", "3", "--theta0",
         "1.3", "--eta0", "0.0", "--epsilon", "0.2", "--repeats", "20",
         "--seed", "0"]
    )
    payload = json.loads((tmp_path / "warmstart.json").read_text())
    hits = payload["hits_at_0.05"]

    wall = time.perf_counter() - t0
    ok = (
        identity_gap <= 1e-9
        and t1_sigmas <= 3.0
        and code == cli.EXIT_OK
        and hits >= 6
    )
    _report(
        6,
        ok,
        f"label moments: identity gap {identity_gap:.1e} <= 1e-9, degree-1 "
        f"closed form within {t1_sigmas:.2f} s.e. (<=3), warm-start hits "
        f"{hits}/20 >= 6 [{wall:.1f}s]",
    )


@pytest.fixture(scope="session")
def end_to_end_runs():
    """30 seeded end-to-end learns: the shared evidence for criteria 7 and 8.

    Constant-rate 0.2 with both oracle paths at 200k per round, and
    margin-power-law with the well-behaved oracle at 12k per round where the
    total stream consumption must stay within 1e6 per run.  Zero start (the
    pipeline default) throughout; epsilon = 0.15.
    """
    d = 5
    marg = MarginalSpec(Family.STANDARD_GAUSSIAN, d)
    params = well_behaved_params(marg)
    runs = []
    wall0 = time.perf_counter()
    for rep in range(10):
        rng = np.random.default_rng(7700 + rep)
        target = _unit(rng.standard_normal(d))
        noise = margin_power_law(0.5, marg, scale=0.5)
        inst = InstanceSpec(marg, target, noise, seed=7800 + rep)
        oracle = WellBehavedCertOracle(
            inst, params, noise, samples_per_round=12_000, seed=7900 + rep
        )
        cfg = LearnerConfig(epsilon=0.15, seed=7950 + rep, start="zero")
        stream = SampleStream(inst, batch_base("learner", cfg.seed))
        w_hat, trace = learn(stream, oracle, cfg)
        per_round = max(1, cfg.samples_n // cfg.max_rounds)
        used = len(trace.rounds) * per_round + oracle.samples_drawn
        runs.append(
            ("mpl", rep, angle(_unit(w_hat), target), used, trace, target)
        )
    for name, oracle_cls in (
        ("cr-wb", WellBehavedCertOracle),
        ("cr-lc", LogConcaveWarmStartOracle),
    ):
        for rep in range(10):
            rng = np.random.default_rng(7300 + rep)
            target = _unit(rng.standard_normal(d))
            noise = constant_rate(0.5, 0.2)
            inst = InstanceSpec(marg, target, noise, seed=7400 + rep)
            oracle = oracle_cls(
                inst, params, noise, samples_per_round=200_000, seed=7500 + rep
            )
            cfg = LearnerConfig(epsilon=0.15, seed=7600 + rep, start="zero")
            stream = SampleStream(inst, batch_base("learner", cfg.seed))
            w_hat, trace = learn(stream, oracle, cfg)
            runs.append(
                (name, rep, angle(_unit(w_hat), target), None, trace, target)
            )
    return runs, time.perf_counter() - wall0


def test_criterion_07_end_to_end_learning(end_to_end_runs):
    """The pipeline lands within epsilon = 0.15 of the target.

    Gates: constant-rate >= 8/10 with each oracle path; margin-power-law
    >= 7/10 with every winning run consuming <= 1e6 samples in total.
    Runtime < 1800 s for all 30 runs.
    """
    runs, wall = end_to_end_runs
    counts = {}
    budget_ok = True
    for name, _rep, final_angle, used, _trace, _target in runs:
        win = final_angle <= 0.15
        if name == "mpl":
            win = win and used <= 1_000_000
            budget_ok = budget_ok and used <= 1_000_000
        counts[name] = counts.get(name, 0) + win
    ok = (
        counts["cr-wb"] >= 8
        and counts["cr-lc"] >= 8
        and counts["mpl"] >= 7
        and wall < 1800.0
    )
    _report(
        7,
        ok,
        f"end-to-end: constant-rate {counts['cr-wb']}/10 (>=8 well-behaved) "
        f"and {counts['cr-lc']}/10 (>=8 warm-start), power-law "
        f"{counts['mpl']}/10 (>=7, totals <=1e6: {budget_ok}) "
        f"[{wall:.1f}s < 1800s]",
    )


def test_criterion_08_regret_ledger(end_to_end_runs):
    """Every completed trace satisfies the (3/2) G * 2 * sqrt(T) regret bound.

    Over the loss-revealing rounds (non-null gradient) of each trace, with
    linear losses l_t(u) = <g_t, u> recomputed from the recorded iterates:
    sum(l_t(w_t) - l_t(w*)) <= 3 G sqrt(T) + 1e-9 where G = max ||g_t||.
    """
    runs, _wall = end_to_end_runs
    worst_slack = np.inf
    checked = 0
    for _name, _rep, _final_angle, _used, trace, target in runs:
        grads = [
            (np.asarray(r.w, dtype=float), np.asarray(r.grad, dtype=float))
            for r in trace.rounds
            if r.grad is not None
        ]
        if not grads:
            continue
        regret = sum(float(g @ (w - target)) for w, g in grads)
        g_max = max(float(np.linalg.norm(g)) for _w, g in grads)
        bound = 3.0 * g_max * math.sqrt(len(grads))
        worst_slack = min(worst_slack, bound - regret)
        checked += 1
        assert regret <= bound + 1e-9
    ok = checked == len(runs) and worst_slack >= -1e-9
    _report(
        8,
        ok,
        f"regret ledger: {checked}/{len(runs)} traces within 3*G*sqrt(T), "
        f"worst slack {worst_slack:+.2e}",
    )


def test_criterion_09_monotonicity_sweeps(tmp_path, monkeypatch):
    """Median final angle improves with more data and tamer noise.

    Via the sweep command with repeats = 5: medians over n in {1e3, 1e4, 1e5}
    non-increasing, and the margin-power-law median at alpha = 0.8 not above
    the alpha = 0.5 one; at most one inversion tolerated across both sweeps.
    """
    t0 = time.perf_counter()
    monkeypatch.setenv("TSYBLEARN_WORKERS", "2")
    n_dir = tmp_path / "sweep-n"
    code_n = cli.main(
        ["sweep", "--output-dir", str(n_dir), "-d", "5", "--eta0", "0.2",
         "--epsilon", "0.15", "--start", "zero",
         "--sweep-n", "1000,10000,100000", "--repeats", "5", "--seed", "0"]
    )
    summary_n = json.loads((n_dir / "summary.json").read_text())
    medians = [
        summary_n[json.dumps({"n": n})]["median_final_angle"]
        for n in (1_000, 10_000, 100_000)
    ]
    inversions = sum(b > a for a, b in zip(medians, medians[1:]))

    a_dir = tmp_path / "sweep-alpha"
    code_a = cli.main(
        ["sweep", "--output-dir", str(a_dir), "-d", "5",
         "--noise", "margin_power_law", "--scale", "0.5",
         "--epsilon", "0.15", "--start", "zero", "--samples-n", "50000",
         "--sweep-alpha", "0.5,0.8", "--repeats", "5", "--seed", "0"]
    )
    summary_a = json.loads((a_dir / "summary.json").read_text())
    low = summary_a[json.dumps({"alpha": 0.5})]["median_final_angle"]
    high = summary_a[json.dumps({"alpha": 0.8})]["median_final_angle"]
    inversions += high > low

    wall = time.perf_counter() - t0
    ok = code_n == cli.EXIT_OK and code_a == cli.EXIT_OK and inversions <= 1
    _report(
        9,
        ok,
        f"monotone sweeps: n-medians {medians[0]:.3f}/{medians[1]:.3f}/"
        f"{medians[2]:.3f}, alpha-medians {low:.3f}->{high:.3f}, "
        f"{inversions} inversion(s) <= 1 [{wall:.1f}s]",
    )


def test_criterion_10_tsybakov_validity():
    """Every shipped noise profile obeys its declared tail and slab bounds.

    Six instances (three profiles x Gaussian d=5 / logistic d=3) at n = 1e6:
    (a) Pr[eta >= 1/2 - t] <= A t^{alpha/(1-alpha)} + 3 s.e. on the t-grid
    {0.05, 0.1, 0.2, 0.3, 0.4, 0.49}; (b) for 20 random slabs per instance,
    mean((1 - 2 eta) 1_S) + 3 s.e. >= C_alpha^A * mean(1_S)^{1/alpha}.
    """
    t0 = time.perf_counter()
    worst_tail = np.inf
    worst_slab = np.inf
    for j, (fam, d) in enumerate(
        ((Family.STANDARD_GAUSSIAN, 5), (Family.ISOTROPIC_LOGISTIC, 3))
    ):
        marg = MarginalSpec(fam, d)
        rng = np.random.default_rng(9100 + j)
        target = _unit(rng.standard_normal(d))
        profiles = (
            constant_rate(0.5, 0.2),
            margin_power_law(0.5, marg, scale=0.5),
            adversarialish(0.5),
        )
        for k, noise in enumerate(profiles):
            inst = InstanceSpec(marg, target, noise, seed=9200 + 10 * j + k)
            x, _ = _draw(inst, 1_000_000, 0)
            eta = noise_rates(inst, x)
            n = len(eta)
            for t in (0.05, 0.1, 0.2, 0.3, 0.4, 0.49):
                p_hat = float(np.mean(eta >= 0.5 - t))
                bound = noise.bigA * t**noise.exponent
                se = math.sqrt(max(p_hat * (1.0 - p_hat), 1e-12) / n)
                worst_tail = min(worst_tail, bound + 3 * se - p_hat)
            c_alpha = noise.alpha * (
                (1.0 - noise.alpha) / noise.bigA
            ) ** ((1.0 - noise.alpha) / noise.alpha)
            srng = np.random.default_rng(9300 + 10 * j + k)
            for _ in range(20):
                v = _unit(srng.standard_normal(d))
                lo = srng.uniform(-1.5, 1.0)
                hi = lo + srng.uniform(0.1, 1.5)
                ind = ((x @ v >= lo) & (x @ v <= hi)).astype(float)
                p_hat = float(ind.mean())
                if p_hat < 1e-4:
                    continue
                terms = ind * (1.0 - 2.0 * eta)
                lse = float(terms.std(ddof=1)) / math.sqrt(n)
                rhs = c_alpha * p_hat ** (1.0 / noise.alpha)
                worst_slab = min(
                    worst_slab, float(terms.mean()) + 3 * lse - rhs
                )
    wall = time.perf_counter() - t0
    ok = worst_tail >= 0.0 and worst_slab >= 0.0
    _report(
        10,
        ok,
        f"noise validity: worst tail slack {worst_tail:+.2e} >= 0, worst "
        f"slab slack {worst_slab:+.2e} >= 0 (6 instances, n=1e6) "
        f"[{wall:.1f}s]",
    )
