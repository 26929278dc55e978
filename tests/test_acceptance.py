"""End-to-end acceptance checks, one verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see every line.
Each check uses fixed streams, so outcomes are reproducible bit for bit.
Checks 06 and 09 are known-red: they encode expectations the measured
dynamics and estimator statistics do not support; their docstrings
carry the analysis and the tests fail honestly rather than being
loosened to pass.
"""

import json
import math
import time

import numpy as np

from stableou import (
    BoundInputs,
    NeighborPair,
    QuadraticProblem,
    RngStream,
    SimConfig,
    StableParams,
    StationaryCharFn,
    SweepConfig,
    aggregate_median_iqr,
    cauchy_doubling_check,
    char_fn_diff_bound_1d,
    char_fn_diff_bound_dd,
    char_fn_diff_exact,
    digamma,
    empirical_char_fn,
    empirical_stability_gap,
    estimate_tail_index,
    exact_stability_gap,
    gamma_fn,
    read_run_records,
    replay_record,
    run_synthetic_sweep,
    sample_sas_scalar,
    stationary_sample,
    upper_bound_1d,
    upper_bound_dd,
    variance_threshold,
)
from stableou.cli import run_cli

EULER_GAMMA = 0.57721566490153286


def verdict(num: int, name: str, ok: bool, detail: str) -> bool:
    print(f"[{'PASS' if ok else 'FAIL'}] {num:02d} {name}: {detail}")
    return ok


def test_01_scalar_stationary_char_fn_agreement():
    details = []
    ok = True
    for i, alpha in enumerate([1.2, 1.5, 1.8, 2.0]):
        t0 = time.time()
        problem = QuadraticProblem(np.ones(100))
        steps, n_samples = 100000, 10000
        sim = SimConfig(eta=0.01, steps=steps, alpha=alpha, noise_scale=1.0)
        burn = int(math.ceil(10.0 / 0.01))
        thinning = max(1, (steps - burn) // n_samples)
        samples = stationary_sample(
            problem, sim, RngStream(100 + i), n_samples, thinning=thinning
        )
        gap = max(
            abs(empirical_char_fn(samples[:, 0], u) - math.exp(-abs(u) ** alpha / alpha))
            for u in np.linspace(-3.0, 3.0, 25)
        )
        elapsed = time.time() - t0
        ok &= gap <= 0.05 and elapsed < 60.0
        details.append(f"alpha {alpha}: gap {gap:.4f} ({elapsed:.1f}s)")
    assert verdict(1, "scalar stationary char fn within 0.05", ok, "; ".join(details))


def test_02_identity_drift_closed_form():
    worst = 0.0
    for d in (2, 10):
        for alpha in (1.1, 1.5, 2.0):
            sc = StationaryCharFn(np.eye(d), alpha)
            gen = RngStream(110 + d).generator
            for _ in range(100):
                u = gen.standard_normal(d)
                exact = math.exp(-float(np.linalg.norm(u)) ** alpha / alpha)
                worst = max(worst, abs(sc.evaluate(u) - exact) / exact)
    ok = worst <= 1e-6
    assert verdict(2, "identity-drift char fn matches closed form", ok,
                   f"worst relative error {worst:.3g} (tolerance 1e-6)")


def test_03_special_function_values():
    checks = [
        (gamma_fn(0.5), math.sqrt(math.pi)),
        (gamma_fn(5.0), 24.0),
        (digamma(1.0), -EULER_GAMMA),
        (digamma(0.5), -EULER_GAMMA - 2.0 * math.log(2.0)),
    ]
    worst = max(abs(got - want) for got, want in checks)
    ok = worst <= 1e-10
    assert verdict(3, "gamma/digamma reference values", ok,
                   f"worst absolute error {worst:.3g} (tolerance 1e-10)")


def test_04_variance_threshold_controls_monotonicity():
    t0 = time.time()
    level = variance_threshold(1.5, 1.0)
    grid = np.linspace(1.5, 1.99, 50)
    drops = []
    for sigma_sq in (level, 1.0):
        values = [
            float(upper_bound_1d(BoundInputs(R=1.0, n=1000, p=1.0, alpha=a, sigma2=sigma_sq)))
            for a in grid
        ]
        # The left end of the first step down by more than 1e-12 relative, if any.
        drops.append(next((
            float(a) for a, v, w in zip(grid, values, values[1:])
            if w < v - 1e-12 * max(abs(v), abs(w))
        ), None))
    mono_at_threshold, witness = drops[0] is None, drops[1]
    elapsed = time.time() - t0
    ok = mono_at_threshold and witness is not None and elapsed < 1.0
    assert verdict(4, "threshold variance flips alpha-monotonicity", ok,
                   f"threshold {level:.4f} nondecreasing={mono_at_threshold}; "
                   f"sigma^2=1 violation at alpha={witness} ({elapsed:.2f}s)")


def test_05_char_fn_diff_bounds_dominate_exact():
    t0 = time.time()
    alphas = [1.2, 1.5, 1.8, 2.0]
    violations = 0
    worst = 0.0
    for k in range(1000):
        gen = RngStream(800 + k).generator
        d = 1 + k % 5
        n = int(gen.integers(100, 301))
        v = gen.uniform(1.0, 3.0)
        alpha = alphas[k % 4]
        X = gen.normal(0.0, math.sqrt(v), (n, d))
        X_hat = X.copy()
        X_hat[0] = gen.normal(0.0, math.sqrt(v), d)
        pair = NeighborPair(X, X_hat)
        us = gen.normal(size=(10, d))
        us *= (gen.uniform(0.2, 1.5, 10) / np.linalg.norm(us, axis=1))[:, None]
        for u in us:
            exact = char_fn_diff_exact(pair, alpha, u if d > 1 else float(u[0]))
            if d == 1:
                bound = char_fn_diff_bound_1d(pair, alpha, float(u[0]))
            else:
                bound = char_fn_diff_bound_dd(pair, alpha, u)
            # rel 1e-6 slack covers quadrature resolution where the bound is tight
            if exact > bound * (1.0 + 1e-6):
                violations += 1
            if bound > 0:
                worst = max(worst, exact / bound)
    elapsed = time.time() - t0
    ok = violations == 0 and elapsed < 120.0
    assert verdict(5, "difference bounds dominate exact values", ok,
                   f"{violations} violations in 10000 comparisons, "
                   f"worst exact/bound {worst:.8f} ({elapsed:.1f}s)")


def test_06_generalization_error_shape_across_data_scales():
    """KNOWN RED by analysis, and red at its registered seed.

    The threshold algebra says heavy tails start helping only once the
    per-coordinate data variance a^2/12 exceeds variance_threshold(2,1)
    = 71.55, i.e. a > 29.3; a probe at a=40 (eta=0.001 for step-size
    stability) indeed yields a monotone INcreasing curve with argmin at
    alpha=1.1. Both legs here lie below the threshold, where alpha=2.0
    is the expected minimizer; at 400 replications (measured with the
    per-step noise) the a=8 curve is monotone decreasing, argmin 2.0.

    The sweep shares each replication's training resample, subordinator
    uniforms and exponentials and Gaussian h across alpha (common random
    numbers), so the alpha curve's differences no longer carry the full
    replication noise. This protocol now reads a=8 argmin alpha=2.0 and
    a=1 argmin alpha=2.0, the shape the algebra predicts below a = 29.3,
    and the check fails. Both median curves fall monotonically in alpha:
    a=1 from 0.306 at 1.1 to 0.0502 at 1.9 and 0.0425 at 2.0, a=8 from
    0.0593 to 0.0357 and 0.0310. Paired by replication, the error at 1.9
    exceeds the one at 2.0 in 41 of 50 replications at a=1, and in 25 of
    50 at a=8, so the a=8 leg's argmin is the weaker evidence. With an
    independent seed per record this seed read 1.9 at both legs and
    passed, by sampling noise. Nothing was re-tuned or reseeded either way.
    """
    t0 = time.time()
    cfg = SweepConfig(
        alpha_grid=tuple(np.round(np.linspace(1.1, 2.0, 10), 10)),
        a_grid=(1.0, 8.0),
        d_grid=(100,),
        n=1000,
        population_size=100000,
        replications=50,
        p=1.0,
        eta=0.1,
        steps=3000,
        noise_scale=0.1,
        master_seed=0,
    )
    table = aggregate_median_iqr(run_synthetic_sweep(cfg))
    argmin = {}
    for a in (1.0, 8.0):
        rows = sorted((r for r in table if r["a"] == a), key=lambda r: r["alpha"])
        medians = [r["median"] for r in rows]
        argmin[a] = rows[int(np.nanargmin(medians))]["alpha"]
    elapsed = time.time() - t0
    interior_at_8 = 1.1 < argmin[8.0] < 2.0
    off_two_at_1 = argmin[1.0] != 2.0
    ok = interior_at_8 and off_two_at_1 and elapsed < 1800.0
    assert verdict(6, "error-vs-tail-index shape across data scales", ok,
                   f"a=8 argmin alpha={argmin[8.0]:.1f} (interior={interior_at_8}); "
                   f"a=1 argmin alpha={argmin[1.0]:.1f} (off-2.0={off_two_at_1}) "
                   f"({elapsed:.0f}s)")


def test_07_stability_gap_decays_like_one_over_n():
    t0 = time.time()
    ns = [250, 500, 1000, 2000]
    gaps = []
    for i, n in enumerate(ns):
        X = np.ones(n)
        X_hat = X.copy()
        X_hat[0] = 2.0
        pair = NeighborPair(X, X_hat)
        sim = SimConfig(eta=0.005, steps=4000, alpha=1.5, noise_scale=1.0)
        est = empirical_stability_gap(
            pair, np.array([[1.0]]), 1.0, 1.5, sim, 10000, RngStream(600 + i)
        )
        gaps.append(abs(est.gap))
    slope = float(np.polyfit(np.log(ns), np.log(gaps), 1)[0])
    elapsed = time.time() - t0
    ok = -1.3 <= slope <= -0.7
    assert verdict(7, "stability gap decays like 1/n", ok,
                   f"log-log slope {slope:.3f} over n in {ns} ({elapsed:.0f}s)")


def test_08_moment_divergence_is_detected():
    t0 = time.time()
    problem = QuadraticProblem(np.ones(100))
    n_samples, thinning = 100000, 10
    steps = 100 + thinning * n_samples + 10
    sim = SimConfig(eta=0.1, steps=steps, alpha=1.5, noise_scale=1.0)
    samples = stationary_sample(problem, sim, RngStream(311), n_samples, thinning=thinning)[:, 0]
    ok_low, change_low = cauchy_doubling_check(np.abs(samples) ** 1.0, initial_window=1000)
    ok_high, change_high = cauchy_doubling_check(np.abs(samples) ** 1.8, initial_window=1000)
    elapsed = time.time() - t0
    ok = ok_low and not ok_high
    assert verdict(8, "doubling-window check separates p<alpha from p>alpha", ok,
                   f"p=1.0 change {change_low:.3f} (<0.1 required), "
                   f"p=1.8 change {change_high:.3f} (>0.1 required) ({elapsed:.0f}s)")


def test_09_tail_estimator_concentration():
    """KNOWN RED at alpha 1.5 and 1.8.

    The estimator is unbiased here (measured bias under 0.005), but its
    sampling std at K1=K2=100 is 0.049 / 0.063 / 0.082 for alpha
    1.2 / 1.5 / 1.8, matching its asymptotic variance; the per-trial
    probability of landing within 0.1 is therefore 97.3% / 90.6% /
    77.0% (measured over 1000 trials). "At least 90 of 100" is then a
    coin flip at alpha=1.5 and has probability ~5e-4 at alpha=1.8, so
    this check cannot pass honestly at this sample size; widening the
    tolerance or fishing for a seed family would game it. Counts below
    are for the first-tried, registered family.
    """
    t0 = time.time()
    counts = {}
    for alpha in (1.2, 1.5, 1.8):
        hits = 0
        for trial in range(100):
            draws = sample_sas_scalar(
                StableParams(alpha=alpha, sigma=1.0), RngStream(400).fork(trial), size=10000
            )
            hits += abs(estimate_tail_index(draws, 100, 100).alpha_hat - alpha) <= 0.1
        counts[alpha] = hits
    constant = estimate_tail_index(np.full(10000, 3.0), 100, 100).alpha_hat
    elapsed = time.time() - t0
    ok = all(c >= 90 for c in counts.values()) and constant == 1.0
    assert verdict(9, "tail estimator within 0.1 in 90% of trials", ok,
                   "counts " + ", ".join(f"alpha {a}: {c}/100" for a, c in counts.items())
                   + f"; constant input -> {constant} ({elapsed:.0f}s)")


def test_10_empirical_gap_below_theoretical_bound():
    t0 = time.time()
    failures = []
    worst_ratio = 0.0
    for k in range(20):
        stream = RngStream(700 + k)
        gen = stream.generator
        d = 2 + k % 4
        n = int(gen.integers(100, 301))
        alpha = 1.5 if k % 2 == 0 else 1.8
        X = gen.normal(0.0, 1.0, (n, d))
        X_hat = X.copy()
        X_hat[0] = gen.normal(0.0, 1.0, d)
        pair = NeighborPair(X, X_hat)
        extra = gen.normal(size=(3, d))
        extra /= np.linalg.norm(extra, axis=1)[:, None]
        probes = np.vstack([np.eye(d), extra])
        sigma = float(max(np.max(np.sum(X**2, axis=1)), np.max(np.sum(X_hat**2, axis=1))))
        bound = upper_bound_dd(
            BoundInputs(R=1.0, n=n, p=1.0, alpha=alpha, sigma=sigma, sigma_min=pair.sigma_min)
        )
        sim = SimConfig(eta=0.05, steps=800, alpha=alpha, noise_scale=1.0)
        est = empirical_stability_gap(pair, probes, 1.0, alpha, sim, 4000, stream.fork(1))
        worst_ratio = max(worst_ratio, abs(est.gap) / bound)
        if abs(est.gap) > bound + 3.0 * est.stderr:
            failures.append(k)
    elapsed = time.time() - t0
    ok = not failures
    assert verdict(10, "measured gap within theoretical bound on 20 instances", ok,
                   f"worst gap/bound ratio {worst_ratio:.3f}, "
                   f"violations {failures or 'none'} ({elapsed:.0f}s)")


def test_11_sweep_replay_is_byte_identical(tmp_path):
    cfg = {
        "alpha_grid": [1.3, 1.9],
        "a_grid": [2.0],
        "d_grid": [3],
        "n": 50,
        "population_size": 500,
        "replications": 4,
        "eta": 0.1,
        "steps": 150,
        "noise_scale": 0.1,
        "master_seed": 12,
    }
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps(cfg))
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run_cli(["sweep", "--config", str(cfg_path), "--out", str(out1)]) == 0
    manifest_cfg = json.loads((out1 / "manifest.json").read_text())["config"]
    replay_path = tmp_path / "replay.json"
    replay_path.write_text(json.dumps(manifest_cfg))
    assert run_cli(["sweep", "--config", str(replay_path), "--out", str(out2)]) == 0
    identical = (out1 / "records.csv").read_bytes() == (out2 / "records.csv").read_bytes()

    # schedule independence: every record also reproduces in isolation
    sweep_cfg = SweepConfig(**{k: tuple(v) if isinstance(v, list) else v for k, v in cfg.items()})
    records = read_run_records(out1 / "records.csv")
    per_record = all(replay_record(sweep_cfg, r) == r for r in records)
    ok = identical and per_record
    assert verdict(11, "sweep replay reproduces records byte-identically", ok,
                   f"manifest replay identical={identical}, "
                   f"independent per-record replay={per_record}")


def test_12_exact_gap_tracks_the_upper_bound_in_alpha():
    """Claim (iii): the lower bound matches the upper bound in the tail index.

    Uniform stability is a sup over neighbour pairs, so one pair's exact gap
    max_z |E|theta^T z|^p - E|theta_hat^T z|^p| under the two stationary laws
    bounds it from below. Protocol, fixed before the first run: three 1-d
    pairs differing in row 0 (x = 1 with x_hat_0 = 2 and R = 2 at n = 250;
    x = 1 with x_hat_0 = 0.5 and R = 1 at n = 1000; x = linspace(0.5, 1.5)
    with x_hat_0 = 3 and R = 3 at n = 400), R covering every |x| as the 1-d
    bound assumes; sigma2 = max(mean x^2, mean x_hat^2); probe [[R]];
    p in {1, 1.5} with 20 tail indices from p + (2 - p)/20 to 2. It passes
    if upper_bound_1d dominates the exact gap everywhere and their ratio
    varies by at most 5% (max/min) over alpha for each pair and p. There is
    no Monte-Carlo leg: the gap is read off the stationary law.
    """
    t0 = time.time()
    pairs = [
        (np.ones(250), 2.0, 2.0),
        (np.ones(1000), 0.5, 1.0),
        (np.linspace(0.5, 1.5, 400), 3.0, 3.0),
    ]
    dominated = True
    ratios, spreads = [], []
    for X, x_hat0, R in pairs:
        X_hat = X.copy()
        X_hat[0] = x_hat0
        pair = NeighborPair(X, X_hat)
        sigma2 = max(float(np.mean(X**2)), float(np.mean(X_hat**2)))
        for p in (1.0, 1.5):
            row = []
            for alpha in np.linspace(p + (2.0 - p) / 20.0, 2.0, 20):
                upper = upper_bound_1d(
                    BoundInputs(R=R, n=X.size, p=p, alpha=float(alpha), sigma2=sigma2)
                )
                exact = exact_stability_gap(pair, [[R]], p, float(alpha))
                dominated &= upper >= exact
                row.append(upper / exact)
            ratios += row
            spreads.append(max(row) / min(row))
    elapsed = time.time() - t0
    ok = dominated and max(spreads) <= 1.05
    assert verdict(12, "exact gap tracks the upper bound in alpha", ok,
                   f"upper/exact in [{min(ratios):.4f}, {max(ratios):.4f}], "
                   f"worst max/min over alpha {max(spreads):.4f} (1.05 allowed), "
                   f"dominated={dominated} ({elapsed:.1f}s)")
