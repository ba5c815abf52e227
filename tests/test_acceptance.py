"""Top-level acceptance suite.

Each test checks one release criterion end to end and prints a single
``CRITERION n: PASS/FAIL (...)`` line with the measured quantity and runtime.
Criteria 5 and 8 also print each cell's mean regret as a multiple of
round-robin regret (``sum(gaps) / K * T``), which says whether the policy
learned there; their gates do not read it.
Run with ``pytest tests/test_acceptance.py`` (output capture is disabled in
the project config, so the lines print as the suite runs).
"""

from __future__ import annotations

import logging
import math
import time

import numpy as np

from htbandits import (
    AdaptiveTree,
    ExperimentConfig,
    MomentParams,
    NoiseHook,
    NoiseSource,
    PrivacyLedger,
    audit_run,
    central_se_schedule,
    local_se_schedule,
    make_central_shifted_arm,
    make_instance_for,
    make_pareto_instance,
    make_two_arm_hard_instance,
    moment_bound,
    private_ucb_radius,
    private_ucb_truncation,
    run_experiment,
    run_single,
    tree_noise_bound,
    write_csv,
)
from htbandits.mechanisms import TREE_SITE
from htbandits.seeding import REWARDS, TREE_NOISE, derive_stream

from conftest import schedule_sweep_grid
from test_audit import HalvingSource, clean_dprse, clean_dprucb, clean_ldprse


def _report(n: int, ok: bool, detail: str) -> None:
    print(f"CRITERION {n}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {n} failed: {detail}"


def _round_robin_ratio(setting: str, v: float, horizon: int, regret: float) -> float:
    """``regret`` over the regret of playing every arm ``horizon / K`` times."""
    gaps = make_instance_for(setting, v).gaps
    return regret / (math.fsum(gaps) / len(gaps) * horizon)


def zero_source() -> NoiseSource:
    return NoiseSource(hook=NoiseHook.ZERO)


def test_criterion_01_tree_estimates_are_exact_without_noise() -> None:
    start = time.perf_counter()
    mismatches = 0
    for stream in range(100):
        rng = derive_stream(101, stream)
        values = rng.integers(0, 9, size=4096)
        tree = AdaptiveTree(4096, 1.0, noise=zero_source())
        total = 0
        for value in values:
            total += int(value)
            tree.insert(float(value), 8.0)
            if tree.estimate != float(total):
                mismatches += 1
    elapsed = time.perf_counter() - start
    _report(
        1,
        mismatches == 0 and elapsed < 5.0,
        f"{mismatches} mismatches over 100 streams of 4096 rounds, {elapsed:.1f}s < 5s",
    )


def test_criterion_02_tree_noise_stays_inside_the_envelope() -> None:
    start = time.perf_counter()
    threshold = tree_noise_bound(1.0, 1.0, 1024, 0.05)
    violations = 0
    releases = 0
    for stream in range(2000):
        noise = NoiseSource(rng=derive_stream(202, stream))
        tree = AdaptiveTree(1024, 1.0, noise=noise)
        for _ in range(1024):
            tree.insert(0.0, 1.0)
            releases += 1
            if abs(tree.estimate) > threshold:
                violations += 1
    rate = violations / releases
    elapsed = time.perf_counter() - start
    _report(
        2,
        rate <= 0.05 and elapsed < 60.0,
        f"violation rate {rate:.4f} <= 0.05 over {releases} releases, "
        f"{elapsed:.1f}s < 60s",
    )


def test_criterion_03_laplace_tail_matches_its_closed_form() -> None:
    start = time.perf_counter()
    noise = NoiseSource(rng=derive_stream(303, 0))
    draws = np.array([noise.draw(1.0, TREE_SITE, 1.0, 1.0, 2) for _ in range(1_000_000)])
    worst = 0.0
    for t in (1.0, 2.0, 3.0):
        empirical = float(np.mean(np.abs(draws) >= t))
        worst = max(worst, abs(empirical - math.exp(-t)))
    elapsed = time.perf_counter() - start
    _report(
        3,
        worst <= 0.002 and elapsed < 10.0,
        f"max |empirical - exp(-t)| = {worst:.5f} <= 0.002, {elapsed:.1f}s < 10s",
    )


def test_criterion_04_index_radius_covers_the_true_mean() -> None:
    start = time.perf_counter()
    horizon, n, t, eps, runs = 10_000, 1000, 1000, 1.0, 500
    worst_rate = 0.0
    for arm_key, v in ((0, 0.5), (1, 1.0)):
        instance = make_pareto_instance("S1", v)
        model = instance.arms[0]
        truth = instance.means[0]
        params = MomentParams(u=instance.u, v=v)
        bounds = [
            private_ucb_truncation(params, eps, horizon, k) for k in range(1, n + 1)
        ]
        radius = private_ucb_radius(params, eps, horizon, n, t)
        violations = 0
        for run in range(runs):
            rng = derive_stream(404, run, arm=arm_key, purpose=REWARDS)
            rewards = [model.sample(rng) for _ in range(n)]
            noise = NoiseSource(
                rng=derive_stream(404, run, arm=arm_key, purpose=TREE_NOISE)
            )
            tree = AdaptiveTree(horizon, eps, noise=noise)
            for x, bound in zip(rewards, bounds):
                tree.insert(x if abs(x) <= bound else 0.0, bound)
            if truth > tree.estimate / n + radius:
                violations += 1
        worst_rate = max(worst_rate, violations / runs)
    allowed = 1.0 / t**4 + 0.02
    elapsed = time.perf_counter() - start
    _report(
        4,
        worst_rate <= allowed and elapsed < 120.0,
        f"one-sided violation rate {worst_rate:.4f} <= {allowed:.4f} "
        f"per tail index over {runs} runs, {elapsed:.1f}s < 120s",
    )


def test_criterion_05_elimination_keeps_the_optimal_arm() -> None:
    start = time.perf_counter()
    runs = 200
    instance = make_pareto_instance("S1", 0.9)
    optimal = instance.optimal_arm
    config = ExperimentConfig(
        algo="dprse",
        setting="S1",
        v=0.9,
        eps=1.0,
        horizon=100_000,
        reps=runs,
        base_seed=55,
        checkpoint_count=1,
        beta=0.1,
    )
    kept = 0
    regrets = []
    for rep in range(runs):
        trace, policy = run_single(config, rep, instance=instance, return_policy=True)
        regrets.append(trace.final_regret)
        committed = policy.committed_arm()
        if committed == optimal or (
            committed is None and optimal in policy.viable_arms
        ):
            kept += 1
    rate = kept / runs
    ratio = _round_robin_ratio("S1", 0.9, config.horizon, math.fsum(regrets) / runs)
    elapsed = time.perf_counter() - start
    _report(
        5,
        rate >= 0.88 and elapsed < 300.0,
        f"optimal arm committed or viable in {rate:.1%} of {runs} runs >= 88%, "
        f"mean regret {ratio:.3f}x round-robin, {elapsed:.1f}s < 300s",
    )


def test_criterion_06_hard_instances_match_their_analytic_values() -> None:
    def rel(got: float, want: float) -> float:
        return abs(got - want) / abs(want)

    worst = 0.0
    for v in (0.5, 0.75, 1.0):
        for delta in (0.05, 0.1, 0.15):
            instance = make_two_arm_hard_instance(delta, v, flavor="low")
            worst = max(
                worst,
                rel(instance.arms[0].mean(), 2.5 * delta),
                rel(instance.arms[1].mean(), 1.5 * delta),
                rel(moment_bound(instance.arms[0], v), 0.5),
            )
        for mu, delta in ((0.1, 0.05), (0.125, 0.0625)):
            arm = make_central_shifted_arm(mu, delta, v)
            worst = max(worst, rel(arm.mean(), mu + 2.0 * delta))
    _report(6, worst <= 1e-12, f"max relative error {worst:.2e} <= 1e-12")


def test_criterion_07_epoch_accuracy_beats_half_the_target_gap() -> None:
    start = time.perf_counter()
    logger = logging.getLogger("htbandits.schedules")
    previous = logger.level
    logger.setLevel(logging.ERROR)  # the sweep intentionally hits saturation
    checked = saturated = bad = 0
    try:
        for u, v, eps, beta, num_viable, epoch in schedule_sweep_grid():
            params = MomentParams(u=u, v=v)
            central = central_se_schedule(params, eps, beta, num_viable, epoch)
            local = local_se_schedule(params, eps, beta, num_viable, epoch)
            for sched in (central, local):
                if not (
                    sched.pulls_per_arm >= 1
                    and math.isfinite(sched.truncation)
                    and sched.truncation > 0.0
                    and math.isfinite(sched.accuracy)
                    and sched.accuracy > 0.0
                ):
                    bad += 1
            for sched, mult, gap in (
                (central, 12.0, 2.0**-epoch),
                (local, 14.0, 4.0**-epoch),
            ):
                if sched.saturated:
                    saturated += 1
                    continue
                checked += 1
                if not mult * sched.accuracy <= gap / 2.0:
                    bad += 1
    finally:
        logger.setLevel(previous)
    elapsed = time.perf_counter() - start
    _report(
        7,
        bad == 0 and checked > 0 and elapsed < 1.0,
        f"{bad} failures over {checked} unsaturated schedules "
        f"({saturated} saturated skipped), {elapsed:.2f}s < 1s",
    )


def test_criterion_08_elimination_beats_the_index_policy_on_the_grid() -> None:
    start = time.perf_counter()
    horizon, reps = 100_000, 30
    grid = [
        (setting, v, eps)
        for setting in ("S1", "S3")
        for v in (0.5, 0.9)
        for eps in (0.5, 1.0)
    ]
    means: dict = {}
    for algo in ("dprse", "dprucb"):
        for setting, v, eps in grid:
            config = ExperimentConfig(
                algo=algo,
                setting=setting,
                v=v,
                eps=eps,
                horizon=horizon,
                reps=reps,
                base_seed=88,
                checkpoint_count=1,
            )
            # A pooled run equals a sequential one bit for bit (criterion 10).
            _, summary = run_experiment(config, workers=2)
            means[(algo, setting, v, eps)] = summary.means[-1]
    ratios = {}
    for (algo, setting, v, eps), mean in means.items():
        ratios[algo, setting, v, eps] = ratio = _round_robin_ratio(setting, v, horizon, mean)
        print(
            f"criterion 8 cell {algo} {setting} v={v} eps={eps}: "
            f"mean regret {mean:.6g} = {ratio:.3f}x round-robin"
        )

    ordering_failures = []
    for cell in grid:
        if not means[("dprse", *cell)] < means[("dprucb", *cell)]:
            ordering_failures.append(("dprse<dprucb", cell))
    for setting, v, _ in grid:
        if not means[("dprse", setting, v, 0.5)] >= means[("dprse", setting, v, 1.0)]:
            ordering_failures.append(("eps", (setting, v)))
    for setting, _, eps in grid:
        if not means[("dprse", setting, 0.5, eps)] >= means[("dprse", setting, 0.9, eps)]:
            ordering_failures.append(("v", (setting, eps)))
    spans = {
        algo: "{:.3f}-{:.3f}x".format(
            min(r for cell, r in ratios.items() if cell[0] == algo),
            max(r for cell, r in ratios.items() if cell[0] == algo),
        )
        for algo in ("dprse", "dprucb")
    }
    elapsed = time.perf_counter() - start
    _report(
        8,
        not ordering_failures and elapsed < 1800.0,
        f"all {len(grid)} cells ordered, eps/v monotone, failures={ordering_failures}, "
        f"mean regret dprse {spans['dprse']} and dprucb {spans['dprucb']} round-robin, "
        f"{elapsed:.0f}s < 1800s",
    )


def test_criterion_09_audit_passes_clean_runs_and_catches_faults() -> None:
    start = time.perf_counter()
    problems = []
    for run in (clean_dprucb, clean_dprse, clean_ldprse):
        ledger = PrivacyLedger()
        run(ledger)
        if not audit_run(ledger).ok:
            problems.append(f"clean {run.__name__} flagged")
    for run in (clean_dprucb, clean_dprse, clean_ldprse):
        ledger = PrivacyLedger()
        run(ledger, cls=HalvingSource)
        if audit_run(ledger).ok:
            problems.append(f"halved scale in {run.__name__} missed")
    ledger = PrivacyLedger()
    clean_dprucb(ledger)
    ledger.record_insertion(0, owner=0, value=10.0, bound=1.0)
    if not any(f.site == "insertion" for f in audit_run(ledger).findings):
        problems.append("bound-violating insertion missed")
    elapsed = time.perf_counter() - start
    _report(
        9,
        not problems and elapsed < 60.0,
        f"3 clean runs pass, 4 faults caught, problems={problems}, "
        f"{elapsed:.1f}s < 60s",
    )


def test_criterion_10_reruns_are_bit_identical(tmp_path) -> None:
    start = time.perf_counter()
    config = ExperimentConfig(
        algo="dprucb",
        setting="S1",
        v=0.9,
        eps=1.0,
        horizon=300,
        reps=3,
        base_seed=9,
        checkpoint_count=10,
    )
    instance = make_instance_for(config.setting, config.v)
    first_traces, first_summary = run_experiment(config, workers=1)
    write_csv(tmp_path / "a", config, instance, first_traces, first_summary)
    second_traces, second_summary = run_experiment(config, workers=1)
    write_csv(tmp_path / "b", config, instance, second_traces, second_summary)
    identical = (tmp_path / "a.runs.csv").read_bytes() == (
        tmp_path / "b.runs.csv"
    ).read_bytes()
    parallel_traces, _ = run_experiment(config, workers=2)
    parallel_agrees = parallel_traces == first_traces
    elapsed = time.perf_counter() - start
    _report(
        10,
        identical and parallel_agrees,
        f"rerun csv identical={identical}, parallel==sequential={parallel_agrees}, "
        f"{elapsed:.1f}s",
    )