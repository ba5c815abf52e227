"""Experiment harness: schedules, determinism, hand-stepped runs, CSV output."""

from __future__ import annotations

import math

import pytest

from htbandits import (
    ExperimentConfig,
    FiniteSupportModel,
    RegretTrace,
    aggregate,
    checkpoint_schedule,
    make_instance,
    read_runs_csv,
    run_experiment,
    run_single,
    write_csv,
)
from htbandits.harness import RUNS_HEADER, SUMMARY_HEADER, make_instance_for


def two_point_mass_instance(low: float = 0.004, high: float = 0.02):
    """Two deterministic arms; the raw second moment of the larger one sets u."""
    arms = (
        FiniteSupportModel(((high, 1.0),)),
        FiniteSupportModel(((low, 1.0),)),
    )
    return make_instance(arms, v=1.0)


def small_config(**overrides) -> ExperimentConfig:
    base = dict(
        algo="dprucb",
        setting="S1",
        v=0.9,
        eps=1.0,
        horizon=400,
        reps=1,
        base_seed=3,
        checkpoint_count=25,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


# ---------------------------------------------------------------- schedules


def test_stride_checkpoints_cover_every_multiple_and_the_horizon() -> None:
    assert checkpoint_schedule(55, stride=10) == (10, 20, 30, 40, 50, 55)
    assert checkpoint_schedule(7, stride=1) == (1, 2, 3, 4, 5, 6, 7)
    assert checkpoint_schedule(1, stride=5) == (1,)


def test_geometric_checkpoints_are_increasing_and_end_at_the_horizon() -> None:
    cps = checkpoint_schedule(100_000, count=200)
    assert len(cps) <= 200
    assert all(a < b for a, b in zip(cps, cps[1:]))
    assert cps[0] >= 1
    assert cps[-1] == 100_000


def test_geometric_checkpoints_on_a_tiny_horizon() -> None:
    # rounding collapses neighbouring points, never past the horizon
    assert checkpoint_schedule(10, count=200) == (1, 2, 3, 4, 5, 6, 8, 10)


def test_checkpoint_schedule_rejects_bad_arguments() -> None:
    with pytest.raises(ValueError):
        checkpoint_schedule(0)
    with pytest.raises(ValueError):
        checkpoint_schedule(10, count=0)
    with pytest.raises(ValueError):
        checkpoint_schedule(10, stride=0)


# ------------------------------------------------------------ configuration


@pytest.mark.parametrize(
    "field,value",
    [
        ("algo", "bogus"),
        ("setting", "S9"),
        ("v", 0.0),
        ("v", 1.5),
        ("eps", 0.0),
        ("horizon", 0),
        ("reps", 0),
        ("base_seed", -1),
        ("checkpoint_count", 0),
        ("checkpoint_stride", 0),
        ("beta", 1.0),
    ],
)
def test_config_validation_rejects_bad_fields(field: str, value) -> None:
    with pytest.raises(ValueError):
        small_config(**{field: value})


def test_beta_defaults_to_one_over_the_horizon() -> None:
    assert small_config(horizon=250).resolved_beta == 1.0 / 250
    assert small_config(beta=0.05).resolved_beta == 0.05


def test_every_named_setting_builds_an_instance() -> None:
    for setting in ("S1", "S2", "S3", "two_arm_hard", "k_arm_hard"):
        instance = make_instance_for(setting, v=0.9)
        assert instance.num_arms >= 2
        assert instance.u > 0.0


# ------------------------------------------------------- hand-stepped runs


def test_elimination_run_matches_a_hand_stepped_trace() -> None:
    # Point-mass arms 0.02 / 0.004 give u = 0.02^2 and a first-phase length of
    # 6 pulls per arm.  Zero noise cannot separate a 0.016 gap from the phase-1
    # error allowance, so the run alternates arms for 12 rounds, then the
    # second phase (46 rounds) no longer fits in the 50-round budget and the
    # policy commits to the arm with the better released score.
    instance = two_point_mass_instance()
    config = ExperimentConfig(
        algo="dprse",
        setting="S1",
        v=1.0,
        eps=1.0,
        horizon=50,
        reps=1,
        base_seed=7,
        checkpoint_stride=1,
        beta=0.1,
        zero_noise=True,
    )
    trace, policy = run_single(config, 0, instance=instance, return_policy=True)
    gap = instance.gaps[1]
    expected = tuple((t, gap * (min(t, 12) // 2)) for t in range(1, 51))
    assert trace.checkpoints == expected
    assert policy.completed_epochs == [(1, 2, 6)]
    assert policy.committed_arm() == 0
    assert trace.final_regret == gap * 6


def test_budget_too_small_for_one_phase_commits_immediately() -> None:
    # 12 rounds needed, 10 available: the run commits at round one.  The
    # fallback is the lowest-indexed viable arm, here the optimal one.
    instance = two_point_mass_instance()
    config = ExperimentConfig(
        algo="dprse",
        setting="S1",
        v=1.0,
        eps=1.0,
        horizon=10,
        reps=1,
        base_seed=7,
        checkpoint_stride=1,
        beta=0.1,
        zero_noise=True,
    )
    trace, policy = run_single(config, 0, instance=instance, return_policy=True)
    assert policy.completed_epochs == []
    assert policy.committed_arm() == 0
    assert all(value == 0.0 for _, value in trace.checkpoints)


def test_central_budget_stretches_further_than_local() -> None:
    # Same instance, same budget, arm 0 suboptimal.  The central policy
    # finishes two phases and commits to the better arm from its released
    # scores; the local policy cannot afford even one phase, commits blind to
    # arm 0, and pays linear regret.
    arms = (
        FiniteSupportModel(((0.004, 1.0),)),
        FiniteSupportModel(((0.02, 1.0),)),
    )
    instance = make_instance(arms, v=1.0)
    common = dict(
        setting="S1",
        v=1.0,
        eps=1.0,
        horizon=100,
        reps=1,
        base_seed=5,
        checkpoint_count=1,
        beta=0.1,
        zero_noise=True,
    )
    central, central_policy = run_single(
        ExperimentConfig(algo="dprse", **common), 0, instance=instance, return_policy=True
    )
    local, local_policy = run_single(
        ExperimentConfig(algo="ldprse", **common), 0, instance=instance, return_policy=True
    )
    assert central_policy.committed_arm() == 1
    assert local_policy.committed_arm() == 0
    gap = instance.gaps[0]
    assert central.final_regret == gap * 29  # 6 + 23 pulls of arm 0
    assert local.final_regret == gap * 100
    assert central.final_regret < local.final_regret


# ------------------------------------------------------------- determinism


def test_single_run_is_bit_identical_on_rerun() -> None:
    config = small_config()
    first, policy_a = run_single(config, 3, return_policy=True)
    second, policy_b = run_single(config, 3, return_policy=True)
    assert first == second
    log_a = [(e.round, e.arm, e.reward, e.truncated_reward) for e in policy_a.transcript]
    log_b = [(e.round, e.arm, e.reward, e.truncated_reward) for e in policy_b.transcript]
    assert log_a == log_b


def test_different_reps_see_different_rewards() -> None:
    config = small_config()
    _, policy_a = run_single(config, 0, return_policy=True)
    _, policy_b = run_single(config, 1, return_policy=True)
    assert [e.reward for e in policy_a.transcript] != [e.reward for e in policy_b.transcript]


def test_parallel_execution_matches_sequential() -> None:
    config = small_config(horizon=300, reps=3)
    seq_traces, seq_summary = run_experiment(config, workers=1)
    par_traces, par_summary = run_experiment(config, workers=2)
    assert seq_traces == par_traces
    assert seq_summary == par_summary


# ----------------------------------------------------------- trace content


def test_regret_matches_pull_counts_from_the_transcript() -> None:
    config = small_config()
    instance = make_instance_for(config.setting, config.v)
    trace, policy = run_single(config, 0, instance=instance, return_policy=True)
    counts = [0] * instance.num_arms
    for entry in policy.transcript:
        counts[entry.arm] += 1
    assert trace.final_regret == math.fsum(
        g * c for g, c in zip(instance.gaps, counts)
    )


def test_traces_are_nondecreasing_in_time() -> None:
    trace = run_single(small_config(), 0)
    values = [value for _, value in trace.checkpoints]
    assert all(a <= b for a, b in zip(values, values[1:]))
    assert all(value >= 0.0 for value in values)


def test_aggregate_uses_population_std() -> None:
    traces = [
        RegretTrace(rep=0, checkpoints=((1, 0.0),)),
        RegretTrace(rep=1, checkpoints=((1, 2.0),)),
    ]
    summary = aggregate(traces)
    assert summary.means == (1.0,)
    assert summary.stds == (1.0,)
    assert summary.n_reps == 2


def test_aggregate_rejects_mismatched_checkpoint_grids() -> None:
    traces = [
        RegretTrace(rep=0, checkpoints=((1, 0.0),)),
        RegretTrace(rep=1, checkpoints=((2, 0.0),)),
    ]
    with pytest.raises(ValueError):
        aggregate(traces)


# -------------------------------------------------------------- CSV output


def test_csv_round_trip_preserves_traces_exactly(tmp_path) -> None:
    config = small_config(horizon=200, reps=2, checkpoint_count=10)
    instance = make_instance_for(config.setting, config.v)
    traces, summary = run_experiment(config)
    paths = write_csv(tmp_path / "out", config, instance, traces, summary)
    assert paths["runs"].name == "out.runs.csv"
    assert paths["summary"].name == "out.summary.csv"
    assert paths["meta"].name == "out.meta"

    recovered = read_runs_csv(paths["runs"])
    assert recovered == traces
    assert aggregate(recovered) == summary


def test_written_files_have_the_documented_headers_and_meta(tmp_path) -> None:
    config = small_config(horizon=100, checkpoint_count=5, beta=0.1)
    instance = make_instance_for(config.setting, config.v)
    traces, summary = run_experiment(config)
    paths = write_csv(tmp_path / "out", config, instance, traces, summary)

    runs_first = paths["runs"].read_text().splitlines()[0]
    assert runs_first == ",".join(RUNS_HEADER)
    summary_first = paths["summary"].read_text().splitlines()[0]
    assert summary_first == ",".join(SUMMARY_HEADER)

    meta = paths["meta"].read_text()
    assert "package_version=" in meta
    assert "algo=dprucb\n" in meta
    assert "beta=0.10000000000000001\n" in meta  # resolved, 17 digits
    assert any(line.startswith("instance.") for line in meta.splitlines())


def test_meta_does_not_depend_on_the_output_path(tmp_path) -> None:
    config = small_config(horizon=100, checkpoint_count=5)
    instance = make_instance_for(config.setting, config.v)
    traces, summary = run_experiment(config)
    first = write_csv(tmp_path / "out", config, instance, traces, summary)
    second = write_csv(tmp_path / "elsewhere" / "renamed", config, instance, traces, summary)
    assert first["meta"].read_bytes() == second["meta"].read_bytes()


def test_read_runs_csv_rejects_a_wrong_header(tmp_path) -> None:
    bad = tmp_path / "bad.runs.csv"
    bad.write_text("a,b,c\n")
    with pytest.raises(ValueError):
        read_runs_csv(bad)