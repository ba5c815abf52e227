"""Experiment harness: schedules, determinism, hand-stepped runs, CSV output."""

from __future__ import annotations

import concurrent.futures
import csv
import inspect
import itertools
import math
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from htbandits import (
    __version__,
    AdaptiveTree,
    DPRobustSE,
    DPRobustUCB,
    ExperimentConfig,
    FiniteSupportModel,
    MomentParams,
    NoiseHook,
    NoiseSource,
    ParetoModel,
    RegretTrace,
    RobustUCB,
    aggregate,
    checkpoint_schedule,
    make_instance,
    read_runs_csv,
    run_experiment,
    run_single,
    write_csv,
)
from htbandits import harness, policies
from htbandits.distributions import format_value, instance_description
from htbandits.harness import (
    ALGORITHMS,
    RUNS_HEADER,
    SETTINGS,
    SUMMARY_HEADER,
    make_instance_for,
    make_policy,
)


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
    # Twice each: a failed call must leave nothing behind in the memo.
    for _ in range(2):
        with pytest.raises(ValueError):
            checkpoint_schedule(0)
        with pytest.raises(ValueError):
            checkpoint_schedule(10, count=0)
        with pytest.raises(ValueError, match="horizon must be an integer"):
            checkpoint_schedule(True)
        with pytest.raises(ValueError, match="count must be an integer"):
            checkpoint_schedule(10, count=2.0)


def uncached_checkpoint_schedule(horizon: int, count: int = 200) -> tuple:
    """The checkpoint grid computed afresh on every call."""
    raw = np.geomspace(1.0, float(horizon), num=min(count, horizon))
    points = {min(max(int(round(x)), 1), horizon) for x in raw}
    points.add(horizon)
    return tuple(sorted(points))


def test_memoised_checkpoints_equal_a_fresh_computation() -> None:
    # Every horizon for the small counts.  A 1000-point grid costs ~1 ms, so
    # count 1000 takes every horizon up to 1100 and every 10th beyond.
    cases = [(count, h) for count in (1, 2, 7, 200) for h in range(1, 5001)]
    cases += [(1000, h) for h in (*range(1, 1101), *range(1110, 5001, 10))]
    for count, horizon in cases:
        want = uncached_checkpoint_schedule(horizon, count=count)
        assert checkpoint_schedule(horizon, count=count) == want
        assert checkpoint_schedule(horizon, count=count) == want  # a hit


def test_repetitions_of_one_config_build_the_checkpoint_grid_once(monkeypatch) -> None:
    calls = []
    geomspace = np.geomspace

    def counting_geomspace(*args, **kwargs):
        calls.append(args)
        return geomspace(*args, **kwargs)

    checkpoint_schedule.cache_clear()
    monkeypatch.setattr(np, "geomspace", counting_geomspace)
    config = small_config(algo="rucb", horizon=300, reps=5)
    traces = [run_single(config, rep) for rep in range(5)]
    assert len(calls) == 1
    assert all(trace.checkpoints[-1][0] == 300 for trace in traces)


# ------------------------------------------------------------ configuration


def test_the_experiment_knobs_are_exactly_these() -> None:
    # A new option shows up here as a test edit.
    assert [f.name for f in fields(ExperimentConfig)] == [
        "algo",
        "setting",
        "v",
        "eps",
        "horizon",
        "reps",
        "base_seed",
        "checkpoint_count",
        "beta",
        "zero_noise",
    ]
    assert list(inspect.signature(checkpoint_schedule).parameters) == ["horizon", "count"]


@pytest.mark.parametrize(
    "field,value",
    [
        ("algo", "bogus"),
        ("setting", "S9"),
        ("v", 0.0),
        ("v", 1.5),
        ("eps", 0.0),
        ("eps", math.inf),  # every draw would be made at scale NaN
        ("eps", math.nan),
        ("horizon", 0),
        ("horizon", 4),  # below dprucb's opening pull of each of S1's 5 arms
        ("reps", 0),
        ("base_seed", -1),
        ("checkpoint_count", 0),
        ("beta", 1.0),
        # Counts that are not integers.
        ("horizon", 300.0),
        ("horizon", "300"),
        ("reps", 1.5),
        ("base_seed", 7.0),
        ("checkpoint_count", 20.0),
        # Bools, which operator.index reads as 0 or 1.
        ("horizon", True),
        ("reps", True),
        ("base_seed", False),
        ("checkpoint_count", True),
        # A flag that is not a bool: "false" is truthy.
        ("zero_noise", "false"),
        ("zero_noise", 1),
    ],
)
def test_config_validation_rejects_bad_fields(field: str, value) -> None:
    with pytest.raises(ValueError):
        small_config(**{field: value})


def test_config_keeps_the_python_ints_it_checked(tmp_path) -> None:
    counts = dict(horizon=50, reps=2, base_seed=3, checkpoint_count=10)
    plain = small_config(algo="rucb", **counts)
    config = small_config(algo="rucb", **{k: np.int64(x) for k, x in counts.items()})
    assert all(type(getattr(config, name)) is int for name in counts)
    assert config == plain
    assert {type(t) for t in config.checkpoints()} == {int}
    instance = make_instance_for(config.setting, config.v)
    metas = []
    for name, cfg in (("plain", plain), ("numpy", config)):
        traces, summary = run_experiment(cfg)
        metas.append(write_csv(tmp_path / name, cfg, instance, traces, summary)["meta"].read_bytes())
    assert metas[0] == metas[1]


def test_short_horizons_are_rejected_only_for_the_index_policy() -> None:
    with pytest.raises(ValueError, match="horizon 4 is below the number of arms 5"):
        small_config(algo="dprucb", horizon=4)
    small_config(algo="dprucb", setting="two_arm_hard", horizon=2)
    for algo in ("dprse", "ldprse", "rucb"):
        small_config(algo=algo, horizon=4)


def test_a_one_round_elimination_config_is_rejected() -> None:
    # Its resolved beta, 1 / horizon, is 1.0, which the policies reject.
    for algo in ("dprse", "ldprse"):
        with pytest.raises(ValueError, match=r"beta must lie in \(0, 1\), got 1.0"):
            small_config(algo=algo, horizon=1)
        assert small_config(algo=algo, horizon=1, beta=0.5).resolved_beta == 0.5
    small_config(algo="rucb", horizon=1)
    small_config(algo="dprucb", setting="two_arm_hard", horizon=2)


def test_a_later_epoch_without_a_noise_scale_in_doubles_is_rejected() -> None:
    # At the largest eps each epoch pulls each arm once or twice, so a run of
    # 100 rounds may begin dozens of epochs; at epoch 43 of two viable arms
    # the release's noise scale underflows to 0.0, and a draw at that scale
    # adds no noise.  The config is rejected, not the run that gets there.
    with pytest.raises(ValueError, match="epoch 43's noise scale must be finite and positive"):
        small_config(
            algo="dprse", setting="two_arm_hard", v=0.05, eps=1.7976931348623157e308,
            horizon=100,
        )


def test_a_config_walks_its_later_epochs_once_and_a_rejection_every_time(monkeypatch) -> None:
    # A build checks every later epoch a run may begin; the outcome is kept
    # per config, so only the first build of a config (here the one
    # ExperimentConfig makes) computes a later epoch's schedule.  On k_arm_hard
    # at eps 1000 the walk computes several.  A rejection is not kept: every
    # build of a config that fails raises the same error.
    schedule = policies.central_se_schedule
    epochs = []

    def spy(params, eps, beta, num_viable, epoch):
        epochs.append(epoch)
        return schedule(params, eps, beta, num_viable, epoch)

    monkeypatch.setattr(policies, "central_se_schedule", spy)
    policies._check_later_epochs.cache_clear()
    config = small_config(algo="dprse", setting="k_arm_hard", eps=1000.0, horizon=300)
    assert epochs[0] == 1 and max(epochs) > 1
    epochs.clear()
    make_policy(config, make_instance_for(config.setting, config.v), 1)
    assert epochs == [1]
    for _ in range(2):
        with pytest.raises(ValueError, match="epoch 43's noise scale must be finite and positive"):
            small_config(
                algo="dprse", setting="two_arm_hard", v=0.05, eps=1.7976931348623157e308,
                horizon=100,
            )


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
        beta=0.1,
        zero_noise=True,
    )
    trace, policy = run_single(config, 0, instance=instance, return_policy=True)
    assert [entry.arm for entry in policy.transcript] == [0, 1] * 6 + [0] * 38
    gap = instance.gaps[1]
    expected = tuple((t, gap * (min(t, 12) // 2)) for t in config.checkpoints())
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
        beta=0.1,
        zero_noise=True,
    )
    trace, policy = run_single(config, 0, instance=instance, return_policy=True)
    assert [entry.arm for entry in policy.transcript] == [0] * 10
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


def test_numpy_scalar_parameters_give_the_same_run_in_python_floats(tmp_path) -> None:
    # A numpy scalar would carry numpy arithmetic into every round: the same
    # values, more slowly.  Parameters become Python floats where they enter.
    for algo in ("dprucb", "rucb"):
        outputs = []
        for scalar in (float, np.float64):
            config = small_config(algo=algo, v=scalar(0.9), eps=scalar(1.0), beta=scalar(0.5))
            assert {type(config.v), type(config.eps), type(config.beta)} == {float}
            instance = make_instance_for(config.setting, config.v)
            trace, policy = run_single(config, 0, instance=instance, return_policy=True)
            paths = write_csv(
                tmp_path / f"{algo}_{scalar.__name__}", config, instance, [trace], aggregate([trace])
            )
            runs, meta = paths["runs"].read_bytes(), paths["meta"].read_bytes()
            outputs.append((trace, list(policy.transcript), runs, meta))
            state = [policy._radius_scale, *policy._means]
            if algo == "dprucb":
                state += [tree.estimate for tree in policy._trees]
            assert {type(x) for x in state} == {float}, (algo, scalar)
        assert outputs[0] == outputs[1], algo
    params = MomentParams(u=np.float64(2.0), v=np.float64(0.9))
    model = ParetoModel(alpha=np.float64(2.0), lam=np.float64(0.5))
    tree = AdaptiveTree(16, np.float64(1.0), NoiseSource(hook=NoiseHook.ZERO))
    entered = (params.u, params.v, model.alpha, model.lam, tree._eps_prime)
    assert {type(x) for x in entered} == {float}


def test_a_rep_that_is_not_an_integer_is_rejected() -> None:
    config = small_config(algo="rucb", horizon=50)
    instance = make_instance_for(config.setting, config.v)
    for rep in (1.5, 1.0, "1", True):
        with pytest.raises(ValueError, match="rep must be an integer"):
            run_single(config, rep)
        with pytest.raises(ValueError, match="rep must be an integer"):
            make_policy(config, instance, rep)
    assert run_single(config, np.int64(1)) == run_single(config, 1)


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


def test_a_worker_count_that_is_not_an_integer_is_rejected_before_a_pool_starts(
    monkeypatch,
) -> None:
    pools = []
    monkeypatch.setattr(
        concurrent.futures, "ProcessPoolExecutor", lambda *args, **kwargs: pools.append(kwargs)
    )
    config = small_config(horizon=50, reps=2)
    for workers in (2.0, 1.5, "2", True):
        with pytest.raises(ValueError, match="workers must be an integer"):
            run_experiment(config, workers=workers)
    assert pools == []
    assert run_experiment(config, workers=np.int64(1)) == run_experiment(config)


class RecordingPool:
    """Stands in for ProcessPoolExecutor: records ``max_workers``, starts no
    process and maps in this one."""

    def __init__(self, sizes: list, max_workers: int) -> None:
        sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        return None

    def map(self, fn, *iterables):
        return map(fn, *iterables)


def test_a_pool_never_starts_more_workers_than_repetitions(monkeypatch) -> None:
    # A fork-based pool starts all max_workers processes at its first submit.
    sizes = []
    monkeypatch.setattr(
        concurrent.futures,
        "ProcessPoolExecutor",
        lambda max_workers: RecordingPool(sizes, max_workers),
    )
    for reps, workers, pool_size in ((2, 64, 2), (3, 2, 2), (3, 3, 3), (1, 8, None)):
        config = small_config(algo="rucb", horizon=50, reps=reps)
        del sizes[:]
        assert run_experiment(config, workers=workers) == run_experiment(config)
        assert sizes == ([] if pool_size is None else [pool_size]), (reps, workers)


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


@pytest.mark.parametrize(
    "algo,cls,setting,eps,horizon",
    [
        ("dprucb", DPRobustUCB, "S1", 1.0, 2000),
        ("rucb", RobustUCB, "S1", 1.0, 2000),
        ("dprse", DPRobustSE, "two_arm_hard", 100.0, 5000),
    ],
    ids=["dprucb", "rucb", "dprse"],
)
def test_run_single_plays_short_stretches_and_keeps_its_round_counter(
    monkeypatch, algo, cls, setting, eps, horizon
) -> None:
    # bench/pace.py samples the local t of the running run_single frame and
    # reads t - 1 as the rounds done.  So each stretch starts with t - 1 equal
    # to the rounds played, plays at most 64 rounds and passes no checkpoint;
    # it ends at the next checkpoint or after 64 rounds, or after the round in
    # which the policy commits (the dprse cell commits after two epochs).
    play_until = cls._play_until
    stretches = []

    def spy(policy, t: int, stop: int, counts: list) -> int:
        frame = sys._getframe(1)
        assert frame.f_code is harness.run_single.__code__
        before = policy.rounds_played
        assert frame.f_locals["t"] - 1 == before
        next_round = play_until(policy, t, stop, counts)
        assert next_round == policy.rounds_played + 1
        stretches.append((before, policy.rounds_played, policy.committed_arm()))
        return next_round

    monkeypatch.setattr(cls, "_play_until", spy)
    config = small_config(algo=algo, setting=setting, eps=eps, horizon=horizon)
    _, policy = run_single(config, 0, return_policy=True)
    cps = config.checkpoints()
    assert stretches[0][0] == 0
    for (_, end, _), (start, _, _) in zip(stretches, stretches[1:]):
        assert start == end
    for start, end, committed in stretches:
        next_cp = min(c for c in cps if c > start)
        assert 0 < end - start <= 64
        assert end <= next_cp
        if committed is None:
            assert end == min(next_cp, start + 64)
    assert [committed for _, _, committed in stretches[:-1]] == [None] * (len(stretches) - 1)
    if cls is not DPRobustSE:
        assert stretches[-1][1] == horizon
    else:
        assert stretches[-1][2] is not None
        assert len(policy.completed_epochs) == 2
    assert policy.rounds_played == horizon


@settings(max_examples=200, deadline=None)
@given(
    algo=st.sampled_from(ALGORITHMS),
    setting=st.sampled_from(SETTINGS),
    v=st.floats(0.0, 1.0, exclude_min=True),
    eps=st.floats(0.0, exclude_min=True, allow_infinity=False),
    horizon=st.integers(1, 400),
)
def test_a_config_is_rejected_when_made_or_runs_to_its_horizon(
    algo, setting, v, eps, horizon
) -> None:
    # Every v and eps the formulas cannot carry in doubles is a ValueError
    # from ExperimentConfig; any config it accepts plays every round.
    try:
        config = ExperimentConfig(
            algo=algo, setting=setting, v=v, eps=eps, horizon=horizon, reps=1, base_seed=0,
            checkpoint_count=8,
        )
    except ValueError:
        return
    trace, policy = run_single(config, 0, return_policy=True)
    assert trace.checkpoints[-1][0] == horizon == policy.rounds_played


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
    bad.write_text("")
    with pytest.raises(ValueError, match="unexpected header None"):
        read_runs_csv(bad)


@pytest.mark.parametrize(
    "row",
    ["dprucb,S1,1,0.9,0,10", "", "dprucb,S1,1,0.9,0,10,1.5,extra"],
    ids=["short_row", "blank_line", "eight_fields"],
)
def test_read_runs_csv_rejects_a_row_without_seven_fields(tmp_path, row) -> None:
    bad = tmp_path / "bad.runs.csv"
    good = "dprucb,S1,1,0.9,0,5,0.5"
    bad.write_text("\n".join([",".join(RUNS_HEADER), good, row, good]) + "\n")
    with pytest.raises(ValueError, match="^line 3: expected 7 fields"):
        read_runs_csv(bad)


def reference_write_csv(path, config, instance, traces, summary) -> None:
    """The writer that wrote one ``csv.writer`` row and one write per line."""
    base = Path(path)
    eps_s = format_value(config.eps)
    v_s = format_value(config.v)
    with open(base.with_name(base.name + ".runs.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(RUNS_HEADER)
        for trace in traces:
            for t, value in trace.checkpoints:
                writer.writerow(
                    [config.algo, config.setting, eps_s, v_s, trace.rep, t, format_value(value)]
                )
    with open(base.with_name(base.name + ".summary.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SUMMARY_HEADER)
        for t, mean, std in zip(summary.checkpoints, summary.means, summary.stds):
            writer.writerow(
                [
                    config.algo,
                    config.setting,
                    eps_s,
                    v_s,
                    t,
                    format_value(mean),
                    format_value(std),
                    summary.n_reps,
                ]
            )
    with open(base.with_name(base.name + ".meta"), "w") as fh:
        fh.write(f"package_version={__version__}\n")
        for f in fields(config):
            value = getattr(config, f.name)
            if f.name == "beta":
                value = config.resolved_beta
            if isinstance(value, float):
                value = format_value(value)
            fh.write(f"{f.name}={value}\n")
        for line in instance_description(instance, setting=config.setting):
            fh.write(f"instance.{line}\n")


def synthetic_traces(rng, config) -> list:
    """Regret traces whose values span many magnitudes, zero and ints included."""
    traces = []
    for rep in range(config.reps):
        steps = rng.exponential(size=len(config.checkpoints()))
        steps *= 10.0 ** rng.integers(-12, 12, size=steps.size)
        values = np.cumsum(steps).tolist()
        values[0] = 0.0
        values[-1] = float(round(values[-1]))
        checkpoints = tuple(zip(config.checkpoints(), values))
        traces.append(RegretTrace(rep=rep, checkpoints=checkpoints))
    return traces


def test_write_csv_gives_the_csv_writer_bytes(tmp_path) -> None:
    rng = np.random.default_rng(3)
    grids = (dict(checkpoint_count=12), dict(checkpoint_count=1))
    epsilons = (1e-05, 0.1, 1.0, 1000.0)
    cells = list(itertools.product(ALGORITHMS, SETTINGS, epsilons, (0.5, 1.0), grids, (1, 3)))
    assert len(cells) == 640
    for algo, setting, eps, v, grid, reps in cells:
        config = ExperimentConfig(
            algo=algo, setting=setting, v=v, eps=eps, horizon=40, reps=reps, base_seed=1,
            **grid,
        )
        instance = make_instance_for(setting, v)
        traces = synthetic_traces(rng, config)
        summary = aggregate(traces)
        paths = write_csv(tmp_path / "new", config, instance, traces, summary)
        reference_write_csv(tmp_path / "ref", config, instance, traces, summary)
        for suffix in (".runs.csv", ".summary.csv", ".meta"):
            new = (tmp_path / f"new{suffix}").read_bytes()
            assert new == (tmp_path / f"ref{suffix}").read_bytes(), (config, suffix)
        assert read_runs_csv(paths["runs"]) == traces
