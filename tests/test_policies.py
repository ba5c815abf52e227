"""Policy behavior: driving contract, index policy mechanics, elimination runs."""

from __future__ import annotations

import math

import numpy as np
import pytest

from htbandits import (
    DPRobustSE,
    DPRobustUCB,
    ExperimentConfig,
    LDPRobustSE,
    MomentParams,
    NoiseHook,
    NoiseSource,
    PrivacyLedger,
    RobustUCB,
    TranscriptEntry,
    audit_run,
    central_se_schedule,
    local_se_schedule,
    make_two_arm_hard_instance,
    private_ucb_truncation,
    run_single,
)
from htbandits.mechanisms import LOCAL_REWARD_SITE, SE_RELEASE_SITE
from htbandits.seeding import ELIMINATION_NOISE, PERTURBATION_NOISE, derive_stream

from conftest import constant_samplers, draw_rows, drive

UNIT = MomentParams(u=1.0, v=1.0)


def zero_sources(n: int) -> list:
    return [NoiseSource(hook=NoiseHook.ZERO) for _ in range(n)]


def laplace_sources(n: int, purpose: int, ledger=None, seed: int = 0) -> list:
    return [
        NoiseSource(
            rng=derive_stream(seed, 0, arm=a, purpose=purpose),
            ledger=ledger,
        )
        for a in range(n)
    ]


def test_transcript_entry_fields_are_declared() -> None:
    assert TranscriptEntry._fields == (
        "round",
        "arm",
        "reward",
        "truncated_reward",
        "committed",
    )


def index_policy(cls, num_arms: int):
    """A 16-round index policy on unit moments (zero noise for DPRobustUCB)."""
    if cls is DPRobustUCB:
        return DPRobustUCB(UNIT, 1.0, 16, zero_sources(num_arms))
    return RobustUCB(num_arms, UNIT)


INDEX_POLICIES = pytest.mark.parametrize(
    "cls", [DPRobustUCB, RobustUCB], ids=lambda cls: cls.__name__
)


@INDEX_POLICIES
def test_index_policy_enforces_the_select_observe_contract(cls) -> None:
    policy = index_policy(cls, 2)
    with pytest.raises(RuntimeError):
        policy.observe(0, 1.0)
    with pytest.raises(ValueError):
        policy.select_arm(2)
    arm = policy.select_arm(1)
    with pytest.raises(RuntimeError):
        policy.select_arm(2)
    with pytest.raises(ValueError):
        policy.observe(arm + 1, 1.0)
    policy.observe(arm, 1.0)
    assert policy.select_arm(2) == 1


@INDEX_POLICIES
def test_index_policy_initial_rounds_are_round_robin(cls) -> None:
    policy = index_policy(cls, 3)
    arms = []
    for t in range(1, 4):
        arm = policy.select_arm(t)
        arms.append(arm)
        policy.observe(arm, 0.0)
    assert arms == [0, 1, 2]


@INDEX_POLICIES
def test_index_policy_breaks_ties_toward_lowest_index(cls) -> None:
    policy = index_policy(cls, 2)
    drive(policy, constant_samplers([0.1, 0.1]), 2)
    assert policy.select_arm(3) == 0


def test_dprucb_truncates_at_the_new_pull_count() -> None:
    # constant reward 5.0 enters as 0.0 until the truncation level reaches it
    policy = DPRobustUCB(UNIT, 1.0, 1024, zero_sources(1))
    drive(policy, constant_samplers([5.0]), 600)
    first_kept = min(n for n in range(1, 601)
                     if private_ucb_truncation(UNIT, 1.0, 1024, n) >= 5.0)
    for entry in policy.transcript:
        expected = 5.0 if entry.round >= first_kept else 0.0
        assert entry.truncated_reward == expected
        assert entry.reward == 5.0
        assert not entry.committed
    assert 1 < first_kept < 600


def test_dprucb_zero_noise_index_tracks_truncated_means() -> None:
    # arm 0 pays 0.3, arm 1 pays 0.1, both under every truncation level after
    # enough pulls; with zero noise the better arm dominates the pull counts
    params = MomentParams(u=1.0, v=1.0)
    policy = DPRobustUCB(params, 10.0, 4096, zero_sources(2))
    drive(policy, constant_samplers([0.3, 0.1]), 4000)
    counts = policy.pull_counts
    assert counts[0] > counts[1]


def test_dprucb_tree_capacity_matches_the_horizon() -> None:
    # a single arm can absorb every round, so its tree must hold exactly
    # horizon insertions and no more
    policy = DPRobustUCB(UNIT, 1.0, 4, zero_sources(1))
    drive(policy, constant_samplers([0.0]), 4)
    arm = policy.select_arm(5)
    with pytest.raises(ValueError):
        policy.observe(arm, 0.0)


@INDEX_POLICIES
def test_index_policy_never_commits(cls) -> None:
    policy = index_policy(cls, 2)
    drive(policy, constant_samplers([0.9, 0.1]), 16)
    assert policy.committed_arm() is None
    assert not any(entry.committed for entry in policy.transcript)


@pytest.mark.parametrize("algo", ["dprucb", "rucb", "dprse", "ldprse"])
def test_a_policy_keeps_fewer_than_30_instance_attributes(algo: str) -> None:
    # CPython 3.11 keeps an instance's attributes as shared-key inline values
    # only up to 29 of them; at 30 the instance gets a dict of its own, and
    # every attribute load of a round slows down: in a toy class ten loads
    # took 139-155 ns with 30 attributes against 122-124 ns with 29.
    config = ExperimentConfig(
        algo=algo, setting="S1", v=0.9, eps=1000.0, horizon=300, reps=1, base_seed=7
    )
    _, policy = run_single(config, 0, return_policy=True)
    assert len(vars(policy)) < 30, sorted(vars(policy))


def test_central_se_strong_gap_eliminates_and_commits() -> None:
    # u=1, v=1, eps=1, beta=0.1, 2 arms: epoch 1 runs ceil(576*ln(80)/0.25 + 1)
    # = 10098 pulls per arm at truncation ~48, so constants 0.9/0.1 pass
    # untruncated; the 0.8 gap dwarfs the 0.25 elimination threshold
    policy = DPRobustSE(UNIT, 1.0, 30_000, zero_sources(2), beta=0.1)
    drive(policy, constant_samplers([0.9, 0.1]), 2 * 10_098)
    assert policy.completed_epochs == [(1, 2, 10_098)]
    assert policy.viable_arms == (0,)
    assert policy.committed_arm() == 0
    assert policy.select_arm(2 * 10_098 + 1) == 0


def test_central_se_epoch_pull_order_cycles_arms() -> None:
    policy = DPRobustSE(UNIT, 1.0, 30_000, zero_sources(2), beta=0.1)
    drive(policy, constant_samplers([0.9, 0.1]), 10)
    arms = [entry.arm for entry in policy.transcript]
    assert arms == [0, 1, 0, 1, 0, 1, 0, 1, 0, 1]


def test_central_se_epoch_accounting_is_exact() -> None:
    policy = DPRobustSE(UNIT, 1.0, 30_000, zero_sources(2), beta=0.1)
    drive(policy, constant_samplers([0.9, 0.1]), 2 * 10_098)
    per_arm = [0, 0]
    for entry in policy.transcript:
        per_arm[entry.arm] += 1
    assert per_arm == [10_098, 10_098]


def test_central_se_ties_survive_every_epoch() -> None:
    # equal arms: zero noise gives equal release scores, nobody is eliminated;
    # u=4e-4 keeps epochs small: R_1 = ceil(0.0004*576*ln(80)/0.25 + 1) = 6,
    # R_2 = ceil(0.0004*576*ln(320)/0.0625 + 1) = 23, epoch 3 would need
    # 2*99 = 198 more pulls and is never started inside a 100-round budget
    params = MomentParams(u=4e-4, v=1.0)
    policy = DPRobustSE(params, 1.0, 100, zero_sources(2), beta=0.1)
    drive(policy, constant_samplers([0.5, 0.5]), 58)
    assert policy.completed_epochs == [(1, 2, 6), (2, 2, 23)]
    assert policy.viable_arms == (0, 1)
    assert policy.committed_arm() is None
    assert policy.select_arm(59) == 0  # budget commit on the tie: lowest index
    assert policy.committed_arm() == 0


def test_central_se_commits_at_start_when_nothing_fits() -> None:
    policy = DPRobustSE(UNIT, 1.0, 100, zero_sources(2), beta=0.1)
    drive(policy, constant_samplers([0.9, 0.1]), 100)
    assert policy.committed_arm() == 0
    assert policy.completed_epochs == []
    assert all(entry.arm == 0 for entry in policy.transcript)
    assert all(entry.committed for entry in policy.transcript)


def test_central_se_budget_commit_picks_best_release_score() -> None:
    # arms 0.02/0.004 with u=4e-4: epoch 1 (R=6, truncation ~0.023 keeps both
    # rewards) fits a 50-round budget, epoch 2 (R=23 -> 46 pulls) does not;
    # commit follows epoch-1 scores
    params = MomentParams(u=4e-4, v=1.0)
    policy = DPRobustSE(params, 1.0, 50, zero_sources(2), beta=0.1)
    drive(policy, constant_samplers([0.02, 0.004]), 50)
    assert policy.completed_epochs == [(1, 2, 6)]
    assert policy.viable_arms == (0, 1)  # gap 0.016 is below 12*err ~ 0.205
    assert policy.committed_arm() == 0
    flags = [entry.committed for entry in policy.transcript]
    assert flags[:12] == [False] * 12
    assert flags[12:] == [True] * 38
    scores = policy.last_release_scores()
    assert scores[0] == pytest.approx(0.02, rel=1e-12)
    assert scores[1] == pytest.approx(0.004, rel=1e-12)


@pytest.mark.parametrize("horizon", [20_196, 20_195])
def test_an_epoch_that_ends_on_the_last_round(horizon: int) -> None:
    # Epoch 1 is 10,098 pulls per arm, so it fits a horizon of 2 * 10,098
    # rounds exactly: it ends on the last round and eliminates arm 1, and the
    # commitment starts after the horizon.  One round less and it never runs.
    ledger = PrivacyLedger()
    sources = [NoiseSource(hook=NoiseHook.ZERO, ledger=ledger) for _ in range(2)]
    policy = DPRobustSE(UNIT, 1.0, horizon, sources, beta=0.1)
    drive(policy, constant_samplers([0.5, 0.0]), horizon)
    assert policy.rounds_played == len(policy.transcript) == horizon
    assert policy.committed_arm() == 0
    committed = [entry.committed for entry in policy.transcript]
    if horizon == 20_196:
        assert policy.completed_epochs == [(1, 2, 10_098)]
        assert [record.completed for record in ledger.epochs] == [True]
        assert audit_run(ledger).ok
        assert not any(committed)
    else:
        assert policy.completed_epochs == []
        assert ledger.epochs == []
        assert all(committed)
        assert all(entry.arm == 0 for entry in policy.transcript)


def test_central_se_committed_arm_never_changes() -> None:
    policy = DPRobustSE(UNIT, 1.0, 100, zero_sources(2), beta=0.1)
    drive(policy, constant_samplers([0.9, 0.1]), 100)
    committed = policy.committed_arm()
    drive_start = policy.rounds_played
    for t in range(drive_start + 1, drive_start + 20):
        arm = policy.select_arm(t)
        assert arm == committed
        policy.observe(arm, 123.0)  # committed rounds ignore data
        assert policy.committed_arm() == committed


def test_central_se_release_noise_counts_and_sites() -> None:
    ledger = PrivacyLedger()
    sources = [
        NoiseSource(
            rng=derive_stream(0, 0, arm=a, purpose=ELIMINATION_NOISE), ledger=ledger
        )
        for a in range(2)
    ]
    params = MomentParams(u=4e-4, v=1.0)
    policy = DPRobustSE(params, 1.0, 300, sources, beta=0.1)
    drive(policy, constant_samplers([0.5, 0.5]), 2 * 6)
    release_draws = [draw for draw in draw_rows(ledger) if draw[0] == SE_RELEASE_SITE]
    assert len(release_draws) == 2  # one per viable arm at the epoch boundary
    assert len(ledger.insertions) == 12
    sched = central_se_schedule(params, 1.0, 0.1, 2, 1)
    assert sched.pulls_per_arm == 6
    for _, scale, bound, eps, count in release_draws:
        assert scale == 2.0 * sched.truncation / (6 * 1.0)
        assert (bound, eps, count) == (sched.truncation, 1.0, 6)
    assert policy.viable_arms  # the top-scoring arm always survives


def test_local_se_strong_gap_eliminates_and_commits() -> None:
    # u=2e-3, v=1, eps=1, beta=0.1, 2 arms: R_1 = ceil(4e-6*614656*ln(160)
    # / 0.25**4 + ln(160)) = 3200, truncation ~0.224 keeps arms 0.2/0.02
    # intact, and the 0.18 gap clears 14*err ~ 0.0166
    params = MomentParams(u=2e-3, v=1.0)
    policy = LDPRobustSE(params, 1.0, 10_000, zero_sources(2), beta=0.1)
    drive(policy, constant_samplers([0.2, 0.02]), 2 * 3200)
    assert policy.completed_epochs == [(1, 2, 3200)]
    assert policy.viable_arms == (0,)
    assert policy.committed_arm() == 0


def test_local_se_perturbs_every_reward_once() -> None:
    ledger = PrivacyLedger()
    sources = [
        NoiseSource(
            rng=derive_stream(0, 0, arm=a, purpose=PERTURBATION_NOISE), ledger=ledger
        )
        for a in range(2)
    ]
    params = MomentParams(u=2e-3, v=1.0)
    policy = LDPRobustSE(params, 1.0, 10_000, sources, beta=0.1)
    drive(policy, constant_samplers([0.2, 0.02]), 2 * 3200)
    local_draws = [draw for draw in draw_rows(ledger) if draw[0] == LOCAL_REWARD_SITE]
    assert len(local_draws) == sum(nv * r for _, nv, r in policy.completed_epochs)
    assert len(local_draws) == 6400
    assert ledger.epochs[0].completed
    sched = local_se_schedule(params, 1.0, 0.1, 2, 1)
    for _, scale, bound, eps, count in local_draws:
        assert scale == 2.0 * sched.truncation / 1.0
        assert (bound, eps, count) == (sched.truncation, 1.0, 0)
    assert policy.viable_arms


def test_local_se_transcript_keeps_prenoise_truncation() -> None:
    params = MomentParams(u=2e-3, v=1.0)
    policy = LDPRobustSE(params, 1.0, 10_000, zero_sources(2), beta=0.1)
    drive(policy, constant_samplers([0.2, 0.02]), 10)
    for entry in policy.transcript:
        assert entry.truncated_reward == entry.reward  # both fall below B_1


def test_elimination_policies_validate_arguments() -> None:
    with pytest.raises(ValueError):
        DPRobustSE(UNIT, 1.0, 100, zero_sources(2), beta=1.5)
    with pytest.raises(ValueError):
        DPRobustSE(UNIT, 0.0, 100, zero_sources(2))
    with pytest.raises(ValueError):
        LDPRobustSE(UNIT, 1.0, 0, zero_sources(2))


def test_elimination_policies_reject_an_infinite_budget() -> None:
    for cls in (DPRobustSE, LDPRobustSE):
        with pytest.raises(ValueError, match="eps must be finite and positive"):
            cls(UNIT, math.inf, 100, zero_sources(2), beta=0.1)


def test_elimination_policies_reject_a_horizon_that_is_not_an_integer() -> None:
    # beta defaults to 1 / horizon, which a truncated horizon would not match.
    for cls in (DPRobustSE, LDPRobustSE):
        for horizon in (300.7, 300.0):
            with pytest.raises(ValueError, match="horizon must be an integer"):
                cls(UNIT, 1.0, horizon, zero_sources(2))
        policy = cls(UNIT, 1.0, np.int64(300), zero_sources(2))
        assert policy.horizon == 300 and type(policy.horizon) is int
        assert policy.beta == 1.0 / 300


def test_dprucb_rejects_a_horizon_that_is_not_an_integer() -> None:
    for horizon in (10.5, 16.0):
        with pytest.raises(ValueError, match="horizon must be an integer"):
            DPRobustUCB(UNIT, 1.0, horizon, zero_sources(2))
    policy = DPRobustUCB(UNIT, 1.0, np.int64(16), zero_sources(2))
    assert policy.horizon == 16 and type(policy.horizon) is int


def test_rucb_rejects_an_arm_count_that_is_not_an_integer() -> None:
    for num_arms in (2.0, 2.5, "2"):
        with pytest.raises(ValueError, match="num_arms must be an integer"):
            RobustUCB(num_arms, UNIT)
    policy = RobustUCB(np.int64(2), UNIT)
    assert policy.num_arms == 2 and type(policy.num_arms) is int
    assert policy.pull_counts == (0, 0)


def test_elimination_policies_reject_sources_with_different_ledgers() -> None:
    # Also DPRobustUCB: trees on sources without the ledger would draw noise
    # it never records.
    ledger = PrivacyLedger()
    mixed = [
        NoiseSource(hook=NoiseHook.ZERO, ledger=ledger),
        NoiseSource(hook=NoiseHook.ZERO, ledger=PrivacyLedger()),
    ]
    partly = [mixed[0], NoiseSource(hook=NoiseHook.ZERO)]
    shared = mixed[:1] + mixed[:1]
    for cls, kwargs in (
        (DPRobustSE, {"beta": 0.1}),
        (LDPRobustSE, {"beta": 0.1}),
        (DPRobustUCB, {}),
    ):
        for sources in (mixed, partly):
            with pytest.raises(ValueError, match="different ledgers"):
                cls(UNIT, 1.0, 100, sources, **kwargs)
    for cls in (DPRobustSE, LDPRobustSE):
        assert cls(UNIT, 1.0, 100, shared, beta=0.1).ledger is ledger
    drive(DPRobustUCB(UNIT, 1.0, 100, shared), constant_samplers([0.5, 0.5]), 10)
    assert len(ledger.noise_draws) == 10


def test_rucb_truncation_clamps_early_rounds() -> None:
    policy = RobustUCB(1, UNIT)
    drive(policy, constant_samplers([0.5]), 3)
    # round 1 uses the t=2 threshold (ln(t**2) degenerates at t=1)
    assert policy.transcript[0].truncated_reward == 0.5


def test_rucb_prefers_the_better_arm() -> None:
    policy = RobustUCB(2, UNIT)
    drive(policy, constant_samplers([0.9, 0.1]), 2000)
    counts = policy.pull_counts
    assert counts[0] > counts[1]


def test_local_se_keeps_the_optimal_arm_of_a_near_tie() -> None:
    # Gap 0.001 against a first-epoch target gap of 1/4: the arms cannot be
    # told apart, so elimination after the one epoch is a noise event that the
    # threshold 14 * accuracy must make rarer than beta.  An accuracy term
    # with R where the truncation bias has sqrt(R) eliminated the optimal arm
    # in about a third of these runs.
    instance = make_two_arm_hard_instance(0.001, 0.9)
    params = MomentParams(u=instance.u, v=instance.v)
    beta = 0.01
    pulls = local_se_schedule(params, 100.0, beta, 2, 1).pulls_per_arm
    assert pulls == 71_002
    config = ExperimentConfig(
        algo="ldprse",
        setting="two_arm_hard",
        v=instance.v,
        eps=100.0,
        horizon=2 * pulls,
        reps=20,
        base_seed=5,
        checkpoint_count=1,
        beta=beta,
    )
    eliminated = []
    for rep in range(config.reps):
        _, policy = run_single(config, rep, instance=instance, return_policy=True)
        assert policy.completed_epochs == [(1, 2, pulls)]
        if 0 not in policy.viable_arms:
            eliminated.append(rep)
    assert eliminated == []
