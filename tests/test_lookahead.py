"""The private index policy's pulls computed ahead never show in what a run records.

``run_single`` lets dprucb draw each arm's next rewards and tree noise in
blocks (1, 2, 4, ... up to 256 pulls, never more than the rounds left), ahead
of the rounds that play them.  A tree adds a pull, and the pull is recorded,
when its round plays it: its transcript row, its ledger draw and insertion
rows and its source's ``draws_made``.  After every played pull each tree
holds exactly its arm's played pulls, and after the run the policy holds the
played state only.  These tests run audited repetitions at horizons around
the block boundaries, with Laplace noise and with the zero-noise hook, and
compare each with the same repetition played through
``select_arm``/``observe``, which computes nothing ahead: the ledger columns,
each tree's state, each source's count and the next uniform of each noise
stream must be equal, and both policies must play on alike.
"""

from __future__ import annotations

import pytest

from htbandits import (
    AdaptiveTree,
    DPRobustUCB,
    ExperimentConfig,
    PrivacyLedger,
    make_instance_for,
    make_policy,
    run_single,
)

from test_transcript import drive_by_contract, tree_state

HORIZONS = (5, 6, 8, 9, 255, 256, 257, 300)


def config_for(setting: str, horizon: int, zero_noise: bool) -> ExperimentConfig:
    return ExperimentConfig(
        algo="dprucb", setting=setting, v=0.9, eps=1.0, horizon=horizon, reps=1,
        base_seed=7, zero_noise=zero_noise,
    )


def ledger_columns(ledger) -> list:
    return [c.tobytes() for table in (ledger.noise_draws, ledger.insertions) for c in table.columns]


@pytest.mark.parametrize("zero_noise", [False, True], ids=["laplace", "zero"])
@pytest.mark.parametrize("setting", ["S1", "two_arm_hard"])
@pytest.mark.parametrize("horizon", HORIZONS)
def test_run_single_records_only_the_pulls_it_plays(horizon, setting, zero_noise) -> None:
    config = config_for(setting, horizon, zero_noise)
    ledger = PrivacyLedger()
    _, policy = run_single(config, 0, ledger=ledger, return_policy=True)
    counts = policy.pull_counts
    assert sum(counts) == horizon
    # One draw row and one insertion row per pull, each arm's in its tree.
    assert len(ledger.noise_draws) == len(ledger.insertions) == horizon
    mechanisms, owners, _, insertion_bounds = ledger.insertions.columns
    assert ledger.noise_draws.columns[2] == insertion_bounds
    for arm, tree in enumerate(policy._trees):
        assert tree.t == tree._noise.draws_made == list(owners).count(arm) == counts[arm]
        assert [o for m, o in zip(mechanisms, owners) if m == tree._mech] == [arm] * counts[arm]
    assert sum(tree._noise.draws_made for tree in policy._trees) == horizon

    contract_ledger = PrivacyLedger()
    instance = make_instance_for(setting, config.v)
    by_contract = make_policy(config, instance, 0, ledger=contract_ledger)
    drive_by_contract(config, by_contract)
    assert ledger_columns(ledger) == ledger_columns(contract_ledger)
    assert [c.tobytes() for c in policy.transcript.columns] == [
        c.tobytes() for c in by_contract.transcript.columns
    ]
    assert [tree_state(tree) for tree in policy._trees] == [
        tree_state(tree) for tree in by_contract._trees
    ]

    # Both play on alike, each tree within its capacity, then hand out the
    # same next uniform from every noise stream.
    for t in range(horizon + 1, 2 * horizon + 1 - max(counts)):
        for played in (policy, by_contract):
            played.observe(played.select_arm(t), 0.25 * (t % 3))
    assert [x.hex() for x in policy._means] == [x.hex() for x in by_contract._means]
    assert ledger_columns(ledger) == ledger_columns(contract_ledger)
    assert [tree_state(tree) for tree in policy._trees] == [
        tree_state(tree) for tree in by_contract._trees
    ]
    if not zero_noise:
        for tree, twin in zip(policy._trees, by_contract._trees):
            assert tree._noise.rng.random() == twin._noise.rng.random()


@pytest.mark.parametrize("setting", ["S1", "two_arm_hard"])
@pytest.mark.parametrize("horizon", HORIZONS)
def test_no_tree_holds_a_pull_no_round_played(horizon, setting, monkeypatch) -> None:
    # Whenever a tree adds a pull, each tree holds exactly its arm's played
    # pulls, the arm's rows of the transcript: a fill draws rewards and noise
    # ahead, never the tree's state.
    begin, add = DPRobustUCB._begin_run, AdaptiveTree._add
    running = []
    added = []
    ahead = []

    def begin_spy(policy, takes, rounds):
        running.append(policy)
        return begin(policy, takes, rounds)

    def add_spy(tree, value, bound, scale, eta):
        policy = running[-1]
        arms = policy.transcript.columns[0]
        if [each.t for each in policy._trees] != [arms.count(a) for a in policy._arms]:
            ahead.append(len(arms) + 1)
        added.append(tree.owner)
        return add(tree, value, bound, scale, eta)

    monkeypatch.setattr(DPRobustUCB, "_begin_run", begin_spy)
    monkeypatch.setattr(AdaptiveTree, "_add", add_spy)
    run_single(config_for(setting, horizon, False), 0)
    assert len(added) == horizon
    assert added == list(running[-1].transcript.columns[0])
    assert ahead == []
