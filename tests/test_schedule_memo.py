"""The index policies' schedule memo: shared, exact and bounded.

``C(t)`` by round, ``w`` by pull count and the private policy's truncation
level by pull count are kept in tables that every policy with the same
constants shares, so the repetitions of one config compute each value once.
These tests check that each table is filled once over five repetitions,
that a table is shared exactly by the policies whose formula constants agree,
that a run on a warm memo is the run on a cold one bit for bit, that rounds
past the tables' cap still leave the first pass over the arms to the
round-robin, and that the memo's memory stays under the bound
``_IndexPolicy``'s docstring states however far the policies run and however
many configs they come from.
"""

from __future__ import annotations

import copy
import gc
import math
import pickle
import tracemalloc
import weakref
from collections import Counter
from dataclasses import replace

import pytest

from htbandits import (
    DPRobustUCB,
    ExperimentConfig,
    MomentParams,
    NoiseHook,
    NoiseSource,
    PrivacyLedger,
    RobustUCB,
    audit_run,
    make_instance_for,
    make_policy,
    run_single,
)
from htbandits import policies
from htbandits.policies import _TABLE_CAP, _schedule
from test_transcript import drive_by_contract

# The bound _IndexPolicy's docstring states: 16 tables of at most 2**17
# doubles plus the array's growth slack, under 18 MiB.
MEMO_BOUND = 18 * 2**20

# Each table's attribute and the name of the function that fills it.
FILLS = {
    "_scales": "_scales_of_rounds",
    "_pull_weights": "_weights_of_pulls",
    "_bounds": "_bounds_of_pulls",
}
TABLES = {"dprucb": ("_scales", "_pull_weights", "_bounds"), "rucb": ("_scales", "_pull_weights")}


def config_for(algo: str, horizon: int, reps: int = 5) -> ExperimentConfig:
    return ExperimentConfig(
        algo=algo, setting="S1", v=0.9, eps=1.0, horizon=horizon, reps=reps, base_seed=7
    )


@pytest.mark.parametrize("algo", ["dprucb", "rucb"])
def test_repetitions_of_one_config_fill_each_schedule_table_once(monkeypatch, algo) -> None:
    computed = Counter()

    def counting(name, fill):
        def count(*constants_and_indices) -> list:
            computed.update((name, i) for i in constants_and_indices[-1])
            return fill(*constants_and_indices)

        return count

    for name, fill in FILLS.items():
        monkeypatch.setattr(policies, fill, counting(name, getattr(policies, fill)))
    _schedule.cache_clear()
    horizon = 3000
    config = config_for(algo, horizon)
    played = [run_single(config, rep, return_policy=True)[1] for rep in range(5)]
    assert {name for name, _ in computed} == set(TABLES[algo])
    assert set(computed.values()) == {1}
    for name in TABLES[algo]:
        table = getattr(played[0], name)
        assert all(getattr(policy, name) is table for policy in played)
        # Entry 0 is a placeholder; every other entry was computed once.
        assert sorted(i for key, i in computed if key == name) == list(range(1, len(table)))
    assert len(played[0]._scales) > horizon
    most_pulls = max(max(policy.pull_counts) for policy in played)
    assert len(played[0]._pull_weights) > most_pulls


def private_policy(u: float, v: float, eps: float, horizon: int) -> DPRobustUCB:
    sources = [NoiseSource(hook=NoiseHook.ZERO) for _ in range(3)]
    return DPRobustUCB(MomentParams(u=u, v=v), eps, horizon, sources)


def test_a_table_is_shared_exactly_where_its_constants_agree() -> None:
    # C(t) reads u, v and the horizon; w reads eps and v; the truncation level
    # reads u, v, eps and the horizon.
    _schedule.cache_clear()
    base = private_policy(2.5, 0.9, 1.0, 1000)
    same = private_policy(2.5, 0.9, 1.0, 1000)
    # RobustUCB's C(t) has other constants; its w is w at eps 1.0.
    baseline = RobustUCB(3, MomentParams(u=2.5, v=0.9))
    assert baseline._scales is not base._scales
    assert baseline._pull_weights is base._pull_weights
    # 5 tables so far; the memo keeps 16, and each policy holds its own.
    shares = {
        "eps": (private_policy(2.5, 0.9, 2.0, 1000), {"_scales"}),
        "horizon": (private_policy(2.5, 0.9, 1.0, 2000), {"_pull_weights"}),
        "u": (private_policy(3.0, 0.9, 1.0, 1000), {"_pull_weights"}),
        "v": (private_policy(2.5, 0.8, 1.0, 1000), set()),
    }
    for name in TABLES["dprucb"]:
        assert getattr(same, name) is getattr(base, name)
        for changed, (policy, shared) in shares.items():
            assert (getattr(policy, name) is getattr(base, name)) == (name in shared), changed


def play_rep_3(algo: str):
    """Rep 3 of a config, audited for dprucb: the policy and its ledger columns."""
    ledger = PrivacyLedger()
    trace, policy = run_single(config_for(algo, 3000), 3, ledger=ledger, return_policy=True)
    if algo == "dprucb":
        assert audit_run(ledger).ok
        assert len(ledger.insertions) == 3000
    ledger_columns = [
        column.tobytes()
        for table in (ledger.noise_draws, ledger.insertions)
        for column in table.columns
    ]
    return trace, policy, ledger_columns


def state_bits(policy) -> tuple:
    return (
        [column.tobytes() for column in policy.transcript.columns],
        [x.hex() for x in policy._means],
        [x.hex() for x in policy._weights],
        policy._radius_scale.hex(),
        policy.pull_counts,
    )


@pytest.mark.parametrize("algo", ["dprucb", "rucb"])
def test_a_warm_memo_plays_the_same_run_as_a_cold_one(algo: str) -> None:
    _schedule.cache_clear()
    cold_trace, cold, cold_ledger = play_rep_3(algo)
    _schedule.cache_clear()
    for rep in range(3):
        _, filled = run_single(config_for(algo, 3000), rep, return_policy=True)
    rounds_filled = len(filled._scales)
    warm_trace, warm, warm_ledger = play_rep_3(algo)
    # Every round of the warm run read C(t) from the table reps 0-2 filled.
    assert warm._scales is filled._scales is not cold._scales
    assert rounds_filled > 3000
    assert warm_trace == cold_trace
    assert state_bits(warm) == state_bits(cold)
    assert warm_ledger == cold_ledger


def test_past_the_cap_the_round_robin_still_comes_first() -> None:
    # Rounds past the cap skip the tables, but not the first pass over the
    # arms: with more arms than the cap, round cap + 1 still plays its arm.
    # A round's arm is chosen when the round before it ends, here a
    # one-round stretch of _play_until.
    arms = _TABLE_CAP + 2
    policy = RobustUCB(arms, MomentParams(u=2.5, v=0.9))
    assert policy._select(1) == 0
    for t in (_TABLE_CAP, _TABLE_CAP + 1, arms):
        policy._round = t - 2  # the stretch plays round t - 1, the one after _round
        policy._play(policy._select(t - 1), 0.25)
        assert policy._select(t) == t - 1
    assert math.isnan(policy._radius_scale)


@pytest.mark.parametrize("duplicate", [lambda p: pickle.loads(pickle.dumps(p)), copy.deepcopy])
@pytest.mark.parametrize(
    "algo,mid_contract",
    [("dprucb", False), ("rucb", False), ("dprucb", True)],
    ids=["dprucb", "rucb", "dprucb-mid_contract"],
)
def test_a_copied_policy_plays_on_as_the_original(algo: str, mid_contract: bool, duplicate) -> None:
    # A copy's tables start empty and refill with the same doubles, and it
    # records its rounds in its own transcript, not in the original's.  The
    # policy is copied after run_single, or after 1000 rounds of the
    # contract, when what its rounds read is kept with the tree steps as
    # bound methods.
    _schedule.cache_clear()
    config = config_for(algo, 2000)
    if mid_contract:
        played = 1000
        policy = make_policy(config, make_instance_for(config.setting, config.v), 0)
        drive_by_contract(replace(config, horizon=played), policy)
        assert policy._loop is not None
    else:
        played = 2000
        _, policy = run_single(config, 0, return_policy=True)
    recorded = state_bits(policy)[0]
    twin = duplicate(policy)
    assert len(twin._scales) == 1 < len(policy._scales)
    assert state_bits(twin)[0] == recorded
    rounds = range(played + 1, played + 400)
    for t in rounds:
        twin._play(twin._select(t), 0.25)
    assert state_bits(policy)[0] == recorded
    assert len(policy.transcript) == policy.rounds_played == played
    assert len(twin.transcript) == twin.rounds_played == played + 399
    for t in rounds:
        policy._play(policy._select(t), 0.25)
    assert state_bits(twin) == state_bits(policy)


def drive_past_the_cap(policy) -> weakref.ref:
    """Fill every table of ``policy`` to the cap, then read past it."""
    names = TABLES["dprucb" if isinstance(policy, DPRobustUCB) else "rucb"]
    tables = [getattr(policy, name) for name in names]
    for n in (_TABLE_CAP - 1, 2 * _TABLE_CAP):
        # Arm 0's n-th pull, played by a one-round stretch of _play_until in
        # round n - 1, which ends by reading C(n) to choose round n's arm.
        policy._counts[0] = n - 1
        policy._round, policy._next_arm = n - 2, 0
        policy._play(0, 0.0)
    assert [len(table) for table in tables] == [_TABLE_CAP] * len(tables)
    return weakref.ref(policy)


def test_the_memo_stays_bounded() -> None:
    # Six private configs that differ in eps and horizon and one baseline
    # make 19 tables (the baseline shares w at eps 1.0), each filled to the
    # cap: more than the memo keeps.  What stays allocated once the policies
    # are gone is the memo's.  A policy that has read past the cap is freed
    # when its last reference goes, without the cycle collector.
    _schedule.cache_clear()
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        freed = [
            drive_past_the_cap(private_policy(2.5, 0.9, eps, horizon * _TABLE_CAP))
            for eps, horizon in ((0.5, 3), (1.0, 4), (2.0, 5), (3.0, 6), (4.0, 7), (5.0, 8))
        ]
        freed.append(drive_past_the_cap(RobustUCB(3, MomentParams(u=2.5, v=0.9))))
        assert [ref() for ref in freed] == [None] * 7
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
        gc.enable()
    made, kept = _schedule.cache_info().misses, _schedule.cache_info().currsize
    assert made == 19 > kept == 16
    # The memo is full of full tables, so the bound is not slack.
    assert kept * _TABLE_CAP * 8 < held < MEMO_BOUND, f"{held / 2**20:.2f} MiB"
