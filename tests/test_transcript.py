"""The columnar transcript against the per-round list it replaced.

Reference subclasses keep one :class:`TranscriptEntry` per round in a plain
list, with the commitment flag read when the arm is selected, as every policy
did before its rounds were stored by column.  ``run_single`` drives the policy
core; the reference, built by ``make_policy`` from the same streams, is driven
by a hand loop over the public ``select_arm``/``observe`` contract, and every
way of reading the transcript must give the reference's entries: iteration,
length, positive and negative indices, slices, entry and field types, and
``IndexError`` past either end.  The same hand loop on a plain policy must
give ``run_single``'s transcript, ledger and final state bit for bit.  Further
tests compare a transcript with the list of its entries, bound what a
transcript holds per round, check that a finished policy and its columns are
freed without the cycle collector, and check that a round whose observe fails
is not recorded and ends the policy.
"""

from __future__ import annotations

import gc
import tracemalloc
import weakref

import pytest

from htbandits import (
    DPRobustSE,
    DPRobustUCB,
    ExperimentConfig,
    LDPRobustSE,
    MomentParams,
    PrivacyLedger,
    RobustUCB,
    TranscriptEntry,
    audit_run,
    make_instance_for,
    make_policy,
    run_single,
)
from htbandits.seeding import REWARDS, derive_stream

V = 0.9
SEED = 7


class ListTranscript:
    """Mixin: record each round as one ``TranscriptEntry`` in a list."""

    def select_arm(self, t: int) -> int:
        arm = super().select_arm(t)
        self._pending_committed = self._committed is not None
        return arm

    def observe(self, arm: int, reward: float) -> None:
        if self._pending is None:
            raise RuntimeError("observe called without a pending selection")
        if arm != self._pending:
            raise ValueError(f"observe got arm {arm}, selected arm was {self._pending}")
        self._round += 1
        self._pending = None
        reward = float(reward)
        kept = self._observe(arm, reward)
        self.transcript.append(
            TranscriptEntry(self._round, arm, reward, kept, self._pending_committed)
        )

    def _commit(self, arm: int) -> None:
        self._committed = arm


def list_reference(policy):
    """``policy``, before its first round, as its per-round-list reference."""
    policy.__class__ = type(f"List{type(policy).__name__}", (ListTranscript, type(policy)), {})
    policy.transcript = []
    policy._pending_committed = False
    return policy


def drive_by_contract(config: ExperimentConfig, policy) -> None:
    """Play ``config``'s repetition 0 through ``select_arm``/``observe``.

    The rewards come from the streams ``run_single`` reads, so the policy
    sees the rounds ``run_single`` would play.
    """
    instance = make_instance_for(config.setting, config.v)
    rngs = [
        derive_stream(config.base_seed, 0, arm=a, purpose=REWARDS)
        for a in range(instance.num_arms)
    ]
    for t in range(1, config.horizon + 1):
        arm = policy.select_arm(t)
        policy.observe(arm, instance.arms[arm].sample(rngs[arm]))


ALGO_CLASSES = {
    "dprucb": DPRobustUCB,
    "dprse": DPRobustSE,
    "ldprse": LDPRobustSE,
    "rucb": RobustUCB,
}

# (algo, setting, eps, horizon, completed epochs, when the policy commits)
CASES = [
    ("dprse", "S1", 1.0, 300, 0, "at_round_1"),
    ("dprse", "two_arm_hard", 100.0, 5000, 2, "after_epochs"),
    ("ldprse", "two_arm_hard", 1000.0, 5000, 1, "after_epochs"),
    ("dprucb", "S1", 1.0, 2000, 0, "never"),
    ("rucb", "S3", 1.0, 2000, 0, "never"),
]


def config_for(algo: str, setting: str, eps: float, horizon: int) -> ExperimentConfig:
    return ExperimentConfig(
        algo=algo, setting=setting, v=V, eps=eps, horizon=horizon, reps=1, base_seed=SEED
    )


def bits(entries) -> list:
    """Entries with their floats as hex, so -0.0 and 0.0 differ."""
    return [
        (e.round, e.arm, e.reward.hex(), e.truncated_reward.hex(), e.committed)
        for e in entries
    ]


def assert_same_entries(got, want) -> None:
    assert bits(got) == bits(want)
    for entry in got:
        assert type(entry) is TranscriptEntry
        assert [type(field) for field in entry] == [int, int, float, float, bool]


@pytest.mark.parametrize("algo,setting,eps,horizon,epochs,commits", CASES)
def test_columnar_transcript_reads_like_the_per_round_list(
    algo, setting, eps, horizon, epochs, commits
) -> None:
    config = config_for(algo, setting, eps, horizon)
    _, policy = run_single(config, 0, return_policy=True)
    instance = make_instance_for(setting, V)
    reference = list_reference(make_policy(config, instance, 0))
    drive_by_contract(config, reference)
    assert isinstance(reference.transcript, list)

    assert len(getattr(policy, "completed_epochs", ())) == epochs
    want = reference.transcript
    committed = [e.round for e in want if e.committed]
    if commits == "never":
        assert committed == []
    elif commits == "at_round_1":
        assert committed[0] == 1
    else:
        assert committed[0] > 1
    transcript = policy.transcript
    assert len(transcript) == len(want) == horizon == policy.rounds_played

    assert_same_entries(list(transcript), want)
    assert_same_entries(transcript, want)
    indices = [0, 1, -1, -2, -horizon, horizon - 1]
    if committed:
        indices += [committed[0] - 1, max(committed[0] - 2, 0)]
    for i in indices:
        assert_same_entries([transcript[i]], [want[i]])
    for window in (slice(None, None, 7), slice(-3, None), slice(None, None, -5), slice(2, 2)):
        got = transcript[window]
        assert isinstance(got, list)
        assert_same_entries(got, want[window])
    for i in (horizon, -horizon - 1):
        with pytest.raises(IndexError):
            transcript[i]


@pytest.mark.parametrize("algo,setting,eps,horizon,epochs,commits", CASES)
def test_run_single_and_the_public_contract_play_the_same_run(
    monkeypatch, algo, setting, eps, horizon, epochs, commits
) -> None:
    # run_single drives _select and _play; the contract reaches the same
    # _select and _observe, so both give the same run bit for bit.  Both set
    # the round before _observe runs, which RobustUCB's truncation and a
    # commitment made in _observe read; a truncation that moves with it
    # seldom changes a kept flag, so the round _observe sees is checked too.
    cls = ALGO_CLASSES[algo]
    core_observe = cls._observe
    rounds_seen = []

    def observe_spy(self, arm: int, reward: float) -> float:
        rounds_seen.append(self.rounds_played)
        return core_observe(self, arm, reward)

    monkeypatch.setattr(cls, "_observe", observe_spy)
    config = config_for(algo, setting, eps, horizon)
    ledgers = (PrivacyLedger(), PrivacyLedger())
    _, policy = run_single(config, 0, ledger=ledgers[0], return_policy=True)
    assert rounds_seen == list(range(1, horizon + 1))
    rounds_seen.clear()
    by_contract = make_policy(config, make_instance_for(setting, V), 0, ledger=ledgers[1])
    drive_by_contract(config, by_contract)
    assert rounds_seen == list(range(1, horizon + 1))

    assert bits(policy.transcript) == bits(by_contract.transcript)
    assert policy.rounds_played == by_contract.rounds_played == horizon
    assert policy.committed_arm() == by_contract.committed_arm()
    if algo in ("dprucb", "rucb"):
        assert policy.committed_arm() is None
        assert policy.pull_counts == by_contract.pull_counts
    else:
        assert policy.committed_arm() is not None
        assert len(policy.completed_epochs) == epochs
        assert policy.completed_epochs == by_contract.completed_epochs
    # Every column of the draws and the insertions, byte for byte.
    columns = [
        [c.tobytes() for table in (ledger.noise_draws, ledger.insertions) for c in table.columns]
        for ledger in ledgers
    ]
    assert columns[0] == columns[1]
    assert ledgers[0].mechanisms == ledgers[1].mechanisms
    assert ledgers[0].epochs == ledgers[1].epochs
    if algo == "dprucb":
        assert len(ledgers[0].noise_draws) == len(ledgers[0].insertions) == horizon
    elif epochs:
        assert len(ledgers[0].insertions) > 0
    assert audit_run(ledgers[0]).ok


@pytest.mark.parametrize("algo", ["dprucb", "dprse", "ldprse", "rucb"])
def test_a_long_run_holds_few_bytes_per_round(algo: str) -> None:
    # One TranscriptEntry per round in a list held ~152 B/round; three typed
    # columns (arm, reward, kept flag) hold 13 B/round plus their growth slack.
    rounds = 50_000
    config = config_for(algo, "S1", 1.0, rounds)
    instance = make_instance_for("S1", V)
    # The memoised checkpoint grid and schedule tables are not the run's to
    # hold.  Playing the same repetition first fills the tables to the rounds
    # and pull counts the run reaches; another repetition may pull an arm more
    # often, and the table it grows would count here whole.
    run_single(config, 0, instance=instance)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        trace, policy = run_single(config, 0, instance=instance, return_policy=True)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(policy.transcript) == rounds
    assert trace.checkpoints[-1][0] == rounds
    assert held / rounds < 18, f"{held / rounds:.1f} B/round"


@pytest.mark.parametrize(
    "truncate", [lambda reward: 0.5 * reward, lambda reward: -0.0], ids=["half", "minus_zero"]
)
def test_a_truncation_the_transcript_cannot_store_raises(truncate) -> None:
    # The transcript keeps a flag: the truncated reward is the reward or +0.0.
    # Both routes check it: observe, and _select then _play as run_single
    # calls them.
    class Misreporting(RobustUCB):
        def _observe(self, arm: int, reward: float) -> float:
            super()._observe(arm, reward)
            return truncate(reward)

    routes = {
        "observe": lambda policy: policy.observe(policy.select_arm(1), 0.25),
        "_play": lambda policy: policy._play(1, policy._select(1), 0.25),
    }
    for route, play_round_1 in routes.items():
        policy = Misreporting(2, MomentParams(u=1.0, v=1.0))
        with pytest.raises(ValueError, match="to itself or to 0.0"):
            play_round_1(policy)
        assert [len(column) for column in policy.transcript.columns] == [0, 0, 0], route


@pytest.mark.parametrize("failed_round", [1, 4])
def test_a_failed_observe_stops_the_policy(failed_round: int) -> None:
    # The round that fails is not recorded, and the policy, whose state the
    # failure may have left half updated, plays no further round.
    class Misreporting(RobustUCB):
        def _observe(self, arm: int, reward: float) -> float:
            kept = super()._observe(arm, reward)
            return 0.5 * reward if self.rounds_played == failed_round else kept

    policy = Misreporting(2, MomentParams(u=1.0, v=1.0))
    for t in range(1, failed_round):
        policy.observe(policy.select_arm(t), 0.25)
    arm = policy.select_arm(failed_round)
    with pytest.raises(ValueError, match="to itself or to 0.0"):
        policy.observe(arm, 0.25)
    assert policy.rounds_played == len(policy.transcript) == failed_round - 1
    message = f"round {failed_round} failed in observe"
    for t in (failed_round, failed_round + 1, 1):
        with pytest.raises(RuntimeError, match=message):
            policy.select_arm(t)
    for a in (arm, 1 - arm):
        with pytest.raises(RuntimeError, match=message):
            policy.observe(a, 0.25)
    assert policy.rounds_played == len(policy.transcript) == failed_round - 1


def test_a_transcript_equals_the_list_of_its_entries() -> None:
    # Two completed epochs, then commitment: the committed flags vary.
    _, policy = run_single(
        config_for("dprse", "two_arm_hard", 100.0, 5000), 0, return_policy=True
    )
    transcript = policy.transcript
    entries = list(transcript)
    assert transcript == entries and entries == transcript
    assert transcript == transcript[:]
    assert transcript != entries[:-1]
    assert transcript != entries[::-1]
    assert transcript != entries[:-1] + [entries[-1]._replace(committed=False)]
    assert transcript != tuple(entries)
    with pytest.raises(TypeError):
        hash(transcript)


@pytest.mark.parametrize("algo", ["dprucb", "dprse", "ldprse", "rucb"])
def test_a_finished_audited_policy_is_freed_by_reference_counting(algo: str) -> None:
    # A transcript holding a bound method of its policy would form a cycle
    # that keeps a long run's columns alive until the next collection.
    ledger = PrivacyLedger()
    enabled = gc.isenabled()
    gc.disable()
    try:
        _, policy = run_single(
            config_for(algo, "S1", 1.0, 2000), 0, ledger=ledger, return_policy=True
        )
        assert audit_run(ledger).ok
        policy_ref = weakref.ref(policy)
        column_ref = weakref.ref(policy.transcript.columns[0])
        del policy
        assert policy_ref() is None
        assert column_ref() is None
    finally:
        if enabled:
            gc.enable()
