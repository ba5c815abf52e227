"""The columnar transcript against the per-round list it replaced.

Reference subclasses keep one :class:`TranscriptEntry` per round in a plain
list, with the commitment flag read when the arm is selected, as every policy
did before its rounds were stored by column.  ``run_single`` drives both on
the same streams (the policy classes are swapped in ``harness``), and every
way of reading the transcript must give the reference's entries: iteration,
length, positive and negative indices, slices, entry and field types, and
``IndexError`` past either end.  Further tests compare a transcript with the
list of its entries, bound what a transcript holds per round, check that a
finished policy and its columns are freed without the cycle collector, and
check that a round whose observe fails is not recorded and ends the policy.
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
    harness,
    make_instance_for,
    run_single,
)

V = 0.9
SEED = 7


class ListTranscript:
    """Mixin: record each round as one ``TranscriptEntry`` in a list."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.transcript = []
        self._pending_committed = False

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


POLICY_CLASSES = {
    "DPRobustUCB": DPRobustUCB,
    "DPRobustSE": DPRobustSE,
    "LDPRobustSE": LDPRobustSE,
    "RobustUCB": RobustUCB,
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
    monkeypatch, algo, setting, eps, horizon, epochs, commits
) -> None:
    config = config_for(algo, setting, eps, horizon)
    _, policy = run_single(config, 0, return_policy=True)
    for name, cls in POLICY_CLASSES.items():
        monkeypatch.setattr(harness, name, type(f"List{name}", (ListTranscript, cls), {}))
    _, reference = run_single(config, 0, return_policy=True)
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


@pytest.mark.parametrize("algo", ["dprucb", "dprse", "ldprse", "rucb"])
def test_a_long_run_holds_few_bytes_per_round(algo: str) -> None:
    # One TranscriptEntry per round in a list held ~152 B/round; three typed
    # columns (arm, reward, kept flag) hold 13 B/round plus their growth slack.
    rounds = 50_000
    config = config_for(algo, "S1", 1.0, rounds)
    instance = make_instance_for("S1", V)
    config.checkpoints()  # the memoised grid is not the run's to hold
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
    class Misreporting(RobustUCB):
        def _observe(self, arm: int, reward: float) -> float:
            super()._observe(arm, reward)
            return truncate(reward)

    policy = Misreporting(2, MomentParams(u=1.0, v=1.0))
    arm = policy.select_arm(1)
    with pytest.raises(ValueError, match="to itself or to 0.0"):
        policy.observe(arm, 0.25)
    assert len(policy.transcript) == 0


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
