"""The columnar transcript against the per-round list it replaced.

Reference subclasses keep one :class:`TranscriptEntry` per round in a plain
list, with the commitment flag read when the arm is selected, as every policy
did before its rounds were stored by column.  ``run_single`` drives the
policy core; the reference, built by ``make_policy`` from the same streams,
is driven by a hand loop over the public ``select_arm``/``observe`` contract,
and every way of reading the transcript must give the reference's entries:
iteration, length, slices (one-round ones at positive and negative bounds,
and an empty list past either end), and entry and field types.  Every policy
plays every round in its stretch loop, so each reference plays its rounds one
at a time with the ``_select`` and ``_observe`` of a per-round reference: the
elimination references below hold the per-round code the elimination policies
had before their rounds moved into one loop, and the index references are
those of ``test_index_fast_path``.  The same hand loop on a plain policy must
give ``run_single``'s transcript, ledger and final state bit for bit, with
every round of both routes played by the policy's stretch loop.  Further
tests check that an int index is refused and that a round read from the
columns is the entry a slice gives, bound what a transcript holds per round,
check that a finished policy and its columns are freed without the cycle
collector, and check that a round whose observe fails is not recorded and
ends the policy.
"""

from __future__ import annotations

import gc
import itertools
import math
import operator
import tracemalloc
import weakref

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
    make_instance,
    make_instance_for,
    make_policy,
    run_single,
)
from htbandits.seeding import REWARDS, TREE_NOISE, derive_stream
from test_index_fast_path import PerRound, ReferenceDPRobustUCB, ReferenceRobustUCB

V = 0.9
SEED = 7


class PerRoundElimination(PerRound):
    """Mixin: an elimination policy's round as ``_select(t)``, then ``_observe``."""

    def _select(self, t: int) -> int:
        if t > self._epoch_end:
            self._begin_epoch(t)
            if self._committed is not None:
                return self._committed
        return self._viable[(t - self._epoch_end - 1) % len(self._viable)]

    def _observe(self, t: int, arm: int, reward: float) -> float:
        sched = self._sched
        kept = reward if abs(reward) <= sched.truncation else 0.0
        if self.ledger is not None:
            self.ledger.record_insertion(self._mechs[arm], arm, kept, sched.truncation)
        self._sums[arm] += self._epoch_contribution(arm, kept)
        if t == self._epoch_end:
            self._end_epoch(t)
        return kept


class ReferenceDPRobustSE(PerRoundElimination, DPRobustSE):
    pass


class ReferenceLDPRobustSE(PerRoundElimination, LDPRobustSE):
    pass


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
        # A committed round keeps its reward and reaches no _observe.
        kept = reward if self._pending_committed else self._observe(self._round, arm, reward)
        self.transcript.append(
            TranscriptEntry(self._round, arm, reward, kept, self._pending_committed)
        )

    def _commit(self, arm: int, first_round: int) -> None:
        self._committed = arm


# No policy has an _observe: its rounds are its per-round reference's.
PER_ROUND = {
    DPRobustUCB: ReferenceDPRobustUCB,
    RobustUCB: ReferenceRobustUCB,
    DPRobustSE: ReferenceDPRobustSE,
    LDPRobustSE: ReferenceLDPRobustSE,
}


def list_reference(policy):
    """``policy``, before its first round, as its per-round-list reference."""
    base = PER_ROUND[type(policy)]
    policy.__class__ = type(f"List{base.__name__}", (ListTranscript, base), {})
    policy.transcript = []
    policy._pending_committed = False
    return policy


def drive_by_contract(config: ExperimentConfig, policy, instance=None) -> None:
    """Play ``config``'s repetition 0 through ``select_arm``/``observe``.

    The rewards come from the streams ``run_single`` reads, so the policy
    sees the rounds ``run_single`` would play on ``instance`` (by default
    the setting's).
    """
    if instance is None:
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

# (algo, setting, eps, horizon, completed epochs, when the policy commits,
# arm order).  Of the first nine, the next three end in committed tails of
# many reward blocks: with the arms reversed, S1's arm 0 is its worst, so the
# regret grows through the tail.  In the ninth, the committed arm holds 123
# unread rewards of its current block, taken while five arms shared the
# rounds, and 64 rounds are left.  The next five dprucb runs, and the five
# rucb runs after them, end at and just past the round-robin pass over S1's 5
# arms (T=5, 6) and at, just past and twice run_single's longest stretch of
# 64 rounds (T=64, 65, 130); their dense checkpoints cut the stretches to 1-5
# rounds, while the T=2000 cells' last stretches run the full 64.  In the last
# two cells, epoch 1 ends at round T: the run ends uncommitted, with
# both arms viable, as no round is left to begin epoch 2 (and commit) in.
CASES = [
    ("dprse", "S1", 1.0, 300, 0, "at_round_1", "given"),
    ("dprse", "two_arm_hard", 100.0, 5000, 2, "after_epochs", "given"),
    ("ldprse", "two_arm_hard", 1000.0, 5000, 1, "after_epochs", "given"),
    ("dprucb", "S1", 1.0, 2000, 0, "never", "given"),
    ("rucb", "S3", 1.0, 2000, 0, "never", "given"),
    ("dprse", "S1", 1.0, 100_000, 0, "at_round_1", "given"),
    ("ldprse", "two_arm_hard", 1000.0, 20_000, 1, "after_epochs", "given"),
    ("dprse", "S1", 1.0, 20_000, 0, "at_round_1", "reversed"),
    ("dprse", "S1", 1000.0, 2000, 1, "after_epochs", "given"),
] + [
    (algo, "S1", 1.0, horizon, 0, "never", "given")
    for algo in ("dprucb", "rucb")
    for horizon in (5, 6, 64, 65, 130)
] + [
    ("dprse", "two_arm_hard", 100.0, 252, 1, "never", "given"),
    ("ldprse", "two_arm_hard", 1000.0, 2020, 1, "never", "given"),
]
# The ids name the arm order only where it is not the setting's.
CASE_IDS = ["-".join(map(str, case[:6] if case[6] == "given" else case)) for case in CASES]


# The contract test runs every case with Laplace noise and the private index
# policy's cases with the zero-noise hook as well.
CONTRACT_CASES = [(*case, False) for case in CASES] + [
    (*case, True) for case in CASES if case[0] == "dprucb"
]
CONTRACT_IDS = CASE_IDS + [
    case_id + "-zero_noise" for case_id, case in zip(CASE_IDS, CASES) if case[0] == "dprucb"
]


def config_for(
    algo: str, setting: str, eps: float, horizon: int, zero_noise: bool = False
) -> ExperimentConfig:
    return ExperimentConfig(
        algo=algo, setting=setting, v=V, eps=eps, horizon=horizon, reps=1, base_seed=SEED,
        zero_noise=zero_noise,
    )


def tree_state(tree) -> tuple:
    """A tree's state, floats as hex, with its source's draw count."""
    return (
        tree.t,
        tree.estimate.hex(),
        [x.hex() for x in tree._noisy_stack],
        [x.hex() for x in tree._psums],
        tree._last_bound.hex(),
        tree._noise.draws_made,
    )


def instance_for(setting: str, arms: str):
    """The setting's instance, with its arms in the given or the reversed order."""
    instance = make_instance_for(setting, V)
    if arms == "reversed":
        instance = make_instance(instance.arms[::-1], instance.v, instance.u)
    return instance


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


@pytest.mark.parametrize("algo,setting,eps,horizon,epochs,commits,arms", CASES, ids=CASE_IDS)
def test_columnar_transcript_reads_like_the_per_round_list(
    algo, setting, eps, horizon, epochs, commits, arms
) -> None:
    config = config_for(algo, setting, eps, horizon)
    instance = instance_for(setting, arms)
    _, policy = run_single(config, 0, instance=instance, return_policy=True)
    reference = list_reference(make_policy(config, instance, 0))
    drive_by_contract(config, reference, instance)
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
    # One round is the slice from i to i + 1 (to the end for i = -1).
    for i in indices:
        assert_same_entries(transcript[i : i + 1 or None], [want[i]])
    for window in (slice(None, None, 7), slice(-3, None), slice(None, None, -5), slice(2, 2)):
        got = transcript[window]
        assert isinstance(got, list)
        assert_same_entries(got, want[window])
    for i in (horizon, -horizon - 1):
        assert transcript[i : i + 1 or None] == want[i : i + 1 or None] == []


@pytest.mark.parametrize(
    "algo,setting,eps,horizon,epochs,commits,arms,zero_noise", CONTRACT_CASES, ids=CONTRACT_IDS
)
def test_run_single_and_the_public_contract_play_the_same_run(
    monkeypatch, algo, setting, eps, horizon, epochs, commits, arms, zero_noise
) -> None:
    # run_single has the policy play stretches of rounds, and the contract
    # one round at a time.  On both routes the policy's stretch loop,
    # _play_until, plays every round, committed ones included, and both
    # routes give the same run bit for bit.
    cls = ALGO_CLASSES[algo]
    index = algo in ("dprucb", "rucb")
    play_until = cls._play_until
    rounds_seen = []

    def spy(self, stop: int) -> int:
        first = self.rounds_played + 1
        next_round = play_until(self, stop)
        assert next_round == self.rounds_played + 1
        rounds_seen.extend(range(first, next_round))
        return next_round

    monkeypatch.setattr(cls, "_play_until", spy)
    config = config_for(algo, setting, eps, horizon, zero_noise)
    instance = instance_for(setting, arms)
    ledgers = (PrivacyLedger(), PrivacyLedger())
    trace, policy = run_single(config, 0, instance=instance, ledger=ledgers[0], return_policy=True)
    first_committed = policy.transcript._first_committed
    assert rounds_seen == list(range(1, horizon + 1))
    rounds_seen.clear()
    by_contract = make_policy(config, instance, 0, ledger=ledgers[1])
    drive_by_contract(config, by_contract, instance)
    assert rounds_seen == list(range(1, horizon + 1))

    assert bits(policy.transcript) == bits(by_contract.transcript)
    assert by_contract.transcript._first_committed == first_committed
    assert policy.rounds_played == by_contract.rounds_played == horizon
    if arms == "reversed":
        # The worst arm: the regret grows at every checkpoint of the tail.
        assert instance.gaps[policy.committed_arm()] == max(instance.gaps)
    # The checkpoints, from the contract's transcript one round at a time.
    cps = set(config.checkpoints())
    counts = [0] * instance.num_arms
    want = []
    for entry in by_contract.transcript:
        counts[entry.arm] += 1
        if entry.round in cps:
            want.append((entry.round, math.fsum(map(operator.mul, instance.gaps, counts))))
    assert trace.checkpoints == tuple(want)
    # Both routes leave the policy's own pull counts at the transcript's.
    assert policy.pull_counts == by_contract.pull_counts == tuple(counts)
    assert policy.committed_arm() == by_contract.committed_arm()
    if index:
        assert policy.committed_arm() is None
        assert [x.hex() for x in policy._means] == [x.hex() for x in by_contract._means]
        assert [x.hex() for x in policy._weights] == [x.hex() for x in by_contract._weights]
        assert policy._radius_scale.hex() == by_contract._radius_scale.hex()
        if algo == "rucb":
            assert [x.hex() for x in policy._sums] == [x.hex() for x in by_contract._sums]
        else:
            assert [tree_state(tree) for tree in policy._trees] == [
                tree_state(tree) for tree in by_contract._trees
            ]
    else:
        assert len(policy.completed_epochs) == epochs
        assert policy.completed_epochs == by_contract.completed_epochs
        assert policy.viable_arms == by_contract.viable_arms
        if commits == "never":
            # Epoch 1 ends at round T, and no round is left to begin epoch 2.
            assert policy.committed_arm() is None
            assert policy.viable_arms == tuple(range(instance.num_arms))
            assert len(ledgers[0].epochs) == epochs
        else:
            assert policy.committed_arm() is not None
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


@pytest.mark.parametrize(
    "algo,rounds",
    [(algo, 50_000) for algo in ("dprucb", "dprse", "ldprse", "rucb")] + [("dprse", 10**6)],
    ids=["dprucb", "dprse", "ldprse", "rucb", "dprse-1000000"],
)
def test_a_long_run_holds_few_bytes_per_round(algo: str, rounds: int) -> None:
    # One TranscriptEntry per round in a list held ~152 B/round; three typed
    # columns (arm, reward, kept flag) hold 13 B/round plus their growth slack.
    # The elimination runs commit, at round 1 on S1, and their committed
    # tails are read a block at a time: one list of the whole tail's floats
    # would add about 32 B/round to the peak.
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
        held, peak = (size - before for size in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    assert len(policy.transcript) == rounds
    assert trace.checkpoints[-1][0] == rounds
    assert held / rounds < 18, f"{held / rounds:.1f} B/round"
    if algo in ("dprse", "ldprse"):
        assert policy.transcript._first_committed == 1
        assert peak / rounds < 18, f"peak {peak / rounds:.1f} B/round"


def failing_sources(num_arms: int, failed_draw: int) -> list:
    """Zero-noise sources, one per arm, whose ``failed_draw``-th draw among them raises."""
    draws = itertools.count(1)

    class FailingSource(NoiseSource):
        def draw(self, *args) -> float:
            if next(draws) == failed_draw:
                raise ValueError("the noise source failed")
            return super().draw(*args)

    return [FailingSource(hook=NoiseHook.ZERO) for _ in range(num_arms)]


@pytest.mark.parametrize("failed_round", [1, 4])
def test_a_failed_observe_stops_the_policy(failed_round: int) -> None:
    # A local elimination round draws its reward's noise, so with the k-th
    # draw failing, round k fails.  Epoch 1 plays rounds 1 to 3576.  The round
    # that fails is not recorded, and the policy, whose state the failure may
    # have left half updated, plays no further round.
    sources = failing_sources(2, failed_round)
    policy = LDPRobustSE(MomentParams(u=1.0, v=1.0), 1000.0, 5000, sources)
    for t in range(1, failed_round):
        policy.observe(policy.select_arm(t), 0.25)
    arm = policy.select_arm(failed_round)
    with pytest.raises(ValueError, match="the noise source failed"):
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


def test_a_round_past_the_tree_capacity_fails_and_stops_the_policy() -> None:
    # A private index round that fails for real: with one arm and horizon 2,
    # round 3's pull does not fit the arm's tree.  The round is not recorded,
    # leaves the pull counts, means, tree and noise draws as they were, and
    # the policy plays no further round.
    ledger = PrivacyLedger()
    source = NoiseSource(rng=derive_stream(SEED, 0, arm=0, purpose=TREE_NOISE), ledger=ledger)
    policy = DPRobustUCB(MomentParams(u=1.0, v=1.0), 1.0, 2, [source])
    for t in (1, 2):
        policy.observe(policy.select_arm(t), 0.25)

    def state() -> tuple:
        return (
            policy.rounds_played,
            policy.pull_counts,
            [x.hex() for x in policy._means],
            tree_state(policy._trees[0]),
            [c.tobytes() for table in (policy.transcript, ledger.noise_draws, ledger.insertions)
             for c in table.columns],
        )

    before = state()
    assert before[0] == 2 and before[3][-1] == 2
    arm = policy.select_arm(3)
    with pytest.raises(ValueError, match="tree is full"):
        policy.observe(arm, 0.25)
    assert state() == before
    message = "round 3 failed in observe"
    for t in (3, 4):
        with pytest.raises(RuntimeError, match=message):
            policy.select_arm(t)
    with pytest.raises(RuntimeError, match=message):
        policy.observe(arm, 0.25)
    assert state() == before


def test_a_transcript_reads_one_round_from_its_columns_not_by_index() -> None:
    # Two completed epochs, then commitment: the committed flags vary.
    _, policy = run_single(
        config_for("dprse", "two_arm_hard", 100.0, 5000), 0, return_policy=True
    )
    transcript = policy.transcript
    for index in (0, -1, len(transcript), np.int64(3), True):
        with pytest.raises(TypeError, match="read one round from its columns"):
            transcript[index]
    arms, rewards, kept = transcript.columns
    first = transcript._first_committed
    assert 1 < first < len(transcript)
    for i in (0, first - 2, first - 1, len(transcript) - 1):
        [entry] = transcript[i : i + 1]
        truncated = rewards[i] if kept[i] else 0.0
        assert bits([entry]) == [
            (i + 1, arms[i], rewards[i].hex(), truncated.hex(), i + 1 >= first)
        ]


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
