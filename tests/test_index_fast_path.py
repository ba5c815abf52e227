"""The index policies' per-round fast path against the public schedules.

The reference classes keep the per-round code the index policies had before
their schedule constants were fixed at construction: every round calls the
public schedule functions, and every stream is a bare generator.  The fast
policies read their streams through ``BlockStream``, as ``run_single`` does.
Driven for the same rounds on the same seeds, with real Laplace noise and
Pareto rewards, both must play the same arms and record the same transcript,
bit for bit.  The private policy's ledgers must match too: every truncation
level (as an insertion bound) and every noise scale.  A last-ulp change in a
radius rarely changes which arm wins, so the arm sequence is the radius's
only witness here.
"""

from __future__ import annotations

import functools
import math

import pytest

from htbandits import (
    DPRobustUCB,
    MomentParams,
    NoiseSource,
    PrivacyLedger,
    RobustUCB,
    make_instance_for,
    nonprivate_ucb_radius,
    nonprivate_ucb_threshold,
    private_ucb_radius,
    private_ucb_truncation,
)
from htbandits.seeding import REWARDS, TREE_NOISE, BlockStream, derive_stream

ROUNDS = 20_000
SEED = 5


class ReferenceDPRobustUCB(DPRobustUCB):
    def _select(self, t: int) -> int:
        if t <= self.num_arms:
            return t - 1
        params, eps, horizon = self.params, self.eps, self.horizon
        best_score = -math.inf
        best_arm = 0
        for a in range(self.num_arms):
            n = self._counts[a]
            score = self._trees[a].estimate / n + private_ucb_radius(
                params, eps, horizon, n, t
            )
            if score > best_score:
                best_score = score
                best_arm = a
        return best_arm

    def _observe(self, arm: int, reward: float) -> float:
        n = self._counts[arm] + 1
        self._counts[arm] = n
        bound = private_ucb_truncation(self.params, self.eps, self.horizon, n)
        kept = reward if abs(reward) <= bound else 0.0
        self._trees[arm].insert(kept, bound)
        return kept


class ReferenceRobustUCB(RobustUCB):
    def _select(self, t: int) -> int:
        if t <= self.num_arms:
            return t - 1
        params = self.params
        best_score = -math.inf
        best_arm = 0
        for a in range(self.num_arms):
            n = self._counts[a]
            score = self._sums[a] / n + nonprivate_ucb_radius(params, n, t)
            if score > best_score:
                best_score = score
                best_arm = a
        return best_arm

    def _observe(self, arm: int, reward: float) -> float:
        n = self._counts[arm] + 1
        self._counts[arm] = n
        bound = nonprivate_ucb_threshold(self.params, n, max(float(self._round), 2.0))
        kept = reward if abs(reward) <= bound else 0.0
        self._sums[arm] += kept
        return kept


def streams(num_arms: int, purpose: int, blocked: bool) -> list:
    keys = [dict(base_seed=SEED, rep=0, arm=a, purpose=purpose) for a in range(num_arms)]
    if blocked:
        return [BlockStream(functools.partial(derive_stream, **key)) for key in keys]
    return [derive_stream(**key) for key in keys]


def play(policy, instance, blocked: bool) -> None:
    rngs = streams(instance.num_arms, REWARDS, blocked)
    for t in range(1, ROUNDS + 1):
        arm = policy.select_arm(t)
        policy.observe(arm, instance.arms[arm].sample(rngs[arm]))


def assert_same_transcript(fast, reference) -> None:
    assert len(fast.transcript) == len(reference.transcript) == ROUNDS
    first_difference = next(
        (
            (got, want)
            for got, want in zip(fast.transcript, reference.transcript)
            if got != want
        ),
        None,
    )
    assert first_difference is None
    assert fast.pull_counts == reference.pull_counts
    # The run must explore, or equal arm sequences would show little.
    assert sum(1 for n in fast.pull_counts if n > 1) > 1


@pytest.mark.parametrize("eps", [0.1, 1.0, 1000.0])
@pytest.mark.parametrize("v", [0.5, 0.9, 1.0])
def test_private_index_fast_path_matches_the_schedules(v: float, eps: float) -> None:
    instance = make_instance_for("S1", v)
    params = MomentParams(u=instance.u, v=instance.v)
    runs = []
    for cls, blocked in ((DPRobustUCB, True), (ReferenceDPRobustUCB, False)):
        ledger = PrivacyLedger()
        sources = [
            NoiseSource(rng=rng, ledger=ledger)
            for rng in streams(instance.num_arms, TREE_NOISE, blocked)
        ]
        policy = cls(params, eps, ROUNDS, sources)
        play(policy, instance, blocked)
        runs.append((policy, ledger))
    (fast, fast_ledger), (reference, reference_ledger) = runs
    assert_same_transcript(fast, reference)
    assert fast_ledger.insertions == reference_ledger.insertions
    assert fast_ledger.noise_draws == reference_ledger.noise_draws
    if eps <= 1.0:  # at eps=1000 the truncation level outgrows every reward
        assert any(e.truncated_reward != e.reward for e in fast.transcript)


@pytest.mark.parametrize("v", [0.5, 0.9, 1.0])
def test_nonprivate_index_fast_path_matches_the_schedules(v: float) -> None:
    instance = make_instance_for("S1", v)
    params = MomentParams(u=instance.u, v=instance.v)
    fast = RobustUCB(instance.num_arms, params)
    reference = ReferenceRobustUCB(instance.num_arms, params)
    play(fast, instance, blocked=True)
    play(reference, instance, blocked=False)
    assert_same_transcript(fast, reference)
