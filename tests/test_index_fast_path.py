"""The index policies' stretch loop against per-round references on the public schedules.

The reference classes keep the per-round code the index policies had before
their schedule constants were fixed at construction: every round calls the
public schedule functions in the reference's own ``_select`` and
``_observe``, which ``_PolicyBase._play`` reaches, and every stream is a bare
generator.  The policies play each round of the contract as a one-round
stretch of ``_IndexPolicy._play_until`` and read their streams through
``BlockStream``, as ``run_single`` does.  Driven for the same rounds on the
same seeds, with real Laplace noise and Pareto rewards, both must play the
same arms and record the same transcript, bit for bit.  The private policy's
ledgers must match too: every truncation level (as an insertion bound) and
every noise scale.  A reference that keeps a wrong sum must fail the same
comparison.

A last-ulp change in a radius rarely changes which arm wins, so the value
tests read the values themselves.  A policy keeps its radius as a per-round
factor ``_radius_scale`` and a per-arm factor in ``_weights``; their product
must equal the public radius, and the level at which a reward stops being
kept must be the public truncation level, both compared with ``float.hex``
over a grid of tail exponents, budgets, pull counts and rounds, each reached
by a one-round stretch of the loop.  The grid runs twice on one emptied
schedule memo: cold, when every value is computed as a table grows to it,
and warm, when the points inside the tables' cap are read back from the
tables the cold pass filled.
"""

from __future__ import annotations

import functools
import math

import pytest

from htbandits import (
    DPRobustUCB,
    MomentParams,
    NoiseHook,
    NoiseSource,
    PrivacyLedger,
    RobustUCB,
    make_instance_for,
    nonprivate_ucb_radius,
    nonprivate_ucb_threshold,
    private_ucb_radius,
    private_ucb_truncation,
)
from htbandits.policies import _TABLE_CAP, _PolicyBase, _schedule
from htbandits.seeding import REWARDS, TREE_NOISE, BlockStream, derive_stream

ROUNDS = 20_000
SEED = 5


class ReferenceDPRobustUCB(DPRobustUCB):
    # Each round is this class's _select, then _observe through the base _play.
    _play = _PolicyBase._play

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

    def _observe(self, t: int, arm: int, reward: float) -> float:
        n = self._counts[arm] + 1
        self._counts[arm] = n
        bound = private_ucb_truncation(self.params, self.eps, self.horizon, n)
        kept = reward if abs(reward) <= bound else 0.0
        self._trees[arm].insert(kept, bound)
        return kept


class ReferenceRobustUCB(RobustUCB):
    _play = _PolicyBase._play

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

    def _observe(self, t: int, arm: int, reward: float) -> float:
        n = self._counts[arm] + 1
        self._counts[arm] = n
        bound = nonprivate_ucb_threshold(self.params, n, max(float(t), 2.0))
        kept = reward if abs(reward) <= bound else 0.0
        self._sums[arm] += kept
        return kept


class WrongSumReferenceRobustUCB(ReferenceRobustUCB):
    """A reference that adds each reward to its arm's sum before truncation."""

    def _observe(self, t: int, arm: int, reward: float) -> float:
        kept = super()._observe(t, arm, reward)
        self._sums[arm] += reward - kept
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
    assert fast_ledger.insertions.columns == reference_ledger.insertions.columns
    assert fast_ledger.noise_draws.columns == reference_ledger.noise_draws.columns
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


def test_a_reference_that_keeps_a_wrong_sum_fails_the_comparison() -> None:
    # The references' own rounds are what the comparison checks: one whose
    # _observe keeps the untruncated sum plays other arms.
    instance = make_instance_for("S1", 0.9)
    params = MomentParams(u=instance.u, v=instance.v)
    fast = RobustUCB(instance.num_arms, params)
    wrong = WrongSumReferenceRobustUCB(instance.num_arms, params)
    play(fast, instance, blocked=True)
    play(wrong, instance, blocked=False)
    with pytest.raises(AssertionError):
        assert_same_transcript(fast, wrong)


# Pull counts and rounds of the value tests.  The rounds run from the first
# one past the round-robin pass over the arms to 2**20 + 1.  Past 55,108,
# 2 * t**4 needs more than 64 bits.  Rounds 4 to 55,109 and pull counts 1 to
# 1000 lie inside the schedule tables' cap of 2**17 entries; round 2**20 + 1
# and pull count 2**20 lie past it, where the policies evaluate inline.
VALUE_ARMS = 3
VALUE_PULLS = (1, 2, 7, 1000, 2**20)
VALUE_ROUNDS = (VALUE_ARMS + 1, VALUE_ARMS + 2, 1000, 55_108, 55_109, 2**20 + 1)
VALUE_HORIZON = max(VALUE_ROUNDS)
VALUE_U = 2.5
VALUE_V = (0.1, 0.5, 0.9, 1.0)


def at_the_level(level: float) -> tuple:
    """Rewards at a truncation level, and just past it, with whether each is kept."""
    above = math.nextafter(level, math.inf)
    return ((level, True), (-level, True), (above, False), (-above, False))


def play_pull(policy, arm: int, n: int, t: int, reward: float) -> bool:
    """Play ``arm``'s ``n``-th pull, of ``reward``, as round ``t``; return whether it was kept.

    The round is a one-round stretch of ``_play_until``, which ends by
    choosing round ``t + 1``'s arm and so reads ``C(t + 1)``.
    """
    policy._counts[arm] = n - 1
    policy._play(t, arm, reward)
    return policy.transcript.columns[2][-1] == 1


def assert_keeps_exactly_to(policy, arm: int, n: int, level: float, t: int = 1) -> None:
    """Play ``arm``'s ``n``-th pull, in round ``t``, at and just past ``level``, both signs."""
    for reward, keep in at_the_level(level):
        assert play_pull(policy, arm, n, t, reward) == keep, (n, reward.hex(), level.hex())


def assert_radius(policy, arm: int, n: int, t: int, want: float) -> None:
    """``C(t) * w`` after ``arm``'s ``n``-th pull, played in round ``t - 1``, is ``want``."""
    play_pull(policy, arm, n, t - 1, 0.0)
    assert_same_double(policy._radius_scale * policy._weights[arm], want, n, t)


def assert_same_double(got: float, want: float, *where) -> None:
    assert got.hex() == want.hex(), where


def same_objects(got, want) -> bool:
    return all(a is b for a, b in zip(got, want))


def assert_in_and_past_the_cap(tables) -> None:
    """The cold pass filled every table to its in-cap points, and no further than the cap."""
    for table, points in zip(tables, (VALUE_ROUNDS, VALUE_PULLS, VALUE_PULLS)):
        inside = [i for i in points if i < _TABLE_CAP]
        assert max(inside) < len(table) <= _TABLE_CAP
        assert max(points) >= _TABLE_CAP


def assert_private_values(params: MomentParams, eps: float) -> tuple:
    """Check the grid on one policy and return the tables it read."""
    ledger = PrivacyLedger()
    sources = [NoiseSource(hook=NoiseHook.ZERO, ledger=ledger) for _ in range(VALUE_ARMS)]
    policy = DPRobustUCB(params, eps, VALUE_HORIZON, sources)
    for n in VALUE_PULLS:
        arm = n % VALUE_ARMS
        level = private_ucb_truncation(params, eps, VALUE_HORIZON, n)
        assert_keeps_exactly_to(policy, arm, n, level)
        # The ledger holds the bound the tree checked the insertion against.
        assert_same_double(ledger.insertions.columns[3][-1], level, n)
        for t in VALUE_ROUNDS:
            assert_radius(policy, arm, n, t, private_ucb_radius(params, eps, VALUE_HORIZON, n, t))
    return policy._scales, policy._bounds, policy._pull_weights


@pytest.mark.parametrize("eps", [0.1, 1.0, 1000.0])
@pytest.mark.parametrize("v", VALUE_V)
def test_private_index_values_equal_the_schedules(v: float, eps: float) -> None:
    params = MomentParams(u=VALUE_U, v=v)
    _schedule.cache_clear()
    tables = assert_private_values(params, eps)
    assert_in_and_past_the_cap(tables)
    assert same_objects(assert_private_values(params, eps), tables)


def assert_nonprivate_values(params: MomentParams) -> tuple:
    """Check the grid on one policy and return the tables it read."""
    policy = RobustUCB(VALUE_ARMS, params)
    for n in VALUE_PULLS:
        arm = n % VALUE_ARMS
        for t in VALUE_ROUNDS:
            # The truncation reads the round being played; rounds before t=2 clamp.
            level = nonprivate_ucb_threshold(params, n, float(t))
            assert_keeps_exactly_to(policy, arm, n, level, t)
            assert_radius(policy, arm, n, t, nonprivate_ucb_radius(params, n, t))
    assert_keeps_exactly_to(policy, 0, 1, nonprivate_ucb_threshold(params, 1, 2.0), 1)
    return policy._scales, policy._pull_weights


@pytest.mark.parametrize("v", VALUE_V)
def test_nonprivate_index_values_equal_the_schedules(v: float) -> None:
    params = MomentParams(u=VALUE_U, v=v)
    _schedule.cache_clear()
    scales, weights = assert_nonprivate_values(params)
    assert_in_and_past_the_cap((scales, weights))
    assert same_objects(assert_nonprivate_values(params), (scales, weights))
