"""Bandit policies: private index policy, private and local elimination, baseline.

All policies share one driving contract: ``select_arm(t)`` is called with
``t = 1, 2, ...`` and then ``observe(arm, reward)`` with the arm just
selected, exactly once per round, in order.  The contract is there for
outside callers and is enforced; misuse raises.  ``run_single`` builds its
policy and keeps the contract itself, so it drives the policy core: ``_select``
and then ``_play``, which sets the round, calls ``_observe`` and records the
round.  Both routes reach the same ``_select`` and ``_observe``, so a round's
arithmetic has one path.  Each observed round is recorded in ``transcript``, a
:class:`~htbandits.mechanisms.RecordTable` of :class:`TranscriptEntry` stored
by column at 13 bytes per round: the arm, the reward and a kept flag of each
round, plus the first committed round.  A policy truncates a reward to itself
or to ``0.0``, so the flag and the reward give the truncated reward; a policy
that returns anything else makes ``observe`` raise.

The two index policies share one core, ``_IndexPolicy``: after one
round-robin pass over the arms they play the arm maximizing truncated mean +
``C(t) * w_a``, ties to the lowest index.  They differ only in the mean
estimator, the truncation level and the constants of ``C(t)`` and ``w_a``.

Noise enters only through per-arm :class:`~htbandits.mechanisms.NoiseSource`
objects supplied at construction, so runs are exactly reproducible and the
zero-noise hook turns every policy into its noiseless counterpart.
"""

import math
from itertools import repeat, tee
from typing import NamedTuple, Optional

from .mechanisms import (
    CENTRAL_EPOCH_KIND,
    LOCAL_EPOCH_KIND,
    LOCAL_REWARD_SITE,
    SE_RELEASE_SITE,
    AdaptiveTree,
    RecordTable,
    _as_index,
)
from .schedules import (
    MomentParams,
    central_se_schedule,
    local_se_schedule,
    nonprivate_ucb_radius,
    nonprivate_ucb_threshold,
    private_ucb_radius,
    private_ucb_truncation,
)

__all__ = [
    "TranscriptEntry",
    "DPRobustUCB",
    "DPRobustSE",
    "LDPRobustSE",
    "RobustUCB",
    "CENTRAL_ELIMINATION_MULT",
    "LOCAL_ELIMINATION_MULT",
]

# Elimination thresholds are these multiples of the epoch accuracy term.
CENTRAL_ELIMINATION_MULT = 12.0
LOCAL_ELIMINATION_MULT = 14.0


class TranscriptEntry(NamedTuple):
    """One observed round.

    ``committed`` reflects the policy's commitment status at selection time:
    True means the pull was played after the policy fixed its final arm.
    """

    round: int
    arm: int
    reward: float
    truncated_reward: float
    committed: bool


class _Transcript(RecordTable):
    """The observed rounds of one policy: the arm, the reward and a kept flag.

    Entry ``i`` is round ``i + 1``, because rounds are consecutive from 1.
    The truncated reward is the reward where the kept flag is 1 and ``0.0``
    where it is 0.  Commitment is never undone, so the committed rounds are
    the suffix from ``_first_committed`` on (None while no round is
    committed).  Entries are :class:`TranscriptEntry` values built in C with
    ``tuple.__new__``, which skips NamedTuple's Python-level ``__new__`` (same
    type, same fields in the same order).
    """

    __slots__ = ("_first_committed",)

    def __init__(self):
        super().__init__("IdB")
        self._first_committed: Optional[int] = None

    def _records(self, rows: range, columns):
        # Both rounds and flags iterate over the range of round numbers.
        rounds = range(rows.start + 1, rows.stop + 1, rows.step)
        first = self._first_committed
        flags = repeat(False) if first is None else map(first.__le__, rounds)
        arms, rewards, kept = columns
        rewards, to_truncate = tee(rewards)
        # (0.0, reward)[kept]: the reward where it was kept, 0.0 where not.
        truncated = map(tuple.__getitem__, zip(repeat(0.0), to_truncate), kept)
        entries = zip(rounds, arms, rewards, truncated, flags)
        return map(tuple.__new__, repeat(TranscriptEntry), entries)


# Takes the pending arm's place once a round failed in observe; no arm equals
# it, so every later select_arm or observe reaches an error branch.
_FAILED = object()


def _shared_ledger(noise_sources: list):
    """The ledger all sources carry (None for none); raises if they differ."""
    ledger = noise_sources[0].ledger
    if any(src.ledger is not ledger for src in noise_sources):
        raise ValueError("the noise sources carry different ledgers")
    return ledger


class _PolicyBase:
    """Round bookkeeping, contract enforcement, transcript recording.

    A round whose ``observe`` raises is not recorded: ``rounds_played`` stays
    at the transcript's length.  The policy's own state may be half updated by
    then, so every later ``select_arm`` or ``observe`` raises ``RuntimeError``.
    """

    def __init__(self, num_arms: int):
        num_arms = _as_index("num_arms", num_arms)
        if num_arms < 1:
            raise ValueError(f"num_arms must be >= 1, got {num_arms}")
        self.num_arms = num_arms
        self.transcript = _Transcript()
        arms, rewards, kept = self.transcript.columns
        self._record_arm = arms.append
        self._record_reward = rewards.append
        self._record_kept = kept.append
        self._round = 0
        self._pending: Optional[int] = None
        # The arm every remaining round plays; the index policies never commit.
        # Set only through _commit.
        self._committed: Optional[int] = None

    def select_arm(self, t: int) -> int:
        if self._pending is not None:
            self._raise_if_failed()
            raise RuntimeError("select_arm called again before observe")
        if t != self._round + 1:
            raise ValueError(f"expected round {self._round + 1}, got t={t}")
        arm = self._select(t)
        self._pending = arm
        return arm

    def observe(self, arm: int, reward: float) -> None:
        if self._pending is None:
            raise RuntimeError("observe called without a pending selection")
        if arm != self._pending:
            self._raise_if_failed()
            raise ValueError(f"observe got arm {arm}, selected arm was {self._pending}")
        self._round += 1
        self._pending = None
        try:
            reward = float(reward)
            kept = self._observe(arm, reward)
            # The transcript stores whether the reward was kept, so a truncated
            # reward must be the reward itself or +0.0.
            if kept is reward:
                kept = 1
            elif kept == 0.0 and math.copysign(1.0, kept) == 1.0:
                kept = 0
            else:
                raise ValueError(
                    f"a policy truncates reward {reward!r} to itself or to 0.0, got {kept!r}"
                )
        except BaseException:
            self._round -= 1
            self._pending = _FAILED
            raise
        self._record_arm(arm)
        self._record_reward(reward)
        self._record_kept(kept)

    def _play(self, t: int, arm: int, reward: float) -> None:
        """Round ``t``'s observe for a caller that keeps the contract itself.

        ``run_single`` calls ``_select(t)`` and then this, for ``t = 1, 2,
        ...``, with a float reward.  It reaches the same ``_observe`` as
        :meth:`observe` and records the same transcript row, without the
        contract checks, the check on the truncated reward or the rollback:
        a round that raises here ends the run.  The round is set first,
        because ``_observe`` may read it.
        """
        self._round = t
        kept = self._observe(arm, reward)
        self._record_arm(arm)
        self._record_reward(reward)
        self._record_kept(kept is reward)

    def _raise_if_failed(self) -> None:
        if self._pending is _FAILED:
            raise RuntimeError(
                f"round {self._round + 1} failed in observe; this policy cannot go on"
            )

    def committed_arm(self) -> Optional[int]:
        return self._committed

    def _commit(self, arm: int) -> None:
        # Either from _select, before round _round + 1 is played, or from
        # _observe, after round _round: round _round + 1 is the first one the
        # committed arm plays.
        self._committed = arm
        self.transcript._first_committed = self._round + 1

    @property
    def rounds_played(self) -> int:
        return self._round

    def _select(self, t: int) -> int:
        raise NotImplementedError

    def _observe(self, arm: int, reward: float) -> float:
        # Returns the truncated reward: ``reward`` itself, or 0.0.
        raise NotImplementedError


class _IndexPolicy(_PolicyBase):
    """One select loop and one per-arm state for both index policies.

    ``C(t) = coef * (ln(m * t**k) * L) ** exp`` is computed once per round and
    kept in ``_radius_scale``.  The subclass's ``_observe`` truncates a reward
    and updates the pulled arm's ``_means`` and ``_weights`` (``w_a``).  A
    subclass passes ``m``, ``k`` and the multiplier ``c`` of
    ``coef = c * u ** (1/(1+v))``; ``L`` is 1.0 unless it sets
    ``_radius_log_pow`` after its argument checks.  The exponents are shared:
    ``exp = v/(1+v)`` for the radius and ``1/(1+v)`` for truncation.
    """

    def __init__(self, num_arms: int, params: MomentParams, c: float, m: int, k: int):
        super().__init__(num_arms)
        self.params = params
        v = params.v
        self._radius_exp = v / (1.0 + v)
        # w_a's exponent, -exp: the same double as negating exp in each round.
        self._neg_radius_exp = -self._radius_exp
        self._trunc_exp = 1.0 / (1.0 + v)
        self._radius_coef = c * params.u ** self._trunc_exp
        self._radius_log_mult = m
        self._radius_t_power = k
        self._radius_log_pow = 1.0
        self._arms = range(self.num_arms)
        self._counts = [0] * self.num_arms
        # Per arm, updated when it is pulled: truncated mean, w_a.
        self._means = [0.0] * self.num_arms
        self._weights = [0.0] * self.num_arms
        # C(t) of the latest round past the first pass over the arms.
        self._radius_scale = math.nan

    @property
    def pull_counts(self) -> tuple:
        return tuple(self._counts)

    def _select(self, t: int) -> int:
        if t <= self.num_arms:
            return t - 1
        log_term = math.log(self._radius_log_mult * t**self._radius_t_power)
        scale = self._radius_coef * (log_term * self._radius_log_pow) ** self._radius_exp
        self._radius_scale = scale
        means, weights = self._means, self._weights
        best_score = -math.inf
        best_arm = 0
        for a in self._arms:
            score = means[a] + scale * weights[a]
            if score > best_score:
                best_score = score
                best_arm = a
        return best_arm


class DPRobustUCB(_IndexPolicy):
    """Differentially private index policy for heavy-tailed rewards.

    Each arm's truncated rewards feed a private running-sum tree with budget
    ``eps`` (parallel composition across arms keeps the whole policy
    ``eps``-private).  A reward observed as the arm's ``n``-th pull is
    truncated to zero unless its magnitude is at most
    ``private_ucb_truncation(params, eps, horizon, n)``.  The index is
    noisy-sum / pulls + ``private_ucb_radius``, with ``C(t)`` at
    ``(m, k, L) = (2, 4, ln(horizon) ** (1.5 + 1/v))`` and
    ``w_a = (n_a * eps) ** -exp``.

    Parameters
    ----------
    params : MomentParams
        Moment assumption shared by all arms.
    eps : float
        Per-arm privacy budget.
    horizon : int
        Number of rounds the policy will be driven; also each tree's capacity.
        An integer (numpy's included).
    noise_sources : sequence of NoiseSource
        One source per arm, in arm order; each arm's tree records its draws and
        insertions into that source's ledger.  Sources that carry different
        ledgers are rejected.
    """

    def __init__(self, params: MomentParams, eps: float, horizon: int, noise_sources):
        noise_sources = list(noise_sources)
        super().__init__(len(noise_sources), params, 18.0, 2, 4)
        _shared_ledger(noise_sources)
        horizon = _as_index("horizon", horizon)
        if horizon < self.num_arms:
            raise ValueError(
                f"horizon {horizon} is below the number of arms {self.num_arms}"
            )
        # The schedules' argument checks run once, here; rounds evaluate the
        # schedules inline.
        private_ucb_radius(params, eps, horizon, 1, 1)
        private_ucb_truncation(params, eps, horizon, 1)
        self.eps = float(eps)
        self.horizon = horizon
        log_horizon = math.log(self.horizon)
        self._radius_log_pow = log_horizon ** (1.5 + 1.0 / params.v)
        # truncation = (eps_u * n / log_pow) ** exp
        self._trunc_eps_u = self.eps * params.u
        self._trunc_log_pow = log_horizon**1.5
        self._trees = [
            AdaptiveTree(horizon, eps, noise=src, owner=a)
            for a, src in enumerate(noise_sources)
        ]

    def _observe(self, arm: int, reward: float) -> float:
        n = self._counts[arm] + 1
        self._counts[arm] = n
        bound = (self._trunc_eps_u * n / self._trunc_log_pow) ** self._trunc_exp
        kept = reward if abs(reward) <= bound else 0.0
        self._means[arm] = self._trees[arm].insert(kept, bound) / n
        self._weights[arm] = (n * self.eps) ** self._neg_radius_exp
        return kept


class _EliminationPolicy(_PolicyBase):
    """Shared state machine of the two successive-elimination policies.

    Epochs run back to back.  Within an epoch the viable arms are pulled in
    index order, cycling ``pulls_per_arm`` times.  An epoch whose total pull
    budget does not fit into the remaining horizon is never started: the
    policy commits to the best arm under the latest release scores (the
    lowest-index viable arm if no epoch ever completed) and plays it forever.
    Committed rounds pass rewards through untouched and unused.

    The policy records its mechanisms, insertions and epochs in the ledger
    its noise sources carry, where the sources record their draws; sources
    that carry different ledgers are rejected.
    """

    _epoch_kind = ""
    _elimination_mult = 0.0

    def __init__(
        self,
        params: MomentParams,
        eps: float,
        horizon: int,
        noise_sources,
        beta: Optional[float] = None,
    ):
        noise_sources = list(noise_sources)
        super().__init__(len(noise_sources))
        ledger = _shared_ledger(noise_sources)
        if not 0.0 < eps < math.inf:
            raise ValueError(f"eps must be finite and positive, got {eps}")
        horizon = _as_index("horizon", horizon)
        if horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {horizon}")
        if beta is None:
            beta = 1.0 / horizon
        if not 0.0 < beta < 1.0:
            raise ValueError(f"beta must lie in (0, 1), got {beta}")
        self.params = params
        self.eps = float(eps)
        self.horizon = horizon
        self.beta = float(beta)
        self.ledger = ledger
        self._sources = noise_sources
        self._viable = list(range(self.num_arms))
        self._epoch = 0
        self._sched = None
        self._epoch_record = None
        self._pull_idx = 0
        self._sums = {}
        self._last_scores = {}
        self.completed_epochs: list = []
        if ledger is not None:
            self._mechs = [
                ledger.register_mechanism(self._epoch_kind, a)
                for a in range(self.num_arms)
            ]
        else:
            self._mechs = None

    @property
    def viable_arms(self) -> tuple:
        return tuple(self._viable)

    def last_release_scores(self) -> dict:
        """Scores from the most recent completed epoch (empty before any)."""
        return dict(self._last_scores)

    def _make_schedule(self, num_viable: int, epoch: int):
        raise NotImplementedError

    def _epoch_contribution(self, arm: int, kept: float) -> float:
        raise NotImplementedError

    def _epoch_scores(self) -> dict:
        raise NotImplementedError

    def _best_known(self) -> int:
        if not self._last_scores:
            return self._viable[0]
        # max keeps the first of equal scores: the lowest-indexed viable arm.
        return max(self._viable, key=self._last_scores.__getitem__)

    def _begin_epoch(self) -> None:
        self._epoch += 1
        sched = self._make_schedule(len(self._viable), self._epoch)
        needed = sched.pulls_per_arm * len(self._viable)
        if self._round + needed > self.horizon:
            self._commit(self._best_known())
            return
        self._sched = sched
        self._pull_idx = 0
        self._sums = {a: 0.0 for a in self._viable}
        if self.ledger is not None:
            self._epoch_record = self.ledger.record_epoch(
                self._epoch_kind, self._epoch, len(self._viable), sched.pulls_per_arm
            )

    def _end_epoch(self) -> None:
        scores = self._epoch_scores()
        self._last_scores = scores
        self.completed_epochs.append(
            (self._epoch, len(self._viable), self._sched.pulls_per_arm)
        )
        if self._epoch_record is not None:
            self._epoch_record.completed = True
            self._epoch_record = None
        best = max(scores.values())
        threshold = self._elimination_mult * self._sched.accuracy
        self._viable = [a for a in self._viable if not best - scores[a] > threshold]
        if len(self._viable) == 1:
            self._commit(self._viable[0])
        self._sched = None
        self._pull_idx = 0

    def _select(self, t: int) -> int:
        if self._committed is not None:
            return self._committed
        if self._sched is None:
            self._begin_epoch()
            if self._committed is not None:
                return self._committed
        return self._viable[self._pull_idx % len(self._viable)]

    def _observe(self, arm: int, reward: float) -> float:
        if self._committed is not None:
            return reward
        sched = self._sched
        kept = reward if abs(reward) <= sched.truncation else 0.0
        if self.ledger is not None:
            self.ledger.record_insertion(self._mechs[arm], arm, kept, sched.truncation)
        self._sums[arm] += self._epoch_contribution(arm, kept)
        self._pull_idx += 1
        if self._pull_idx == sched.pulls_per_arm * len(self._viable):
            self._end_epoch()
        return kept


class DPRobustSE(_EliminationPolicy):
    """Centrally private successive elimination for heavy-tailed rewards.

    Epoch ``tau`` follows :func:`~htbandits.schedules.central_se_schedule`.
    At the epoch's end each viable arm's truncated mean is released once with
    Laplace noise of scale ``2*B/(R*eps)`` drawn from that arm's source, and
    arms whose noisy mean trails the best by more than 12x the epoch accuracy
    are eliminated (the top-scoring arm always survives).  One arm left means
    commitment.
    """

    _epoch_kind = CENTRAL_EPOCH_KIND
    _elimination_mult = CENTRAL_ELIMINATION_MULT

    def _make_schedule(self, num_viable: int, epoch: int):
        return central_se_schedule(self.params, self.eps, self.beta, num_viable, epoch)

    def _epoch_contribution(self, arm: int, kept: float) -> float:
        return kept

    def _epoch_scores(self) -> dict:
        sched = self._sched
        pulls = sched.pulls_per_arm
        scale = 2.0 * sched.truncation / (pulls * self.eps)
        scores = {}
        for a in self._viable:
            eta = self._sources[a].draw(
                scale, SE_RELEASE_SITE, sched.truncation, self.eps, pulls
            )
            scores[a] = self._sums[a] / pulls + eta
        return scores


class LDPRobustSE(_EliminationPolicy):
    """Locally private successive elimination for heavy-tailed rewards.

    Epoch ``tau`` follows :func:`~htbandits.schedules.local_se_schedule`.
    Every observed reward is truncated and perturbed immediately with Laplace
    noise of scale ``2*B/eps`` from the arm's source (the raw reward never
    leaves the local side), so the policy is ``eps``-locally private.  Epoch
    means of the perturbed values are compared without further noise; the
    threshold multiplier is 14.
    """

    _epoch_kind = LOCAL_EPOCH_KIND
    _elimination_mult = LOCAL_ELIMINATION_MULT

    def _make_schedule(self, num_viable: int, epoch: int):
        return local_se_schedule(self.params, self.eps, self.beta, num_viable, epoch)

    def _epoch_contribution(self, arm: int, kept: float) -> float:
        sched = self._sched
        scale = 2.0 * sched.truncation / self.eps
        eta = self._sources[arm].draw(scale, LOCAL_REWARD_SITE, sched.truncation, self.eps, 0)
        return kept + eta

    def _epoch_scores(self) -> dict:
        pulls = self._sched.pulls_per_arm
        return {a: self._sums[a] / pulls for a in self._viable}


class RobustUCB(_IndexPolicy):
    """Non-private truncated-mean index policy (baseline).

    Truncates the ``n``-th reward of an arm at
    :func:`~htbandits.schedules.nonprivate_ucb_threshold` and plays the arm
    maximizing truncated mean + :func:`~htbandits.schedules.nonprivate_ucb_radius`,
    with ``C(t)`` at ``(m, k, L) = (1, 2, 1.0)`` and ``w_a = n_a ** -exp``.
    Rounds before t=2 clamp the threshold's log argument to t=2.  Baseline for
    qualitative comparison; no privacy guarantee.
    """

    def __init__(self, num_arms: int, params: MomentParams):
        # ln(1 * t**2) * 1.0 is nonprivate_ucb_radius's ln(t**2), bit for bit.
        super().__init__(num_arms, params, 4.0, 1, 2)
        # Anything the public schedules reject fails here, at construction;
        # rounds evaluate them inline.
        nonprivate_ucb_radius(params, 1, 2.0)
        nonprivate_ucb_threshold(params, 1, 2.0)
        # threshold = (u * n / ln(t**2)) ** exp
        self._trunc_u = params.u
        self._sums = [0.0] * self.num_arms

    def _observe(self, arm: int, reward: float) -> float:
        n = self._counts[arm] + 1
        self._counts[arm] = n
        t = max(float(self._round), 2.0)
        bound = (self._trunc_u * n / math.log(t**2)) ** self._trunc_exp
        kept = reward if abs(reward) <= bound else 0.0
        self._sums[arm] += kept
        self._means[arm] = self._sums[arm] / n
        self._weights[arm] = n ** self._neg_radius_exp
        return kept
