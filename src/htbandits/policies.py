"""Bandit policies: private index policy, private and local elimination, baseline.

All policies share one driving contract: the harness calls ``select_arm(t)``
with ``t = 1, 2, ...`` and then ``observe(arm, reward)`` with the arm just
selected, exactly once per round, in order.  The contract is enforced; misuse
raises.  Each observed round is recorded in ``transcript``, a
:class:`~htbandits.mechanisms.RecordTable` of :class:`TranscriptEntry` stored
by column at about 20 bytes per round: the arm, the reward and the truncated
reward of each round, plus the first committed round.

Noise enters only through per-arm :class:`~htbandits.mechanisms.NoiseSource`
objects supplied at construction, so runs are exactly reproducible and the
zero-noise hook turns every policy into its noiseless counterpart.
"""

import math
from itertools import repeat
from typing import NamedTuple, Optional

from .mechanisms import LOCAL_REWARD_SITE, SE_RELEASE_SITE, AdaptiveTree, RecordTable
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
    "TRANSCRIPT_SCHEMA_VERSION",
    "TranscriptEntry",
    "DPRobustUCB",
    "DPRobustSE",
    "LDPRobustSE",
    "RobustUCB",
    "CENTRAL_ELIMINATION_MULT",
    "LOCAL_ELIMINATION_MULT",
]

TRANSCRIPT_SCHEMA_VERSION = 1

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
    """The observed rounds of one policy: the arm, reward and truncated reward.

    Entry ``i`` is round ``i + 1``, because rounds are consecutive from 1.
    Commitment is never undone, so the committed rounds are the suffix from
    ``_first_committed`` on (None while no round is committed).  Entries are
    :class:`TranscriptEntry` values built in C with ``tuple.__new__``, which
    skips NamedTuple's Python-level ``__new__`` (same type, same fields in the
    same order).
    """

    __slots__ = ("_first_committed",)

    def __init__(self):
        super().__init__("Idd")
        self._first_committed: Optional[int] = None

    def _records(self, rows: range, columns):
        # Both rounds and flags iterate over the range of round numbers.
        rounds = range(rows.start + 1, rows.stop + 1, rows.step)
        first = self._first_committed
        flags = repeat(False) if first is None else map(first.__le__, rounds)
        return map(tuple.__new__, repeat(TranscriptEntry), zip(rounds, *columns, flags))


class _PolicyBase:
    """Round bookkeeping, contract enforcement, transcript recording."""

    def __init__(self, num_arms: int):
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
            raise ValueError(f"observe got arm {arm}, selected arm was {self._pending}")
        self._round += 1
        self._pending = None
        reward = float(reward)
        kept = self._observe(arm, reward)
        self._record_arm(arm)
        self._record_reward(reward)
        self._record_kept(kept)

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
        raise NotImplementedError


class DPRobustUCB(_PolicyBase):
    """Differentially private index policy for heavy-tailed rewards.

    Each arm's truncated rewards feed a private running-sum tree with budget
    ``eps`` (parallel composition across arms keeps the whole policy
    ``eps``-private).  A reward observed as the arm's ``n``-th pull is
    truncated to zero unless its magnitude is at most
    ``private_ucb_truncation(params, eps, horizon, n)``.  After one round-robin
    pass over the arms, the policy plays the arm maximizing
    noisy-sum / pulls + ``private_ucb_radius``; ties go to the lowest index.

    Both schedules are evaluated from constants fixed at construction, with
    the operations of :mod:`~htbandits.schedules` in the same order, so every
    value is bit-identical to the public function's.

    Parameters
    ----------
    params : MomentParams
        Moment assumption shared by all arms.
    eps : float
        Per-arm privacy budget.
    horizon : int
        Number of rounds the policy will be driven; also each tree's capacity.
    noise_sources : sequence of NoiseSource
        One source per arm, in arm order; each arm's tree records its draws and
        insertions into that source's ledger.
    """

    def __init__(self, params: MomentParams, eps: float, horizon: int, noise_sources):
        noise_sources = list(noise_sources)
        super().__init__(len(noise_sources))
        if horizon < self.num_arms:
            raise ValueError(
                f"horizon {horizon} is below the number of arms {self.num_arms}"
            )
        # The schedules' argument checks run once, here; rounds evaluate the
        # schedules inline.
        private_ucb_radius(params, eps, horizon, 1, 1)
        private_ucb_truncation(params, eps, horizon, 1)
        self.params = params
        self.eps = float(eps)
        self.horizon = int(horizon)
        u, v = params.u, params.v
        log_horizon = math.log(self.horizon)
        # radius = coef * (ln(2 t**4) * log_pow / (n * eps)) ** exp
        self._radius_coef = 18.0 * u ** (1.0 / (1.0 + v))
        self._radius_log_pow = log_horizon ** (1.5 + 1.0 / v)
        self._radius_exp = v / (1.0 + v)
        # truncation = (eps_u * n / log_pow) ** exp
        self._trunc_eps_u = self.eps * u
        self._trunc_log_pow = log_horizon**1.5
        self._trunc_exp = 1.0 / (1.0 + v)
        self._trees = [
            AdaptiveTree(horizon, eps, noise=src, owner=a)
            for a, src in enumerate(noise_sources)
        ]
        self._counts = [0] * self.num_arms
        # Per arm, updated when it is pulled: pulls * eps, noisy sum / pulls.
        self._n_eps = [0.0] * self.num_arms
        self._means = [0.0] * self.num_arms

    @property
    def pull_counts(self) -> tuple:
        return tuple(self._counts)

    def _select(self, t: int) -> int:
        if t <= self.num_arms:
            return t - 1
        log_term = math.log(2 * t**4) * self._radius_log_pow
        coef, exp = self._radius_coef, self._radius_exp
        best_score = -math.inf
        best_arm = 0
        for a, (mean, n_eps) in enumerate(zip(self._means, self._n_eps)):
            score = mean + coef * (log_term / n_eps) ** exp
            if score > best_score:
                best_score = score
                best_arm = a
        return best_arm

    def _observe(self, arm: int, reward: float) -> float:
        n = self._counts[arm] + 1
        self._counts[arm] = n
        bound = (self._trunc_eps_u * n / self._trunc_log_pow) ** self._trunc_exp
        kept = reward if abs(reward) <= bound else 0.0
        self._means[arm] = self._trees[arm].insert(kept, bound) / n
        self._n_eps[arm] = n * self.eps
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
        ledger = noise_sources[0].ledger
        if any(src.ledger is not ledger for src in noise_sources):
            raise ValueError("the noise sources carry different ledgers")
        if not eps > 0.0:
            raise ValueError(f"eps must be positive, got {eps}")
        if horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {horizon}")
        if beta is None:
            beta = 1.0 / horizon
        if not 0.0 < beta < 1.0:
            raise ValueError(f"beta must lie in (0, 1), got {beta}")
        self.params = params
        self.eps = float(eps)
        self.horizon = int(horizon)
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
        best_arm = self._viable[0]
        best_score = self._last_scores[best_arm]
        for a in self._viable[1:]:
            if self._last_scores[a] > best_score:
                best_score = self._last_scores[a]
                best_arm = a
        return best_arm

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

    _epoch_kind = "central_se"
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
                scale, SE_RELEASE_SITE, sched.truncation, pulls, self.eps
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

    _epoch_kind = "local_se"
    _elimination_mult = LOCAL_ELIMINATION_MULT

    def _make_schedule(self, num_viable: int, epoch: int):
        return local_se_schedule(self.params, self.eps, self.beta, num_viable, epoch)

    def _epoch_contribution(self, arm: int, kept: float) -> float:
        sched = self._sched
        scale = 2.0 * sched.truncation / self.eps
        eta = self._sources[arm].draw(scale, LOCAL_REWARD_SITE, sched.truncation, self.eps)
        return kept + eta

    def _epoch_scores(self) -> dict:
        pulls = self._sched.pulls_per_arm
        return {a: self._sums[a] / pulls for a in self._viable}


class RobustUCB(_PolicyBase):
    """Non-private truncated-mean index policy (baseline).

    Truncates the ``n``-th reward of an arm at
    :func:`~htbandits.schedules.nonprivate_ucb_threshold` and plays the arm
    maximizing truncated mean + :func:`~htbandits.schedules.nonprivate_ucb_radius`.
    Rounds before t=2 clamp the threshold's log argument to t=2.  Baseline for
    qualitative comparison; no privacy guarantee.  Like :class:`DPRobustUCB`,
    it evaluates both schedules bit-identically from constants fixed at
    construction.
    """

    def __init__(self, num_arms: int, params: MomentParams):
        super().__init__(num_arms)
        # Anything the public schedules reject fails here, at construction;
        # rounds evaluate them inline.
        nonprivate_ucb_radius(params, 1, 2.0)
        nonprivate_ucb_threshold(params, 1, 2.0)
        self.params = params
        u, v = params.u, params.v
        # radius = coef * (ln(t**2) / n) ** exp
        self._radius_coef = 4.0 * u ** (1.0 / (1.0 + v))
        self._radius_exp = v / (1.0 + v)
        # threshold = (u * n / ln(t**2)) ** exp
        self._trunc_exp = 1.0 / (1.0 + v)
        self._counts = [0] * num_arms
        self._sums = [0.0] * num_arms
        self._means = [0.0] * num_arms

    @property
    def pull_counts(self) -> tuple:
        return tuple(self._counts)

    def _select(self, t: int) -> int:
        if t <= self.num_arms:
            return t - 1
        log_term = math.log(t**2)
        coef, exp = self._radius_coef, self._radius_exp
        best_score = -math.inf
        best_arm = 0
        for a, (mean, n) in enumerate(zip(self._means, self._counts)):
            score = mean + coef * (log_term / n) ** exp
            if score > best_score:
                best_score = score
                best_arm = a
        return best_arm

    def _observe(self, arm: int, reward: float) -> float:
        n = self._counts[arm] + 1
        self._counts[arm] = n
        t = max(float(self._round), 2.0)
        bound = (self.params.u * n / math.log(t**2)) ** self._trunc_exp
        kept = reward if abs(reward) <= bound else 0.0
        self._sums[arm] += kept
        self._means[arm] = self._sums[arm] / n
        return kept
