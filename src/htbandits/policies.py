"""Bandit policies: private index policy, private and local elimination, baseline.

All policies share one driving contract: ``select_arm(t)`` is called with
``t = 1, 2, ...`` and then ``observe(arm, reward)`` with the arm just
selected, exactly once per round, in order.  The contract is there for
outside callers and is enforced; misuse raises.  ``run_single`` builds its
policy and keeps the contract itself, so it has the policy play a stretch of
rounds at a time.  Each policy plays every round of either route in one
loop, ``_play_until(stop)``: it plays the rounds from the policy's next one
to ``stop`` and counts each pull in the policy's pull counts, which
``pull_counts`` reports and ``run_single`` reads for its regret.
``observe`` checks the contract and plays its round as a stretch of one
round (``_play``).  An index policy's loop picks each round's arm when the
round before it ends, and ``select_arm`` returns that arm.  An elimination
policy's loop begins each epoch, or commits, when the epoch's first round
starts, and ``select_arm`` does the same to name the round's arm; once
committed, the loop appends the committed arm's rewards to the transcript a
block at a time.  ``run_single`` has each arm's rewards read in blocks
(``_begin_run``); once the rounds end, ``_drop_lookahead`` drops the rewards
no round read.  The private index policy's trees draw each pull's noise when
a round plays the pull.  Each observed round is recorded in ``transcript``,
stored by column at 13 bytes per round: the arm, the reward and a kept flag
of each round, plus the first committed round.  Its length, iteration and
slices read the rounds as :class:`TranscriptEntry` records.  A policy
truncates a reward to itself or to ``0.0``, so the flag and the reward give
the truncated reward.

The two index policies share one core, ``_IndexPolicy``: after one
round-robin pass over the arms they play the arm maximizing truncated mean +
``C(t) * w_a``, ties to the lowest index.  They differ only in the mean
estimator, the truncation level and the constants of ``C(t)`` and ``w_a``.
Schedule values that depend only on those constants and a round or a pull
count are read from tables in a bounded process-wide memo, which the
repetitions of a config share.

Noise enters only through per-arm :class:`~htbandits.mechanisms.NoiseSource`
objects supplied at construction, so runs are exactly reproducible and the
zero-noise hook turns every policy into its noiseless counterpart.
"""

import functools
import math
from array import array
from itertools import islice, repeat, tee
from typing import NamedTuple, Optional

from .mechanisms import (
    CENTRAL_EPOCH_KIND,
    LOCAL_EPOCH_KIND,
    LOCAL_REWARD_SITE,
    SE_RELEASE_SITE,
    AdaptiveTree,
    RecordTable,
)
from .schedules import (
    MomentParams,
    _as_index,
    _check_beta,
    _check_eps,
    _check_in_range,
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

    Row ``i`` of ``columns`` is round ``i + 1``, because rounds are
    consecutive from 1.  The truncated reward is the reward where the kept
    flag is 1 and ``0.0`` where it is 0.  Commitment is never undone, so the
    committed rounds are the suffix from ``_first_committed`` on (None while
    no round is committed).  Besides ``columns`` and ``len``, the transcript
    reads as :class:`TranscriptEntry` records by iteration and by slice (a
    list); one round is read from ``columns``, so an int index raises
    ``TypeError``.  Iteration reads the arrays and a slice indexes them, so no
    array is copied.  Entries are built in C with ``tuple.__new__``, which
    skips NamedTuple's Python-level ``__new__`` (same type, same fields in
    order).
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

    def __iter__(self):
        return self._records(range(len(self)), self.columns)

    def __getitem__(self, index):
        if not isinstance(index, slice):
            raise TypeError(
                f"a transcript is read by slice, not by {type(index).__name__}; "
                "read one round from its columns"
            )
        rows = range(len(self))[index]
        return list(self._records(rows, [map(c.__getitem__, rows) for c in self.columns]))


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
    """Round bookkeeping, pull counts, contract enforcement and the one-round stretch.

    A subclass plays every round, on both routes, in its stretch loop
    ``_play_until(stop)``, which plays the rounds from ``_round + 1`` to
    ``stop`` and counts each pull in ``_counts``, and picks the contract's
    arm in ``_select(t)``.  A round that raises is not recorded:
    ``rounds_played`` stays at the transcript's length.  The policy's own
    state may be half updated by then, so after ``observe`` raises every
    later ``select_arm`` or ``observe`` raises ``RuntimeError``.
    """

    def __init__(self, num_arms: int):
        self.num_arms = _as_index("num_arms", num_arms, 1)
        self.transcript = _Transcript()
        self._round = 0
        self._pending: Optional[int] = None
        # The arm every remaining round plays; the index policies never commit.
        # Set only through _commit.
        self._committed: Optional[int] = None
        # Per arm, the pulls played so far, on either route: the stretch loop
        # counts them, and run_single reads them for its checkpoints' regret.
        self._counts = [0] * self.num_arms
        # While a run plays (_begin_run to _drop_lookahead): per arm, the
        # unread rest of its current block of rewards; what _play_until reads.
        self._unread: Optional[list] = None
        self._loop: Optional[tuple] = None

    def select_arm(self, t: int) -> int:
        if self._pending is not None:
            self._raise_if_failed()
            raise RuntimeError("select_arm called again before observe")
        if t != self._round + 1:
            raise ValueError(f"expected round {self._round + 1}, got t={t}")
        arm = self._committed
        if arm is None:
            arm = self._select(t)
        self._pending = arm
        return arm

    def observe(self, arm: int, reward: float) -> None:
        if self._pending is None:
            raise RuntimeError("observe called without a pending selection")
        if arm != self._pending:
            self._raise_if_failed()
            raise ValueError(f"observe got arm {arm}, selected arm was {self._pending}")
        self._pending = None
        try:
            self._play(arm, float(reward))
        except BaseException:
            self._pending = _FAILED
            raise

    def _play(self, arm: int, reward: float) -> None:
        """Play the next round, ``arm``'s pull of ``reward``, as a stretch of one round.

        :meth:`observe` calls this once its contract checks have passed, so
        the contract's rounds are played by the subclass's ``_play_until``,
        as ``run_single``'s are.  On the first of them the policy gathers
        what the loop reads, with no reward takes and no horizon: each round
        hands its arm the one reward the round reads, as the rest of the
        arm's block, so no block runs out.
        """
        if self._loop is None:
            self._begin_run(None, None)
        self._unread[arm] = iter((reward,))
        self._play_until(self._round + 1)

    def _begin_run(self, takes: list, horizon: int) -> None:
        """Take each arm's rewards from ``takes`` in the rounds ``run_single`` plays.

        ``takes[arm](k)`` returns the arm's next ``k`` rewards in pull order.
        An arm's rewards are taken a block at a time: after ``n`` pulls of
        the arm, ``min(n + 1, _MAX_BLOCK)`` of them (1, 2, 4, ... as the
        blocks run out), but no block covers more pulls than there are rounds
        left of ``horizon``; a committed arm's rewards are taken up to
        ``_TAIL_BLOCK`` at a time.  ``run_single`` then plays the rounds with
        ``_play_until`` and calls :meth:`_drop_lookahead` once they end.  A
        subclass extends this to gather what its loop reads, once per run.
        On the contract's route ``takes`` and ``horizon`` are None:
        :meth:`_play` hands each round its reward.
        """
        self._unread = [iter(())] * self.num_arms

    def _drop_lookahead(self) -> None:
        """Drop the unread rewards of the arms' blocks: a finished run holds none."""
        self._unread = self._loop = None

    def _raise_if_failed(self) -> None:
        if self._pending is _FAILED:
            raise RuntimeError(
                f"round {self._round + 1} failed in observe; this policy cannot go on"
            )

    def committed_arm(self) -> Optional[int]:
        return self._committed

    def _commit(self, arm: int, first_round: int) -> None:
        # first_round is the first round the committed arm plays: t when round
        # t would begin an epoch that does not fit, t + 1 when round t ends an
        # epoch with one viable arm left.
        self._committed = arm
        self.transcript._first_committed = first_round

    @property
    def rounds_played(self) -> int:
        return self._round

    @property
    def pull_counts(self) -> tuple:
        return tuple(self._counts)


# A schedule table holds entries 0 to _TABLE_CAP - 1 at most: 1 MiB of
# doubles.  The memo keeps the last _MEMO_TABLES tables asked for: a private
# config reads 3 tables and a baseline one 2, and one unit of the
# benchmark's 40-cell audited grid asks for 10 distinct tables.
_TABLE_CAP = 2**17
_MEMO_TABLES = 16
# A table that misses grows this many entries past the one asked for, so it
# grows once per 256 rounds or pulls rather than once per round.
_FILL_AHEAD = 256
# run_single hands each arm's rewards to a policy in blocks: the first block is
# one reward, as a reward read and never played costs a sample, and each later
# one doubles, up to this many.
_MAX_BLOCK = 256
# An elimination policy reads a committed arm's rewards in blocks of at most
# this many: a block's list of floats holds about 32 bytes per reward.
_TAIL_BLOCK = 1024


# The three tabled schedules over a range of rounds or pull counts, each the
# expression the policies evaluate inline past the cap, from the same
# constants.
def _scales_of_rounds(coef: float, m: int, k: int, log_pow: float, exp: float, rounds) -> list:
    """``C(t) = coef * (ln(m * t**k) * L) ** exp`` for each round ``t``."""
    log = math.log
    return [coef * (log(m * t**k) * log_pow) ** exp for t in rounds]


def _weights_of_pulls(eps: float, neg_exp: float, pulls) -> list:
    """``w = (n * eps) ** -exp`` for each pull count ``n``."""
    return [(n * eps) ** neg_exp for n in pulls]


def _bounds_of_pulls(eps_u: float, log_pow: float, exp: float, pulls) -> list:
    """The private truncation level ``(eps * u * n / ln(T)**1.5) ** exp`` per ``n``."""
    return [(eps_u * n / log_pow) ** exp for n in pulls]


class _Schedule(array):
    """A schedule's doubles by round or pull count, with the fill that extends them.

    ``constants`` is the tuple of constants the fill reads before the rounds or
    pull counts, in its order; a policy unpacks them to evaluate the schedule
    past the cap.  Entry 0 is a NaN placeholder and nothing else is computed
    when the table is made; :meth:`entry` extends it as rounds or pull counts
    reach it.
    """

    __slots__ = ("_fill", "constants")

    def __new__(cls, fill, *constants):
        table = super().__new__(cls, "d", (math.nan,))
        table._fill = fill
        table.constants = constants
        return table

    def __reduce_ex__(self, protocol):
        # A pickled or copied table starts empty again and refills as read.
        return type(self), (self._fill, *self.constants)

    # array's own copy methods would drop _fill; copy through __reduce_ex__.
    __copy__ = __deepcopy__ = None

    def entry(self, i: int) -> float:
        """Entry ``i``, which the table does not hold yet.

        Below ``_TABLE_CAP`` the table grows to ``_FILL_AHEAD`` past ``i``
        (or to the cap) first; at or past the cap the fill evaluates ``i``
        alone.
        """
        if i >= _TABLE_CAP:
            return self._fill(*self.constants, (i,))[0]
        rows = range(len(self), min(i + _FILL_AHEAD, _TABLE_CAP))
        values = self._fill(*self.constants, rows)
        # fromlist converts the block in one call, at about half extend's cost.
        self.fromlist(values)
        return self[i]


# The memo: a typed lru_cache keyed by the fill and every constant it reads.
_schedule = functools.lru_cache(maxsize=_MEMO_TABLES, typed=True)(_Schedule)


class _IndexPolicy(_PolicyBase):
    """One stretch loop and one per-arm state for both index policies.

    Every round, on the contract's route and under ``run_single``, is played
    by one loop, :meth:`_play_until`: it truncates the round's reward,
    updates the pulled arm's ``_means`` and ``_weights`` (``w_a = (n_a *
    eps_w) ** -exp``) and chooses the next round's arm, ``_next_arm``, from
    ``C(t) = coef * (ln(m * t**k) * L) ** exp``, kept in ``_radius_scale``.
    ``select_arm`` returns that arm, and ``observe`` plays its round as a
    stretch of one round.  Only the pull differs between the subclasses,
    which give what theirs reads (``_pull_state``).  Once its argument checks
    have passed, a subclass passes the multiplier ``c`` of ``coef = c * u **
    (1/(1+v))``, ``m``, ``k``, ``L`` and ``eps_w`` to :meth:`_share_tables`.
    The exponents are shared: ``exp = v/(1+v)`` for the radius and
    ``1/(1+v)`` for truncation.

    ``C(t)`` by round, ``w`` by pull count and the private policy's
    truncation level by pull count depend only on constants of the config,
    so every policy with the same constants reads them from one table: a
    :class:`_Schedule` (an ``array('d')``) in a process-wide memo
    (``_schedule``, a typed ``lru_cache``) keyed by the fill function and
    every constant it reads.  The repetitions of a config in one process
    compute each value once.  A process's first repetition of a config fills
    the tables as it goes, which costs more than the inline formulas (rucb,
    T=1e5, S1: 2.16 us per round against 2.01 us, best of 8, one pinned CPU).
    A table is empty when made and grows as
    rounds and pulls reach it, each entry the double the inline expression
    gives.  Rounds and pull counts at or past ``_TABLE_CAP = 2**17`` are
    not tabled: the policy evaluates them inline, as it would without the
    memo, from the constants the table carries (``_Schedule.constants``),
    so a schedule's constants are kept in one place.  The memo keeps the
    last 16 tables, so it holds at most 16 * (2**17 doubles + the array's
    1/16 growth slack), under 18 MiB, whatever the horizon or the number of
    configs.
    """

    def __init__(self, num_arms: int, params: MomentParams):
        super().__init__(num_arms)
        self.params = params
        self._arms = range(self.num_arms)
        # Per arm, updated when it is pulled: truncated mean, w_a.
        self._means = [0.0] * self.num_arms
        self._weights = [0.0] * self.num_arms
        # C(t) of the latest round past the first pass over the arms, and the
        # arm of the next round, both chosen when the round before it ends.
        self._radius_scale = math.nan
        self._next_arm = 0

    def _share_tables(self, c: float, m: int, k: int, log_pow: float, weight_eps: float) -> None:
        """Take the tables of ``C(t)`` and ``w`` for these constants from the memo."""
        v = self.params.v
        exp = v / (1.0 + v)
        coef = c * self.params.u ** (1.0 / (1.0 + v))
        self._scales = _schedule(_scales_of_rounds, coef, m, k, log_pow, exp)
        # w's exponent, -exp: the same double as negating exp for each pull.
        self._pull_weights = _schedule(_weights_of_pulls, weight_eps, -exp)

    def _select(self, t: int) -> int:
        return self._next_arm

    def _begin_run(self, takes: list, horizon: int) -> None:
        super()._begin_run(takes, horizon)
        # What _play_until reads, gathered once per run or at the contract's
        # first round: at dense checkpoints a stretch is a round or two, and
        # a contract round is one, so its set-up must cost little.  Only
        # the pull differs, so the subclass gives what its pulls read.
        self._loop = (
            self.num_arms, horizon, self._scales, self._pull_weights, self._arms, self._means,
            self._weights, self._counts, takes, self._unread, -math.inf, math.log,
            *self.transcript.columns, *self._pull_state(),
        )

    def _play_until(self, stop: int) -> int:
        """Play the rounds from ``_round + 1`` to ``stop`` in one loop; return the next round.

        This loop is the only code that plays an index round, on both routes,
        with the policy's state in locals; only the pull differs.  Each round
        plays the arm chosen when the round before it ended (``_next_arm``),
        counts the pull in ``_counts``, and ends by choosing the next round's
        arm: the round-robin pass, then the arm maximizing mean + ``C(t) *
        w``, ties to the lowest index.  A pull reads the arm's next reward
        and its ``w``; only the truncation level and the mean differ.  The
        private policy truncates at the tabled level for the pull count, and
        the arm's tree inserts the kept reward in its one step,
        ``AdaptiveTree.insert``, whose release over the pulls is the mean.
        The baseline truncates at ``(u * n / ln(max(t, 2)**2)) ** (1/(1+v))``
        and keeps the arm's sum.
        """
        (num_arms, horizon, table, pull_weights, arms, means, weights, counts, takes, unread,
         lowest, log, arm_column, reward_column, flag_column, inserts, bounds, sums, u,
         exp) = self._loop
        t, arm, scale = self._round + 1, self._next_arm, self._radius_scale
        try:
            while t <= stop:
                n = counts[arm] + 1
                try:
                    reward = next(unread[arm])
                except StopIteration:  # the arm's block has run out
                    unread[arm] = rest = iter(takes[arm](min(n, _MAX_BLOCK, horizon - t + 1)))
                    reward = next(rest)
                try:
                    weight = pull_weights[n]
                except IndexError:  # grow the table, or evaluate w past its cap
                    weight = pull_weights.entry(n)
                if inserts is None:
                    # The baseline: the truncated reward joins the arm's sum.
                    bound = (u * n / log((float(t) if t > 1 else 2.0) ** 2)) ** exp
                    value = reward if abs(reward) <= bound else 0.0
                    sums[arm] = total = sums[arm] + value
                    mean = total / n
                else:
                    # The private policy: the truncated reward joins the arm's tree.
                    try:
                        bound = bounds[n]
                    except IndexError:  # grow the table, or evaluate it past its cap
                        bound = bounds.entry(n)
                    value = reward if abs(reward) <= bound else 0.0
                    mean = inserts[arm](value, bound) / n
                counts[arm] = n
                means[arm] = mean
                weights[arm] = weight
                arm_column.append(arm)
                reward_column.append(reward)
                flag_column.append(value is reward)
                t += 1
                if t <= num_arms:
                    arm = t - 1
                else:
                    # A round past the cap makes one comparison, as without the memo.
                    if t < _TABLE_CAP:
                        try:
                            scale = table[t]
                        except IndexError:
                            scale = table.entry(t)
                    else:
                        coef, m, k, log_pow, c_exp = table.constants
                        scale = coef * (log(m * t**k) * log_pow) ** c_exp
                    best, arm = lowest, 0
                    for a in arms:
                        score = means[a] + scale * weights[a]
                        if score > best:
                            best = score
                            arm = a
        finally:
            self._round = t - 1
            self._next_arm = arm
            self._radius_scale = scale
        return t


class DPRobustUCB(_IndexPolicy):
    """Differentially private index policy for heavy-tailed rewards.

    Each arm's truncated rewards feed a private running-sum tree with budget
    ``eps``; a reward enters only its own arm's tree, so by parallel
    composition the policy spends what one tree spends on one value, up to
    ``horizon.bit_length() / ln(horizon) * eps``, not ``eps`` (see
    :class:`~htbandits.mechanisms.AdaptiveTree`): 1.34-1.35 ``eps`` at 1e5 on
    S1.  A reward observed as the arm's ``n``-th pull is
    truncated to zero unless its magnitude is at most
    ``private_ucb_truncation(params, eps, horizon, n)``.  The index is
    noisy-sum / pulls + ``private_ucb_radius``, with ``C(t)`` at
    ``(m, k, L) = (2, 4, ln(horizon) ** (1.5 + 1/v))`` and
    ``w_a = (n_a * eps) ** -exp``.

    The index policies' stretch loop (``_play_until``) plays each pull: it
    truncates the arm's next reward at the tabled level for the pull count,
    and the arm's tree inserts it (``AdaptiveTree.insert``), reading one
    uniform of the arm's noise stream, recording the draw and insertion rows,
    counting the draw and returning the release.  A pull the tree rejects
    raises in the round that plays it.

    The constructor rejects an eps too small or too large for doubles: one
    that makes the first pull's truncation level 0, the last pull's
    infinite, or the last pull's radius 0 or infinite (``ValueError``).

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
        super().__init__(len(noise_sources), params)
        _shared_ledger(noise_sources)
        horizon = _as_index("horizon", horizon)
        if horizon < self.num_arms:
            raise ValueError(
                f"horizon {horizon} is below the number of arms {self.num_arms}"
            )
        # The schedules' argument checks run once, here; rounds read the
        # schedules from the memo's tables, or past the cap evaluate them.
        # The truncation level grows with the pull count and w shrinks, so
        # eps keeps every value finite and positive if it keeps these.
        first = private_ucb_truncation(params, eps, horizon, 1)
        last = private_ucb_truncation(params, eps, horizon, horizon)
        radius = private_ucb_radius(params, eps, horizon, horizon, horizon)
        _check_in_range("the first pull's truncation level", first, v=params.v, eps=eps)
        _check_in_range("the last pull's truncation level", last, v=params.v, eps=eps)
        _check_in_range("the last pull's radius", radius, v=params.v, eps=eps)
        self.eps = float(eps)
        self.horizon = horizon
        log_horizon = math.log(self.horizon)
        self._share_tables(18.0, 2, 4, log_horizon ** (1.5 + 1.0 / params.v), self.eps)
        self._bounds = _schedule(
            _bounds_of_pulls, self.eps * params.u, log_horizon**1.5, 1.0 / (1.0 + params.v)
        )
        self._trees = [
            AdaptiveTree(horizon, eps, noise=src, owner=a)
            for a, src in enumerate(noise_sources)
        ]

    def _pull_state(self) -> tuple:
        # (inserts, bounds, sums, u, exp); the baseline's three are None.
        return [tree.insert for tree in self._trees], self._bounds, None, None, None


# Keeps the last 64 configs' plans: the benchmark's audited grid builds 20.
@functools.lru_cache(maxsize=64)
def _epoch_plan(policy_class, params, eps: float, beta: float, horizon: int, num_arms: int):
    """Every epoch a run of this config may begin: ``{(num_viable, epoch): (schedule, scale)}``.

    Each value is the epoch's schedule and the noise scale of its draws, both
    checked here, so a bad eps or v is rejected when the config's first
    policy is made.  Epoch 1, with every arm viable, is always planned.  For
    a later epoch the plan walks a shortest path: an epoch of ``m >= 2``
    viable arms follows epoch 1 and epochs of at least ``m`` arms, each no
    shorter than the same epoch of ``m`` arms, so epochs 2, 3, ... of ``m``
    arms after epoch 1 end no later than any run's epoch of ``m`` arms with
    the same index.  The walk plans every such epoch that ends within the
    horizon and computes the schedule of the first that does not, to see
    where it ends.  A run therefore cannot fit an epoch the plan leaves out:
    ``_begin_epoch`` commits there.  The policies of a config share one plan
    per process, and nothing writes to it once it is built; a plan that
    raises is not cached.
    """
    make_schedule = functools.partial(policy_class._make_schedule, params, eps, beta)

    def checked(sched, epoch: int) -> tuple:
        scale = policy_class._noise_scale(sched, eps)
        return sched, _check_in_range(f"epoch {epoch}'s noise scale", scale, v=params.v, eps=eps)

    first = make_schedule(num_arms, 1)
    epochs = {(num_arms, 1): checked(first, 1)}
    for m in range(2, num_arms + 1):
        end, epoch = first.pulls_per_arm * num_arms, 2
        while end < horizon:
            sched = make_schedule(m, epoch)
            end += sched.pulls_per_arm * m
            if end <= horizon:
                epochs[m, epoch] = checked(sched, epoch)
            epoch += 1
    return epochs


class _EliminationPolicy(_PolicyBase):
    """Shared state machine and stretch loop of the two successive-elimination policies.

    Epochs run back to back, each kept as its schedule and noise scale,
    ``_sched`` and ``_scale``, both read from the config's epoch plan
    (:func:`_epoch_plan`, ``_plan``), and its last round, ``_epoch_end``: a
    round ``t > _epoch_end`` begins epoch ``len(completed_epochs) + 1`` and
    round ``_epoch_end`` ends it.  Round ``t`` pulls viable arm
    ``(t - _epoch_end - 1) % len(_viable)``, so the viable arms are pulled in
    index order, cycling ``pulls_per_arm`` times.
    An epoch whose total pull budget does not fit into the remaining horizon
    is never started: the policy commits to the best arm under the latest
    release scores (the lowest-index viable arm if no epoch ever completed)
    and plays it forever.

    Every round, on the contract's route and under ``run_single``, is played
    by one loop, :meth:`_play_until`.  A round past ``_epoch_end`` begins the
    next epoch, or commits, when it starts, never when the round before it
    ends, so a run whose last epoch ends at its last round ends uncommitted.
    An epoch's round truncates the arm's next reward, records the insertion,
    adds ``_epoch_contribution`` to the arm's sum and, at ``_epoch_end``,
    ends the epoch.  Committed rounds keep their rewards as they are: the
    loop appends them to the transcript's columns in blocks of the committed
    arm's rewards, so a long run costs little more than its completed epochs
    and one reward draw per committed round.  ``select_arm`` begins an epoch
    that is due in ``_select`` to name the round's arm, and ``observe`` plays
    the round as a stretch of one round.

    The policy records its mechanisms, insertions and epochs in the ledger
    its noise sources carry, where the sources record their draws; sources
    that carry different ledgers are rejected.  ``beta`` defaults to
    ``1/horizon``, so a one-round run with the default is rejected (it would
    be 1.0, outside ``(0, 1)``).  So is an eps or v too small or too large
    for doubles: one for which the plan cannot compute the schedule of epoch
    1, with every arm viable, or of a later epoch that some run may begin, or
    for which such an epoch's noise scale is 0, infinite or NaN
    (``ValueError``, at construction).
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
        _check_eps(eps)
        horizon = _as_index("horizon", horizon, 1)
        if beta is None:
            if horizon < 2:
                raise ValueError(
                    f"an elimination run needs a horizon of at least 2 for its default "
                    f"beta, 1/horizon, to lie in (0, 1); got horizon {horizon}"
                )
            beta = 1.0 / horizon
        _check_beta(beta)
        self.params = params
        self.eps = float(eps)
        self.horizon = horizon
        self.beta = float(beta)
        # The epochs a run may begin, shared by the config's policies.
        self._plan = _epoch_plan(type(self), params, self.eps, self.beta, horizon, self.num_arms)
        # The current epoch's schedule and the noise scale of its draws.
        self._sched = self._scale = None
        self.ledger = ledger
        self._sources = noise_sources
        self._viable = list(range(self.num_arms))
        self._epoch_end = 0
        self._epoch_record = None
        self._sums = [0.0] * self.num_arms  # per arm, the epoch's sum
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

    # A subclass defines two static methods: _make_schedule(params, eps, beta,
    # num_viable, epoch), the epoch's schedule, and _noise_scale(sched, eps).
    # Only _epoch_plan calls them.

    def _epoch_contribution(self, arm: int, kept: float) -> float:
        raise NotImplementedError

    def _epoch_scores(self) -> dict:
        raise NotImplementedError

    def _best_known(self) -> int:
        if not self._last_scores:
            return self._viable[0]
        # max keeps the first of equal scores: the lowest-indexed viable arm.
        return max(self._viable, key=self._last_scores.__getitem__)

    def _begin_epoch(self, t: int) -> None:
        """Begin the next epoch at round ``t`` from the plan, or commit if it does not fit.

        An epoch the plan leaves out cannot fit (:func:`_epoch_plan`), so it
        commits as one that ends past the horizon does.
        """
        epoch, num_viable = len(self.completed_epochs) + 1, len(self._viable)
        planned = self._plan.get((num_viable, epoch))
        end = math.inf if planned is None else t - 1 + planned[0].pulls_per_arm * num_viable
        if end > self.horizon:
            self._commit(self._best_known(), t)
            return
        self._sched, self._scale = planned
        self._epoch_end = end
        for a in self._viable:
            self._sums[a] = 0.0
        if self.ledger is not None:
            self._epoch_record = self.ledger.record_epoch(
                self._epoch_kind, epoch, num_viable, self._sched.pulls_per_arm
            )

    def _end_epoch(self, t: int) -> None:
        scores = self._epoch_scores()
        self._last_scores = scores
        self.completed_epochs.append(
            (len(self.completed_epochs) + 1, len(self._viable), self._sched.pulls_per_arm)
        )
        if self._epoch_record is not None:
            self._epoch_record.completed = True
            self._epoch_record = None
        best = max(scores.values())
        threshold = self._elimination_mult * self._sched.accuracy
        self._viable = [a for a in self._viable if not best - scores[a] > threshold]
        if len(self._viable) == 1:
            self._commit(self._viable[0], t + 1)

    def _select(self, t: int) -> int:
        if t > self._epoch_end:
            self._begin_epoch(t)
        arm = self._committed
        if arm is None:
            arm = self._viable[(t - self._epoch_end - 1) % len(self._viable)]
        return arm

    def _begin_run(self, takes: list, horizon: int) -> None:
        super()._begin_run(takes, horizon)
        # What _play_until reads, gathered once per run or at the contract's
        # first round: at dense checkpoints a stretch is a round or two.  The
        # contribution is the class's function, as a bound method here would
        # tie the policy into a reference cycle.
        ledger = self.ledger
        self._loop = (
            horizon, takes, self._unread, self._counts, self._sums,
            type(self)._epoch_contribution, None if ledger is None else ledger.record_insertion,
            self._mechs, *self.transcript.columns,
        )

    def _play_until(self, stop: int) -> int:
        """Play the rounds from ``_round + 1`` to ``stop``; return the next round.

        This loop is the only code that plays an elimination round, on both
        routes.  An epoch's round reads the round-robin arm's next reward,
        truncates it at the epoch's level, records the insertion, adds
        ``_epoch_contribution`` to the arm's sum and, in the epoch's last
        round, ends the epoch.  A round past ``_epoch_end`` first begins the
        next epoch, which commits instead if the epoch does not fit.  Once
        committed, the rounds up to ``stop`` play the committed arm: the
        unread rest of its current block, then takes of up to
        ``_TAIL_BLOCK`` rewards, each appended to the columns in bulk.  Every
        pull, committed ones included, is counted in ``_counts``.
        """
        (horizon, takes, unread, counts, sums, contribute, record, mechs, arm_column,
         reward_column, flag_column) = self._loop
        t = self._round + 1
        try:
            while t <= stop:
                arm = self._committed
                if arm is not None:
                    # Every round left plays the committed arm, a block at a time.
                    rewards = list(islice(unread[arm], stop - t + 1))
                    while True:
                        n = len(rewards)
                        # fromlist leaves the column as it was if an item is not a float.
                        reward_column.fromlist(rewards)
                        arm_column.extend(array("I", (arm,)) * n)
                        flag_column.frombytes(b"\x01" * n)
                        counts[arm] += n
                        t += n
                        if t > stop:
                            break
                        rewards = takes[arm](min(_TAIL_BLOCK, stop - t + 1))
                    break
                if t > self._epoch_end:
                    self._begin_epoch(t)  # commits instead if the epoch does not fit
                    continue
                # The epoch's rounds up to stop, round-robin over the viable arms.
                end, viable, truncation = self._epoch_end, self._viable, self._sched.truncation
                num_viable, last = len(viable), min(end, stop)
                while t <= last:
                    arm = viable[(t - end - 1) % num_viable]
                    try:
                        reward = next(unread[arm])
                    except StopIteration:  # the arm's block has run out
                        size = min(counts[arm] + 1, _MAX_BLOCK, horizon - t + 1)
                        unread[arm] = rest = iter(takes[arm](size))
                        reward = next(rest)
                    kept = reward if abs(reward) <= truncation else 0.0
                    if record is not None:
                        record(mechs[arm], arm, kept, truncation)
                    sums[arm] += contribute(self, arm, kept)
                    if t == end:
                        self._end_epoch(t)
                    arm_column.append(arm)
                    reward_column.append(reward)
                    flag_column.append(kept is reward)
                    counts[arm] += 1
                    t += 1
        finally:
            self._round = t - 1
        return t


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

    @staticmethod
    def _make_schedule(params: MomentParams, eps: float, beta: float, num_viable: int, epoch: int):
        return central_se_schedule(params, eps, beta, num_viable, epoch)

    @staticmethod
    def _noise_scale(sched, eps: float) -> float:
        return 2.0 * sched.truncation / (sched.pulls_per_arm * eps)

    def _epoch_contribution(self, arm: int, kept: float) -> float:
        return kept

    def _epoch_scores(self) -> dict:
        sched = self._sched
        pulls = sched.pulls_per_arm
        scores = {}
        for a in self._viable:
            eta = self._sources[a].draw(
                self._scale, SE_RELEASE_SITE, sched.truncation, self.eps, pulls
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

    @staticmethod
    def _make_schedule(params: MomentParams, eps: float, beta: float, num_viable: int, epoch: int):
        return local_se_schedule(params, eps, beta, num_viable, epoch)

    @staticmethod
    def _noise_scale(sched, eps: float) -> float:
        return 2.0 * sched.truncation / eps

    def _epoch_contribution(self, arm: int, kept: float) -> float:
        truncation = self._sched.truncation
        eta = self._sources[arm].draw(self._scale, LOCAL_REWARD_SITE, truncation, self.eps, 0)
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
    qualitative comparison; no privacy guarantee.  Both routes play its rounds
    in :meth:`_IndexPolicy._play_until`.
    """

    def __init__(self, num_arms: int, params: MomentParams):
        super().__init__(num_arms, params)
        # Anything the public schedules reject fails here, at construction.
        nonprivate_ucb_radius(params, 1, 2.0)
        nonprivate_ucb_threshold(params, 1, 2.0)
        # threshold = (u * n / ln(t**2)) ** exp reads the round as well as the
        # pull count, so each pull evaluates it inline.
        self._trunc_u = params.u
        self._trunc_exp = 1.0 / (1.0 + params.v)
        self._sums = [0.0] * self.num_arms
        # ln(1 * t**2) * 1.0 and (n * 1.0) ** -exp are the schedules' ln(t**2)
        # and n ** -exp, bit for bit: w is w at eps 1.0.
        self._share_tables(4.0, 1, 2, 1.0, 1.0)

    def _pull_state(self) -> tuple:
        # (inserts, bounds, sums, u, exp); inserts None picks this pull.
        return None, None, self._sums, self._trunc_u, self._trunc_exp
