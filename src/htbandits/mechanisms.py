"""Laplace noise primitives and the streaming prefix-sum release mechanism.

All noise flows through :class:`NoiseSource`, and every draw is recorded
into the source's optional :class:`PrivacyLedger` for post-hoc auditing.  A
source draws Laplace noise under the ``LAPLACE`` hook and a constant under
the two test hooks (``ZERO`` and ``UNIT``); it accepts only :class:`NoiseHook`
members and fixes what it draws at construction.  The test hooks carry no
privacy guarantee, and the audit, which checks scales and not values, cannot
tell them from real noise.

Noise is drawn at three sites: the tree's partial sums, the central
elimination release and the local per-reward perturbation.  Every draw passes
the same three parameters its scale rests on, a sensitivity bound, a budget
and a count, and the ledger records each draw as one row ``(site, scale,
bound, eps, count)``; a draw at any other site is rejected when it is
recorded.  A tree draws and records the noise of each value in its one step,
``AdaptiveTree.insert``, one uniform per value.  The ledger keeps its draws
and insertions in two :class:`RecordTable`, typed arrays by column, about 57
bytes per round of an audited index run.  The columns are the record: the
audit reads them, and no record object is built.  The policies' transcripts
are stored by column too.
"""

import enum
import math
from array import array
from dataclasses import dataclass

from .schedules import _as_index, _check_above_one, _check_eps

__all__ = [
    "TREE_SITE",
    "SE_RELEASE_SITE",
    "LOCAL_REWARD_SITE",
    "TREE_KIND",
    "CENTRAL_EPOCH_KIND",
    "LOCAL_EPOCH_KIND",
    "laplace_from_uniform",
    "NoiseHook",
    "MechanismRecord",
    "EpochRecord",
    "RecordTable",
    "PrivacyLedger",
    "NoiseSource",
    "AdaptiveTree",
    "tree_noise_bound",
]

# The draw sites.  A draw is stored with its site's index in this tuple, and
# the audit recomputes its mandated scale by site.
TREE_SITE = "tree_psum"
SE_RELEASE_SITE = "se_release"
LOCAL_REWARD_SITE = "local_reward"
_SITES = (TREE_SITE, SE_RELEASE_SITE, LOCAL_REWARD_SITE)
_SITE_CODE = {site: code for code, site in enumerate(_SITES)}

# The tree's mechanism kind and the elimination epoch kinds, as the ledger records them.
TREE_KIND = "tree"
CENTRAL_EPOCH_KIND = "central_se"
LOCAL_EPOCH_KIND = "local_se"

# The owner column's code for a mechanism that holds no single arm's data.
_NO_OWNER = -1

# random() emits multiples of 2**-53 in [0, 1); clamping u=0 to one grid step
# keeps the log finite without disturbing any other outcome.
_MIN_UNIFORM = 2.0**-53

# Module-level names for the per-draw path: a global lookup, not an attribute.
_log = math.log
_INF = math.inf


def _laplace(u: float, scale: float) -> float:
    """The Laplace variate of the uniform ``u`` in [0, 1) at ``scale``; unchecked.

    Inverse CDF: negative branch ``scale*ln(2u)`` for ``u < 1/2``, positive
    branch ``-scale*ln(2(1-u))`` otherwise, so ``u = 1/2`` maps to 0.
    :meth:`AdaptiveTree.insert` keeps its own copy of this expression.
    """
    if u < 0.5:
        return scale * _log(2.0 * (u if u >= _MIN_UNIFORM else _MIN_UNIFORM))
    return -scale * _log(2.0 * (1.0 - u))


def laplace_from_uniform(u: float, scale: float) -> float:
    """Map one uniform ``u`` in [0, 1) to a Laplace(0, scale) variate.

    Inverse CDF: negative branch ``scale*ln(2u)`` for ``u < 1/2``, positive
    branch ``-scale*ln(2(1-u))`` otherwise, so ``u = 1/2`` maps to 0.
    ``scale`` must be finite and non-negative.
    """
    if not 0.0 <= u < 1.0:
        raise ValueError(f"u must lie in [0, 1), got {u}")
    if not 0.0 <= scale < _INF:  # NaN fails too
        raise ValueError(f"scale must be finite and non-negative, got {scale}")
    return _laplace(u, scale)


class NoiseHook(enum.Enum):
    """Noise behavior of a :class:`NoiseSource`."""

    LAPLACE = "laplace"
    ZERO = "zero"
    UNIT = "unit"


# What a draw returns under each hook; None means Laplace noise.
_HOOK_VALUE = {NoiseHook.LAPLACE: None, NoiseHook.ZERO: 0.0, NoiseHook.UNIT: 1.0}


@dataclass
class MechanismRecord:
    """A registered mechanism and the arm whose data it holds."""

    kind: str
    owner: int | None


@dataclass
class EpochRecord:
    """One elimination epoch: phase index, viable-arm count, pulls per arm."""

    kind: str
    epoch: int
    num_viable: int
    pulls_per_arm: int
    completed: bool = False


class RecordTable:
    """Rows stored by column: ``columns`` holds one typed array per field.

    The arrays have one length, the table's ``len``.  Writers append column by
    column and call :meth:`discard_partial_row` when an append fails, so a row
    is stored whole or not at all.
    """

    __slots__ = ("columns",)

    def __init__(self, typecodes: str):
        self.columns = tuple(map(array, typecodes))

    def __len__(self) -> int:
        return len(self.columns[0])

    def discard_partial_row(self) -> None:
        """Cut every column back to the shortest, dropping a half-written row."""
        n = min(map(len, self.columns))
        for column in self.columns:
            del column[n:]


class PrivacyLedger:
    """Append-only record of everything privacy-relevant a run did.

    An audited index run adds one draw and one insertion per round, so these
    are kept in two :class:`RecordTable`: ``noise_draws`` holds a draw's site
    code, scale, bound, eps and count (33 bytes), ``insertions`` an
    insertion's mechanism, owner, value and bound (24 bytes).  Row ``i`` of a
    table is entry ``i`` of each of its ``columns``: a draw's site is
    ``_SITES[code]``, an insertion without an owner has owner ``_NO_OWNER``
    (-1).  Read the columns, do not change them.  ``mechanisms`` and
    ``epochs``, a few records per run, are lists.

    :meth:`record_draw` and :meth:`record_insertion` store a record whole or
    not at all.  They raise ``ValueError`` for what the columns cannot hold
    as given: a draw site other than the three the mechanisms draw at, a
    count that is not an int in the signed 64-bit range, a parameter that is
    not a number, or a negative owner.  :meth:`register_mechanism` rejects an
    owner that is neither None nor a non-negative integer, so no mechanism
    holds an owner its insertions could not record.
    """

    __slots__ = ("mechanisms", "epochs", "noise_draws", "insertions")

    def __init__(self):
        self.mechanisms: list = []
        self.epochs: list = []
        # Columns: site code, scale, bound, eps, count.
        self.noise_draws = RecordTable("Bdddq")
        # Columns: mechanism, owner, value, bound.
        self.insertions = RecordTable("iidd")

    def register_mechanism(self, kind: str, owner: int | None) -> int:
        """Register a mechanism holding ``owner``'s data and return its index.

        ``owner`` is the arm, a non-negative integer, or None for no single
        arm; anything else raises ``ValueError``, before the mechanism records
        a row it could not carry into its insertions.
        """
        if owner is not None:
            owner = _as_index("owner", owner, 0)
        self.mechanisms.append(MechanismRecord(kind=kind, owner=owner))
        return len(self.mechanisms) - 1

    def record_draw(self, site: str, scale: float, bound: float, eps: float, count: int) -> None:
        """Record one draw, with the parameters :meth:`NoiseSource.draw` got."""
        code = _SITE_CODE.get(site)
        if code is None:
            raise ValueError(f"unknown draw site {site!r}; the sites are {_SITES}")
        codes, scales, bounds, epss, counts = self.noise_draws.columns
        try:
            counts.append(count)
            bounds.append(bound)
            epss.append(eps)
            scales.append(scale)
            codes.append(code)
        except (TypeError, OverflowError) as exc:
            self.noise_draws.discard_partial_row()
            raise ValueError(
                f"cannot record a {site!r} draw at scale {scale!r} with bound {bound!r}, "
                f"eps {eps!r}, count {count!r}: {exc}"
            ) from None

    def record_insertion(
        self, mechanism: int, owner: int | None, value: float, bound: float
    ) -> None:
        if owner is None:
            owner = _NO_OWNER
        elif owner < 0:
            raise ValueError(f"owner must be an arm index or None, got {owner}")
        mechanisms, owners, values, bounds = self.insertions.columns
        try:
            mechanisms.append(mechanism)
            owners.append(owner)
            values.append(value)
            bounds.append(bound)
        except (TypeError, OverflowError) as exc:
            self.insertions.discard_partial_row()
            raise ValueError(
                f"cannot record insertion {(mechanism, owner, value, bound)!r}: {exc}"
            ) from None

    def record_epoch(self, kind: str, epoch: int, num_viable: int, pulls_per_arm: int) -> EpochRecord:
        record = EpochRecord(
            kind=kind, epoch=epoch, num_viable=num_viable, pulls_per_arm=pulls_per_arm
        )
        self.epochs.append(record)
        return record


class NoiseSource:
    """Draws noise for one consumer, recording each draw in the ledger.

    A source's behaviour is fixed at construction: its hook, a
    :class:`NoiseHook` member (anything else raises ``ValueError``), sets once
    whether a draw reads a uniform for Laplace noise or returns a constant.

    :meth:`draw` checks, records and draws one value.  A tree draws its noise
    in its own step (:meth:`AdaptiveTree.insert`), from the source's ``rng``
    and hook, and records and counts each draw as :meth:`draw` does.

    Parameters
    ----------
    rng : object with ``random()``, or None
        Stream for real draws, read one uniform per draw: a
        ``numpy.random.Generator`` or a :class:`~htbandits.seeding.BlockStream`
        over one.  May be None for the ZERO/UNIT hooks, which consume no
        randomness.
    hook : NoiseHook
        LAPLACE for real noise; ZERO returns 0.0 and UNIT returns 1.0
        (test hooks, no privacy guarantee).
    ledger : PrivacyLedger or None
        Destination for draw records; None disables recording.
    """

    __slots__ = ("rng", "hook", "ledger", "draws_made", "_value")

    def __init__(self, rng=None, hook: NoiseHook = NoiseHook.LAPLACE, ledger=None):
        if not isinstance(hook, NoiseHook):
            raise ValueError(f"hook must be a NoiseHook member, got {hook!r}")
        if hook is NoiseHook.LAPLACE and rng is None:
            raise ValueError("LAPLACE hook needs an rng")
        self.rng = rng
        self.hook = hook
        self.ledger = ledger
        self.draws_made = 0
        self._value = _HOOK_VALUE[hook]

    def draw(self, scale: float, site: str, bound: float, eps: float, count: int) -> float:
        """Draw one value at ``scale`` for the draw site ``site``.

        ``bound``, ``eps`` and ``count`` are what the scale rests on: the
        tree passes its value bound, budget and horizon, the central release
        the truncation, budget and pulls, the local reward the truncation,
        budget and 0.  The ledger records them in its draw columns.

        A draw the source or its ledger rejects changes nothing: ``scale``
        must be finite and non-negative under every hook, and the scale and
        the ledger record are checked before the draw is counted or a uniform
        is read.
        """
        if not 0.0 <= scale < _INF:  # NaN fails too
            raise ValueError(f"scale must be finite and non-negative, got {scale}")
        ledger = self.ledger
        if ledger is not None:
            ledger.record_draw(site, scale, bound, eps, count)
        self.draws_made += 1
        value = self._value
        return _laplace(self.rng.random(), scale) if value is None else value


class AdaptiveTree:
    """Streaming noisy prefix sums with per-release error logarithmic in time.

    Maintains one partial sum per dyadic level.  Inserting the ``t``-th value
    finalizes the partial sum at level ``i`` = lowest set bit of ``t``: the
    value plus all lower-level partial sums moves up to level ``i``, the lower
    levels reset, and fresh Laplace noise of scale ``2*bound/(eps/ln(horizon))``
    is added to the finalized sum exactly once.  The running-sum estimate after
    ``t`` insertions is the sum of the noisy partial sums at the set-bit levels
    of ``t``, at most ``floor(log2(horizon)) + 1`` of them, added from the
    highest level down; reads never draw noise.

    The tree keeps that sum as a stack of running sums, one per set bit of
    ``t``: entry ``i`` is the sum of the ``i + 1`` highest noisy partial sums.
    An insert drops the entries of the levels it merges and pushes the top
    plus the new noisy sum, so a release costs one add, not one per set bit.
    Which adds are made is post-processing of the same noisy sums, each drawn
    once, so the privacy guarantee is unchanged.

    :meth:`insert` is the tree's one step, a Python call per value: it checks
    the value and its bound, draws the value's noise from one uniform of the
    source's stream, records the draw and the insertion, counts the draw in
    the source's ``draws_made``, adds the value and its noise and returns the
    release.  It maps the uniform with its own copy of ``_laplace``'s
    expression: calling ``_laplace`` made a private index round about 5%
    slower (S1, T=1e5, one pinned CPU of a 2-vCPU Xeon host).

    Bounds supplied with the values must be finite, positive and
    non-decreasing, and each value's magnitude must not exceed its bound.
    Each finalized sum is then ``eps/ln(horizon)``-differentially private for
    streams differing in one entry, but a value enters the partial sums of up
    to ``horizon.bit_length()`` levels (the first value enters one at every
    level).  Under basic composition (Dwork & Roth 2014, section 3.5) the
    release stream is therefore ``horizon.bit_length() / ln(horizon) *
    eps``-private, not ``eps``-private: 1.48 ``eps`` at a horizon of 1e5 with
    a constant bound.  Growing bounds spend less: a partial sum whose bound
    exceeds a value's spends less than ``eps/ln(horizon)`` on it.

    Parameters
    ----------
    horizon : int
        Capacity; at most ``horizon`` insertions are accepted.  An integer
        (numpy's included), at least 2.
    eps : float
        Budget that each partial sum's noise gets ``1/ln(horizon)`` of,
        finite and positive; see above for what the release stream spends.
    noise : NoiseSource
        Source for the per-finalization draws.
    owner : int or None
        Arm whose data this tree holds; recorded in the ledger for the
        disjointness audit.
    """

    __slots__ = (
        "horizon",
        "eps",
        "owner",
        "_eps_prime",
        "_noise",
        "_ledger",
        "_mech",
        "_psums",
        "_noisy_stack",
        "_t",
        "_last_bound",
    )

    def __init__(self, horizon: int, eps: float, noise: NoiseSource, owner: int | None = None):
        horizon = _as_index("horizon", horizon, 2)
        _check_eps(eps)
        self.horizon = horizon
        self.eps = float(eps)
        self.owner = owner
        self._eps_prime = self.eps / math.log(horizon)
        if not 0.0 < self._eps_prime < _INF:  # eps is too small or too large
            raise ValueError(
                f"eps / ln(horizon) must be finite and positive, got {self._eps_prime}"
            )
        self._noise = noise
        self._ledger = noise.ledger
        self._mech = (
            self._ledger.register_mechanism(TREE_KIND, owner)
            if self._ledger is not None
            else None
        )
        levels = horizon.bit_length()
        self._psums = [0.0] * levels
        # Running sums of the noisy partial sums at the set bits of t, from
        # the highest level down: the top is the release.
        self._noisy_stack: list = []
        self._t = 0
        self._last_bound = 0.0

    @property
    def t(self) -> int:
        """Number of values inserted so far."""
        return self._t

    @property
    def estimate(self) -> float:
        """Noisy running sum after the latest insertion (0.0 before any)."""
        stack = self._noisy_stack
        return stack[-1] if stack else 0.0

    def insert(self, value: float, bound: float) -> float:
        """Insert one value and return the updated noisy running sum.

        A value passes when its insertion fits the capacity, its bound is
        positive, finite and no less than the bound before, its magnitude is
        at most its bound and its noise scale is finite; ``ValueError`` names
        the first check it fails, in that order.  A value that fails changes
        nothing: the checks run before a uniform is read.  The draw and the
        insertion are recorded, in the ledger of the tree's source, before
        the draw is counted and the tree changes.
        """
        t = self._t + 1
        last = self._last_bound
        scale = 2.0 * bound / self._eps_prime
        # NaN fails too.
        if not (t <= self.horizon and 0.0 < bound and last <= bound
                and abs(value) <= bound and scale < _INF):
            if t > self.horizon:
                problem = f"tree is full: capacity {self.horizon}"
            elif not 0.0 < bound < _INF:
                problem = f"bound must be positive and finite, got {bound}"
            elif bound < last:
                problem = f"bounds must be non-decreasing: {bound} after {last}"
            elif not abs(value) <= bound:
                problem = f"|value| = {abs(value)} exceeds bound {bound}"
            else:
                problem = f"scale must be finite and non-negative, got {scale}"
            raise ValueError(problem)
        noise = self._noise
        eta = noise._value
        if eta is None:
            # _laplace(u, scale), inline.
            u = noise.rng.random()
            eta = (
                scale * _log(2.0 * (u if u >= _MIN_UNIFORM else _MIN_UNIFORM))
                if u < 0.5
                else -scale * _log(2.0 * (1.0 - u))
            )
        ledger = self._ledger
        if ledger is not None:
            ledger.record_draw(TREE_SITE, scale, bound, self.eps, self.horizon)
            ledger.record_insertion(self._mech, self.owner, value, bound)
        noise.draws_made += 1
        psums = self._psums
        stack = self._noisy_stack
        if t & 1:
            # Level 0 merges no lower level: the sum is 0.0 + value, which,
            # as in the merges below, turns -0.0 into 0.0.
            finalized = psums[0] = 0.0 + value
        elif t & 2:
            # Levels 0 .. level-1 are the lowest set bits of t - 1, on top of
            # the stack; they merge, lowest first, into the new sum at
            # `level`, and their running sums leave the stack.
            finalized = psums[1] = (0.0 + psums[0]) + value
            psums[0] = 0.0
            stack.pop()
        else:
            level = (t & -t).bit_length() - 1
            acc = 0.0
            for j in range(level):
                acc += psums[j]
                psums[j] = 0.0
            finalized = psums[level] = acc + value
            del stack[-level:]
        # One add releases the new running sum: the running sum of the noisy
        # sums at the higher set bits of t, on top of the stack, plus the new
        # noisy sum.
        top = (stack[-1] if stack else 0.0) + (finalized + eta)
        stack.append(top)
        self._t = t
        self._last_bound = bound
        return top


def tree_noise_bound(bound: float, eps: float, horizon: float, delta: float) -> float:
    """High-probability envelope for the tree's release error.

    With probability at least ``1 - delta`` a single release deviates from the
    exact prefix sum by at most
    ``(2*bound/eps) * ln(horizon)**1.5 * ln(1/delta)``.
    """
    if not 0.0 <= bound < _INF:  # NaN fails too
        raise ValueError(f"bound must be finite and non-negative, got {bound}")
    _check_eps(eps)
    _check_above_one("horizon", horizon)
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    return (2.0 * bound / eps) * math.log(horizon) ** 1.5 * math.log(1.0 / delta)
