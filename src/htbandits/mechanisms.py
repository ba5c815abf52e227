"""Laplace noise primitives and the streaming prefix-sum release mechanism.

All noise flows through :class:`NoiseSource`, which supports two test hooks
(zero noise and unit noise) and records every draw into an optional
:class:`PrivacyLedger` for post-hoc auditing.  The hooks exist for tests only:
a run with a hook other than ``LAPLACE`` carries no privacy guarantee.

The ledger keeps its draws and insertions in two :class:`RecordTable`, typed
arrays by column, about 57 bytes per round of an audited index run; they build
:class:`NoiseDraw` and :class:`InsertionRecord` values only when read.  The
policies' transcripts are record tables too.
"""

import enum
import math
import operator
from array import array
from collections.abc import Sequence
from dataclasses import dataclass
from functools import partial

__all__ = [
    "TREE_SITE",
    "SE_RELEASE_SITE",
    "LOCAL_REWARD_SITE",
    "laplace_from_uniform",
    "NoiseHook",
    "NoiseDraw",
    "InsertionRecord",
    "MechanismRecord",
    "EpochRecord",
    "RecordTable",
    "PrivacyLedger",
    "NoiseSource",
    "AdaptiveTree",
    "tree_noise_bound",
]

# Draw-site names; the audit recomputes the mandated scale per site.
TREE_SITE = "tree_psum"
SE_RELEASE_SITE = "se_release"
LOCAL_REWARD_SITE = "local_reward"

# The parameters a draw at each site passes, in order, and the names the
# ledger's records give them.
_DRAW_CONTEXT = {
    TREE_SITE: ("bound", "eps", "horizon"),
    SE_RELEASE_SITE: ("truncation", "pulls", "eps"),
    LOCAL_REWARD_SITE: ("truncation", "eps"),
}

# The ledger keeps a draw's parameters in three columns: the sensitivity bound
# (``bound`` or ``truncation``), the budget (``eps``) and an integer count
# (``horizon`` or ``pulls``; 0 at a site without one).
_COLUMN = {"bound": 0, "truncation": 0, "eps": 1, "horizon": 2, "pulls": 2}

# The owner column's code for a mechanism that holds no single arm's data.
_NO_OWNER = -1

# random() emits multiples of 2**-53 in [0, 1); clamping u=0 to one grid step
# keeps the log finite without disturbing any other outcome.
_MIN_UNIFORM = 2.0**-53


def laplace_from_uniform(u: float, scale: float) -> float:
    """Map one uniform ``u`` in [0, 1) to a Laplace(0, scale) variate.

    Inverse CDF: negative branch ``scale*ln(2u)`` for ``u < 1/2``, positive
    branch ``-scale*ln(2(1-u))`` otherwise, so ``u = 1/2`` maps to 0.
    """
    if not 0.0 <= u < 1.0:
        raise ValueError(f"u must lie in [0, 1), got {u}")
    if scale < 0.0:
        raise ValueError(f"scale must be non-negative, got {scale}")
    if u < 0.5:
        return scale * math.log(2.0 * max(u, _MIN_UNIFORM))
    return -scale * math.log(2.0 * (1.0 - u))


class NoiseHook(enum.Enum):
    """Noise behavior of a :class:`NoiseSource`."""

    LAPLACE = "laplace"
    ZERO = "zero"
    UNIT = "unit"


@dataclass
class NoiseDraw:
    """One recorded noise draw: where, at what scale, with which parameters."""

    site: str
    scale: float
    context: dict


@dataclass
class InsertionRecord:
    """One value entering a mechanism, with the bound it was checked against."""

    mechanism: int
    owner: int | None
    value: float
    bound: float


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


def _draw_layout(code: int, names: tuple) -> tuple:
    # record_draw appends (context + (0,))[picks[c]] to column c, so a column
    # the site has no parameter for gets the trailing 0.
    where = {_COLUMN[name]: i for i, name in enumerate(names)}
    picks = tuple(where.get(column, len(names)) for column in range(3))
    return (code, len(names), *picks)


# Site -> (code, parameter count, *picks) for the sites the mechanisms draw at.
_DRAW_LAYOUT = {
    site: _draw_layout(code, names)
    for code, (site, names) in enumerate(_DRAW_CONTEXT.items())
}


class RecordTable(Sequence):
    """Records kept by column in typed arrays and built when they are read.

    ``columns`` holds one array per field, all of one length.  The table reads
    like a list of its records: ``len``, iteration, int indices (negative ones
    count from the end; ``IndexError`` past either end) and slices (a list).
    It compares equal to a list of the same records.  ``row`` maps one value
    of each column to a record; full iteration reads the arrays themselves
    and partial reads index them, so no array is copied.

    Writers append column by column and call :meth:`discard_partial_row` when
    an append fails, so a row is stored whole or not at all.
    """

    __slots__ = ("columns", "_row")

    def __init__(self, typecodes: str, row=None):
        self.columns = tuple(map(array, typecodes))
        self._row = row

    def _records(self, rows: range, columns):
        # The records of ``rows``, given each column's values at them.
        return map(self._row, *columns)

    def __len__(self) -> int:
        return len(self.columns[0])

    def __iter__(self):
        return self._records(range(len(self)), self.columns)

    def __getitem__(self, index):
        rows = range(len(self))
        if isinstance(index, slice):
            rows = rows[index]
            return list(
                self._records(rows, [map(c.__getitem__, rows) for c in self.columns])
            )
        try:
            i = rows[index]  # a negative index counts from the end
        except IndexError:
            raise IndexError(f"{type(self).__name__} index out of range") from None
        return self[i : i + 1][0]

    def __eq__(self, other):
        if not isinstance(other, (list, RecordTable)):
            return NotImplemented
        return len(self) == len(other) and all(map(operator.eq, self, other))

    __hash__ = None

    def discard_partial_row(self) -> None:
        """Cut every column back to the shortest, dropping a half-written row."""
        n = min(map(len, self.columns))
        for column in self.columns:
            del column[n:]


def _draw_record(sites: list, code: int, scale: float, *parameters) -> NoiseDraw:
    site = sites[code]
    context = {name: parameters[_COLUMN[name]] for name in _DRAW_CONTEXT.get(site, ())}
    return NoiseDraw(site=site, scale=scale, context=context)


def _insertion_record(mechanism: int, owner: int, value: float, bound: float) -> InsertionRecord:
    owner = None if owner == _NO_OWNER else owner
    return InsertionRecord(mechanism=mechanism, owner=owner, value=value, bound=bound)


class PrivacyLedger:
    """Append-only record of everything privacy-relevant a run did.

    An audited index run adds one draw and one insertion per round, so these
    are kept in two :class:`RecordTable`: ``noise_draws`` holds a draw's site
    code, scale and three parameter columns (33 bytes) and builds a
    :class:`NoiseDraw` per read, ``insertions`` an insertion's mechanism,
    owner, value and bound (24 bytes) and builds an :class:`InsertionRecord`.
    :meth:`draw_columns` and :meth:`insertion_columns` give the arrays
    themselves.  ``mechanisms`` and ``epochs``, a few records per run, are
    lists.

    :meth:`record_draw` and :meth:`record_insertion` store a record whole or
    not at all.  They raise ``ValueError`` for what the columns cannot hold
    as given: a context that does not match the site's parameters, an integer
    parameter (``horizon``, ``pulls``) that is not an int in the signed 64-bit
    range, or a negative owner.
    """

    __slots__ = ("mechanisms", "epochs", "noise_draws", "insertions", "_sites", "_layouts")

    def __init__(self):
        self.mechanisms: list = []
        self.epochs: list = []
        # Site names by code; a site no mechanism draws at takes the next code.
        self._sites = list(_DRAW_LAYOUT)
        self._layouts = dict(_DRAW_LAYOUT)
        # Columns: site code, scale, bound, eps, count.
        self.noise_draws = RecordTable("Bdddq", partial(_draw_record, self._sites))
        # Columns: mechanism, owner, value, bound.
        self.insertions = RecordTable("iidd", _insertion_record)

    def register_mechanism(self, kind: str, owner: int | None) -> int:
        self.mechanisms.append(MechanismRecord(kind=kind, owner=owner))
        return len(self.mechanisms) - 1

    def record_draw(self, site: str, scale: float, *context) -> None:
        """Record one draw at ``site`` with the site's parameters, in order.

        ``context`` is what :meth:`NoiseSource.draw` passes.  A site no
        mechanism draws at takes no parameters; its draw is stored so that
        the audit flags it.
        """
        layout = self._layouts.get(site)
        if layout is None:
            if context:
                raise ValueError(f"unknown draw site {site!r} takes no parameters")
            layout = self._add_site(site)
        code, size, bound, eps, count = layout
        if len(context) != size:
            raise ValueError(
                f"a {site!r} draw takes {size} parameters "
                f"{_DRAW_CONTEXT[site]}, got {len(context)}"
            )
        values = context + (0,)
        codes, scales, bounds, epss, counts = self.noise_draws.columns
        try:
            counts.append(values[count])
            bounds.append(values[bound])
            epss.append(values[eps])
            scales.append(scale)
            codes.append(code)
        except (TypeError, OverflowError) as exc:
            self.noise_draws.discard_partial_row()
            raise ValueError(
                f"cannot record a {site!r} draw at scale {scale!r} with {context!r}: {exc}"
            ) from None

    def _add_site(self, site: str) -> tuple:
        code = len(self._sites)
        if code > 255:
            raise ValueError(f"more than 256 draw sites, at {site!r}")
        self._sites.append(site)
        layout = self._layouts[site] = _draw_layout(code, ())
        return layout

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

    def draw_columns(self) -> tuple:
        """The draws by column: ``(sites, code, scale, bound, eps, count)``.

        ``sites[code]`` is a draw's site.  ``bound`` holds its ``bound`` or
        ``truncation`` parameter, ``eps`` its ``eps``, and ``count`` its
        ``horizon`` or ``pulls`` (0 at a site without one).  The columns are
        the ledger's own arrays: read them, do not change them.
        """
        return (tuple(self._sites), *self.noise_draws.columns)

    def insertion_columns(self) -> tuple:
        """The insertions by column: ``(mechanism, owner, value, bound)``.

        The owner of an insertion without one is ``_NO_OWNER`` (-1).  The
        columns are the ledger's own arrays: read them, do not change them.
        """
        return self.insertions.columns


class NoiseSource:
    """Draws noise for one consumer, recording each draw in the ledger.

    Parameters
    ----------
    rng : object with a scalar ``random()``, or None
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

    __slots__ = ("rng", "hook", "ledger", "draws_made")

    def __init__(self, rng=None, hook: NoiseHook = NoiseHook.LAPLACE, ledger=None):
        if hook is NoiseHook.LAPLACE and rng is None:
            raise ValueError("LAPLACE hook needs an rng")
        self.rng = rng
        self.hook = hook
        self.ledger = ledger
        self.draws_made = 0

    def draw(self, scale: float, site: str, *context) -> float:
        """Draw one value at ``scale`` for the draw site ``site``.

        ``context`` holds the site's parameters: ``bound, eps, horizon`` for
        :data:`TREE_SITE`, ``truncation, pulls, eps`` for
        :data:`SE_RELEASE_SITE` and ``truncation, eps`` for
        :data:`LOCAL_REWARD_SITE`.  The ledger stores them by column, and
        gives them those names in the :class:`NoiseDraw` records it builds.
        """
        self.draws_made += 1
        if self.hook is NoiseHook.LAPLACE:
            value = laplace_from_uniform(self.rng.random(), scale)
        elif self.hook is NoiseHook.ZERO:
            value = 0.0
        else:
            value = 1.0
        if self.ledger is not None:
            self.ledger.record_draw(site, scale, *context)
        return value


class AdaptiveTree:
    """Streaming noisy prefix sums with per-release error logarithmic in time.

    Maintains one partial sum per dyadic level.  Inserting the ``t``-th value
    finalizes the partial sum at level ``i`` = lowest set bit of ``t``: the
    value plus all lower-level partial sums moves up to level ``i``, the lower
    levels reset, and fresh Laplace noise of scale ``2*bound/(eps/ln(horizon))``
    is added to the finalized sum exactly once.  The running-sum estimate after
    ``t`` insertions is the sum of the noisy partial sums at the set-bit levels
    of ``t``, at most ``floor(log2(horizon)) + 1`` of them; reads never draw
    noise.

    Bounds supplied with the values must be positive and non-decreasing, and
    each value's magnitude must not exceed its bound; the whole release stream
    is then ``eps``-differentially private for streams differing in one entry.

    Parameters
    ----------
    horizon : int
        Capacity; at most ``horizon`` insertions are accepted.  Must be >= 2.
    eps : float
        Privacy budget for the full stream of releases.
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
        "_exact",
        "_estimate",
    )

    def __init__(self, horizon: int, eps: float, noise: NoiseSource, owner: int | None = None):
        horizon = int(horizon)
        if horizon < 2:
            raise ValueError(f"horizon must be >= 2, got {horizon}")
        if not eps > 0.0:
            raise ValueError(f"eps must be positive, got {eps}")
        self.horizon = horizon
        self.eps = float(eps)
        self.owner = owner
        self._eps_prime = eps / math.log(horizon)
        self._noise = noise
        self._ledger = noise.ledger
        self._mech = (
            self._ledger.register_mechanism("tree", owner)
            if self._ledger is not None
            else None
        )
        levels = horizon.bit_length()
        self._psums = [0.0] * levels
        # The noisy partial sums at the set bits of t, the highest level first.
        self._noisy_stack: list = []
        self._t = 0
        self._last_bound = 0.0
        self._exact = 0.0
        self._estimate = 0.0

    @property
    def t(self) -> int:
        """Number of values inserted so far."""
        return self._t

    @property
    def estimate(self) -> float:
        """Noisy running sum after the latest insertion (0.0 before any)."""
        return self._estimate

    @property
    def exact_sum(self) -> float:
        """Exact running sum, for tests and regret accounting only."""
        return self._exact

    def insert(self, value: float, bound: float) -> float:
        """Insert one value and return the updated noisy running sum."""
        if self._t >= self.horizon:
            raise ValueError(f"tree is full: capacity {self.horizon}")
        if not bound > 0.0:
            raise ValueError(f"bound must be positive, got {bound}")
        if bound < self._last_bound:
            raise ValueError(
                f"bounds must be non-decreasing: {bound} after {self._last_bound}"
            )
        if not abs(value) <= bound:  # NaN fails too
            raise ValueError(f"|value| = {abs(value)} exceeds bound {bound}")
        t = self._t + 1
        self._t = t
        self._last_bound = bound
        level = (t & -t).bit_length() - 1
        psums = self._psums
        acc = 0.0
        for j in range(level):
            acc += psums[j]
            psums[j] = 0.0
        finalized = acc + value
        scale = 2.0 * bound / self._eps_prime
        eta = self._noise.draw(scale, TREE_SITE, bound, self.eps, self.horizon)
        psums[level] = finalized
        # Levels 0 .. level-1 are the lowest set bits of t - 1, on top of the
        # stack; they merge into the new sum at `level`.
        stack = self._noisy_stack
        del stack[len(stack) - level :]
        stack.append(finalized + eta)
        self._exact += value
        if self._ledger is not None:
            self._ledger.record_insertion(self._mech, self.owner, value, bound)
        # Sum from the lowest level up.  Builtin sum() is not used: since
        # Python 3.12 it compensates float sums, which would change the value.
        est = 0.0
        for noisy in reversed(stack):
            est += noisy
        self._estimate = est
        return est


def tree_noise_bound(bound: float, eps: float, horizon: float, delta: float) -> float:
    """High-probability envelope for the tree's release error.

    With probability at least ``1 - delta`` a single release deviates from the
    exact prefix sum by at most
    ``(2*bound/eps) * ln(horizon)**1.5 * ln(1/delta)``.
    """
    if not bound >= 0.0:
        raise ValueError(f"bound must be non-negative, got {bound}")
    if not eps > 0.0:
        raise ValueError(f"eps must be positive, got {eps}")
    if not horizon > 1.0:
        raise ValueError(f"horizon must exceed 1, got {horizon}")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    return (2.0 * bound / eps) * math.log(horizon) ** 1.5 * math.log(1.0 / delta)
