"""Laplace noise primitives and the streaming prefix-sum release mechanism.

All noise flows through :class:`NoiseSource`, which supports two test hooks
(zero noise and unit noise) and records every draw into an optional
:class:`PrivacyLedger` for post-hoc auditing.  The hooks exist for tests only:
a run with a hook other than ``LAPLACE`` carries no privacy guarantee.
"""

import enum
import math
from dataclasses import dataclass, field

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
# ledger records them under.
_DRAW_CONTEXT = {
    TREE_SITE: ("bound", "eps", "horizon"),
    SE_RELEASE_SITE: ("truncation", "pulls", "eps"),
    LOCAL_REWARD_SITE: ("truncation", "eps"),
}

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


@dataclass
class PrivacyLedger:
    """Append-only record of everything privacy-relevant a run did."""

    noise_draws: list = field(default_factory=list)
    insertions: list = field(default_factory=list)
    mechanisms: list = field(default_factory=list)
    epochs: list = field(default_factory=list)

    def register_mechanism(self, kind: str, owner: int | None) -> int:
        self.mechanisms.append(MechanismRecord(kind=kind, owner=owner))
        return len(self.mechanisms) - 1

    def record_draw(self, site: str, scale: float, context: dict) -> None:
        self.noise_draws.append(NoiseDraw(site=site, scale=scale, context=context))

    def record_insertion(
        self, mechanism: int, owner: int | None, value: float, bound: float
    ) -> None:
        self.insertions.append(
            InsertionRecord(mechanism=mechanism, owner=owner, value=value, bound=bound)
        )

    def record_epoch(self, kind: str, epoch: int, num_viable: int, pulls_per_arm: int) -> EpochRecord:
        record = EpochRecord(
            kind=kind, epoch=epoch, num_viable=num_viable, pulls_per_arm=pulls_per_arm
        )
        self.epochs.append(record)
        return record


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
        :data:`LOCAL_REWARD_SITE`.  The ledger records them as a dict keyed by
        those names; without a ledger no dict is built.
        """
        self.draws_made += 1
        if self.hook is NoiseHook.LAPLACE:
            value = laplace_from_uniform(self.rng.random(), scale)
        elif self.hook is NoiseHook.ZERO:
            value = 0.0
        else:
            value = 1.0
        if self.ledger is not None:
            names = _DRAW_CONTEXT[site]
            self.ledger.record_draw(site, scale, dict(zip(names, context, strict=True)))
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

    @property
    def last_bound(self) -> float:
        return self._last_bound

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
        if abs(value) > bound:
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
