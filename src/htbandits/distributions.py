"""Reward models and bandit instances with heavy-tailed arms.

Models carry their analytic mean and raw absolute moments, so simulators and
schedules never have to estimate them.  Sampling is inverse-transform
throughout: ``samples(uniforms)`` maps each uniform to one reward in one
comprehension, and ``sample(rng)`` maps one uniform read from ``rng`` through
it, so an arm's reward stream consumes exactly one draw per pull either way.
"""

import bisect
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .schedules import _check_v

__all__ = [
    "ParetoModel",
    "FiniteSupportModel",
    "moment_bound",
    "BanditInstance",
    "make_instance",
    "SETTING_MEANS",
    "make_pareto_instance",
    "make_two_arm_hard_instance",
    "make_central_hard_instance",
    "make_central_shifted_arm",
    "instance_description",
    "format_value",
]

_PROB_TOL = 1e-12


def format_value(x: float) -> str:
    """Format a float with 17 significant digits (exact float64 round-trip)."""
    return format(float(x), ".17g")


@dataclass(frozen=True)
class ParetoModel:
    """Pareto reward model supported on ``[lam, inf)``.

    The CDF is ``F(x) = 1 - (lam / x)**alpha`` for ``x >= lam``.  Sampling
    inverts it at ``1 - U`` with ``U`` uniform on ``[0, 1)``, which keeps the
    argument in ``(0, 1]`` and away from the pole.

    Parameters
    ----------
    alpha : float
        Tail index; finite and above 1, so the mean is finite.
    lam : float
        Scale (left edge of the support); finite and positive.

    Examples
    --------
    >>> m = ParetoModel(alpha=2.0, lam=1.0)
    >>> m.mean()
    2.0
    """

    alpha: float
    lam: float

    def __post_init__(self) -> None:
        if not 1.0 < self.alpha < math.inf:
            raise ValueError(f"alpha must be finite and exceed 1, got {self.alpha}")
        if not 0.0 < self.lam < math.inf:
            raise ValueError(f"lam must be finite and positive, got {self.lam}")
        # Python floats: with a numpy scalar every sample would be one (same
        # values, slower).
        object.__setattr__(self, "alpha", float(self.alpha))
        object.__setattr__(self, "lam", float(self.lam))
        # The exponent of every sample; not a field, so equality is unchanged.
        object.__setattr__(self, "_exponent", -1.0 / self.alpha)

    def mean(self) -> float:
        """Analytic mean ``alpha * lam / (alpha - 1)``."""
        return self.alpha * self.lam / (self.alpha - 1.0)

    def raw_moment(self, order: float) -> float:
        """Analytic ``E|X|**order``; requires ``order < alpha``."""
        if order >= self.alpha:
            raise ValueError(
                f"moment of order {order} is infinite for alpha={self.alpha}"
            )
        return self.alpha * self.lam**order / (self.alpha - order)

    def samples(self, uniforms) -> list:
        """The reward of each uniform in [0, 1), in order."""
        lam, exponent = self.lam, self._exponent
        return [lam * (1.0 - u) ** exponent for u in uniforms]

    def sample(self, rng: np.random.Generator) -> float:
        """Draw one reward using a single uniform from ``rng``."""
        return self.samples((rng.random(),))[0]


@dataclass(frozen=True, init=False)
class FiniteSupportModel:
    """Discrete reward model on finitely many atoms.

    Atoms with equal values are merged (probabilities summed), zero-probability
    atoms are dropped, and the support is stored sorted ascending, so two
    models built from the same distribution compare equal.

    Parameters
    ----------
    atoms : iterable of (value, prob)
        Support points with probabilities; probabilities must be non-negative
        and sum to 1 within 1e-12.
    """

    values: tuple
    probs: tuple

    def __init__(self, atoms) -> None:
        merged: dict[float, float] = {}
        for value, prob in atoms:
            value = float(value)
            prob = float(prob)
            if not math.isfinite(value):
                raise ValueError(f"atom value must be finite, got {value}")
            if prob < 0.0 or not math.isfinite(prob):
                raise ValueError(f"atom probability must be >= 0, got {prob}")
            merged[value] = merged.get(value, 0.0) + prob
        support = sorted(v for v, p in merged.items() if p > 0.0)
        if not support:
            raise ValueError("model needs at least one atom with positive probability")
        probs = tuple(merged[v] for v in support)
        total = math.fsum(probs)
        if abs(total - 1.0) > _PROB_TOL:
            raise ValueError(f"probabilities must sum to 1 within {_PROB_TOL}, got {total}")
        object.__setattr__(self, "values", tuple(support))
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "_cum", tuple(itertools.accumulate(probs)))

    def mean(self) -> float:
        """Analytic mean."""
        return math.fsum(p * x for x, p in zip(self.values, self.probs))

    def raw_moment(self, order: float) -> float:
        """Analytic ``E|X|**order``."""
        return math.fsum(p * abs(x) ** order for x, p in zip(self.values, self.probs))

    def samples(self, uniforms) -> list:
        """The reward of each uniform ``U``: the first atom whose cumulative
        probability exceeds ``U`` (the last atom if rounding leaves none)."""
        # bisect_right returns len(values) at most: that index reads the last atom.
        atoms, cum, bisect_right = self.values + self.values[-1:], self._cum, bisect.bisect_right
        return [atoms[bisect_right(cum, u)] for u in uniforms]

    def sample(self, rng: np.random.Generator) -> float:
        """Draw one reward using a single uniform from ``rng``."""
        return self.samples((rng.random(),))[0]


def moment_bound(model, v: float) -> float:
    """Analytic bound on ``E|X|**(1+v)`` for a reward model.

    Raises if the moment is infinite (Pareto with ``alpha <= 1 + v``).
    """
    _check_v(v)
    return model.raw_moment(1.0 + v)


@dataclass(frozen=True)
class BanditInstance:
    """A fixed set of arms with shared tail parameters.

    Attributes
    ----------
    arms : tuple
        Reward models, one per arm.
    v : float
        Tail exponent in (0, 1]; all arms have finite (1+v)-th absolute moment.
    u : float
        Common moment bound, at least the largest per-arm analytic moment.
    means : tuple of float
        Per-arm analytic means.
    gaps : tuple of float
        Suboptimality gaps ``max(means) - means[a]``; the best arm's gap is 0.
    """

    arms: tuple
    v: float
    u: float
    means: tuple
    gaps: tuple

    @property
    def num_arms(self) -> int:
        return len(self.arms)

    @property
    def optimal_arm(self) -> int:
        """Index of the best arm (lowest index on ties)."""
        best = max(self.means)
        return self.means.index(best)


def make_instance(arms, v: float, u: float | None = None) -> BanditInstance:
    """Build a :class:`BanditInstance` from reward models.

    ``u`` defaults to the largest per-arm analytic (1+v)-moment; a supplied
    ``u`` must be finite and not below that (beyond rounding slack).
    """
    _check_v(v)
    arms = tuple(arms)
    if not arms:
        raise ValueError("instance needs at least one arm")
    moments = [moment_bound(model, v) for model in arms]
    max_moment = max(moments)
    if u is None:
        u = max_moment
    elif not max_moment * (1.0 - 1e-12) <= u < math.inf:  # NaN fails too
        raise ValueError(
            f"u={u} must be finite and at least the largest per-arm (1+v)-moment "
            f"{max_moment}"
        )
    means = tuple(model.mean() for model in arms)
    best = max(means)
    gaps = tuple(best - m for m in means)
    return BanditInstance(arms=arms, v=v, u=float(u), means=means, gaps=gaps)


# Mean profiles for the standard five-arm experiment settings.
SETTING_MEANS = {
    "S1": (0.9, 0.7, 0.5, 0.3, 0.1),
    "S2": (0.9, 0.55, 0.3, 0.15, 0.1),
    "S3": (0.9, 0.85, 0.7, 0.45, 0.1),
}


def make_pareto_instance(setting: str, v: float) -> BanditInstance:
    """Five Pareto arms with tail index ``1.05 + v`` and the setting's means.

    The scale of each arm solves ``alpha * lam / (alpha - 1) = mean``, and the
    shared moment bound is the largest per-arm analytic (1+v)-moment.
    """
    _check_v(v)
    if setting not in SETTING_MEANS:
        raise ValueError(f"unknown setting {setting!r}; expected one of {sorted(SETTING_MEANS)}")
    alpha = 1.05 + v
    arms = tuple(
        ParetoModel(alpha=alpha, lam=(alpha - 1.0) * mu / alpha)
        for mu in SETTING_MEANS[setting]
    )
    return make_instance(arms, v)


def make_two_arm_hard_instance(delta: float, v: float, flavor: str = "low") -> BanditInstance:
    """Two-arm instance with a single spike atom and gap ``delta``.

    Both arms put mass on 0 and on a common spike at ``1 / (5*delta)**(1/v)``.
    The first arm has mean ``2.5 * delta``.  ``flavor="low"`` drops the second
    arm's spike probability so its mean is ``1.5 * delta`` (first arm optimal);
    ``flavor="high"`` raises it so its mean is ``3.5 * delta`` (second arm
    optimal).

    Requires ``0 < delta < 1/5`` so the spike probability stays in (0, 1).
    """
    _check_v(v)
    if not (0.0 < delta < 0.2):
        raise ValueError(f"delta must lie in (0, 0.2), got {delta}")
    if flavor not in ("low", "high"):
        raise ValueError(f"flavor must be 'low' or 'high', got {flavor!r}")
    scale = (5.0 * delta) ** (1.0 / v)
    spike = 1.0 / scale
    p_first = scale ** (1.0 + v) / 2.0
    shift = delta * scale
    p_second = p_first - shift if flavor == "low" else p_first + shift
    first = FiniteSupportModel([(0.0, 1.0 - p_first), (spike, p_first)])
    second = FiniteSupportModel([(0.0, 1.0 - p_second), (spike, p_second)])
    return make_instance((first, second), v)


def make_central_hard_instance(means, v: float) -> BanditInstance:
    """K-arm spike instance: every arm has (1+v)-moment exactly 1/2.

    Arm ``a`` puts probability ``(2*mu_a)**((1+v)/v) / 2`` on the spike
    ``(2*mu_a)**(-1/v)`` and the rest on 0, so its mean is ``mu_a``.  Means
    must be non-increasing and lie in (0, 1/2].
    """
    _check_v(v)
    means = tuple(float(m) for m in means)
    if not means:
        raise ValueError("means must be non-empty")
    for m in means:
        if not (0.0 < m <= 0.5):
            raise ValueError(f"means must lie in (0, 0.5], got {m}")
    if any(b > a for a, b in zip(means, means[1:])):
        raise ValueError(f"means must be non-increasing, got {means}")
    arms = []
    for mu in means:
        scale = (2.0 * mu) ** (1.0 / v)
        spike = 1.0 / scale
        p = scale ** (1.0 + v) / 2.0
        arms.append(FiniteSupportModel([(0.0, 1.0 - p), (spike, p)]))
    return make_instance(tuple(arms), v, u=0.5)


def make_central_shifted_arm(mu: float, delta: float, v: float) -> FiniteSupportModel:
    """Spike arm shifted up by ``2*delta``: mean ``mu + 2*delta``, moment exactly 1.

    Starts from the moment-1/2 spike arm at mean ``mu`` and adds probability
    ``2*delta*gamma`` on a second spike ``1/gamma`` with
    ``gamma = (4*delta)**(1/v)``.  Feasible when ``mu**(1+v) <= 1/6`` and
    ``delta**(1+v) <= 1/12``.
    """
    _check_v(v)
    if not (mu > 0.0 and mu ** (1.0 + v) <= 1.0 / 6.0):
        raise ValueError(f"need mu > 0 with mu**(1+v) <= 1/6, got mu={mu}")
    if not (delta > 0.0 and delta ** (1.0 + v) <= 1.0 / 12.0):
        raise ValueError(f"need delta > 0 with delta**(1+v) <= 1/12, got delta={delta}")
    scale = (2.0 * mu) ** (1.0 / v)
    gamma = (4.0 * delta) ** (1.0 / v)
    p_base = scale ** (1.0 + v) / 2.0
    p_shift = 2.0 * delta * gamma
    return FiniteSupportModel(
        [
            (0.0, 1.0 - p_base - p_shift),
            (1.0 / scale, p_base),
            (1.0 / gamma, p_shift),
        ]
    )


def instance_description(instance: BanditInstance, setting: str | None = None) -> list:
    """Key=value lines describing an instance, floats at 17 significant digits."""
    lines = []
    if setting is not None:
        lines.append(f"setting={setting}")
    lines.append(f"num_arms={instance.num_arms}")
    lines.append(f"v={format_value(instance.v)}")
    lines.append(f"u={format_value(instance.u)}")
    for a, model in enumerate(instance.arms):
        if isinstance(model, ParetoModel):
            lines.append(f"arm.{a}.model=pareto")
            lines.append(f"arm.{a}.alpha={format_value(model.alpha)}")
            lines.append(f"arm.{a}.lam={format_value(model.lam)}")
        elif isinstance(model, FiniteSupportModel):
            lines.append(f"arm.{a}.model=finite")
            lines.append(f"arm.{a}.values={','.join(format_value(x) for x in model.values)}")
            lines.append(f"arm.{a}.probs={','.join(format_value(p) for p in model.probs)}")
        else:
            raise TypeError(f"cannot describe model of type {type(model).__name__}")
        lines.append(f"arm.{a}.mean={format_value(instance.means[a])}")
    return lines
