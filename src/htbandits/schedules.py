"""Truncation levels, confidence radii, and elimination-epoch schedules.

Every quantity here is a pure function of its arguments, computed in double
precision with natural logarithms.  The elimination policies call the epoch
schedules.  The index policies call their functions once, at construction, to
validate their arguments, and evaluate the same formulas from constants fixed
at construction: a truncation level as the same expression, and a radius as
the product ``C(t) * w`` of a per-round and a per-arm factor, which the radius
functions here compute in the same order.  ``C(t)`` by round, ``w`` by pull
count and the private truncation level by pull count are kept, up to 2**17
rounds or pulls, in tables shared by every policy with the same constants, so
the repetitions of a config in one process compute each value once
(``policies._IndexPolicy``); the non-private truncation level reads the round
as well as the pull count and is evaluated when an arm is pulled.  Every
value the policies use is bit-identical to this module's, and tests compare
the values with ``float.hex`` (``tests/test_index_fast_path.py``).

This module is the home of the package's argument checks, one function per
rule (an integer with a lower bound, ``eps``, ``v``, ``beta``, a value that
eps must keep finite and positive in doubles) for every module to call.
Every check rejects NaN and infinity.
"""

import logging
import math
import operator
from dataclasses import dataclass

__all__ = [
    "MomentParams",
    "MAX_EPOCH_PULLS",
    "EpochSchedule",
    "private_ucb_truncation",
    "private_ucb_radius",
    "nonprivate_ucb_threshold",
    "nonprivate_ucb_radius",
    "central_se_schedule",
    "local_se_schedule",
]

_log = logging.getLogger(__name__)

# Epoch lengths saturate here. Below 2**50 the +1 term in the ceiling argument
# exceeds a few ulp, so the ceiling and the downstream width inequalities are
# decidable in double precision; beyond it no runnable horizon fits an epoch
# anyway.
MAX_EPOCH_PULLS = 2**50


@dataclass(frozen=True)
class MomentParams:
    """Heavy-tail moment assumption: ``E|X|**(1+v) <= u``.

    Parameters
    ----------
    u : float
        Moment bound, finite and positive.
    v : float
        Tail exponent in (0, 1].
    """

    u: float
    v: float

    def __post_init__(self) -> None:
        if not 0.0 < self.u < math.inf:
            raise ValueError(f"u must be finite and positive, got {self.u}")
        _check_v(self.v)
        # Python floats: a numpy scalar would carry numpy arithmetic into every
        # round of the index policies (same values, slower).
        object.__setattr__(self, "u", float(self.u))
        object.__setattr__(self, "v", float(self.v))


@dataclass(frozen=True)
class EpochSchedule:
    """One elimination epoch's derived quantities.

    Attributes
    ----------
    target_gap : float
        Gap scale the epoch resolves.
    pulls_per_arm : int
        Pulls of every viable arm during the epoch.
    truncation : float
        Magnitude level rewards are truncated at.
    accuracy : float
        Accuracy term; the elimination threshold is a fixed multiple of it.
    saturated : bool
        True when ``pulls_per_arm`` was clamped to :data:`MAX_EPOCH_PULLS`.
    """

    target_gap: float
    pulls_per_arm: int
    truncation: float
    accuracy: float
    saturated: bool = False


def _as_index(name: str, value, low: int | None = None) -> int:
    """``value`` as an int if it is an integer (numpy's included, bool not)
    and, when ``low`` is given, at least ``low``; else ValueError."""
    try:
        if isinstance(value, bool):  # operator.index reads it as 0 or 1
            raise TypeError
        index = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if low is not None and index < low:
        raise ValueError(f"{name} must be >= {low}, got {index}")
    return index


def _check_eps(eps: float) -> None:
    if not 0.0 < eps < math.inf:
        raise ValueError(f"eps must be finite and positive, got {eps}")


def _check_v(v: float) -> None:
    if not 0.0 < v <= 1.0:  # NaN fails too
        raise ValueError(f"v must lie in (0, 1], got {v}")


def _check_beta(beta: float) -> None:
    if not 0.0 < beta < 1.0:  # NaN fails too
        raise ValueError(f"beta must lie in (0, 1), got {beta}")


def _check_in_range(name: str, value: float, eps: float) -> float:
    """``value``, computed from ``eps``, if it is finite and positive.

    An eps too small or too large for doubles can make a value 0.0, infinite
    or NaN; ValueError then names the value and the eps.
    """
    if not 0.0 < value < math.inf:  # NaN fails too
        raise ValueError(f"{name} must be finite and positive, got {value} at eps {eps}")
    return value


def _check_count(name: str, value: int) -> int:
    """``value`` as an int: finite and at least 1, then an integer (numpy's included, bool not)."""
    if not 1 <= value < math.inf:  # NaN fails too
        raise ValueError(f"{name} must be finite and >= 1, got {value}")
    return _as_index(name, value, 1)


def _check_above_one(name: str, value: float) -> None:
    if not 1.0 < value < math.inf:  # NaN fails too
        raise ValueError(f"{name} must be finite and exceed 1, got {value}")


def private_ucb_truncation(
    params: MomentParams, eps: float, horizon: int, n: int
) -> float:
    """Truncation level after ``n`` pulls of an arm, private index policy.

    ``(eps * u * n / ln(horizon)**1.5) ** (1/(1+v))``; non-decreasing in ``n``.
    """
    _check_eps(eps)
    _check_above_one("horizon", horizon)
    n = _check_count("n", n)
    return (eps * params.u * n / math.log(horizon) ** 1.5) ** (1.0 / (1.0 + params.v))


def private_ucb_radius(
    params: MomentParams, eps: float, horizon: int, n: int, t: int
) -> float:
    """One-sided confidence radius of the private truncated-mean index.

    ``18 * u**(1/(1+v)) * (ln(2*t**4) * ln(horizon)**(1.5 + 1/v)
    / (n * eps)) ** (v/(1+v))``.  The failure probability per arm and round is
    at most ``1/t**4``.
    """
    _check_eps(eps)
    _check_above_one("horizon", horizon)
    n = _check_count("n", n)
    t = _check_count("t", t)
    v = params.v
    exp = v / (1.0 + v)
    # C(t) * w: the per-round factor, then the per-arm factor.
    log_term = math.log(2 * t**4) * math.log(horizon) ** (1.5 + 1.0 / v)
    per_round = 18.0 * params.u ** (1.0 / (1.0 + v)) * log_term**exp
    return per_round * (n * eps) ** -exp


def nonprivate_ucb_threshold(params: MomentParams, n: int, t: float) -> float:
    """Truncation level of the non-private truncated-mean baseline.

    ``(u * n / ln(t**2)) ** (1/(1+v))``; requires ``t > 1``.
    """
    n = _check_count("n", n)
    _check_above_one("t", t)
    return (params.u * n / math.log(t**2)) ** (1.0 / (1.0 + params.v))


def nonprivate_ucb_radius(params: MomentParams, n: int, t: float) -> float:
    """Confidence radius of the non-private truncated-mean baseline.

    Classical truncated-mean constant:
    ``4 * u**(1/(1+v)) * (ln(t**2) / n) ** (v/(1+v))``.  Used for qualitative
    comparison runs only.
    """
    n = _check_count("n", n)
    _check_above_one("t", t)
    v = params.v
    exp = v / (1.0 + v)
    # C(t) * w: the per-round factor, then the per-arm factor.
    per_round = 4.0 * params.u ** (1.0 / (1.0 + v)) * math.log(t**2) ** exp
    return per_round * n**-exp


def _check_epoch_args(beta: float, num_viable: int, epoch: int) -> tuple:
    _check_beta(beta)
    return _check_count("num_viable", num_viable), _check_count("epoch", epoch)


def _clamp_pulls(raw: float, label: str) -> tuple:
    if not math.isfinite(raw) or raw > MAX_EPOCH_PULLS:
        _log.warning(
            "%s epoch length %.3g exceeds MAX_EPOCH_PULLS=2**50; saturating",
            label,
            raw,
        )
        return MAX_EPOCH_PULLS, True
    return math.ceil(raw), False


def central_se_schedule(
    params: MomentParams, eps: float, beta: float, num_viable: int, epoch: int
) -> EpochSchedule:
    """Epoch schedule of the centrally private elimination policy.

    Epoch ``tau`` targets gap ``2**-tau``.  With
    ``L = ln(4 * num_viable * tau**2 / beta)``:

    - pulls per arm ``R = ceil(u**(1/v) * 24**((1+v)/v) * L
      / (eps * gap**((1+v)/v)) + 1)``, clamped at :data:`MAX_EPOCH_PULLS`;
    - truncation ``B = (u * R * eps / L) ** (1/(1+v))``;
    - accuracy ``err = u**(1/(1+v)) * (L / (R * eps)) ** (v/(1+v))``, which
      satisfies ``u / B**v == err`` for any ``R``.

    An eps so small that ``eps * gap**((1+v)/v)`` is 0.0 in doubles raises
    ``ValueError``.
    """
    _check_eps(eps)
    num_viable, epoch = _check_epoch_args(beta, num_viable, epoch)
    u, v = params.u, params.v
    gap = 2.0 ** -epoch
    log_term = math.log(4.0 * num_viable * epoch**2 / beta)
    divisor = _check_in_range(
        f"epoch {epoch}'s eps * gap**((1+v)/v)", eps * gap ** ((1.0 + v) / v), eps
    )
    raw = u ** (1.0 / v) * 24.0 ** ((1.0 + v) / v) * log_term / divisor + 1.0
    pulls, saturated = _clamp_pulls(raw, "central")
    truncation = (u * pulls * eps / log_term) ** (1.0 / (1.0 + v))
    accuracy = u ** (1.0 / (1.0 + v)) * (log_term / (pulls * eps)) ** (v / (1.0 + v))
    return EpochSchedule(
        target_gap=gap,
        pulls_per_arm=pulls,
        truncation=truncation,
        accuracy=accuracy,
        saturated=saturated,
    )


def local_se_schedule(
    params: MomentParams, eps: float, beta: float, num_viable: int, epoch: int
) -> EpochSchedule:
    """Epoch schedule of the locally private elimination policy.

    Epoch ``tau`` targets gap ``4**-tau``.  With
    ``L = ln(8 * num_viable * tau**2 / beta)``:

    - pulls per arm ``R = ceil(u**(2/v) * 28**(2(1+v)/v) * L
      / (eps**2 * gap**(2(1+v)/v)) + L)``, clamped at
      :data:`MAX_EPOCH_PULLS`;
    - truncation ``B = (u * sqrt(R) * eps / sqrt(L)) ** (1/(1+v))``;
    - accuracy ``err = u**(1/(1+v)) * (sqrt(L) / (sqrt(R) * eps)) ** (v/(1+v))``,
      which satisfies ``u / B**v == err`` for any ``R``.

    An eps for which ``eps**2 * gap**(2(1+v)/v)`` is 0.0 or past the largest
    double raises ``ValueError``.
    """
    _check_eps(eps)
    num_viable, epoch = _check_epoch_args(beta, num_viable, epoch)
    u, v = params.u, params.v
    gap = 4.0 ** -epoch
    log_term = math.log(8.0 * num_viable * epoch**2 / beta)
    try:
        divisor = eps**2 * gap ** (2.0 * (1.0 + v) / v)
    except OverflowError:  # eps**2 past the largest double
        divisor = math.inf
    divisor = _check_in_range(f"epoch {epoch}'s eps**2 * gap**(2(1+v)/v)", divisor, eps)
    raw = u ** (2.0 / v) * 28.0 ** (2.0 * (1.0 + v) / v) * log_term / divisor + log_term
    pulls, saturated = _clamp_pulls(raw, "local")
    truncation = (u * math.sqrt(pulls) * eps / math.sqrt(log_term)) ** (1.0 / (1.0 + v))
    accuracy = u ** (1.0 / (1.0 + v)) * (
        math.sqrt(log_term) / (math.sqrt(pulls) * eps)
    ) ** (v / (1.0 + v))
    return EpochSchedule(
        target_gap=gap,
        pulls_per_arm=pulls,
        truncation=truncation,
        accuracy=accuracy,
        saturated=saturated,
    )
