"""Black-box privacy tests: what a mechanism releases on neighbouring inputs.

Every other privacy check reads declared parameters, the ledger's scales or
the formula under test.  These tests follow Ding et al. 2018 instead: drive
the mechanism's real code path, through public calls only, on two inputs
that differ in one value, count over many seeded runs per side how often a
fixed event of the releases occurs, and bound the privacy loss from below.
With one-sided Clopper-Pearson bounds at level ``1 - ALPHA`` on each count,
``ln(lower(p_a) / upper(p_b))`` is at most the mechanism's true loss unless
one of the two bounds misses, which for a correct mechanism has probability
at most ``2 * ALPHA``.  The events are fixed here, before any count is
taken; no event is chosen on the samples.  The streams are seeded, so each
test's outcome is fixed.

The tree (``AdaptiveTree.insert``): horizon 16, eps 1, constant bound 1; the
first value is -1 or +1 and the other 15 are 0.  A value enters the partial
sums of up to ``horizon.bit_length()`` levels, each noised at ``eps /
ln(horizon)``, so the documented composed bound is ``16 .bit_length() /
ln(16) * eps = 1.80 eps`` (ROADMAP item 9), not ``eps``.
"""

from __future__ import annotations

import functools
import math

import pytest
from scipy.stats import beta

from htbandits import AdaptiveTree, NoiseHook, NoiseSource
from htbandits.seeding import TREE_NOISE, BlockStream, derive_stream

ALPHA = 0.0005  # each one-sided bound holds at 99.95%
SEED = 2024

TREE_HORIZON = 16
TREE_EPS = 1.0
TREE_BOUND = 1.0
TREES = 20_000  # per side; a pilot of this size certified about 1.35 eps
# What the documented basic composition allows (module docstring): 1.80 eps.
COMPOSED_BOUND = TREE_HORIZON.bit_length() / math.log(TREE_HORIZON) * TREE_EPS
# The releases each event reads: those after insertions 1, 2, 4, 8 and 16,
# the insertions at which the first value's partial sum moves up a level.
CHECKED = (1, 2, 4, 8, 16)
# Fixed before counting.  The first is the event ROADMAP's Baseline measured; zero
# noise makes the second certain on the +1 side and impossible on the -1 side.
TREE_EVENTS = {
    "all_exceed_1": lambda releases: all(x > 1.0 for x in releases),
    "all_positive": lambda releases: all(x > 0.0 for x in releases),
}


def clopper_pearson(hits: int, n: int) -> tuple:
    """One-sided Clopper-Pearson bounds ``(lower, upper)`` on ``hits / n``, each at 1 - ALPHA."""
    lower = 0.0 if hits == 0 else beta.ppf(ALPHA, hits, n - hits + 1)
    upper = 1.0 if hits == n else beta.ppf(1.0 - ALPHA, hits + 1, n - hits)
    return lower, upper


def certified_loss(hits_a: int, hits_b: int, n: int) -> float:
    """The privacy loss certified by one event's counts on the two sides, in either order."""
    (low_a, up_a), (low_b, up_b) = clopper_pearson(hits_a, n), clopper_pearson(hits_b, n)
    ratios = [low / up for low, up in ((low_a, up_b), (low_b, up_a)) if low > 0.0]
    return math.log(max(ratios)) if ratios else -math.inf


def tree_event_counts(first: float, side: int, hook: NoiseHook, trees: int) -> dict:
    """Per event, how many of ``trees`` fresh trees fed ``first`` then zeros hit it.

    All trees of a side draw from one seeded stream, one uniform per insert.
    """
    rng = None
    if hook is NoiseHook.LAPLACE:
        rng = BlockStream(functools.partial(derive_stream, SEED, side, 0, TREE_NOISE))
    source = NoiseSource(rng, hook)
    values = (first,) + (0.0,) * (TREE_HORIZON - 1)
    counts = dict.fromkeys(TREE_EVENTS, 0)
    for _ in range(trees):
        insert = AdaptiveTree(TREE_HORIZON, TREE_EPS, source).insert
        releases = [insert(value, TREE_BOUND) for value in values]
        checked = [releases[t - 1] for t in CHECKED]
        for name, event in TREE_EVENTS.items():
            counts[name] += event(checked)
    return counts


@functools.lru_cache(maxsize=None)
def tree_losses(hook: NoiseHook = NoiseHook.LAPLACE, trees: int = TREES) -> dict:
    """Per event, the certified loss of the tree on the neighbouring inputs."""
    plus = tree_event_counts(1.0, 0, hook, trees)
    minus = tree_event_counts(-1.0, 1, hook, trees)
    return {name: certified_loss(plus[name], minus[name], trees) for name in TREE_EVENTS}


def test_the_tree_spends_at_most_its_composed_bound() -> None:
    # A correct tree fails this for some event with probability at most
    # 2 * ALPHA per event, 0.002 over both.
    losses = tree_losses()
    assert all(loss <= COMPOSED_BOUND for loss in losses.values()), losses


def test_zero_noise_spends_past_the_composed_bound() -> None:
    # The check above can fail for the reason it names: without noise the
    # all-positive event is certain on one side and impossible on the other,
    # and 200 trees a side already certify more than the composed bound.
    losses = tree_losses(NoiseHook.ZERO, 200)
    assert losses["all_positive"] > COMPOSED_BOUND, losses


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 9: a value's noise composes over up to bit_length(T) partial sums",
)
def test_the_tree_spends_at_most_eps() -> None:
    losses = tree_losses()
    assert all(loss <= TREE_EPS for loss in losses.values()), losses
