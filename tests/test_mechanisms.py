"""Laplace primitives and the prefix-sum release tree."""

from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from htbandits import (
    AdaptiveTree,
    NoiseHook,
    NoiseSource,
    PrivacyLedger,
    laplace_from_uniform,
    tree_noise_bound,
)
from htbandits.mechanisms import LOCAL_REWARD_SITE, SE_RELEASE_SITE, TREE_SITE
from htbandits.seeding import TREE_NOISE, derive_stream

from conftest import draw_rows, insertion_rows


def zero_source(ledger=None) -> NoiseSource:
    return NoiseSource(hook=NoiseHook.ZERO, ledger=ledger)


def test_laplace_frozen_points() -> None:
    assert laplace_from_uniform(0.5, 3.0) == 0.0
    assert laplace_from_uniform(0.25, 3.0) == 3.0 * math.log(0.5)
    assert laplace_from_uniform(0.75, 3.0) == -3.0 * math.log(0.5)


def test_laplace_zero_uniform_is_finite() -> None:
    value = laplace_from_uniform(0.0, 1.0)
    assert math.isfinite(value)
    assert value < -30.0


def test_laplace_rejects_bad_arguments() -> None:
    with pytest.raises(ValueError):
        laplace_from_uniform(1.0, 1.0)
    with pytest.raises(ValueError):
        laplace_from_uniform(-0.1, 1.0)
    with pytest.raises(ValueError):
        laplace_from_uniform(0.5, -1.0)
    with pytest.raises(ValueError):
        laplace_from_uniform(0.3, math.nan)
    with pytest.raises(ValueError):
        laplace_from_uniform(0.5, math.inf)


def _laplace_reference(u: float, scale: float) -> float:
    # laplace_from_uniform's formula as first written, kept as the reference.
    if u < 0.5:
        return scale * math.log(2.0 * max(u, 2.0**-53))
    return -scale * math.log(2.0 * (1.0 - u))


def test_laplace_matches_the_reference_formula_bit_for_bit() -> None:
    edges = [0.0, 2.0**-53, math.nextafter(0.5, 0.0), 0.5, math.nextafter(1.0, 0.0)]
    uniforms = edges + np.random.default_rng(2106).random(10_000).tolist()
    for scale in (0.0, 1e-3, 1.0, 2.7, 123456.789):
        got = np.array([laplace_from_uniform(u, scale) for u in uniforms])
        want = np.array([_laplace_reference(u, scale) for u in uniforms])
        # Equal bits: -0.0 and 0.0 differ, a NaN would differ from everything.
        assert got.tobytes() == want.tobytes(), scale


def test_laplace_rejections_keep_their_messages() -> None:
    for u in (1.0, -0.1, math.nan, math.inf):
        with pytest.raises(ValueError) as info:
            laplace_from_uniform(u, 1.0)
        assert str(info.value) == f"u must lie in [0, 1), got {u}"
    for scale in (-1.0, -1e-300, math.nan, math.inf):
        with pytest.raises(ValueError) as info:
            laplace_from_uniform(0.5, scale)
        assert str(info.value) == f"scale must be finite and non-negative, got {scale}"


def test_laplace_tail_smoke() -> None:
    noise = NoiseSource(rng=derive_stream(1, 0, arm=0, purpose=TREE_NOISE))
    sample = np.abs([noise.draw(1.0, TREE_SITE, 1.0, 1.0, 2) for _ in range(100_000)])
    assert abs((sample >= 1.0).mean() - math.exp(-1.0)) < 0.01


def test_noise_source_laplace_requires_rng() -> None:
    with pytest.raises(ValueError):
        NoiseSource(hook=NoiseHook.LAPLACE)


@pytest.mark.parametrize("hook", ["laplace", "zero", None, 3])
def test_noise_source_accepts_only_hook_members(hook) -> None:
    # A value that is not a member would otherwise fall through to a constant.
    rng = derive_stream(1, 0, arm=0, purpose=TREE_NOISE)
    with pytest.raises(ValueError, match="hook must be a NoiseHook member"):
        NoiseSource(rng=rng, hook=hook)


def test_noise_source_hooks_and_ledger_recording() -> None:
    ledger = PrivacyLedger()
    src = NoiseSource(hook=NoiseHook.UNIT, ledger=ledger)
    assert src.draw(13.0, TREE_SITE, 1.0, 1.0, 8) == 1.0
    assert zero_source().draw(13.0, TREE_SITE, 1.0, 1.0, 8) == 0.0
    assert src.draws_made == 1
    site, scale, _, _, count = draw_rows(ledger)[0]
    assert site == TREE_SITE
    assert scale == 13.0
    assert count == 8


@pytest.mark.parametrize(
    "hook, scale, site, count, match",
    [
        (NoiseHook.LAPLACE, math.nan, TREE_SITE, 2, "scale must be finite"),
        (NoiseHook.LAPLACE, math.inf, TREE_SITE, 2, "scale must be finite"),
        (NoiseHook.LAPLACE, -1.0, TREE_SITE, 2, "scale must be finite"),
        (NoiseHook.LAPLACE, 1.0, "mystery", 2, "unknown draw site"),
        (NoiseHook.LAPLACE, 1.0, TREE_SITE, 2**63, "cannot record"),
        (NoiseHook.UNIT, math.nan, TREE_SITE, 2, "scale must be finite"),
    ],
    ids=["nan_scale", "infinite_scale", "negative_scale", "unknown_site", "huge_count", "unit_nan_scale"],
)
def test_a_rejected_draw_changes_nothing(hook, scale, site, count, match) -> None:
    # A twin that sees only the accepted draws must stay equal, so a rejected
    # draw may not count, record or read a uniform.
    def build():
        ledger = PrivacyLedger()
        rng = derive_stream(5, 0, arm=0, purpose=TREE_NOISE)
        return NoiseSource(rng=rng, hook=hook, ledger=ledger), ledger

    (source, ledger), (twin, twin_ledger) = build(), build()
    assert source.draw(1.0, TREE_SITE, 1.0, 1.0, 2) == twin.draw(1.0, TREE_SITE, 1.0, 1.0, 2)
    with pytest.raises(ValueError, match=match):
        source.draw(scale, site, 1.0, 1.0, count)
    assert source.draws_made == twin.draws_made == 1
    assert ledger.noise_draws.columns == twin_ledger.noise_draws.columns
    assert len(ledger.noise_draws) == 1
    assert source.draw(2.0, TREE_SITE, 1.0, 1.0, 2) == twin.draw(2.0, TREE_SITE, 1.0, 1.0, 2)
    assert source.rng.random() == twin.rng.random()


def test_tree_zero_noise_exact_on_integer_stream() -> None:
    rng = np.random.default_rng(0)
    values = rng.integers(-1000, 1000, size=512).astype(float)
    tree = AdaptiveTree(512, 1.0, noise=zero_source())
    running = 0.0
    for x in values:
        running += x
        assert tree.insert(x, 1000.0) == running
        assert tree.estimate == running


def test_tree_real_valued_stream_close_without_noise() -> None:
    # association differs from the sequential sum, so only closeness holds
    rng = np.random.default_rng(1)
    values = rng.standard_normal(1024)
    tree = AdaptiveTree(1024, 1.0, noise=zero_source())
    running = 0.0
    for x in values:
        running += x
        estimate = tree.insert(float(x), 10.0)
        assert math.isclose(estimate, running, rel_tol=1e-9, abs_tol=1e-9)


def test_tree_unit_noise_shifts_by_popcount() -> None:
    tree = AdaptiveTree(256, 1.0, noise=NoiseSource(hook=NoiseHook.UNIT))
    for t in range(1, 257):
        estimate = tree.insert(1.0, 1.0)
        assert estimate - t == bin(t).count("1")  # t values of 1.0 inserted


def test_tree_one_noise_draw_per_insert_and_none_on_reads() -> None:
    src = zero_source()
    tree = AdaptiveTree(64, 1.0, noise=src)
    for t in range(1, 65):
        tree.insert(0.5, 1.0)
        assert src.draws_made == t
        before = src.draws_made
        _ = tree.estimate
        _ = tree.estimate
        assert src.draws_made == before


def test_tree_noise_scale_uses_current_bound_and_budget_split() -> None:
    ledger = PrivacyLedger()
    tree = AdaptiveTree(1024, 0.5, noise=zero_source(ledger))
    tree.insert(0.5, 1.0)
    tree.insert(1.5, 2.0)
    eps_prime = 0.5 / math.log(1024)
    _, scales, bounds, epss, counts = ledger.noise_draws.columns
    assert scales[0] == 2.0 * 1.0 / eps_prime
    assert scales[1] == 2.0 * 2.0 / eps_prime
    _, _, values, insertion_bounds = ledger.insertions.columns
    assert list(values) == [0.5, 1.5]
    assert list(insertion_bounds) == [1.0, 2.0]
    assert ledger.mechanisms[0].kind == "tree"
    assert list(zip(bounds, epss, counts)) == [
        (1.0, 0.5, 1024),
        (2.0, 0.5, 1024),
    ]


def test_draws_with_and_without_a_ledger_are_bit_equal() -> None:
    # The ledger only records; it changes no drawn value.
    key = dict(base_seed=8, rep=0, arm=1, purpose=TREE_NOISE)
    ledger = PrivacyLedger()
    recorded = NoiseSource(rng=derive_stream(**key), ledger=ledger)
    bare = NoiseSource(rng=derive_stream(**key))
    sites = [
        (TREE_SITE, (1.5, 1.0, 64)),
        (SE_RELEASE_SITE, (0.75, 1.0, 12)),
        (LOCAL_REWARD_SITE, (0.75, 1.0, 0)),
    ]
    for i in range(3000):
        site, parameters = sites[i % 3]
        scale = 0.25 * (1 + i % 7)
        assert recorded.draw(scale, site, *parameters) == bare.draw(scale, site, *parameters)
    assert recorded.draws_made == bare.draws_made == 3000
    assert len(ledger.noise_draws) == 3000
    assert draw_rows(ledger)[1] == (SE_RELEASE_SITE, 0.5, 0.75, 1.0, 12)


@pytest.mark.parametrize("horizon", [2, 16, 1000, 20_000])
def test_a_value_can_cost_bit_length_over_ln_horizon_times_eps(horizon: int) -> None:
    # Each partial sum is released at eps/ln(horizon), and a value enters every
    # partial sum that covers it: draw t's covers values t - (t & -t) + 1 ... t
    # and spends 2 * bound / scale on each.  Under basic composition the first
    # value, in one partial sum per level, costs bit_length/ln(horizon) * eps.
    eps = 1.0
    ledger = PrivacyLedger()
    tree = AdaptiveTree(horizon, eps, noise=zero_source(ledger), owner=0)
    for _ in range(horizon):
        tree.insert(0.5, 1.0)
    _, scales, bounds, _, _ = ledger.noise_draws.columns
    loss = [0.0] * (horizon + 1)  # by value, from value 1
    for t, (scale, bound) in enumerate(zip(scales, bounds), start=1):
        for i in range(t - (t & -t) + 1, t + 1):
            loss[i] += 2.0 * bound / scale
    worst = horizon.bit_length() / math.log(horizon) * eps
    assert max(loss) == pytest.approx(worst, rel=1e-12)
    assert loss[1] == max(loss) > eps


def test_tree_rejects_contract_violations() -> None:
    tree = AdaptiveTree(4, 1.0, noise=zero_source())
    with pytest.raises(ValueError):
        tree.insert(2.0, 1.0)  # |value| > bound
    tree.insert(1.0, 1.0)
    with pytest.raises(ValueError):
        tree.insert(0.1, 0.5)  # decreasing bound
    with pytest.raises(ValueError):
        tree.insert(0.1, -1.0)
    for _ in range(3):
        tree.insert(0.0, 1.0)
    with pytest.raises(ValueError):
        tree.insert(0.0, 1.0)  # past capacity
    with pytest.raises(ValueError):
        AdaptiveTree(1, 1.0, noise=zero_source())
    with pytest.raises(ValueError):
        AdaptiveTree(8, 0.0, noise=zero_source())


def test_tree_rejects_an_infinite_budget() -> None:
    # Its noise scale would be 2 * bound / (inf / ln(horizon)) = 0: no noise.
    for eps in (math.inf, math.nan):
        with pytest.raises(ValueError, match="eps must be finite and positive"):
            AdaptiveTree(8, eps, noise=zero_source())


def test_tree_rejects_a_budget_whose_share_per_level_is_not_a_double() -> None:
    # eps / ln(horizon) underflows to 0 (the noise scale would divide by it)
    # or overflows (the noise would be 0).
    for horizon, eps in ((100, 5e-324), (2, 1.7e308)):
        with pytest.raises(ValueError, match="eps / ln"):
            AdaptiveTree(horizon, eps, noise=zero_source())


def test_tree_rejects_a_capacity_that_is_not_an_integer() -> None:
    for horizon in (2.9, 8.0, "8", True):
        with pytest.raises(ValueError, match="horizon must be an integer"):
            AdaptiveTree(horizon, 1.0, noise=zero_source())
    tree = AdaptiveTree(np.int64(3), 1.0, noise=zero_source())
    assert tree.horizon == 3 and type(tree.horizon) is int


def test_tree_rejects_a_nan_value_and_records_nothing() -> None:
    ledger = PrivacyLedger()
    tree = AdaptiveTree(8, 1.0, noise=zero_source(ledger), owner=0)
    with pytest.raises(ValueError, match="exceeds bound"):
        tree.insert(float("nan"), 1.0)
    assert tree.t == 0 and tree.estimate == 0.0
    assert len(ledger.noise_draws) == len(ledger.insertions) == 0
    assert tree.insert(0.5, 1.0) == 0.5


def _tree_state(tree: AdaptiveTree, source: NoiseSource, ledger: PrivacyLedger) -> tuple:
    return (
        tree.t,
        tree.estimate,
        source.draws_made,
        len(ledger.noise_draws),
        len(ledger.insertions),
    )


@pytest.mark.parametrize(
    "value, bound, match",
    [
        (0.0, 0.0, "bound must be positive"),
        (0.0, math.nan, "bound must be positive"),
        (0.5, math.inf, "bound must be positive"),
        (0.1, 1.0, "bounds must be non-decreasing"),
        (math.nan, 2.0, "exceeds bound"),
        (2.5, 2.0, "exceeds bound"),
        (0.5, 2.0, "tree is full"),
    ],
    ids=["zero_bound", "nan_bound", "infinite_bound", "decreasing_bound", "nan_value", "value_above_bound", "full"],
)
def test_a_rejected_insert_changes_nothing(value: float, bound: float, match: str) -> None:
    # A real-noise twin that sees only the accepted inserts must stay equal,
    # so a rejected insert may not consume a uniform either.
    def build():
        ledger = PrivacyLedger()
        source = NoiseSource(rng=derive_stream(3, 0, arm=0, purpose=TREE_NOISE), ledger=ledger)
        return AdaptiveTree(4, 1.0, noise=source, owner=0), source, ledger

    tree, source, ledger = build()
    twin, twin_source, twin_ledger = build()
    accepted = 4 if match == "tree is full" else 3
    for _ in range(accepted):
        assert tree.insert(0.5, 1.5) == twin.insert(0.5, 1.5)
    before = _tree_state(tree, source, ledger)
    with pytest.raises(ValueError, match=match):
        tree.insert(value, bound)
    assert _tree_state(tree, source, ledger) == before
    assert before == _tree_state(twin, twin_source, twin_ledger)
    if accepted < 4:
        assert tree.insert(0.5, 2.0) == twin.insert(0.5, 2.0)
        assert _tree_state(tree, source, ledger) == _tree_state(twin, twin_source, twin_ledger)


@pytest.mark.parametrize("bound", [1e-3, 0.5, 1.0, 7.25, 1e6])
def test_the_tree_step_draws_what_laplace_from_uniform_gives(bound: float) -> None:
    # AdaptiveTree.insert keeps its own copy of the Laplace map.  A tree's
    # first release of the value 0.0 is 0.0 + (0.0 + draw): the draw, bit for
    # bit, except that a -0.0 draw (u = 0.5) reads +0.0.
    edges = [0.0, 2.0**-53, math.nextafter(0.5, 0.0), 0.5, math.nextafter(1.0, 0.0)]
    uniforms = edges + np.random.default_rng(2107).random(10_000).tolist()
    horizon, eps = 1000, 0.7
    scale = 2.0 * bound / (eps / math.log(horizon))
    ledger = PrivacyLedger()
    # The rng has random() only: one uniform per insert, in order.
    source = NoiseSource(rng=SimpleNamespace(random=iter(uniforms).__next__), ledger=ledger)
    got = [AdaptiveTree(horizon, eps, noise=source).insert(0.0, bound) for _ in uniforms]
    want = [0.0 + laplace_from_uniform(u, scale) for u in uniforms]
    assert np.array(got).tobytes() == np.array(want).tobytes()
    assert math.copysign(1.0, laplace_from_uniform(0.5, scale)) == -1.0
    assert math.copysign(1.0, got[edges.index(0.5)]) == 1.0
    assert source.draws_made == len(uniforms)
    assert set(ledger.noise_draws.columns[1]) == {scale}


@pytest.mark.parametrize("owner", [-1, 1.5, "x"])
def test_a_tree_rejects_an_owner_that_is_not_an_arm_index(owner) -> None:
    # Its insertions could not record the owner: each insert would fail after
    # its draw row was stored, so the tree is rejected when it registers.
    ledger = PrivacyLedger()
    with pytest.raises(ValueError, match="owner must be"):
        AdaptiveTree(8, 1.0, noise=zero_source(ledger), owner=owner)
    assert ledger.mechanisms == []
    for arm in (None, 0, np.int64(2)):
        AdaptiveTree(8, 1.0, noise=zero_source(ledger), owner=arm).insert(0.5, 1.0)
    assert [record.owner for record in ledger.mechanisms] == [None, 0, 2]
    assert insertion_rows(ledger) == [(0, None, 0.5, 1.0), (1, 0, 0.5, 1.0), (2, 2, 0.5, 1.0)]
    assert len(ledger.noise_draws) == 3


def test_tree_level_structure_matches_set_bits() -> None:
    # after t inserts the live levels are exactly the set bits of t, and each
    # live level holds the sum of its dyadic block
    values = [float(x) for x in range(1, 65)]
    tree = AdaptiveTree(64, 1.0, noise=zero_source())
    for t, x in enumerate(values, start=1):
        tree.insert(x, 64.0)
        live = [j for j, p in enumerate(tree._psums) if p != 0.0]
        expected_live = [j for j in range(tree.horizon.bit_length()) if t >> j & 1]
        assert live == expected_live
        # walk blocks from the high level down: level j covers 2**j values
        start = 0
        for j in reversed(expected_live):
            block = sum(values[start : start + 2**j])
            assert tree._psums[j] == block
            start += 2**j


@settings(deadline=None, max_examples=60)
@given(
    st.lists(
        st.integers(min_value=-10_000, max_value=10_000), min_size=1, max_size=200
    )
)
def test_tree_zero_noise_exactness_property(values) -> None:
    tree = AdaptiveTree(max(len(values), 2), 1.0, noise=zero_source())
    running = 0.0
    for x in values:
        running += float(x)
        assert tree.insert(float(x), 10_000.0) == running


def test_tree_envelope_smoke() -> None:
    # 100-tree miniature of the release-error envelope check
    threshold = tree_noise_bound(1.0, 1.0, 1024, 0.05)
    releases = 0
    violations = 0
    for rep in range(100):
        src = NoiseSource(
            rng=derive_stream(17, rep, arm=0, purpose=TREE_NOISE), ledger=None
        )
        tree = AdaptiveTree(1024, 1.0, noise=src)
        for _ in range(1024):
            estimate = tree.insert(0.0, 1.0)
            releases += 1
            if abs(estimate) > threshold:
                violations += 1
    assert violations / releases <= 0.05


def test_tree_noise_bound_frozen_points() -> None:
    e = math.e
    assert math.isclose(tree_noise_bound(1.0, 1.0, e, 1.0 / e), 2.0, rel_tol=1e-12)
    assert math.isclose(tree_noise_bound(2.0, 0.5, e, 1.0 / e), 8.0, rel_tol=1e-12)


def test_tree_noise_bound_monotonicity_and_validation() -> None:
    base = tree_noise_bound(1.0, 1.0, 1024, 0.05)
    assert tree_noise_bound(2.0, 1.0, 1024, 0.05) > base
    assert tree_noise_bound(1.0, 2.0, 1024, 0.05) < base
    assert tree_noise_bound(1.0, 1.0, 4096, 0.05) > base
    assert tree_noise_bound(1.0, 1.0, 1024, 0.01) > base
    with pytest.raises(ValueError):
        tree_noise_bound(1.0, 1.0, 1.0, 0.05)
    with pytest.raises(ValueError):
        tree_noise_bound(1.0, 1.0, 1024, 1.5)


@pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("position", [0, 1, 2], ids=["bound", "eps", "horizon"])
def test_tree_noise_bound_rejects_a_non_finite_argument(position: int, value: float) -> None:
    # An infinite eps or horizon gave an envelope of 0.0 or inf, a NaN one NaN.
    args = [1.0, 1.0, 1024, 0.05]
    args[position] = value
    with pytest.raises(ValueError, match="must be finite"):
        tree_noise_bound(*args)


class ReferenceTree:
    """The tree's insert with its estimate rebuilt from the set bits of ``t``.

    Every level keeps a noisy partial sum (zero when the level is not a set
    bit), and each release walks the set bits of ``t`` from the highest
    down, the order in which the tree's running sums add them.  The four
    argument checks are left out: the test below keeps them.
    """

    def __init__(self, horizon: int, eps: float, noise: NoiseSource):
        self.horizon = horizon
        self.eps = eps
        self._eps_prime = eps / math.log(horizon)
        self._noise = noise
        self._ledger = noise.ledger
        self._mech = self._ledger.register_mechanism("tree", None)
        levels = horizon.bit_length()
        self._psums = [0.0] * levels
        self._noisy = [0.0] * levels
        self._t = 0
        self.estimate = 0.0

    def insert(self, value: float, bound: float) -> float:
        t = self._t + 1
        self._t = t
        level = (t & -t).bit_length() - 1
        psums = self._psums
        noisy = self._noisy
        acc = 0.0
        for j in range(level):
            acc += psums[j]
            psums[j] = 0.0
            noisy[j] = 0.0
        finalized = acc + value
        scale = 2.0 * bound / self._eps_prime
        eta = self._noise.draw(scale, TREE_SITE, bound, self.eps, self.horizon)
        psums[level] = finalized
        noisy[level] = finalized + eta
        self._ledger.record_insertion(self._mech, None, value, bound)
        est = 0.0
        for level in reversed(range(t.bit_length())):
            if t >> level & 1:
                est += noisy[level]
        self.estimate = est
        return est


@pytest.mark.parametrize("horizon", [3, 4, 5, 2**13 - 1, 2**13, 2**13 + 1])
def test_tree_noisy_sum_stack_matches_the_set_bit_reference(horizon: int) -> None:
    """Bit-identical releases, with real Laplace noise and growing bounds."""
    key = dict(base_seed=23, rep=horizon, arm=0, purpose=TREE_NOISE)
    ledgers = (PrivacyLedger(), PrivacyLedger())
    tree = AdaptiveTree(horizon, 0.7, NoiseSource(rng=derive_stream(**key), ledger=ledgers[0]))
    reference = ReferenceTree(
        horizon, 0.7, NoiseSource(rng=derive_stream(**key), ledger=ledgers[1])
    )
    rng = np.random.default_rng(horizon)
    signs = rng.uniform(-1.0, 1.0, size=horizon).tolist()
    for t, sign in enumerate(signs, start=1):
        bound = 0.5 * t**0.4  # positive and non-decreasing
        value = sign * bound
        assert tree.insert(value, bound) == reference.insert(value, bound)
        assert tree.estimate == reference.estimate
        assert len(tree._noisy_stack) == t.bit_count()
    assert tree.t == horizon
    assert ledgers[0].insertions.columns == ledgers[1].insertions.columns
    assert ledgers[0].noise_draws.columns == ledgers[1].noise_draws.columns
    assert len(ledgers[0].noise_draws) == horizon
    with pytest.raises(ValueError):
        tree.insert(0.0, 1e9)  # full
