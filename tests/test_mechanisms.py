"""Laplace primitives and the prefix-sum release tree."""

from __future__ import annotations

import math

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


def test_laplace_tail_smoke() -> None:
    noise = NoiseSource(rng=derive_stream(1, 0, arm=0, purpose=TREE_NOISE))
    sample = np.abs([noise.draw(1.0, TREE_SITE) for _ in range(100_000)])
    assert abs((sample >= 1.0).mean() - math.exp(-1.0)) < 0.01


def test_noise_source_laplace_requires_rng() -> None:
    with pytest.raises(ValueError):
        NoiseSource(hook=NoiseHook.LAPLACE)


def test_noise_source_hooks_and_ledger_recording() -> None:
    ledger = PrivacyLedger()
    src = NoiseSource(hook=NoiseHook.UNIT, ledger=ledger)
    assert src.draw(13.0, TREE_SITE, 1.0, 1.0, 8) == 1.0
    assert zero_source().draw(13.0, TREE_SITE) == 0.0
    assert src.draws_made == 1
    assert ledger.noise_draws[0].site == TREE_SITE
    assert ledger.noise_draws[0].scale == 13.0
    assert ledger.noise_draws[0].context["horizon"] == 8


def test_tree_zero_noise_exact_on_integer_stream() -> None:
    rng = np.random.default_rng(0)
    values = rng.integers(-1000, 1000, size=512).astype(float)
    tree = AdaptiveTree(512, 1.0, noise=zero_source())
    running = 0.0
    for x in values:
        running += x
        assert tree.insert(x, 1000.0) == running
        assert tree.estimate == running
        assert tree.exact_sum == running


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
        assert estimate - tree.exact_sum == bin(t).count("1")


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
    assert ledger.noise_draws[0].scale == 2.0 * 1.0 / eps_prime
    assert ledger.noise_draws[1].scale == 2.0 * 2.0 / eps_prime
    assert [ins.value for ins in ledger.insertions] == [0.5, 1.5]
    assert [ins.bound for ins in ledger.insertions] == [1.0, 2.0]
    assert ledger.mechanisms[0].kind == "tree"
    assert [list(d.context.items()) for d in ledger.noise_draws] == [
        [("bound", 1.0), ("eps", 0.5), ("horizon", 1024)],
        [("bound", 2.0), ("eps", 0.5), ("horizon", 1024)],
    ]


def test_draws_with_and_without_a_ledger_are_bit_equal() -> None:
    # The ledger only records; the context dict is built for it alone.
    key = dict(base_seed=8, rep=0, arm=1, purpose=TREE_NOISE)
    ledger = PrivacyLedger()
    recorded = NoiseSource(rng=derive_stream(**key), ledger=ledger)
    bare = NoiseSource(rng=derive_stream(**key))
    sites = [
        (TREE_SITE, (1.5, 1.0, 64)),
        (SE_RELEASE_SITE, (0.75, 12, 1.0)),
        (LOCAL_REWARD_SITE, (0.75, 1.0)),
    ]
    for i in range(3000):
        site, context = sites[i % 3]
        scale = 0.25 * (1 + i % 7)
        assert recorded.draw(scale, site, *context) == bare.draw(scale, site, *context)
    assert recorded.draws_made == bare.draws_made == 3000
    assert len(ledger.noise_draws) == 3000
    assert ledger.noise_draws[1].context == {"truncation": 0.75, "pulls": 12, "eps": 1.0}


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


def test_tree_rejects_a_nan_value_and_records_nothing() -> None:
    ledger = PrivacyLedger()
    tree = AdaptiveTree(8, 1.0, noise=zero_source(ledger), owner=0)
    with pytest.raises(ValueError, match="exceeds bound"):
        tree.insert(float("nan"), 1.0)
    assert tree.t == 0 and tree.estimate == 0.0
    assert len(ledger.noise_draws) == len(ledger.insertions) == 0
    assert tree.insert(0.5, 1.0) == 0.5


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


class ReferenceTree:
    """The tree's insert with its estimate rebuilt from the set bits of ``t``.

    Every level keeps a noisy partial sum (zero when the level is not a set
    bit), and each release walks the set bits of ``t`` from the lowest up.
    The four argument checks are left out: the driver below keeps them.
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
        bits = t
        while bits:
            low = bits & -bits
            est += noisy[low.bit_length() - 1]
            bits ^= low
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
    assert tree.t == horizon
    assert ledgers[0].insertions == ledgers[1].insertions
    assert ledgers[0].noise_draws == ledgers[1].noise_draws
    assert len(ledgers[0].noise_draws) == horizon
    with pytest.raises(ValueError):
        tree.insert(0.0, 1e9)  # full
