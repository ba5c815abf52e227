"""Stream derivation and block-drawn uniforms."""

from __future__ import annotations

import functools

import numpy as np
import pytest

from htbandits import ExperimentConfig, NoiseSource, harness, laplace_from_uniform, run_single
from htbandits.mechanisms import TREE_SITE
from htbandits.seeding import BLOCK_CAP, REWARDS, TREE_NOISE, BlockStream, derive_stream

DRAWS = 10_000


class BlockRecorder:
    """Generator stand-in that records the size of every block it is asked for."""

    def __init__(self, rng):
        self._rng = rng
        self.sizes = []

    def random(self, size):
        self.sizes.append(size)
        return self._rng.random(size)


def test_block_stream_returns_exactly_the_scalar_draws() -> None:
    recorder = BlockRecorder(derive_stream(9, 2, arm=3, purpose=REWARDS))
    blocked = BlockStream(lambda: recorder)
    scalar = derive_stream(9, 2, arm=3, purpose=REWARDS)
    got = [blocked.random() for _ in range(DRAWS)]
    want = [scalar.random() for _ in range(DRAWS)]
    assert got == want
    assert all(type(x) is float for x in got)
    # Blocks double from a small start up to the cap, then stay there; the
    # draws above cross every boundary of the growing blocks and many of the
    # capped ones.
    sizes = recorder.sizes
    cap_at = sizes.index(BLOCK_CAP)
    assert BLOCK_CAP <= 1024
    assert all(2 * a == b for a, b in zip(sizes[:cap_at], sizes[1 : cap_at + 1]))
    assert set(sizes[cap_at:]) == {BLOCK_CAP}
    assert sum(sizes[:-1]) < DRAWS <= sum(sizes)
    assert len(sizes) - cap_at > 2


def test_a_seed_key_component_that_is_not_an_integer_is_rejected() -> None:
    # Truncating 2.9 would hand out rep 2's stream.
    for key in ((7, 2.9), (7.0, 2), (7, 2, 1.0), (7, 2, 0, "1")):
        with pytest.raises(ValueError, match="seed key components must be integers"):
            derive_stream(*key)
    numpy_key = derive_stream(np.int64(7), np.int32(2), arm=np.uint8(1))
    assert numpy_key.random(4).tolist() == derive_stream(7, 2, arm=1).random(4).tolist()


def test_block_stream_feeds_the_scalar_laplace_map() -> None:
    key = dict(base_seed=4, rep=1, arm=0, purpose=TREE_NOISE)
    source = NoiseSource(rng=BlockStream(functools.partial(derive_stream, **key)))
    rng = derive_stream(**key)
    for i in range(DRAWS):
        scale = 0.5 + (i % 7)
        got = source.draw(scale, TREE_SITE, 1.0, 1.0, 2)
        assert got == laplace_from_uniform(rng.random(), scale)
    assert source.draws_made == DRAWS


def test_an_unread_block_stream_never_derives_its_generator() -> None:
    def factory():
        raise AssertionError("an unread stream was derived")

    BlockStream(factory)


def test_a_block_stream_derives_its_generator_once_on_first_read() -> None:
    calls = []

    def factory():
        calls.append(1)
        return derive_stream(9, 2, arm=1, purpose=REWARDS)

    blocked = BlockStream(factory)
    scalar = derive_stream(9, 2, arm=1, purpose=REWARDS)
    assert calls == []
    # 3000 draws cross the first several block boundaries and capped blocks.
    for _ in range(3000):
        assert blocked.random() == scalar.random()
    assert calls == [1]


# Deriving every stream up front took 10, 10 and 5.  dprse commits at round 1
# and plays arm 0, so it reads only arm 0's rewards.
@pytest.mark.parametrize("algo, derived", [("dprse", 1), ("dprucb", 10), ("rucb", 5)])
def test_a_repetition_derives_only_the_streams_it_reads(
    monkeypatch, algo: str, derived: int
) -> None:
    keys = []
    real = harness.derive_stream

    def counting_derive_stream(*args, **kwargs):
        keys.append((args, kwargs))
        return real(*args, **kwargs)

    # run_single and make_policy look the name up in harness when called.
    monkeypatch.setattr(harness, "derive_stream", counting_derive_stream)
    config = ExperimentConfig(
        algo=algo, setting="S1", v=0.9, eps=1.0, horizon=300, reps=1, base_seed=7
    )
    trace, policy = run_single(config, 0, return_policy=True)
    assert len(keys) == derived
    assert len(policy.transcript) == 300
    if algo == "dprse":
        assert policy.committed_arm() == 0 and policy.completed_epochs == []
        assert keys == [((7, 0), dict(arm=0, purpose=REWARDS))]
