"""Stream derivation and block-drawn uniforms."""

from __future__ import annotations

from htbandits import NoiseSource, laplace_from_uniform
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
    blocked = BlockStream(recorder)
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


def test_block_stream_feeds_the_scalar_laplace_map() -> None:
    key = dict(base_seed=4, rep=1, arm=0, purpose=TREE_NOISE)
    source = NoiseSource(rng=BlockStream(derive_stream(**key)))
    rng = derive_stream(**key)
    for i in range(DRAWS):
        scale = 0.5 + (i % 7)
        got = source.draw(scale, TREE_SITE)
        assert got == laplace_from_uniform(rng.random(), scale)
    assert source.draws_made == DRAWS
