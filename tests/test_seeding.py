"""Stream derivation, block-drawn uniforms and the memo of stream prefixes."""

from __future__ import annotations

import functools
import tracemalloc

import numpy as np
import pytest

from htbandits import (
    ALGORITHMS,
    ExperimentConfig,
    NoiseSource,
    PrivacyLedger,
    harness,
    laplace_from_uniform,
    run_single,
)
from htbandits.mechanisms import TREE_SITE
from htbandits.seeding import (
    _MEMO_KEYS,
    _PREFIX,
    BLOCK_CAP,
    REWARDS,
    TREE_NOISE,
    BlockStream,
    _prefixes,
    derive_stream,
)

DRAWS = 10_000

# The bound the seeding module docstring states: 64 prefixes of 256 doubles,
# 128 KiB, plus under 512 B a key for its bytes header and memo entry.
MEMO_BOUND = _MEMO_KEYS * (8 * _PREFIX + 512)


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


class CountingFactory:
    """``derive_stream`` of one key, counting its calls."""

    def __init__(self, key):
        self.key = key
        self.calls = 0

    def __call__(self):
        self.calls += 1
        return derive_stream(*self.key)


def keyed_stream(key, given=None) -> tuple:
    """A memo-backed stream of ``key`` (given as ``given``) and its counting factory."""
    factory = CountingFactory(key if given is None else given)
    return BlockStream(factory, key if given is None else given), factory


def stored(key) -> None:
    """Read one double of a new stream of ``key``, which leaves its prefix in the memo."""
    keyed_stream(key)[0].random()
    assert len(_prefixes[key]) == 8 * _PREFIX


@pytest.fixture
def cold_memo():
    _prefixes.clear()
    yield
    _prefixes.clear()


KEY = (9, 2, 3, REWARDS)


def test_a_stream_from_the_memo_reads_the_prefix_without_deriving(cold_memo) -> None:
    stored(KEY)
    stream, factory = keyed_stream(KEY)
    want = derive_stream(*KEY).random(_PREFIX).tolist()
    got = [stream.random() for _ in range(10)] + stream.random(200) + stream.random(46)
    assert got == want and all(type(x) is float for x in got)
    assert factory.calls == 0 and KEY in _prefixes


def test_a_read_across_the_prefix_end_derives_skips_and_drops_the_key(cold_memo) -> None:
    stored(KEY)
    rng = derive_stream(*KEY)
    for reads in ((250, 20), (_PREFIX, 1), (_PREFIX + 1,)):
        stream, factory = keyed_stream(KEY)
        stored(KEY)
        for size in reads:
            assert stream.random(size) == rng.random(size).tolist()
        # Scalar reads past the prefix, across the following blocks.
        assert [stream.random() for _ in range(3000)] == [rng.random() for _ in range(3000)]
        assert factory.calls == 1 and KEY not in _prefixes
        rng = derive_stream(*KEY)


def test_a_stream_that_records_the_prefix_reads_on_from_its_own_generator(cold_memo) -> None:
    stream, factory = keyed_stream(KEY)
    rng = derive_stream(*KEY)
    assert stream.random() == rng.random()
    assert KEY in _prefixes
    assert stream.random(600) == rng.random(600).tolist()
    assert factory.calls == 1 and KEY not in _prefixes
    # A first read longer than the prefix stores none.
    stream, factory = keyed_stream(KEY)
    assert stream.random(_PREFIX + 1) == derive_stream(*KEY).random(_PREFIX + 1).tolist()
    assert factory.calls == 1 and KEY not in _prefixes


def test_two_live_streams_of_one_key_read_in_turns(cold_memo) -> None:
    want = derive_stream(*KEY).random(2000).tolist()
    a, a_factory = keyed_stream(KEY)
    b, b_factory = keyed_stream(KEY)
    read = {a: 0, b: 0}
    for size in (1, 40, 100, 200, 1, 500, 7, 900):
        for stream in (a, b):
            got = stream.random(size) if size > 1 else [stream.random()]
            assert got == want[read[stream] : read[stream] + size]
            read[stream] += size
    # a recorded the prefix and read on from its own generator; b took the
    # prefix and derived its generator past it.
    assert a_factory.calls == b_factory.calls == 1
    assert KEY not in _prefixes


def test_an_evicted_key_is_derived_again(cold_memo) -> None:
    stored(KEY)
    others = [(9, 2, 4, purpose) for purpose in range(2 * _MEMO_KEYS)]
    for key in others[: _MEMO_KEYS - 1]:
        stored(key)
    assert KEY in _prefixes and len(_prefixes) == _MEMO_KEYS
    # Reading the oldest key makes it the newest, so the next key evicts the
    # one after it.
    keyed_stream(KEY)[0].random()
    stored(others[_MEMO_KEYS - 1])
    assert KEY in _prefixes and others[0] not in _prefixes
    for key in others[_MEMO_KEYS:]:
        stored(key)
    assert KEY not in _prefixes and len(_prefixes) == _MEMO_KEYS
    stream, factory = keyed_stream(KEY)
    assert stream.random(300) == derive_stream(*KEY).random(300).tolist()
    assert factory.calls == 1


def test_a_key_of_numpy_ints_shares_the_prefix_of_its_python_ints(cold_memo) -> None:
    stored(KEY)
    given = (np.int64(9), np.int32(2), np.uint8(3), np.int16(REWARDS))
    stream, factory = keyed_stream(KEY, given)
    want = derive_stream(*KEY).random(400).tolist()
    assert stream.random(100) + stream.random(300) == want
    assert factory.calls == 1
    stored(KEY)
    stream, factory = keyed_stream(KEY, given)
    assert stream.random(_PREFIX) == want[:_PREFIX]
    assert factory.calls == 0
    [memo_key] = _prefixes
    assert memo_key == KEY and all(type(part) is int for part in memo_key)


@pytest.mark.parametrize(
    "given",
    [(9.0, 2, 3, REWARDS), (9, 2.0, 3, REWARDS), (9, 2, np.float64(3.0), REWARDS), (9, -2, 3, 0)],
)
def test_a_rejected_key_raises_on_every_read(cold_memo, given) -> None:
    # The memo holds KEY's prefix.  All but the negative key equal KEY as
    # numbers, so only the key check can refuse them.
    stored(KEY)
    stream, factory = keyed_stream(KEY, given)
    for read in (stream.random, lambda: stream.random(3), stream.random):
        with pytest.raises(ValueError, match="seed key components must be"):
            read()
    assert factory.calls == 0 and len(_prefixes) == 1


def sweep(seed: int) -> set:
    """Read 150 keys of ``seed``, more than the memo keeps; return those read long.

    Every fifth key's first stream reads past its prefix; of the rest, every
    third key is read past its prefix by a second stream that starts from
    the memo.
    """
    keys = [(seed, rep, arm, REWARDS) for rep in range(30) for arm in range(5)]
    for i, key in enumerate(keys):
        stream = keyed_stream(key)[0]
        if i % 5 == 0:
            stream.random(_PREFIX + 1 + i)
        else:
            stream.random(40)
            stream.random(200)
        if i % 3 == 0 and i % 5:
            stream = keyed_stream(key)[0]
            stream.random(100)
            stream.random(_PREFIX)
    return {key for i, key in enumerate(keys) if i % 5 == 0 or i % 3 == 0}


def test_the_memo_of_prefixes_stays_bounded(cold_memo) -> None:
    # What emptying the memo frees is what it held.  (The interpreter's free
    # lists keep the key tuples, so they are not counted.)
    tracemalloc.start()
    try:
        long_keys = sweep(5)
        full = tracemalloc.get_traced_memory()[0]
        assert len(_prefixes) == _MEMO_KEYS
        assert {len(prefix) for prefix in _prefixes.values()} == {8 * _PREFIX}
        assert not long_keys & set(_prefixes)
        _prefixes.clear()
        held = full - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    # The memo is full, so the bound is not slack.
    assert _MEMO_KEYS * _PREFIX * 8 < held < MEMO_BOUND, f"{held / 2**10:.1f} KiB"


def played(config: ExperimentConfig, audited: bool) -> tuple:
    """Checkpoints, transcript columns and ledger tables of ``config``'s rep 0."""
    ledger = PrivacyLedger() if audited else None
    trace, policy = run_single(config, 0, ledger=ledger, return_policy=True)
    columns = [column.tobytes() for column in policy.transcript.columns]
    tables = ()
    if audited:
        columns += [
            column.tobytes()
            for table in (ledger.noise_draws, ledger.insertions)
            for column in table.columns
        ]
        tables = (ledger.mechanisms, ledger.epochs)
    return trace.checkpoints, columns, tables


# S1 at eps 1 and k_arm_hard at eps 1000 at T=300: the elimination policies
# commit at round 1 in the first and complete two epochs in the second
# (tests/test_golden.py EPOCH_CELLS), so their committed arm's rewards read
# past the prefix at different rounds.
@pytest.mark.parametrize("setting, eps", [("S1", 1.0), ("k_arm_hard", 1000.0)])
@pytest.mark.parametrize("audited", [False, True])
@pytest.mark.parametrize("algo", ALGORITHMS)
def test_a_run_after_a_sweep_with_its_seed_equals_a_run_on_a_cold_memo(
    cold_memo, algo: str, audited: bool, setting: str, eps: float
) -> None:
    def config(name):
        return ExperimentConfig(
            algo=name, setting=setting, v=0.9, eps=eps, horizon=300, reps=1, base_seed=7
        )

    cold = played(config(algo), audited)
    _prefixes.clear()
    # The elimination policies read arm 0's rewards past the prefix and the
    # index policies do not, so with an index policy last the memo holds
    # arm 0's prefix, which every run reads first.
    for other in sorted(ALGORITHMS, key=lambda name: name.endswith("ucb")):
        if other != algo:
            played(config(other), audited)
    assert (7, 0, 0, REWARDS) in _prefixes
    assert played(config(algo), audited) == cold


# Deriving every stream up front took 10, 10 and 5.  dprse commits at round 1
# and plays arm 0, so it reads only arm 0's rewards.  With the memo, a run
# derives only the streams no earlier run of its seed and rep left there.
@pytest.mark.parametrize(
    "before, algo, derived",
    [
        ((), "dprse", 1),
        ((), "dprucb", 10),
        ((), "rucb", 5),
        (("dprucb",), "rucb", 0),
        (("rucb",), "dprucb", 5),
    ],
)
def test_a_repetition_derives_only_the_streams_it_reads(
    monkeypatch, cold_memo, before: tuple, algo: str, derived: int
) -> None:
    keys = []
    real = harness.derive_stream

    def counting_derive_stream(*args, **kwargs):
        keys.append((args, kwargs))
        return real(*args, **kwargs)

    # run_single and make_policy look the name up in harness when called.
    monkeypatch.setattr(harness, "derive_stream", counting_derive_stream)

    def config(name):
        return ExperimentConfig(
            algo=name, setting="S1", v=0.9, eps=1.0, horizon=300, reps=1, base_seed=7
        )

    for name in before:
        run_single(config(name), 0)
    keys.clear()
    trace, policy = run_single(config(algo), 0, return_policy=True)
    assert len(keys) == derived
    assert len(policy.transcript) == 300
    if algo == "dprse":
        assert policy.committed_arm() == 0 and policy.completed_epochs == []
        assert keys == [((7, 0), dict(arm=0, purpose=REWARDS))]
    if before == ("rucb",):
        # rucb read every arm's rewards; only the tree noise is new.
        assert keys == [((7, 0), dict(arm=a, purpose=TREE_NOISE)) for a in range(5)]
