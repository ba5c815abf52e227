"""Deterministic random-stream derivation.

Every consumer of randomness in a simulation gets its own generator, keyed by
``(base_seed, rep, arm, purpose)``.  Streams for different keys are
statistically independent, and adding a new consumer never shifts the draws
seen by existing ones.  Philox is counter-based, so the mapping from key to
stream is stable across processes and platforms.  :class:`BlockStream` derives
a stream on its first read and draws it ahead in blocks, kept packed as
doubles, without changing the values it yields; it hands them out one at a
time or ``k`` at a time.

Runs that share a seed read the same streams: every cell of a sweep with one
``base_seed`` reads the same uniforms for the same ``(rep, arm, purpose)``.
So a :class:`BlockStream` given its key shares a process-wide memo of stream
prefixes: the first ``_PREFIX`` = 256 doubles of each of at most
``_MEMO_KEYS`` = 64 keys, least recently read dropped first (128 KiB of
doubles).  A stream whose key is in the memo takes its first block from it and
derives its generator only if it reads past the prefix, skipping the prefix
with one ``random(256)`` draw.  Neither changes a value: a key's doubles
depend only on the key, and ``Generator.random(n)`` returns exactly the
doubles of ``n`` scalar calls.  A stream that reads past its prefix removes
the key from the memo, so long runs pin no prefix.
"""

import operator
from array import array
from collections import OrderedDict

import numpy as np

__all__ = [
    "REWARDS",
    "TREE_NOISE",
    "ELIMINATION_NOISE",
    "PERTURBATION_NOISE",
    "GENERIC",
    "BLOCK_CAP",
    "derive_stream",
    "BlockStream",
]

# Purpose codes. Keep values stable: they are part of the seeding contract.
REWARDS = 0
TREE_NOISE = 1
ELIMINATION_NOISE = 2
PERTURBATION_NOISE = 3
GENERIC = 4

# Block sizes start at _FIRST_BLOCK and double up to BLOCK_CAP.  Short runs
# and streams read only at epoch ends draw few uniforms, so small first blocks
# keep their set-up cheap; long runs reach the cap after a few refills, and the
# cap bounds the memory a stream holds ahead of its reader.
_FIRST_BLOCK = 16
BLOCK_CAP = 1024

# The memo of stream prefixes: checked key -> the bytes of the key's first
# _PREFIX doubles, reversed as a stream keeps them ahead.
_PREFIX = 256
_MEMO_KEYS = 64
_prefixes: OrderedDict = OrderedDict()


def _checked_key(base_seed, rep, arm, purpose) -> tuple:
    """The key as a tuple of Python ints; ``ValueError`` for one ``derive_stream`` rejects."""
    given = (base_seed, rep, arm, purpose)
    try:
        key = tuple(map(operator.index, given))
    except TypeError:
        raise ValueError(f"seed key components must be integers, got {given!r}") from None
    if any(part < 0 for part in key):
        raise ValueError(f"seed key components must be non-negative, got {key}")
    return key


def derive_stream(
    base_seed: int, rep: int, arm: int = 0, purpose: int = GENERIC
) -> np.random.Generator:
    """Return the generator for one ``(base_seed, rep, arm, purpose)`` key.

    Parameters
    ----------
    base_seed : int
        Experiment-level seed, non-negative.  Every key component is an
        integer (numpy's included); anything else raises ``ValueError``.
    rep : int
        Repetition index, non-negative.
    arm : int
        Arm index the stream belongs to (0 when not arm-specific).
    purpose : int
        One of the purpose codes exported by this module.

    Returns
    -------
    numpy.random.Generator
        Generator backed by Philox seeded from the key tuple.
    """
    key = _checked_key(base_seed, rep, arm, purpose)
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy=key)))


class BlockStream:
    """``random()`` of one generator, drawn ahead in blocks.

    The generator is made by ``factory`` on the first read, so a stream that
    is never read costs nothing.  ``random()`` returns one double and
    ``random(k)`` the next ``k`` as a list; either way the ``i``-th
    double read is exactly the ``i``-th double that scalar ``random()`` calls
    on ``factory()`` would return, at a fraction of their per-call cost.  The
    generator runs up to one block ahead of the reader; since only this
    object ever holds it, it has no other consumer.  The block is kept
    packed, 8 bytes a double in an ``array('d')``.

    Given ``key``, the stream reads through the memo of stream prefixes (see
    the module docstring).  Its first read checks the key as
    :func:`derive_stream` does, and a key it rejects raises ``ValueError`` on
    every read.  If the memo holds the key, its prefix becomes the stream's
    first block; otherwise the stream derives its generator and draws and
    stores the prefix.  A read past the prefix removes the key from the memo,
    and the stream goes on from its own generator.

    Parameters
    ----------
    factory : callable
        Takes no arguments and returns the stream to read, a
        ``numpy.random.Generator``; called at most once.
    key : tuple or None
        The ``(base_seed, rep, arm, purpose)`` key of :func:`derive_stream`
        that ``factory`` derives, or None to read without the memo.
    """

    __slots__ = ("_factory", "_key", "_skip", "_rng", "_ahead", "_next_size")

    def __init__(self, factory, key=None):
        self._factory = factory
        self._key = key  # None once the stream reads past its prefix
        self._skip = 0  # doubles taken from the memo, skipped when deriving
        self._rng = None
        self._ahead = array("d")  # drawn but unread, the next one last
        self._next_size = _FIRST_BLOCK

    def random(self, size=None):
        """The next uniform double in [0, 1), or with ``size`` the next ``size`` of them."""
        ahead = self._ahead
        if size is None:
            try:
                return ahead.pop()
            except IndexError:
                return self._draw_ahead(1).pop()
        cut = len(ahead) - size
        if cut < 0:
            ahead = self._draw_ahead(-cut)
            cut = len(ahead) - size
        block = ahead[: cut - 1 if cut else None : -1].tolist()
        del ahead[cut:]
        return block

    def _draw_ahead(self, needed: int) -> array:
        """Draw at least ``needed`` more doubles behind the unread ones."""
        if self._key is not None:
            needed = self._read_prefix(needed)
            if needed <= 0:
                return self._ahead
        size = self._next_size
        self._next_size = min(2 * size, BLOCK_CAP)
        return self._put_ahead(self._generator().random(max(size, needed))[::-1].tobytes())

    def _put_ahead(self, doubles: bytes) -> array:
        """Put packed ``doubles``, the next one last, behind the unread ones."""
        block = array("d", doubles)
        block += self._ahead
        self._ahead = block
        return block

    def _generator(self):
        """The stream's generator, derived on first use past what the memo gave."""
        rng = self._rng
        if rng is None:
            rng = self._rng = self._factory()
            self._factory = None
            if self._skip:
                rng.random(self._skip)
        return rng

    def _read_prefix(self, needed: int) -> int:
        """Put the key's prefix ahead on the first read; leave the memo on a read past it.

        Returns how many of the ``needed`` doubles are still to be drawn:
        none (0 or less) when the prefix holds them.
        """
        key = _checked_key(*self._key)
        # The first read: nothing is drawn or taken from the memo yet.
        if self._rng is None and not self._skip and needed <= _PREFIX:
            prefix = _prefixes.pop(key, None)
            if prefix is None:
                prefix = self._generator().random(_PREFIX)[::-1].tobytes()
            else:
                self._skip = _PREFIX
            _prefixes[key] = prefix
            if len(_prefixes) > _MEMO_KEYS:
                _prefixes.popitem(last=False)
            self._put_ahead(prefix)
            return needed - _PREFIX
        # A read past the prefix: a long stream gains nothing from a stored
        # prefix, so the key keeps none.
        _prefixes.pop(key, None)
        self._key = None
        return needed
