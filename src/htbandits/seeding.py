"""Deterministic random-stream derivation.

Every consumer of randomness in a simulation gets its own generator, keyed by
``(base_seed, rep, arm, purpose)``.  Streams for different keys are
statistically independent, and adding a new consumer never shifts the draws
seen by existing ones.  Philox is counter-based, so the mapping from key to
stream is stable across processes and platforms.  :class:`BlockStream` derives
a stream on its first read and draws it ahead in blocks, kept packed as
doubles, without changing the values it yields; it hands them out one at a
time or ``k`` at a time.
"""

import operator
from array import array

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
    given = (base_seed, rep, arm, purpose)
    try:
        key = tuple(map(operator.index, given))
    except TypeError:
        raise ValueError(f"seed key components must be integers, got {given!r}") from None
    if any(part < 0 for part in key):
        raise ValueError(f"seed key components must be non-negative, got {key}")
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy=key)))


class BlockStream:
    """``random()`` of one generator, drawn ahead in blocks.

    The generator is made by ``factory`` on the first read, so a stream that
    is never read costs nothing.  ``random()`` returns one double and
    ``random(k)`` the next ``k`` as a list; either way the ``i``-th
    double read is exactly the ``i``-th double that scalar ``random()`` calls
    on ``factory()`` would return, at a fraction of their per-call cost.
    :meth:`unread` hands doubles back, to be read again first.  The generator
    runs up to one block ahead of the reader; since only this object ever
    holds it, it has no other consumer.  The block is kept packed, 8 bytes a
    double in an ``array('d')``.

    Parameters
    ----------
    factory : callable
        Takes no arguments and returns the stream to read, a
        ``numpy.random.Generator``; called at most once.
    """

    __slots__ = ("_factory", "_rng", "_ahead", "_next_size")

    def __init__(self, factory):
        self._factory = factory
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

    def unread(self, values) -> None:
        """Hand ``values``, the latest doubles read, out again, first to last."""
        self._ahead.extend(reversed(values))

    def _draw_ahead(self, needed: int) -> array:
        """Draw at least ``needed`` more doubles behind the unread ones."""
        if self._rng is None:
            self._rng = self._factory()
            self._factory = None
        size = self._next_size
        self._next_size = min(2 * size, BLOCK_CAP)
        block = array("d", self._rng.random(max(size, needed))[::-1].tobytes())
        block += self._ahead
        self._ahead = block
        return block
