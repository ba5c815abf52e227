"""Shared test helpers: stub RNGs, policy drivers, ledger rows, the schedule sweep grid."""

from __future__ import annotations

import numpy as np

from htbandits.mechanisms import _NO_OWNER, _SITES


class StubRNG:
    """Duck-typed generator returning a fixed sequence of uniforms."""

    def __init__(self, uniforms):
        self._queue = list(uniforms)

    def random(self, n=None):
        if n is None:
            return self._queue.pop(0)
        out = self._queue[:n]
        del self._queue[:n]
        return np.array(out)


def drive(policy, samplers, horizon: int) -> None:
    """Run a policy for ``horizon`` rounds; ``samplers[a]()`` yields rewards."""
    for t in range(1, horizon + 1):
        arm = policy.select_arm(t)
        policy.observe(arm, samplers[arm]())


def constant_samplers(values):
    """Per-arm samplers that always return the given constants."""
    return [lambda value=value: value for value in values]


def draw_rows(ledger) -> list:
    """The ledger's draws, read from its columns, as ``(site, scale, bound, eps, count)``."""
    codes, *parameters = ledger.noise_draws.columns
    return list(zip(map(_SITES.__getitem__, codes), *parameters))


def insertion_rows(ledger) -> list:
    """The ledger's insertions as ``(mechanism, owner, value, bound)``, no owner as None."""
    mechanisms, owners, values, bounds = ledger.insertions.columns
    owners = [None if owner == _NO_OWNER else owner for owner in owners]
    return list(zip(mechanisms, owners, values, bounds))


def schedule_sweep_grid():
    """Parameter grid shared by the schedule invariants and the acceptance gate.

    Yields ``(u, v, eps, beta, num_viable, epoch)`` tuples covering small and
    large moment bounds, the v extremes, tight and loose confidences, and
    epochs deep enough to saturate the epoch-length clamp.
    """
    for u in (0.5, 1.0, 8.5):
        for v in (0.5, 0.9, 1.0):
            for eps in (0.5, 1.0, 10.0):
                for beta in (1e-5, 0.1):
                    for num_viable in (2, 5, 10_000):
                        for epoch in (1, 2, 3, 5, 8, 13, 21, 34, 60):
                            yield u, v, eps, beta, num_viable, epoch
