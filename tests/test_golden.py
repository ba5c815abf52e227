"""Golden output digest: the bytes of ``runs.csv`` and ``summary.csv`` over a
fixed grid of configurations.

A change that keeps the simulator's behaviour keeps this digest.  A change
that moves float evaluation order, stream consumption or CSV formatting moves
it, and must re-record it here and say why in CHANGES.md.

The grid covers every algorithm on every setting at a short horizon, the
cells where elimination epochs really complete (so the epoch, release and
elimination code is hashed, not only the committed fallback), and one cell
run through the process pool.
"""

from __future__ import annotations

import hashlib
from itertools import product

from htbandits import (
    ALGORITHMS,
    SETTINGS,
    ExperimentConfig,
    make_instance_for,
    run_experiment,
    run_single,
    write_csv,
)

V = 0.9
SEED = 7

GOLDEN_SHA256 = "6022fc41c9e97db840b85b68e060075b19f362130994a2cc739c93930c8a2a07"

# (algo, setting, eps, horizon, completed epochs of rep 0)
EPOCH_CELLS = (
    ("dprse", "k_arm_hard", 1000.0, 300, 2),
    ("dprse", "two_arm_hard", 100.0, 5000, 2),
    ("ldprse", "two_arm_hard", 1000.0, 5000, 1),
)

POOLED_CELL = ("dprucb", "S2", 1.0, 1000)


def _config(algo: str, setting: str, eps: float, horizon: int) -> ExperimentConfig:
    return ExperimentConfig(
        algo=algo, setting=setting, v=V, eps=eps, horizon=horizon, reps=2, base_seed=SEED
    )


def grid():
    """``(config, workers)`` for every cell, in hashing order."""
    for algo, setting, eps in product(ALGORITHMS, SETTINGS, (1.0, 1000.0)):
        yield _config(algo, setting, eps, 300), 1
    for algo, setting, eps, horizon, _ in EPOCH_CELLS:
        yield _config(algo, setting, eps, horizon), 1
    yield _config(*POOLED_CELL), 2


def grid_digest(out_dir) -> str:
    digest = hashlib.sha256()
    for index, (config, workers) in enumerate(grid()):
        traces, summary = run_experiment(config, workers=workers)
        instance = make_instance_for(config.setting, config.v)
        paths = write_csv(out_dir / f"cell{index}", config, instance, traces, summary)
        for kind in ("runs", "summary"):
            digest.update(paths[kind].read_bytes())
    return digest.hexdigest()


def test_epoch_cells_complete_epochs() -> None:
    for algo, setting, eps, horizon, epochs in EPOCH_CELLS:
        _, policy = run_single(_config(algo, setting, eps, horizon), 0, return_policy=True)
        assert len(policy.completed_epochs) == epochs, (algo, setting, eps, horizon)


def test_grid_output_matches_the_golden_digest(tmp_path) -> None:
    assert grid_digest(tmp_path) == GOLDEN_SHA256
