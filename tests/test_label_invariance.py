"""Regret must not depend on how a setting's arms are labelled.

A run is relabelled by a permutation ``perm``: position ``i`` holds the
setting's arm ``perm[i]`` and reads that arm's reward and noise streams, so
each arm sees the same data under either label.  ``make_policy`` keys streams
by position, so the policy and its streams are built here directly.  The final
regret, ``math.fsum`` of gaps times pull counts, must then be exactly equal.
"""

from __future__ import annotations

import math
import operator

import numpy as np
import pytest

from htbandits import (
    DPRobustSE,
    DPRobustUCB,
    ExperimentConfig,
    LDPRobustSE,
    MomentParams,
    NoiseSource,
    RobustUCB,
    make_instance,
    make_instance_for,
    run_single,
)
from htbandits.harness import _NOISE_PURPOSE
from htbandits.seeding import REWARDS, derive_stream

REPS = 3
SEED = 55


def reversed_order(k: int) -> tuple:
    return tuple(reversed(range(k)))


def seeded_order(k: int, seed: int = 11) -> tuple:
    """A seeded permutation of ``range(k)`` that moves arm 0."""
    rng = np.random.default_rng(seed)
    perm = rng.permutation(k)
    while perm[0] == 0:
        perm = rng.permutation(k)
    return tuple(int(a) for a in perm)


ORDERS = {"reversed": reversed_order, "seeded": seeded_order}


def relabelled_regret(config: ExperimentConfig, rep: int, perm) -> float:
    """Final regret of repetition ``rep`` with the arms in the order ``perm``."""
    base = make_instance_for(config.setting, config.v)
    instance = make_instance([base.arms[a] for a in perm], base.v, base.u)
    params = MomentParams(u=instance.u, v=instance.v)

    def streams(purpose):
        return [derive_stream(config.base_seed, rep, arm=a, purpose=purpose) for a in perm]

    algo = config.algo
    if algo == "rucb":
        policy = RobustUCB(instance.num_arms, params)
    else:
        sources = [NoiseSource(rng) for rng in streams(_NOISE_PURPOSE[algo])]
        if algo == "dprucb":
            policy = DPRobustUCB(params, config.eps, config.horizon, sources)
        else:
            policy_class = DPRobustSE if algo == "dprse" else LDPRobustSE
            policy = policy_class(
                params, config.eps, config.horizon, sources, beta=config.resolved_beta
            )
    rewards = streams(REWARDS)
    counts = [0] * instance.num_arms
    for t in range(1, config.horizon + 1):
        arm = policy.select_arm(t)
        policy.observe(arm, instance.arms[arm].sample(rewards[arm]))
        counts[arm] += 1
    return math.fsum(map(operator.mul, instance.gaps, counts))


def assert_label_invariant(algo, setting, eps, horizon, order) -> None:
    config = ExperimentConfig(
        algo=algo, setting=setting, v=0.9, eps=eps, horizon=horizon, reps=REPS, base_seed=SEED
    )
    k = make_instance_for(setting, config.v).num_arms
    perm = ORDERS[order](k)
    assert perm[0] != 0
    for rep in range(REPS):
        regret = relabelled_regret(config, rep, range(k))
        assert regret == run_single(config, rep).final_regret
        assert relabelled_regret(config, rep, perm) == regret, (rep, perm)


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize(
    "algo,setting,eps,horizon",
    [
        ("dprucb", "S1", 1.0, 20_000),
        ("rucb", "S1", 1.0, 20_000),
        ("dprse", "two_arm_hard", 100.0, 5000),
        ("ldprse", "two_arm_hard", 1000.0, 5000),
        ("dprse", "k_arm_hard", 1000.0, 300),
    ],
)
def test_relabelled_arms_give_the_same_regret(algo, setting, eps, horizon, order) -> None:
    assert_label_invariant(algo, setting, eps, horizon, order)


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 1: commits to _viable[0] before any epoch completes",
)
@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("algo", ["dprse", "ldprse"])
def test_elimination_that_commits_before_an_epoch_ignores_labels(algo, order) -> None:
    assert_label_invariant(algo, "S1", 1.0, 20_000, order)
