"""Truncation levels, radii, and elimination-epoch schedules."""

from __future__ import annotations

import logging
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from htbandits import (
    MAX_EPOCH_PULLS,
    MomentParams,
    central_se_schedule,
    local_se_schedule,
    nonprivate_ucb_radius,
    nonprivate_ucb_threshold,
    private_ucb_radius,
    private_ucb_truncation,
)
from htbandits.harness import make_instance_for
from htbandits.schedules import _as_index

from conftest import schedule_sweep_grid

UNIT = MomentParams(u=1.0, v=1.0)


def test_moment_params_validation() -> None:
    with pytest.raises(ValueError):
        MomentParams(u=0.0, v=1.0)
    with pytest.raises(ValueError):
        MomentParams(u=1.0, v=0.0)
    with pytest.raises(ValueError):
        MomentParams(u=1.0, v=1.5)


def test_moment_params_reject_an_infinite_moment_bound() -> None:
    for u in (math.inf, math.nan):
        with pytest.raises(ValueError, match="u must be finite and positive"):
            MomentParams(u=u, v=1.0)


def test_private_truncation_frozen_point() -> None:
    got = private_ucb_truncation(UNIT, eps=1.0, horizon=1024, n=100)
    expected = (100.0 / math.log(1024) ** 1.5) ** 0.5
    assert math.isclose(got, expected, rel_tol=1e-12)
    assert math.isclose(got, 2.3411, rel_tol=1e-4)


def test_private_radius_frozen_point() -> None:
    got = private_ucb_radius(UNIT, eps=1.0, horizon=1024, n=1000, t=10)
    expected = 18.0 * (math.log(2 * 10**4) * math.log(1024) ** 2.5 / 1000.0) ** 0.5
    assert math.isclose(got, expected, rel_tol=1e-12)
    assert math.isclose(got, 20.145, rel_tol=1e-4)


def test_nonprivate_threshold_frozen_point() -> None:
    got = nonprivate_ucb_threshold(UNIT, n=1, t=math.e)
    assert math.isclose(got, math.sqrt(0.5), rel_tol=1e-12)


def test_nonprivate_radius_shrinks_with_pulls() -> None:
    wide = nonprivate_ucb_radius(UNIT, n=10, t=100.0)
    narrow = nonprivate_ucb_radius(UNIT, n=1000, t=100.0)
    assert narrow < wide


@given(
    u=st.floats(min_value=0.01, max_value=100.0),
    v=st.floats(min_value=0.1, max_value=1.0),
    eps=st.floats(min_value=0.01, max_value=20.0),
    n=st.integers(min_value=1, max_value=10_000),
)
def test_private_truncation_nondecreasing_in_n(u, v, eps, n) -> None:
    params = MomentParams(u=u, v=v)
    here = private_ucb_truncation(params, eps, 100_000, n)
    there = private_ucb_truncation(params, eps, 100_000, n + 1)
    assert there >= here


def test_central_schedule_frozen_epoch() -> None:
    sched = central_se_schedule(UNIT, eps=1.0, beta=0.1, num_viable=5, epoch=1)
    assert sched.target_gap == 0.5
    assert sched.pulls_per_arm == 12209
    log_term = math.log(200.0)
    assert math.isclose(
        sched.truncation, math.sqrt(12209.0 / log_term), rel_tol=1e-12
    )
    assert math.isclose(
        sched.accuracy, math.sqrt(log_term / 12209.0), rel_tol=1e-12
    )
    assert 12.0 * sched.accuracy < 0.25
    assert math.isclose(12.0 * sched.accuracy, 0.24998, rel_tol=1e-4)
    assert not sched.saturated


def test_local_schedule_frozen_epoch() -> None:
    sched = local_se_schedule(UNIT, eps=1.0, beta=0.1, num_viable=5, epoch=1)
    assert sched.target_gap == 0.25
    # decimal-verified: ceil(28**4 * 256 * ln(400) + ln(400)) = 942768552
    assert sched.pulls_per_arm == 942768552
    assert math.isclose(sched.pulls_per_arm, 9.43e8, rel_tol=1e-3)
    assert not sched.saturated


def test_schedule_balance_identity() -> None:
    # u / truncation**v (the truncated mean's bias) equals the accuracy term
    # for any epoch length, in both schedules
    for u, v, eps, beta, num_viable, epoch in schedule_sweep_grid():
        params = MomentParams(u=u, v=v)
        for make in (central_se_schedule, local_se_schedule):
            sched = make(params, eps, beta, num_viable, epoch)
            if math.isfinite(sched.truncation) and sched.truncation > 0.0:
                assert math.isclose(
                    u / sched.truncation**v, sched.accuracy, rel_tol=1e-9
                ), (make.__name__, u, v, eps, beta, num_viable, epoch)


def test_schedules_finite_positive_across_sweep() -> None:
    for u, v, eps, beta, num_viable, epoch in schedule_sweep_grid():
        params = MomentParams(u=u, v=v)
        for make in (central_se_schedule, local_se_schedule):
            sched = make(params, eps, beta, num_viable, epoch)
            assert 1 <= sched.pulls_per_arm <= MAX_EPOCH_PULLS
            assert math.isfinite(sched.truncation) and sched.truncation > 0.0
            assert math.isfinite(sched.accuracy) and sched.accuracy > 0.0


def test_schedule_saturation_clamps_and_warns(caplog) -> None:
    params = MomentParams(u=8.5, v=0.5)
    with caplog.at_level(logging.WARNING, logger="htbandits.schedules"):
        sched = local_se_schedule(params, eps=0.5, beta=1e-5, num_viable=2, epoch=60)
    assert sched.saturated
    assert sched.pulls_per_arm == MAX_EPOCH_PULLS
    assert any("saturating" in message for message in caplog.messages)


def test_epoch_lengths_decrease_with_budget() -> None:
    for epoch in (1, 2, 3):
        loose = central_se_schedule(UNIT, 2.0, 0.1, 5, epoch).pulls_per_arm
        tight = central_se_schedule(UNIT, 0.5, 0.1, 5, epoch).pulls_per_arm
        assert loose <= tight
        loose_l = local_se_schedule(UNIT, 2.0, 0.1, 5, epoch).pulls_per_arm
        tight_l = local_se_schedule(UNIT, 0.5, 0.1, 5, epoch).pulls_per_arm
        assert loose_l <= tight_l


def test_every_schedule_rejects_an_infinite_budget() -> None:
    calls = (
        lambda eps: central_se_schedule(UNIT, eps, 0.1, 5, 1),
        lambda eps: local_se_schedule(UNIT, eps, 0.1, 5, 1),
        lambda eps: private_ucb_truncation(UNIT, eps, 1024, 1),
        lambda eps: private_ucb_radius(UNIT, eps, 1024, 1, 1),
    )
    for call in calls:
        for eps in (math.inf, math.nan):
            with pytest.raises(ValueError, match="eps must be finite and positive"):
                call(eps)


@pytest.mark.parametrize(
    "make, eps",
    [
        (central_se_schedule, 5e-324),
        (local_se_schedule, 5e-324),
        (local_se_schedule, 1e-170),
        (local_se_schedule, 1.7e308),
    ],
)
def test_an_eps_past_the_range_of_doubles_is_a_value_error(make, eps) -> None:
    # The epoch length's divisor would be 0.0 (ZeroDivisionError) or eps**2
    # would overflow (OverflowError).
    with pytest.raises(ValueError, match="epoch 1's eps.* must be finite and positive"):
        make(UNIT, eps, 0.1, 5, 1)


def test_schedule_argument_validation() -> None:
    with pytest.raises(ValueError):
        central_se_schedule(UNIT, 0.0, 0.1, 5, 1)
    with pytest.raises(ValueError):
        central_se_schedule(UNIT, 1.0, 1.0, 5, 1)
    with pytest.raises(ValueError):
        central_se_schedule(UNIT, 1.0, 0.1, 0, 1)
    with pytest.raises(ValueError):
        local_se_schedule(UNIT, 1.0, 0.1, 5, 0)
    with pytest.raises(ValueError):
        private_ucb_truncation(UNIT, 1.0, 1024, 0)
    with pytest.raises(ValueError):
        private_ucb_radius(UNIT, 1.0, 1024, 10, 0)
    with pytest.raises(ValueError):
        nonprivate_ucb_threshold(UNIT, 1, 1.0)


# Each public schedule with one count, round or horizon argument replaced.
NON_FINITE_CALLS = {
    "private_truncation_n": lambda x: private_ucb_truncation(UNIT, 1.0, 10, x),
    "private_truncation_horizon": lambda x: private_ucb_truncation(UNIT, 1.0, x, 1),
    "private_radius_n": lambda x: private_ucb_radius(UNIT, 1.0, 1024, x, 10),
    "private_radius_t": lambda x: private_ucb_radius(UNIT, 1.0, 1024, 10, x),
    "private_radius_horizon": lambda x: private_ucb_radius(UNIT, 1.0, x, 10, 10),
    "nonprivate_threshold_n": lambda x: nonprivate_ucb_threshold(UNIT, x, 10.0),
    "nonprivate_threshold_t": lambda x: nonprivate_ucb_threshold(UNIT, 1, x),
    "nonprivate_radius_n": lambda x: nonprivate_ucb_radius(UNIT, x, 10.0),
    "nonprivate_radius_t": lambda x: nonprivate_ucb_radius(UNIT, 1, x),
    "central_num_viable": lambda x: central_se_schedule(UNIT, 1.0, 0.1, x, 1),
    "central_epoch": lambda x: central_se_schedule(UNIT, 1.0, 0.1, 5, x),
    "local_num_viable": lambda x: local_se_schedule(UNIT, 1.0, 0.1, x, 1),
    "local_epoch": lambda x: local_se_schedule(UNIT, 1.0, 0.1, 5, x),
}


@pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("call", NON_FINITE_CALLS.values(), ids=NON_FINITE_CALLS.keys())
def test_every_schedule_rejects_a_non_finite_argument(call, value, caplog) -> None:
    # NaN passed every "< 1" check and infinity every "> 1" check: a NaN
    # truncation level, a 0.0 one at an infinite horizon, a "saturated" epoch.
    with caplog.at_level(logging.WARNING, logger="htbandits.schedules"):
        with pytest.raises(ValueError, match="must be finite"):
            call(value)
    assert caplog.messages == []


# The schedules' count arguments: pulls, the private radius's round, viable
# arms and the epoch.  The non-private round is real.
COUNT_CALLS = {
    name: NON_FINITE_CALLS[name]
    for name in (
        "private_truncation_n",
        "private_radius_n",
        "private_radius_t",
        "nonprivate_threshold_n",
        "nonprivate_radius_n",
        "central_num_viable",
        "central_epoch",
        "local_num_viable",
        "local_epoch",
    )
}


@pytest.mark.parametrize("value", [2.5, 3.0, True, np.float64(3.0)], ids=["2.5", "3.0", "True", "np3.0"])
@pytest.mark.parametrize("call", COUNT_CALLS.values(), ids=COUNT_CALLS.keys())
def test_every_schedule_rejects_a_count_that_is_not_an_integer(call, value) -> None:
    # 2.5 pulls gave a truncation level and a radius, and 2.5 viable arms in
    # epoch 1.5 an epoch with target gap 2**-1.5.
    with pytest.raises(ValueError, match=r"(n|t|num_viable|epoch) must be an integer"):
        call(value)
    assert call(np.int64(3)) == call(3)


def test_the_non_private_round_stays_real() -> None:
    # ln(t**2) grows with t: the radius with it, the threshold against it.
    assert nonprivate_ucb_radius(UNIT, 1, 2.5) < nonprivate_ucb_radius(UNIT, 1, 3)
    assert nonprivate_ucb_threshold(UNIT, 1, 2.5) > nonprivate_ucb_threshold(UNIT, 1, 3)


def test_the_integer_check_takes_python_and_numpy_integers_but_not_bool() -> None:
    for value in (3, np.int64(3), np.uint8(3)):
        assert type(_as_index("n", value, 1)) is int
        assert _as_index("n", value, 1) == 3
    # operator.index reads a bool as 0 or 1.
    for value in (True, False, np.True_, 3.0, "3", None):
        with pytest.raises(ValueError, match="n must be an integer"):
            _as_index("n", value)
    assert _as_index("n", -4) == -4
    with pytest.raises(ValueError, match="n must be >= 1, got 0"):
        _as_index("n", np.int64(0), 1)


# The radius point and the first epoch's confidence: T = 1e5, beta = 1/T.
ONSET_HORIZON = 10**5


def onset_row(setting: str, v: float, eps: float) -> tuple:
    """dprucb's radius at T=1e5 with every arm at n = T/K pulls, the smallest
    power of 10 at which that radius falls below half the smallest gap, and
    the first elimination epoch's total pulls, central and local."""
    instance = make_instance_for(setting, v)
    params = MomentParams(u=instance.u, v=instance.v)
    arms = instance.num_arms
    half_gap = min(gap for gap in instance.gaps if gap > 0) / 2

    def radius(horizon: int) -> float:
        return private_ucb_radius(params, eps, horizon, horizon // arms, horizon)

    onset = next(k for k in range(1, 31) if radius(10**k) < half_gap)
    epochs = (
        schedule(params, eps, 1 / ONSET_HORIZON, arms, 1).pulls_per_arm * arms
        for schedule in (central_se_schedule, local_se_schedule)
    )
    return (radius(ONSET_HORIZON), 10**onset, *epochs)


def test_the_closed_form_onset_table() -> None:
    # No simulation: where dprucb's radius would resolve each setting's
    # smallest gap, and how long each elimination policy's first epoch is.
    table = {
        (setting, v, eps): onset_row(setting, v, eps)
        for setting in ("S1", "S3", "two_arm_hard", "k_arm_hard")
        for v in (0.9, 0.5)
        for eps in (1.0, 1000.0)
    }
    print("\nsetting v eps | radius(T=1e5) onset_T | first epoch: central local")
    for (setting, v, eps), (radius, onset, central, local) in table.items():
        print(f"{setting} {v} {eps:g} | {radius:.4g} {onset:.0e} | {central:.3g} {local:.3g}")
    # The rows recorded in ROADMAP.md's Baseline, at their printed precision:
    # (radius at eps 1, 1000), (onset at eps 1, 1000), central and local at eps 1.
    baseline = {
        ("S1", 0.9): ((63.2, 2.4), (1e13, 1e9), 2.6e6, 3.6e12),
        ("S1", 0.5): ((130, 13), (1e17, 1e14), 2.5e8, 5.6e15),
        ("S3", 0.9): ((63.2, 2.4), (1e14, 1e11), 2.6e6, 3.6e12),
        ("two_arm_hard", 0.9): ((9.43, 0.358), (1e12, 1e8), 4.5e4, 2.7e9),
        ("k_arm_hard", 0.9): ((14.6, 0.552), (1e12, 1e8), 1.2e5, 7.3e9),
    }
    for (setting, v), (radii, onsets, central, local) in baseline.items():
        rows = [table[setting, v, eps] for eps in (1.0, 1000.0)]
        for row, radius, onset in zip(rows, radii, onsets):
            assert f"{row[0]:.3g}" == f"{radius:.3g}", (setting, v)
            assert row[1] == onset, (setting, v)
        assert f"{rows[0][2]:.2g}" == f"{central:.2g}", (setting, v)
        assert f"{rows[0][3]:.2g}" == f"{local:.2g}", (setting, v)
    # S1 and S3 at v=0.5, eps=1: the local epoch saturates at 2**50 pulls per
    # arm, and S3's radius resolves its 0.05 gap only at T = 1e19.
    assert table["S1", 0.5, 1.0][3] == 5 * MAX_EPOCH_PULLS
    assert table["S3", 0.5, 1.0][1] == 10**19
