"""Reward models: frozen inverse-CDF points, analytic moments, hard instances."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import integrate

from htbandits import (
    FiniteSupportModel,
    ParetoModel,
    SETTING_MEANS,
    instance_description,
    make_central_hard_instance,
    make_central_shifted_arm,
    make_instance,
    make_pareto_instance,
    make_two_arm_hard_instance,
    moment_bound,
)
from htbandits.seeding import REWARDS, derive_stream

from conftest import StubRNG


def test_pareto_inverse_cdf_frozen_point() -> None:
    model = ParetoModel(alpha=2.0, lam=1.0)
    assert model.sample(StubRNG([0.75])) == 2.0


def test_pareto_sample_at_zero_uniform_is_scale() -> None:
    model = ParetoModel(alpha=2.0, lam=3.0)
    assert model.sample(StubRNG([0.0])) == 3.0


def test_pareto_mean_and_moment_formulas() -> None:
    model = ParetoModel(alpha=1.95, lam=0.9 * 0.95 / 1.95)
    assert math.isclose(model.mean(), 0.9, rel_tol=1e-12)
    expected = 1.95 * (0.9 * 0.95 / 1.95) ** 1.9 / 0.05
    assert math.isclose(moment_bound(model, 0.9), expected, rel_tol=1e-12)


def test_pareto_rejects_bad_parameters() -> None:
    with pytest.raises(ValueError):
        ParetoModel(alpha=1.0, lam=1.0)
    with pytest.raises(ValueError):
        ParetoModel(alpha=2.0, lam=0.0)


@pytest.mark.parametrize(
    "alpha,lam", [(math.inf, 1.0), (2.0, math.inf), (math.nan, 1.0), (2.0, math.nan)]
)
def test_pareto_rejects_non_finite_parameters(alpha, lam) -> None:
    # alpha=inf gave a NaN mean and lam=inf an infinite one.
    with pytest.raises(ValueError, match="must be finite"):
        ParetoModel(alpha=alpha, lam=lam)


def test_pareto_infinite_moment_rejected() -> None:
    model = ParetoModel(alpha=1.5, lam=1.0)
    with pytest.raises(ValueError):
        moment_bound(model, 0.5)
    with pytest.raises(ValueError):
        moment_bound(model, 0.6)


def test_finite_support_lookup_frozen_point() -> None:
    model = FiniteSupportModel([(0.0, 0.82), (5.0 / 3.0, 0.18)])
    assert model.sample(StubRNG([0.9])) == 5.0 / 3.0
    assert model.sample(StubRNG([0.5])) == 0.0


def test_finite_support_merges_and_sorts_atoms() -> None:
    model = FiniteSupportModel([(2.0, 0.25), (0.0, 0.5), (2.0, 0.25)])
    assert model.values == (0.0, 2.0)
    assert model.probs == (0.5, 0.5)


def test_finite_support_drops_zero_probability_atoms() -> None:
    model = FiniteSupportModel([(0.0, 1.0), (7.0, 0.0)])
    assert model.values == (0.0,)


def test_finite_support_rejects_bad_probabilities() -> None:
    with pytest.raises(ValueError):
        FiniteSupportModel([(0.0, 0.6), (1.0, 0.6)])
    with pytest.raises(ValueError):
        FiniteSupportModel([(0.0, -0.1), (1.0, 1.1)])
    with pytest.raises(ValueError):
        FiniteSupportModel([])


def test_finite_support_mean_and_moment() -> None:
    model = FiniteSupportModel([(0.0, 0.9), (4.0, 0.1)])
    assert model.mean() == pytest.approx(0.4, rel=1e-15)
    assert moment_bound(model, 1.0) == pytest.approx(1.6, rel=1e-15)


@given(
    st.lists(
        st.tuples(
            st.floats(min_value=-100.0, max_value=100.0, allow_nan=False),
            st.floats(min_value=0.01, max_value=1.0),
        ),
        min_size=1,
        max_size=8,
    )
)
def test_finite_support_normalized_atoms_always_valid(atoms) -> None:
    total = math.fsum(p for _, p in atoms)
    normalized = [(x, p / total) for x, p in atoms]
    model = FiniteSupportModel(normalized)
    assert abs(math.fsum(model.probs) - 1.0) <= 1e-9
    assert model.values == tuple(sorted(model.values))
    assert model.sample(StubRNG([0.3])) in model.values


def test_settings_means_are_the_documented_profiles() -> None:
    assert SETTING_MEANS["S1"] == (0.9, 0.7, 0.5, 0.3, 0.1)
    assert SETTING_MEANS["S2"] == (0.9, 0.55, 0.3, 0.15, 0.1)
    assert SETTING_MEANS["S3"] == (0.9, 0.85, 0.7, 0.45, 0.1)


@pytest.mark.parametrize("setting", ["S1", "S2", "S3"])
@pytest.mark.parametrize("v", [0.5, 0.9, 1.0])
def test_pareto_instance_means_match_profile(setting: str, v: float) -> None:
    instance = make_pareto_instance(setting, v)
    for mean, target in zip(instance.means, SETTING_MEANS[setting]):
        assert math.isclose(mean, target, rel_tol=1e-12)
    alpha = 1.05 + v
    for model in instance.arms:
        assert model.alpha == alpha
    # shared moment bound is the largest per-arm analytic moment: the best arm's
    assert instance.u == moment_bound(instance.arms[0], v)
    assert instance.u == max(moment_bound(m, v) for m in instance.arms)


def test_instance_gaps_are_nonnegative_with_a_zero() -> None:
    instance = make_pareto_instance("S2", 0.9)
    assert min(instance.gaps) == 0.0
    assert all(g >= 0.0 for g in instance.gaps)
    assert instance.optimal_arm == 0


def test_instance_rejects_undersized_moment_bound() -> None:
    arms = (ParetoModel(alpha=2.0, lam=1.0),)
    with pytest.raises(ValueError):
        make_instance(arms, 0.5, u=0.1)


@pytest.mark.parametrize("u", [math.nan, math.inf])
def test_instance_rejects_a_non_finite_moment_bound(u) -> None:
    # Such a u was kept and failed only later, inside make_policy.
    arms = (ParetoModel(alpha=2.0, lam=1.0),)
    with pytest.raises(ValueError, match="must be finite"):
        make_instance(arms, 0.5, u=u)


def test_pareto_truncated_tail_bounded_by_moment_ratio() -> None:
    # E[X * 1{X > B}] <= u / B**v, checked against numerical quadrature
    model = ParetoModel(alpha=1.95, lam=0.9 * 0.95 / 1.95)
    v = 0.9
    u = moment_bound(model, v)
    for cut in (1.0, 2.0, 5.0, 10.0, 100.0):
        tail, err = integrate.quad(
            lambda x: x * model.alpha * model.lam**model.alpha / x ** (model.alpha + 1.0),
            cut,
            np.inf,
        )
        assert err < 1e-8
        assert tail <= u / cut**v + 1e-10


@pytest.mark.parametrize("v", [0.5, 1.0])
@pytest.mark.parametrize("flavor,mean2,moment2", [("low", 1.5, 0.3), ("high", 3.5, 0.7)])
def test_two_arm_hard_instance_exact(v: float, flavor: str, mean2: float, moment2: float) -> None:
    delta = 0.1
    instance = make_two_arm_hard_instance(delta, v, flavor=flavor)
    assert math.isclose(instance.means[0], 2.5 * delta, rel_tol=1e-12)
    assert math.isclose(moment_bound(instance.arms[0], v), 0.5, rel_tol=1e-12)
    assert math.isclose(instance.means[1], mean2 * delta, rel_tol=1e-12)
    assert math.isclose(moment_bound(instance.arms[1], v), moment2, rel_tol=1e-12)


def test_two_arm_hard_rejects_out_of_range_delta() -> None:
    with pytest.raises(ValueError):
        make_two_arm_hard_instance(0.25, 0.5)
    with pytest.raises(ValueError):
        make_two_arm_hard_instance(0.1, 0.5, flavor="middle")


@pytest.mark.parametrize("v", [0.5, 0.9, 1.0])
def test_central_hard_instance_moments_exactly_half(v: float) -> None:
    means = (0.5, 0.4, 0.3, 0.2, 0.1)
    instance = make_central_hard_instance(means, v)
    assert instance.u == 0.5
    for a, mu in enumerate(means):
        assert math.isclose(instance.means[a], mu, rel_tol=1e-12)
        assert math.isclose(moment_bound(instance.arms[a], v), 0.5, rel_tol=1e-12)


def test_central_hard_instance_rejects_bad_means() -> None:
    with pytest.raises(ValueError):
        make_central_hard_instance((0.6, 0.3), 0.5)
    with pytest.raises(ValueError):
        make_central_hard_instance((0.2, 0.3), 0.5)
    with pytest.raises(ValueError):
        make_central_hard_instance((), 0.5)


@pytest.mark.parametrize("v", [0.5, 1.0])
def test_central_shifted_arm_mean_and_unit_moment(v: float) -> None:
    mu, delta = 0.15, 0.05
    model = make_central_shifted_arm(mu, delta, v)
    assert math.isclose(model.mean(), mu + 2.0 * delta, rel_tol=1e-12)
    assert math.isclose(moment_bound(model, v), 1.0, rel_tol=1e-12)


def test_central_shifted_arm_merges_coincident_spikes() -> None:
    # with v=1, mu=0.125 and delta=0.0625 both spikes land at 4.0
    model = make_central_shifted_arm(0.125, 0.0625, 1.0)
    assert model.values == (0.0, 4.0)
    assert math.isclose(moment_bound(model, 1.0), 1.0, rel_tol=1e-12)


def test_central_shifted_arm_rejects_infeasible_parameters() -> None:
    with pytest.raises(ValueError):
        make_central_shifted_arm(0.5, 0.05, 1.0)
    with pytest.raises(ValueError):
        make_central_shifted_arm(0.15, 0.4, 1.0)


def test_instance_description_round_trips_floats() -> None:
    instance = make_pareto_instance("S1", 0.9)
    lines = instance_description(instance, setting="S1")
    entries = dict(line.split("=", 1) for line in lines)
    assert entries["setting"] == "S1"
    assert entries["num_arms"] == "5"
    assert float(entries["v"]) == 0.9
    assert float(entries["u"]) == instance.u
    assert float(entries["arm.0.mean"]) == instance.means[0]
    assert entries["arm.0.model"] == "pareto"
    hard = make_two_arm_hard_instance(0.1, 0.5)
    hard_lines = instance_description(hard)
    hard_entries = dict(line.split("=", 1) for line in hard_lines)
    values = [float(x) for x in hard_entries["arm.0.values"].split(",")]
    assert tuple(values) == hard.arms[0].values


@pytest.mark.parametrize("v", [0.5, 0.9, 1.0])
def test_empirical_mean_within_four_standard_errors(v: float) -> None:
    # regression-style under a pinned seed: heavy tails rule out a clean CLT,
    # so the tolerance uses the sample standard error of the same draw
    instance = make_pareto_instance("S1", v)
    model = instance.arms[0]
    rng = derive_stream(3, 0, arm=0, purpose=REWARDS)
    sample = np.array([model.sample(rng) for _ in range(1_000_000)])
    se = sample.std() / math.sqrt(sample.size)
    assert abs(sample.mean() - model.mean()) <= 4.0 * se


def test_empirical_moment_consistent_with_bound() -> None:
    for v in (0.5, 0.9):
        instance = make_pareto_instance("S1", v)
        rng = derive_stream(3, 0, arm=0, purpose=REWARDS)
        model = instance.arms[0]
        sample = np.abs([model.sample(rng) for _ in range(1_000_000)]) ** (1.0 + v)
        se = sample.std() / math.sqrt(sample.size)
        assert sample.mean() <= instance.u + 4.0 * se
