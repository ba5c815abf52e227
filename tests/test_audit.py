"""Privacy audit: clean runs pass, injected faults are caught and located."""

from __future__ import annotations

import pytest

from htbandits import (
    DPRobustSE,
    DPRobustUCB,
    ExperimentConfig,
    LDPRobustSE,
    MomentParams,
    NoiseSource,
    PrivacyLedger,
    audit_run,
    harness,
    policies,
    run_single,
)
from htbandits.mechanisms import LOCAL_REWARD_SITE, SE_RELEASE_SITE, TREE_SITE, AdaptiveTree
from htbandits.seeding import (
    ELIMINATION_NOISE,
    PERTURBATION_NOISE,
    TREE_NOISE,
    derive_stream,
)

from conftest import constant_samplers, drive


class HalvingSource(NoiseSource):
    """Fault injection: draws (and records) at half the requested scale."""

    def draw(self, scale, site, bound, eps, count):
        return super().draw(scale * 0.5, site, bound, eps, count)


class HalvingTree(AdaptiveTree):
    """Fault injection: gives its values' noise half their scale.

    The tree computes each draw's scale (``_scales``), draws its noise at that
    scale and records it when it adds the value, so the draws are made and
    recorded at half scale.
    """

    def _scales(self, values, bounds):
        return [scale * 0.5 for scale in super()._scales(values, bounds)]


def run_halved(run, ledger) -> None:
    """``run(ledger)`` with every draw made and recorded at half its scale.

    The sources draw the elimination policies' noise (``HalvingSource``), and
    the trees compute the scales of the index policy's (``HalvingTree``).
    """
    real = policies.AdaptiveTree
    policies.AdaptiveTree = HalvingTree
    try:
        run(ledger, cls=HalvingSource)
    finally:
        policies.AdaptiveTree = real


def sources(n: int, purpose: int, ledger, cls=NoiseSource) -> list:
    return [
        cls(rng=derive_stream(0, 0, arm=a, purpose=purpose), ledger=ledger)
        for a in range(n)
    ]


def clean_dprucb(ledger, cls=NoiseSource) -> None:
    policy = DPRobustUCB(
        MomentParams(u=1.0, v=0.9),
        1.0,
        500,
        sources(3, TREE_NOISE, ledger, cls),
    )
    drive(policy, constant_samplers([0.5, 0.3, 0.1]), 500)


def clean_dprse(ledger, cls=NoiseSource) -> None:
    policy = DPRobustSE(
        MomentParams(u=4e-4, v=1.0),
        1.0,
        300,
        sources(2, ELIMINATION_NOISE, ledger, cls),
        beta=0.1,
    )
    drive(policy, constant_samplers([0.02, 0.004]), 60)


def clean_ldprse(ledger, cls=NoiseSource) -> None:
    policy = LDPRobustSE(
        MomentParams(u=2e-3, v=1.0),
        1.0,
        10_000,
        sources(2, PERTURBATION_NOISE, ledger, cls),
        beta=0.1,
    )
    drive(policy, constant_samplers([0.2, 0.02]), 6400)


def run_single_dprucb(ledger, cls=NoiseSource) -> None:
    """A ``run_single`` repetition of dprucb, whose policy computes pulls ahead.

    ``make_policy`` builds each arm's source as ``cls``.
    """
    config = ExperimentConfig(
        algo="dprucb", setting="S1", v=0.9, eps=1.0, horizon=500, reps=1, base_seed=0
    )
    real = harness.NoiseSource
    harness.NoiseSource = cls
    try:
        run_single(config, 0, ledger=ledger)
    finally:
        harness.NoiseSource = real


@pytest.mark.parametrize("run", [clean_dprucb, clean_dprse, clean_ldprse, run_single_dprucb])
def test_clean_runs_pass_the_audit(run) -> None:
    ledger = PrivacyLedger()
    run(ledger)
    report = audit_run(ledger)
    assert report.ok, report.findings


@pytest.mark.parametrize(
    "run,site",
    [
        (clean_dprucb, TREE_SITE),
        (clean_dprse, SE_RELEASE_SITE),
        (clean_ldprse, LOCAL_REWARD_SITE),
        (run_single_dprucb, TREE_SITE),
    ],
)
def test_halved_noise_scale_is_flagged_at_its_site(run, site) -> None:
    ledger = PrivacyLedger()
    run_halved(run, ledger)
    report = audit_run(ledger)
    assert not report.ok
    flagged_sites = {f.site for f in report.findings}
    assert site in flagged_sites


def test_bound_violating_insertion_is_flagged_with_its_index() -> None:
    ledger = PrivacyLedger()
    clean_dprucb(ledger)
    ledger.record_insertion(0, owner=0, value=10.0, bound=1.0)
    report = audit_run(ledger)
    assert not report.ok
    finding = next(f for f in report.findings if f.site == "insertion")
    assert finding.index == len(ledger.insertions) - 1
    assert "exceeds bound" in finding.message


def test_cross_arm_insertion_breaks_disjointness() -> None:
    ledger = PrivacyLedger()
    clean_dprucb(ledger)
    # arm 1's data routed into arm 0's tree
    ledger.record_insertion(0, owner=1, value=0.1, bound=1.0)
    report = audit_run(ledger)
    assert any(f.site == "disjointness" for f in report.findings)


def test_shared_mechanism_across_arms_breaks_disjointness() -> None:
    ledger = PrivacyLedger()
    clean_dprucb(ledger)
    ledger.register_mechanism("tree", owner=0)  # second tree claiming arm 0
    report = audit_run(ledger)
    assert any(f.site == "disjointness" for f in report.findings)


def test_a_draw_at_an_unknown_site_is_rejected_when_recorded() -> None:
    ledger = PrivacyLedger()
    clean_dprse(ledger)
    recorded = len(ledger.noise_draws)
    with pytest.raises(ValueError, match="unknown draw site 'mystery'"):
        ledger.record_draw("mystery", 1.0, 1.0, 1.0, 0)
    assert len(ledger.noise_draws) == recorded
    assert all(len(column) == recorded for column in ledger.noise_draws.columns)
    assert audit_run(ledger).ok


def test_local_draw_count_mismatch_is_flagged() -> None:
    ledger = PrivacyLedger()
    clean_ldprse(ledger)
    ledger.epochs[0].pulls_per_arm += 1  # ledger now implies 2 more draws
    report = audit_run(ledger)
    finding = next(f for f in report.findings if f.site == LOCAL_REWARD_SITE)
    assert "epoch ledger" in finding.message


def test_central_draw_count_mismatch_is_flagged() -> None:
    ledger = PrivacyLedger()
    clean_dprse(ledger)
    ledger.record_draw(SE_RELEASE_SITE, 1.0, 1.0, 1.0, 2)
    report = audit_run(ledger)
    assert any(f.site == SE_RELEASE_SITE for f in report.findings)

@pytest.mark.parametrize(
    "site,context",
    [
        (TREE_SITE, (1.0, 1.0, 1)),  # horizon 1: ln(1) = 0 divides the budget
        (TREE_SITE, (1.0, 1.0, 0)),  # horizon 0 has no logarithm
        (SE_RELEASE_SITE, (1.0, 1.0, 0)),  # a release over no pulls
        (LOCAL_REWARD_SITE, (1.0, 0.0, 0)),  # eps 0
    ],
)
def test_a_draw_without_a_mandated_scale_is_flagged_and_the_audit_goes_on(
    site, context
) -> None:
    ledger = PrivacyLedger()
    ledger.record_draw(site, 1.0, *context)
    ledger.record_draw(TREE_SITE, 1.0, 1.0, 1.0, 64)  # mandated 2 ln 64
    report = audit_run(ledger)
    located = [(f.site, f.index) for f in report.findings if f.index >= 0]
    assert located == [(site, 0), (TREE_SITE, 1)]
    assert "no mandated scale" in report.findings[0].message
    assert "differs from mandated" in report.findings[1].message


@pytest.mark.parametrize("value,bound", [(float("nan"), 1.0), (0.5, float("nan"))])
def test_a_nan_insertion_is_flagged_with_its_index(value, bound) -> None:
    ledger = PrivacyLedger()
    clean_dprucb(ledger)
    ledger.record_insertion(0, owner=0, value=value, bound=bound)
    report = audit_run(ledger)
    assert [(f.site, f.index) for f in report.findings] == [
        ("insertion", len(ledger.insertions) - 1)
    ]
    assert "exceeds bound" in report.findings[0].message
