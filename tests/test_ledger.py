"""The columnar privacy ledger against the one-record-per-draw lists it replaced.

``ReferenceLedger`` keeps every draw and insertion as one tuple in a list, and
``reference_audit`` is the audit over those records.  Runs recorded into
either ledger must give the same records, the columnar ledger's read row by
row from its columns, and the same audit findings; the columnar ledger must
also hold a fraction of the memory and reject at record time what its columns
cannot hold, a draw at an unknown site included.
"""

from __future__ import annotations

import math
import tracemalloc

import pytest

from htbandits import (
    ExperimentConfig,
    PrivacyLedger,
    audit_run,
    make_instance_for,
    run_single,
)
from htbandits.mechanisms import (
    LOCAL_REWARD_SITE,
    SE_RELEASE_SITE,
    TREE_SITE,
    EpochRecord,
    MechanismRecord,
)

from conftest import draw_rows, insertion_rows
from test_audit import clean_dprse, clean_dprucb, clean_ldprse, run_halved


class ReferenceLedger:
    """One record per draw and insertion, kept in lists as plain tuples.

    A draw is ``(site, scale, bound, eps, count)``, an insertion
    ``(mechanism, owner, value, bound)``, as given.
    """

    def __init__(self):
        self.noise_draws = []
        self.insertions = []
        self.mechanisms = []
        self.epochs = []

    def register_mechanism(self, kind, owner):
        self.mechanisms.append(MechanismRecord(kind=kind, owner=owner))
        return len(self.mechanisms) - 1

    def record_draw(self, site, scale, bound, eps, count):
        self.noise_draws.append((site, scale, bound, eps, count))

    def record_insertion(self, mechanism, owner, value, bound):
        self.insertions.append((mechanism, owner, value, bound))

    def record_epoch(self, kind, epoch, num_viable, pulls_per_arm):
        record = EpochRecord(
            kind=kind, epoch=epoch, num_viable=num_viable, pulls_per_arm=pulls_per_arm
        )
        self.epochs.append(record)
        return record


def _reference_mandated_scale(site, bound, eps, count):
    if site == TREE_SITE:
        return 2.0 * bound / (eps / math.log(count))
    if site == SE_RELEASE_SITE:
        return 2.0 * bound / (count * eps)
    if site == LOCAL_REWARD_SITE:
        return 2.0 * bound / eps
    raise KeyError(site)


def reference_audit(ledger: ReferenceLedger) -> list:
    """The audit over one record per draw and insertion, as ``(site, index, message)``."""
    findings = []

    def add(site, index, message):
        findings.append((site, index, message))

    for i, (site, scale, bound, eps, count) in enumerate(ledger.noise_draws):
        mandated = _reference_mandated_scale(site, bound, eps, count)
        if scale != mandated:
            add(site, i, f"scale {scale!r} differs from mandated {mandated!r}")

    num_mechs = len(ledger.mechanisms)
    for i, (mechanism, owner, value, bound) in enumerate(ledger.insertions):
        if not 0 <= mechanism < num_mechs:
            add("insertion", i, f"unregistered mechanism {mechanism}")
            continue
        if abs(value) > bound:
            add("insertion", i, f"|value| = {abs(value)!r} exceeds bound {bound!r}")
        registered = ledger.mechanisms[mechanism].owner
        if owner != registered:
            add(
                "disjointness",
                i,
                f"mechanism {mechanism} (arm {registered}) received data of arm {owner}",
            )

    seen_owners: dict = {}
    for m, mech in enumerate(ledger.mechanisms):
        if mech.owner is None:
            continue
        key = (mech.kind, mech.owner)
        if key in seen_owners:
            add(
                "disjointness",
                m,
                f"arm {mech.owner} feeds two {mech.kind!r} mechanisms "
                f"({seen_owners[key]} and {m})",
            )
        else:
            seen_owners[key] = m

    central_draws = sum(1 for draw in ledger.noise_draws if draw[0] == SE_RELEASE_SITE)
    local_draws = sum(1 for draw in ledger.noise_draws if draw[0] == LOCAL_REWARD_SITE)
    expected_central = sum(
        e.num_viable for e in ledger.epochs if e.kind == "central_se" and e.completed
    )
    expected_local = sum(
        e.num_viable * e.pulls_per_arm
        for e in ledger.epochs
        if e.kind == "local_se" and e.completed
    )
    open_local = sum(
        e.num_viable * e.pulls_per_arm
        for e in ledger.epochs
        if e.kind == "local_se" and not e.completed
    )
    has_central = any(e.kind == "central_se" for e in ledger.epochs) or central_draws > 0
    has_local = any(e.kind == "local_se" for e in ledger.epochs) or local_draws > 0
    if has_central and central_draws != expected_central:
        add(
            SE_RELEASE_SITE,
            -1,
            f"{central_draws} release draws, epoch ledger implies {expected_central}",
        )
    if has_local and not (expected_local <= local_draws <= expected_local + open_local):
        add(
            LOCAL_REWARD_SITE,
            -1,
            f"{local_draws} per-reward draws, epoch ledger implies "
            f"{expected_local} (+ at most {open_local} in flight)",
        )
    return findings


# (algo, setting, eps, horizon, elimination epochs the run completes)
HARNESS_RUNS = [
    ("dprucb", "S1", 1.0, 3000, 0),
    ("dprse", "two_arm_hard", 100.0, 5000, 2),
    ("ldprse", "two_arm_hard", 1000.0, 5000, 1),
]


def record_harness_run(ledger, algo, setting, eps, horizon):
    config = ExperimentConfig(
        algo=algo, setting=setting, v=0.9, eps=eps, horizon=horizon, reps=1, base_seed=7
    )
    _, policy = run_single(config, 0, ledger=ledger, return_policy=True)
    return policy


def assert_same_draw(got, want) -> None:
    (site, *floats, count), (want_site, *want_floats, want_count) = got, want
    assert site == want_site
    assert list(map(float.hex, floats)) == list(map(float.hex, want_floats))  # scale, bound, eps
    assert type(count) is int and count == want_count


def assert_same_insertion(got, want) -> None:
    (mechanism, owner, *floats), (want_mechanism, want_owner, *want_floats) = got, want
    assert type(mechanism) is int and mechanism == want_mechanism
    assert owner == want_owner
    assert list(map(float.hex, floats)) == list(map(float.hex, want_floats))  # value, bound


def assert_same_rows(table, rows, records, same) -> None:
    """``rows``, read from ``table``'s columns, are ``records``."""
    assert len(table) == len(rows) == len(records) >= 4
    for got, want in zip(rows, records):
        same(got, want)


@pytest.mark.parametrize("algo,setting,eps,horizon,epochs", HARNESS_RUNS)
def test_columnar_ledger_reads_like_the_record_lists(algo, setting, eps, horizon, epochs):
    ledger, reference = PrivacyLedger(), ReferenceLedger()
    policy = record_harness_run(ledger, algo, setting, eps, horizon)
    record_harness_run(reference, algo, setting, eps, horizon)
    assert len(getattr(policy, "completed_epochs", ())) == epochs
    assert_same_rows(
        ledger.noise_draws, draw_rows(ledger), reference.noise_draws, assert_same_draw
    )
    assert_same_rows(
        ledger.insertions, insertion_rows(ledger), reference.insertions, assert_same_insertion
    )
    assert ledger.mechanisms == reference.mechanisms
    assert ledger.epochs == reference.epochs


def findings(report) -> list:
    return [(f.site, f.index, f.message) for f in report.findings]


def halved(run):
    return lambda ledger: run_halved(run, ledger)


def bound_violation(ledger):
    clean_dprucb(ledger)
    ledger.record_insertion(0, owner=0, value=10.0, bound=1.0)


def cross_arm_insertion(ledger):
    clean_dprucb(ledger)
    ledger.record_insertion(0, owner=1, value=0.1, bound=1.0)


def ownerless_insertion(ledger):
    clean_dprucb(ledger)
    ledger.record_insertion(2, owner=None, value=0.1, bound=1.0)


def unregistered_mechanism(ledger):
    clean_dprucb(ledger)
    ledger.record_insertion(99, owner=0, value=0.1, bound=1.0)


def shared_mechanism(ledger):
    clean_dprucb(ledger)
    ledger.register_mechanism("tree", owner=0)


def local_count_mismatch(ledger):
    clean_ldprse(ledger)
    ledger.epochs[0].pulls_per_arm += 1


def central_count_mismatch(ledger):
    clean_dprse(ledger)
    ledger.record_draw(SE_RELEASE_SITE, 1.0, 1.0, 1.0, 2)


RUNS = {
    "clean_dprucb": clean_dprucb,
    "clean_dprse": clean_dprse,
    "clean_ldprse": clean_ldprse,
    **{
        f"harness_{algo}": (
            lambda ledger, args=(algo, setting, eps, horizon): record_harness_run(ledger, *args)
        )
        for algo, setting, eps, horizon, _ in HARNESS_RUNS
    },
    "halved_dprucb": halved(clean_dprucb),
    "halved_dprse": halved(clean_dprse),
    "halved_ldprse": halved(clean_ldprse),
    "bound_violation": bound_violation,
    "cross_arm_insertion": cross_arm_insertion,
    "ownerless_insertion": ownerless_insertion,
    "unregistered_mechanism": unregistered_mechanism,
    "shared_mechanism": shared_mechanism,
    "local_count_mismatch": local_count_mismatch,
    "central_count_mismatch": central_count_mismatch,
}


@pytest.mark.parametrize("name", RUNS)
def test_column_audit_gives_the_record_audit_findings(name) -> None:
    ledger, reference = PrivacyLedger(), ReferenceLedger()
    RUNS[name](ledger)
    RUNS[name](reference)
    assert draw_rows(ledger) == reference.noise_draws
    assert insertion_rows(ledger) == reference.insertions
    got = findings(audit_run(ledger))
    assert got == reference_audit(reference)
    assert (got == []) == name.startswith(("clean", "harness"))


def test_audited_run_holds_under_128_bytes_per_round() -> None:
    # A round stores 13 B of transcript, a draw's site code, scale and three
    # parameters (33 B) and an insertion's four fields (24 B), plus the
    # arrays' growth slack.  One record object per draw and insertion held
    # 496 B/round.
    rounds = 50_000
    config = ExperimentConfig(
        algo="dprucb", setting="S1", v=0.9, eps=1.0, horizon=rounds, reps=1, base_seed=7
    )
    instance = make_instance_for("S1", 0.9)
    config.checkpoints()  # the memoised grid is not the run's to hold
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        ledger = PrivacyLedger()
        trace, policy = run_single(
            config, 0, instance=instance, ledger=ledger, return_policy=True
        )
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(ledger.noise_draws) == len(ledger.insertions) == rounds
    assert len(policy.transcript) == rounds
    assert trace.checkpoints[-1][0] == rounds
    assert held / rounds < 128, f"{held / rounds:.1f} B/round"


def assert_empty(ledger) -> None:
    assert len(ledger.noise_draws) == 0 and len(ledger.insertions) == 0
    assert all(len(column) == 0 for column in ledger.noise_draws.columns)
    assert all(len(column) == 0 for column in ledger.insertions.columns)


@pytest.mark.parametrize(
    "site,context",
    [
        (TREE_SITE, (1.0, 1.0)),  # one parameter short
        (LOCAL_REWARD_SITE, (1.0, 1.0, 0, 3)),  # one too many
        (SE_RELEASE_SITE, (1.0, 1.0, 2.5)),  # pulls=2.5
        (SE_RELEASE_SITE, (1.0, 1.0, 2.0)),  # pulls as a float
        (TREE_SITE, (1.0, 1.0, 2**63)),  # horizon past 64 bits
        (TREE_SITE, (1.0, "1.0", 64)),  # eps not a number
        ("mystery", (1.0, 1.0, 0)),  # a site no mechanism draws at
    ],
)
def test_draws_the_columns_cannot_hold_are_rejected(site, context) -> None:
    # A draw takes a bound, an eps and a count; another number of them is
    # Python's own TypeError, anything else the columns cannot hold a ValueError.
    ledger = PrivacyLedger()
    with pytest.raises(ValueError if len(context) == 3 else TypeError):
        ledger.record_draw(site, 1.0, *context)
    assert_empty(ledger)


@pytest.mark.parametrize(
    "mechanism,owner,value,bound",
    [
        (0, -1, 0.5, 1.0),  # negative owner
        (0, 1.5, 0.5, 1.0),  # owner not an int
        (2**40, 0, 0.5, 1.0),  # mechanism past the column's range
        (0, 0, 0.5, None),  # bound not a number
    ],
)
def test_insertions_the_columns_cannot_hold_are_rejected(mechanism, owner, value, bound):
    ledger = PrivacyLedger()
    with pytest.raises(ValueError):
        ledger.record_insertion(mechanism, owner, value, bound)
    assert_empty(ledger)


def test_a_rejected_record_leaves_the_earlier_ones_whole() -> None:
    ledger, reference = PrivacyLedger(), ReferenceLedger()
    for target in (ledger, reference):
        target.record_draw(TREE_SITE, 2.0, 1.0, 0.5, 64)
        target.record_draw(LOCAL_REWARD_SITE, 3.0, 1.5, 1.0, 0)
        target.record_insertion(0, None, 0.25, 1.0)
    with pytest.raises(ValueError):
        ledger.record_draw(SE_RELEASE_SITE, 1.0, 1.0, 1.0, 2.5)
    with pytest.raises(ValueError):
        ledger.record_draw("mystery", 1.0, 1.0, 1.0, 0)
    with pytest.raises(ValueError):
        ledger.record_insertion(0, 0, 0.5, "bound")
    assert draw_rows(ledger) == reference.noise_draws
    assert ledger.noise_draws.columns[-1][1] == 0
    assert insertion_rows(ledger) == reference.insertions
    assert all(len(column) == 2 for column in ledger.noise_draws.columns)
    assert all(len(column) == 1 for column in ledger.insertions.columns)
