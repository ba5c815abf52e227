"""Post-hoc privacy audit over a run's :class:`~htbandits.mechanisms.PrivacyLedger`.

The audit recomputes, independently of the policies, the Laplace scale each
draw site mandates from the draw's recorded bound, eps and count, and compares
it exactly against the recorded scale.  The ledger rejects a draw at any site
but the three the mechanisms draw at, so every recorded draw has a mandate.  It
also checks that every inserted value respected its magnitude bound, that
per-arm mechanisms received only their own arm's data (the precondition for
parallel composition), and that elimination runs drew exactly as much noise as
their epoch ledger implies.  Audit a finished run; a run stopped mid-epoch can
legitimately trail its epoch ledger.

The audit reads the ``columns`` of the ledger's draw and insertion tables
(:class:`~htbandits.mechanisms.RecordTable`) and builds no record, so it holds
no more memory than the run's ledger.
"""

import math
from dataclasses import dataclass, field

from .mechanisms import (
    CENTRAL_EPOCH_KIND,
    LOCAL_EPOCH_KIND,
    LOCAL_REWARD_SITE,
    SE_RELEASE_SITE,
    TREE_SITE,
    _NO_OWNER,
    _SITE_CODE,
    _SITES,
    PrivacyLedger,
)

__all__ = ["AuditFinding", "AuditReport", "audit_run"]


@dataclass(frozen=True)
class AuditFinding:
    """One violation: the offending site/check and the record index."""

    site: str
    index: int
    message: str


@dataclass
class AuditReport:
    """Audit outcome; ``ok`` means no findings."""

    findings: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.findings

    def add(self, site: str, index: int, message: str) -> None:
        self.findings.append(AuditFinding(site=site, index=index, message=message))


def audit_run(ledger: PrivacyLedger) -> AuditReport:
    """Check a recorded run against the privacy accounting rules.

    Returns an :class:`AuditReport`; each finding names the offending site or
    check and the index of the violating record.  The audit reads the ledger's
    columns and builds no record.
    """
    report = AuditReport()

    codes, scales, bounds, epss, counts = ledger.noise_draws.columns
    tree = _SITE_CODE[TREE_SITE]
    release = _SITE_CODE[SE_RELEASE_SITE]
    local = _SITE_CODE[LOCAL_REWARD_SITE]
    log = math.log
    for i, (code, scale, bound, eps, count) in enumerate(
        zip(codes, scales, bounds, epss, counts)
    ):
        # These expressions must match, operation for operation, the ones the
        # policies use, so clean runs compare bit-equal.  ``count`` is the
        # tree's horizon and the release's pulls, an int as recorded.
        try:
            if code == tree:
                mandated = 2.0 * bound / (eps / log(count))
            elif code == release:
                mandated = 2.0 * bound / (count * eps)
            else:
                mandated = 2.0 * bound / eps
        except (ZeroDivisionError, ValueError) as exc:
            # A zero eps or pulls, or a horizon below 2, mandates no scale.
            report.add(
                _SITES[code],
                i,
                f"no mandated scale for bound {bound!r}, eps {eps!r}, "
                f"count {count!r}: {exc}",
            )
            continue
        if scale != mandated:
            report.add(
                _SITES[code],
                i,
                f"scale {scale!r} differs from mandated {mandated!r}",
            )

    mechanisms = ledger.mechanisms
    num_mechs = len(mechanisms)
    for i, (mech, owner, value, bound) in enumerate(zip(*ledger.insertions.columns)):
        if not 0 <= mech < num_mechs:
            report.add("insertion", i, f"unregistered mechanism {mech}")
            continue
        if not abs(value) <= bound:  # NaN fails too
            report.add(
                "insertion",
                i,
                f"|value| = {abs(value)!r} exceeds bound {bound!r}",
            )
        owner = None if owner == _NO_OWNER else owner
        registered = mechanisms[mech].owner
        if owner != registered:
            report.add(
                "disjointness",
                i,
                f"mechanism {mech} (arm {registered}) received data of arm {owner}",
            )

    seen_owners: dict = {}
    for m, mech in enumerate(mechanisms):
        if mech.owner is None:
            continue
        key = (mech.kind, mech.owner)
        if key in seen_owners:
            report.add(
                "disjointness",
                m,
                f"arm {mech.owner} feeds two {mech.kind!r} mechanisms "
                f"({seen_owners[key]} and {m})",
            )
        else:
            seen_owners[key] = m

    central_draws = codes.count(release)
    local_draws = codes.count(local)
    expected_central = sum(
        e.num_viable for e in ledger.epochs if e.kind == CENTRAL_EPOCH_KIND and e.completed
    )
    local_pulls = [
        (e.num_viable * e.pulls_per_arm, e.completed)
        for e in ledger.epochs
        if e.kind == LOCAL_EPOCH_KIND
    ]
    expected_local = sum(n for n, done in local_pulls if done)
    open_local = sum(n for n, done in local_pulls if not done)
    if central_draws != expected_central:
        report.add(
            SE_RELEASE_SITE,
            -1,
            f"{central_draws} release draws, epoch ledger implies {expected_central}",
        )
    if not expected_local <= local_draws <= expected_local + open_local:
        report.add(
            LOCAL_REWARD_SITE,
            -1,
            f"{local_draws} per-reward draws, epoch ledger implies "
            f"{expected_local} (+ at most {open_local} in flight)",
        )
    return report
