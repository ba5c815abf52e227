"""Per-layer span timing, installed from outside the program.

Each wrapper times one call into a public function or method of an
``htbandits`` module and charges it to a span name ``<layer>.<what>``.  A
wrapper is installed at the name its caller looks up: ``policies.py`` imports
``private_ucb_radius`` by name, so the wrapper replaces
``htbandits.policies.private_ucb_radius``; methods are replaced on their
class.  Install before the first run: ``run_single`` binds
``policy.select_arm`` and ``model.sample`` once per repetition.

Spans are aggregated per name as they close (calls, inclusive time, time of
timed children), because one run makes millions of them.  A span's self time
is its inclusive time minus the inclusive time of the spans it directly
contains.
"""

import functools
from time import perf_counter_ns

import htbandits
from htbandits import distributions, harness, mechanisms, policies

POLICY_CLASSES = (
    policies.DPRobustUCB,
    policies.DPRobustSE,
    policies.LDPRobustSE,
    policies.RobustUCB,
)

# span name -> (owner, attribute) pairs whose calls it times.
TARGETS = {
    "seeding.derive_stream": [(harness, "derive_stream")],
    "distributions.sample": [
        (distributions.ParetoModel, "sample"),
        (distributions.FiniteSupportModel, "sample"),
    ],
    "schedules.private_ucb_radius": [(policies, "private_ucb_radius")],
    "schedules.private_ucb_truncation": [(policies, "private_ucb_truncation")],
    "schedules.se_schedule": [
        (policies, "central_se_schedule"),
        (policies, "local_se_schedule"),
    ],
    "schedules.nonprivate_ucb": [
        (policies, "nonprivate_ucb_radius"),
        (policies, "nonprivate_ucb_threshold"),
    ],
    "mechanisms.tree_insert": [(mechanisms.AdaptiveTree, "insert")],
    "mechanisms.noise_draw": [(mechanisms.NoiseSource, "draw")],
    "mechanisms.ledger_record": [
        (mechanisms.PrivacyLedger, name)
        for name in ("register_mechanism", "record_draw", "record_insertion", "record_epoch")
    ],
    "policies.select_arm": [(cls, "select_arm") for cls in POLICY_CLASSES],
    "policies.observe": [(cls, "observe") for cls in POLICY_CLASSES],
    "harness.make_policy": [(harness, "make_policy")],
    # Called by the benchmark through the package namespace.
    "harness.make_instance_for": [(htbandits, "make_instance_for")],
    "harness.run_single": [(htbandits, "run_single")],
    "harness.aggregate": [(htbandits, "aggregate")],
    "harness.write_csv": [(htbandits, "write_csv")],
    "harness.read_runs_csv": [(htbandits, "read_runs_csv")],
    "audit.audit_run": [(htbandits, "audit_run")],
}


class Tracer:
    """Span totals per name, plus the time covered by outermost spans."""

    def __init__(self):
        self.stats = {}  # name -> [calls, inclusive_ns, children_ns]
        self.outermost_ns = 0
        self._stack = []  # inclusive time of closed children, per open span

    def wrap(self, name, fn):
        stats = self.stats.setdefault(name, [0, 0, 0])
        stack = self._stack

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack.append(0)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter_ns() - start
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += stack.pop()
                if stack:
                    stack[-1] += elapsed
                else:
                    self.outermost_ns += elapsed

        return span

    def install(self):
        for name, sites in TARGETS.items():
            for owner, attr in sites:
                setattr(owner, attr, self.wrap(name, getattr(owner, attr)))

    def summary(self) -> dict:
        """``{name: {"calls", "s", "self_s"}}`` for every installed span."""
        return {
            name: {
                "calls": calls,
                "s": total_ns * 1e-9,
                "self_s": (total_ns - children_ns) * 1e-9,
            }
            for name, (calls, total_ns, children_ns) in self.stats.items()
        }
