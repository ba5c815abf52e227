"""One benchmark process: a set-up probe or a closed-loop workload run.

``run.py`` starts this script in a fresh interpreter with ``PYTHONPATH``
pointing at the checkout's ``src``.  It takes one JSON object as its only
argument and prints one JSON object as its last line of output.

Roles:

- ``setup``: time importing ``htbandits``, building the workload's first
  instance and constructing its first policy.
- ``run``: play units of the workload back to back (closed loop, one
  process, no worker pool) until ``seconds`` have passed or ``units`` units
  (if given) are done, checking every repetition's output.  With ``trace``
  set, the per-layer wrappers are installed first; without it, the progress
  sampler of ``pace.py`` runs.
"""

import contextlib
import hashlib
import json
import math
import os
import resource
import sys
import tempfile
import time
from pathlib import Path

import pace
from workloads import WORKLOADS, V

# numpy and htbandits are imported inside the functions that use them, so
# that the set-up probe's timer covers their import.

# Transcript entries inspected per policy to compute bytes per round.
TRANSCRIPT_SAMPLE = 1024
# Failure messages kept for the report.
MAX_MESSAGES = 20


def setup_probe(workload, seed: int) -> dict:
    start = time.perf_counter()
    import htbandits as hb

    algo, setting, eps = workload.cells[0]
    config = hb.ExperimentConfig(
        algo=algo, setting=setting, v=V, eps=eps, horizon=workload.horizon,
        reps=workload.reps_per_cell, base_seed=seed,
    )
    instance = hb.make_instance_for(setting, V)
    hb.make_policy(config, instance, 0, ledger=hb.PrivacyLedger() if workload.audited else None)
    setup_s = time.perf_counter() - start
    return {"setup_s": setup_s, "reference_s": pace.reference_seconds(5), "module": hb.__file__}


class Tally:
    """Counts, timings and digests accumulated over a run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.rounds = 0
        self.clock = pace.Clock()
        self.reference_s = math.inf
        self.digests = []
        self.epochs_completed = 0
        self.committed_rounds = 0
        self.transcript_bytes = 0.0
        self.audit_records = 0
        self.audit_findings = 0
        self.csv_bytes = 0

    def fail(self, label: str, problems) -> None:
        self.failed += 1
        if len(self.failures) < MAX_MESSAGES:
            self.failures.append(f"{label}: {'; '.join(problems)}")


def transcript_bytes_per_round(transcript) -> float:
    """Computed memory per transcript entry, from ``sys.getsizeof``.

    Sums the list slot, the entry and each distinct object it references over
    an evenly spaced sample; objects shared between entries count once.
    """
    n = len(transcript)
    step = max(1, n // TRANSCRIPT_SAMPLE)
    sample = transcript[::step]
    seen = set()
    total = 8 * len(sample)
    for entry in sample:
        for obj in (entry, *entry):
            if id(obj) not in seen:
                seen.add(id(obj))
                total += sys.getsizeof(obj)
    return total / len(sample)


def check_repetition(np, trace, policy, gaps, horizon: int) -> list:
    """Problems with one repetition's outputs; empty when all checks pass."""
    problems = []
    cps = [t for t, _ in trace.checkpoints]
    values = [value for _, value in trace.checkpoints]
    if not cps or cps[-1] != horizon:
        problems.append(f"last checkpoint is {cps[-1:]}, not T={horizon}")
    if any(b < a for a, b in zip(values, values[1:])):
        problems.append("regret decreases between checkpoints")
    transcript = policy.transcript
    if len(transcript) != horizon:
        problems.append(f"transcript has {len(transcript)} rounds, not T={horizon}")
    if problems or any(b <= a for a, b in zip(cps, cps[1:])) or cps[0] < 1:
        return problems or ["checkpoint rounds are not strictly increasing"]
    # Pseudo-regret recomputed from the arms actually played.
    arms = np.fromiter((e.arm for e in transcript), dtype=np.int64, count=horizon)
    at = np.asarray(cps) - 1
    counts = [np.cumsum(arms == a)[at].tolist() for a in range(len(gaps))]
    expected = [math.fsum(g * c for g, c in zip(gaps, col)) for col in zip(*counts)]
    if expected != values:
        problems.append("checkpoint regret does not match the arms played")
    return problems


def run_unit(hb, np, workload, horizon: int, seed: int, unit: int, out: Path, tally: Tally) -> None:
    """Play one unit: every cell's repetitions, then its CSV round trip."""
    rpc = workload.reps_per_cell
    clock = tally.clock
    clock.start_unit()
    digest = hashlib.sha256()
    for index, (algo, setting, eps) in enumerate(workload.cells):
        config = hb.ExperimentConfig(
            algo=algo, setting=setting, v=V, eps=eps, horizon=horizon, reps=rpc,
            base_seed=seed,
        )
        label = f"{algo}/{setting}/eps={eps:g}"
        start = clock.begin(simulates=False)
        instance = hb.make_instance_for(setting, V)
        clock.end(start)
        traces = []
        failed_reps = set()
        for rep in range(unit * rpc, (unit + 1) * rpc):
            tally.attempted += 1
            try:
                start = clock.begin(simulates=True)
                ledger = hb.PrivacyLedger() if workload.audited else None
                trace, policy = hb.run_single(
                    config, rep, instance=instance, ledger=ledger, return_policy=True
                )
                report = hb.audit_run(ledger) if workload.audited else None
                clock.end(start, horizon)
                tally.rounds += horizon
                problems = check_repetition(np, trace, policy, instance.gaps, horizon)
                if report is not None:
                    tally.audit_records += (
                        len(ledger.noise_draws) + len(ledger.insertions)
                        + len(ledger.mechanisms) + len(ledger.epochs)
                    )
                    tally.audit_findings += len(report.findings)
                    if report.findings:
                        problems.append(
                            f"audit: {len(report.findings)} findings, first {report.findings[0]}"
                        )
                tally.epochs_completed += len(getattr(policy, "completed_epochs", ()))
                tally.committed_rounds += sum(1 for e in policy.transcript if e.committed)
                tally.transcript_bytes += transcript_bytes_per_round(policy.transcript) * horizon
                del policy, ledger
                traces.append(trace)
            except Exception as exc:
                problems = [f"{type(exc).__name__}: {exc}"]
            if problems:
                failed_reps.add(rep)
                tally.fail(f"{label} rep {rep}", problems)
        if traces:
            try:
                start = clock.begin(simulates=False)
                summary = hb.aggregate(traces)
                paths = hb.write_csv(out / f"cell{index}", config, instance, traces, summary)
                read_back = hb.read_runs_csv(paths["runs"])
                clock.end(start)
                for kind in ("runs", "summary"):
                    digest.update(paths[kind].read_bytes())
                tally.csv_bytes += sum(p.stat().st_size for p in paths.values())
                problems = [] if read_back == traces else ["runs.csv does not read back"]
            except Exception as exc:
                problems = [f"{type(exc).__name__}: {exc}"]
            for trace in traces:
                if problems and trace.rep not in failed_reps:
                    tally.fail(f"{label} rep {trace.rep}", problems)
    tally.digests.append(digest.hexdigest())


def run_workload(workload, args: dict) -> dict:
    import numpy as np

    import htbandits as hb

    tally = Tally()
    tracer = None
    if args["trace"]:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
        sampler = contextlib.nullcontext()
    else:
        sampler = pace.ProgressSampler(tally.clock, hb.harness.run_single.__code__)
    horizon = workload.smoke_horizon if args["smoke"] else workload.horizon
    out_root = Path(args["root"]) / ".bench_tmp"
    out_root.mkdir(exist_ok=True)
    start = time.perf_counter()
    units = 0
    with tempfile.TemporaryDirectory(dir=out_root) as tmp, sampler:
        while True:
            run_unit(hb, np, workload, horizon, args["seed"], units, Path(tmp), tally)
            tally.reference_s = min(tally.reference_s, pace.reference_seconds())
            units += 1
            if units == args["units"] or time.perf_counter() - start >= args["seconds"]:
                break
    try:
        out_root.rmdir()
    except OSError:
        pass  # another run still uses it
    unit_rounds, best_unit_s = pace.best_unit(tally.clock)
    return {
        "units": units,
        "rounds": tally.rounds,
        "unit_s": tally.clock.unit_seconds(),
        "best_unit_rounds": unit_rounds,
        "best_unit_s": best_unit_s,
        "reference_s": tally.reference_s,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failures": tally.failures,
        "digests": tally.digests,
        "counters": {
            "epochs_completed": tally.epochs_completed,
            "committed_rounds": tally.committed_rounds,
            "transcript_bytes": tally.transcript_bytes,
            "audit_records": tally.audit_records,
            "audit_findings": tally.audit_findings,
            "csv_bytes": tally.csv_bytes,
        },
        "spans": tracer.summary() if tracer else None,
        "outermost_s": tracer.outermost_ns * 1e-9 if tracer else None,
        "maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "numpy": np.__version__,
        "module": hb.__file__,
    }


def main() -> None:
    args = json.loads(sys.argv[1])
    if args["cpu"] is not None:
        os.sched_setaffinity(0, {args["cpu"]})
    workload = WORKLOADS[args["workload"]]
    if args["role"] == "setup":
        result = setup_probe(workload, args["seed"])
    else:
        result = run_workload(workload, args)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
