"""htbandits benchmark: run one workload and print its metrics.

Usage, from any directory of a checkout::

    python3 bench/run.py --workload ucb_s1 --seed 7 --seconds 20 --trace 0
    python3 bench/run.py --smoke

Workloads (``workloads.py``): ``ucb_s1`` and ``audited_grid``.
Each is played as a closed loop in one fresh child process with no worker
pool: the next unit of work starts only when the previous one has ended.
Every child is pinned to the CPU that is fastest when it starts (``pace.py``).

``--trace 0`` prints the end-to-end metrics, measured with tracing off:

- ``rounds_per_s``: simulated rounds of one unit / timed seconds of one unit
  at the fastest speed the run saw for each slice of it, scaled to the
  nominal reference speed (``pace.py``).  Timed is the workload's own work
  (instance build, ``run_single``, ledger and ``audit_run``, ``aggregate``,
  ``write_csv``, ``read_runs_csv``), not the benchmark's output checks.  The
  report also prints the unscaled best rate and the plain mean rate.
- ``setup_s``: median over fresh interpreters of the time to import
  ``htbandits``, build the workload's first instance and construct its first
  policy, each scaled to the nominal reference speed.  Probes run before and
  after the workload, so they see more than one state of a shared host.
- ``peak_rss_mib``: ``ru_maxrss`` of the workload's child process.

``--trace 1`` repeats the untraced run, then replays its first units, for at
most half of ``--seconds``, in a second child with per-layer wrappers
installed (``tracing.py``) and prints the per-layer metrics, each per unit of
work.  Both runs must write identical CSV bytes for every replayed unit; a
mismatch counts as a failure.

A repetition fails if it raises, if its regret trace decreases or does not
end at T, if its regret does not match the arms its transcript played, if its
transcript is not T long, if its audit has findings, or if its cell's
``runs.csv`` does not read back.  ``failed``/``attempted`` in the result line
count repetitions; ``fail_ratio`` is their ratio.

Seeds: the baseline digests in ``baseline.json`` were recorded with seeds 7
(the default) and 11; confirm a claimed gain with seed 11 as well.

``--smoke`` runs one unit of every workload at a tiny horizon, traced and
untraced, and asserts that every metric named in ``BENCHMARK.json`` is
reported with its unit and that no repetition failed.
``python3 -m pytest bench/test_smoke.py`` runs it as a test.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pace
from workloads import CONFIRM_SEED, DEFAULT_SEED, WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_PROBES = 7
# Every child must end within this many seconds of the benchmark's start.
BUDGET_S = 170.0

END_TO_END_UNITS = {"rounds_per_s": "rounds/s", "setup_s": "s", "peak_rss_mib": "MiB"}

# Span metrics of the traced run: (span, fields).  ``s`` is inclusive time,
# ``self_s`` excludes timed children.
SPAN_FIELDS = (
    ("schedules.private_ucb_radius", ("calls", "s")),
    ("schedules.private_ucb_truncation", ("calls", "s")),
    ("schedules.se_schedule", ("calls", "s")),
    ("schedules.nonprivate_ucb", ("calls", "s")),
    ("mechanisms.tree_insert", ("calls", "self_s")),
    ("mechanisms.noise_draw", ("calls", "s")),
    ("mechanisms.ledger_record", ("calls", "s")),
    ("distributions.sample", ("calls", "s")),
    ("policies.select_arm", ("calls", "self_s")),
    ("policies.observe", ("calls", "self_s")),
    ("seeding.derive_stream", ("calls", "s")),
    ("harness.make_policy", ("calls", "s")),
    ("harness.make_instance_for", ("s",)),
    ("harness.run_single", ("s", "self_s")),
    ("harness.aggregate", ("s",)),
    ("harness.write_csv", ("s",)),
    ("harness.read_runs_csv", ("s",)),
    ("audit.audit_run", ("calls", "s")),
)
FIELD_UNITS = {"calls": "calls/unit", "s": "s/unit", "self_s": "s/unit"}
COUNTER_UNITS = {
    "policies.epochs_completed": "epochs/unit",
    "policies.committed_share": "ratio",
    "policies.transcript_bytes_per_round": "B/round",
    "audit.records_checked": "records/unit",
    "audit.findings": "findings/unit",
    "harness.write_csv.bytes": "B/unit",
    "trace.overhead_ratio": "ratio",
    "trace.unaccounted_share": "ratio",
    "fail_ratio": "ratio",
}


class BenchError(Exception):
    """The benchmark could not measure: no program, or a child crashed."""


def per_layer_units() -> dict:
    units = {
        f"{span}.{field}": FIELD_UNITS[field]
        for span, fields in SPAN_FIELDS
        for field in fields
    }
    units.update(COUNTER_UNITS)
    return units


def child(args: dict, started: float) -> dict:
    """Run ``child.py`` in a fresh interpreter and return its JSON result."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    args = dict(args, cpu=pace.fastest_cpu())
    timeout = BUDGET_S - (time.perf_counter() - started)
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "child.py"), json.dumps(args)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=max(timeout, 1.0),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{args['role']} child exceeded the time budget") from exc
    if proc.returncode != 0:
        raise BenchError(f"{args['role']} child exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    lines = proc.stdout.splitlines()
    if not lines:
        raise BenchError(f"{args['role']} child printed no result")
    result = json.loads(lines[-1])
    module = Path(result["module"]).resolve()
    if ROOT / "src" not in module.parents:
        raise BenchError(f"child imported htbandits from {module}, not from {ROOT / 'src'}")
    return result


def setup_probes(base: dict, probes: int, started: float) -> list:
    args = dict(base, role="setup")
    return [child(args, started) for _ in range(probes)]


def layer_metrics(plain: dict, traced: dict, failed: int, attempted: int) -> dict:
    units = traced["units"]
    traced_s = sum(traced["unit_s"])
    spans = traced["spans"]
    values = {
        f"{span}.{field}": spans[span][field] / units
        for span, fields in SPAN_FIELDS
        for field in fields
    }
    counters = traced["counters"]
    values.update({
        "policies.epochs_completed": counters["epochs_completed"] / units,
        "policies.committed_share": counters["committed_rounds"] / traced["rounds"],
        "policies.transcript_bytes_per_round": counters["transcript_bytes"] / traced["rounds"],
        "audit.records_checked": counters["audit_records"] / units,
        "audit.findings": counters["audit_findings"] / units,
        "harness.write_csv.bytes": counters["csv_bytes"] / units,
        "trace.overhead_ratio": traced_s / sum(plain["unit_s"][:units]),
        "trace.unaccounted_share": 1.0 - traced["outermost_s"] / traced_s,
        "fail_ratio": failed / attempted,
    })
    return values


def measure(name: str, seed: int, trace: bool, seconds: float, smoke=False,
            probes=SETUP_PROBES) -> dict:
    """Run one workload; return its metrics, failure counts and run records."""
    started = time.perf_counter()
    base = {"workload": name, "seed": seed, "root": str(ROOT), "smoke": smoke}
    run_args = dict(base, role="run", seconds=seconds, units=None, trace=False)
    setups = [] if trace else setup_probes(base, probes // 2, started)
    plain = child(run_args, started)
    if not trace:
        setups += setup_probes(base, probes - len(setups), started)
    attempted, failed = plain["attempted"], plain["failed"]
    failures = list(plain["failures"])
    runs = [plain]
    if not trace:
        values = {
            "rounds_per_s": plain["best_unit_rounds"] / plain["best_unit_s"]
            * plain["reference_s"] / pace.REFERENCE_NOMINAL_S,
            "setup_s": statistics.median(
                p["setup_s"] * pace.REFERENCE_NOMINAL_S / p["reference_s"] for p in setups
            ),
            "peak_rss_mib": plain["maxrss_kib"] / 1024.0,
        }
        units_of = END_TO_END_UNITS
    else:
        traced = child(
            dict(run_args, units=plain["units"], seconds=seconds / 2, trace=True), started
        )
        runs.append(traced)
        attempted += traced["attempted"]
        failed += traced["failed"]
        failures += traced["failures"]
        reps_per_unit = plain["attempted"] // plain["units"]
        for unit, (a, b) in enumerate(zip(plain["digests"], traced["digests"])):
            if a != b:
                failed += reps_per_unit
                failures.append(f"unit {unit}: traced output digest {b} differs from untraced {a}")
        failed = min(failed, attempted)
        values = layer_metrics(plain, traced, failed, attempted)
        units_of = per_layer_units()
    return {
        "metrics": {k: {"value": values[k], "unit": unit} for k, unit in units_of.items()},
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "runs": runs,
        "setups": setups,
    }


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit():
    """HEAD of the checkout, or None when it is not its own git repository."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def baseline_match(name: str, seed: int, digest: str):
    """True/False against the recorded digest of unit 0, None if none recorded."""
    recorded = json.loads((BENCH_DIR / "baseline.json").read_text())
    expected = recorded["digests"].get(name, {}).get(str(seed))
    return None if expected is None else digest == expected


def report(name: str, seed: int, result: dict, env: dict) -> None:
    plain = result["runs"][0]
    timed_s = sum(plain["unit_s"])
    print(
        f"workload {name}  seed {seed}  units {plain['units']}  repetitions "
        f"{plain['attempted']}  rounds {plain['rounds']}  timed {timed_s:.3f} s  "
        f"mean rate {plain['rounds'] / timed_s:.6g} rounds/s"
    )
    if result["setups"]:
        print(
            f"unscaled: best rate {plain['best_unit_rounds'] / plain['best_unit_s']:.6g} "
            f"rounds/s, reference {plain['reference_s'] * 1e3:.4g} ms, set-up median "
            f"{statistics.median(p['setup_s'] for p in result['setups']):.4g} s"
        )
    for key, metric in result["metrics"].items():
        print(f"  {key} = {metric['value']:.6g} {metric['unit']}")
    digest = plain["digests"][0]
    match = baseline_match(name, seed, digest)
    if match is None:
        print(f"output digest (unit 0) {digest}: no baseline recorded for seed {seed}")
    elif match:
        print(f"output digest (unit 0) {digest}: matches baseline")
    else:
        print("*" * 72)
        print(f"*** OUTPUT DIGEST MISMATCH vs baseline for {name} seed {seed}: {digest}")
        print("*** Not a failure; re-baseline baseline.json if the change is declared.")
        print("*" * 72)
    for line in result["failures"]:
        print(f"FAILED {line}")
    if env["overloaded"]:
        print(f"WARNING: 1-minute load average exceeded nproc={env['nproc']} during the run")
    print("env " + json.dumps(env))


def environment() -> dict:
    return {
        "nproc": nproc(),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": None,
        "git_commit": git_commit(),
        "load1_start": os.getloadavg()[0],
    }


def smoke() -> int:
    """One tiny unit per workload, traced and untraced; 0 when all checks hold."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        False: {m["name"]: m["unit"] for m in declared["end_to_end"]},
        True: {m["name"]: m["unit"] for m in declared["per_layer"]},
    }
    problems = []
    if sorted(w["name"] for w in declared["workloads"]) != sorted(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.py")
    for name in WORKLOADS:
        for trace in (False, True):
            result = measure(name, DEFAULT_SEED, trace, seconds=0.0, smoke=True, probes=1)
            got = {k: m["unit"] for k, m in result["metrics"].items()}
            if got != expected[trace]:
                problems.append(f"{name} trace={int(trace)}: metrics {got} != declared {expected[trace]}")
            if result["failed"]:
                problems.append(f"{name} trace={int(trace)}: failures {result['failures']}")
            print(f"smoke {name} trace={int(trace)}: {len(got)} metrics, "
                  f"{result['attempted']} repetitions, {result['failed']} failed")
    for line in problems:
        print(f"SMOKE FAILED: {line}")
    print("smoke ok" if not problems else "smoke failed")
    return 1 if problems else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"workload seed, non-negative (baseline {DEFAULT_SEED}, confirm {CONFIRM_SEED})")
    parser.add_argument("--seconds", type=float, default=20.0, help="length of the closed loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if not (ROOT / "src" / "htbandits" / "__init__.py").is_file():
        print(f"error: no htbandits sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.smoke:
            return smoke()
        if args.workload is None:
            parser.error("--workload is required")
        if args.seed < 0:
            parser.error("--seed must be non-negative")
        env = environment()
        result = measure(args.workload, args.seed, bool(args.trace), seconds=args.seconds)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    env["numpy"] = result["runs"][0]["numpy"]
    env["load1_end"] = os.getloadavg()[0]
    env["overloaded"] = max(env["load1_start"], env["load1_end"]) > env["nproc"]
    report(args.workload, args.seed, result, env)
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
