"""Apply each committed mutant to a copy of the package and run the tests named for it::

    python3 tools/mutate.py

Each entry of :data:`MUTANTS` names a file, an exact old text that must occur
in it exactly once, the new text, the fast test ids to run against the
mutant, and a status:

- ``kill``: the tests must fail on the mutant;
- ``equivalent``: the mutant gives the same doubles, so the tests pass; the
  reason says why;
- ``survives``: the mutant is wrong and the tests pass; the reason names the
  open ROADMAP item meant to kill it.

Both marks are strict, like ``xfail(strict=True)``: a mutant so marked that
its tests kill fails the gate, and the mark must go.  The script first runs
every named test on an unchanged copy, where all must pass.  Then, for each
mutant, it copies ``src/``, ``tests/`` and ``pyproject.toml`` to a temporary
directory, applies the change there and runs only that mutant's tests, with
the copy's ``src`` first on the path.  It exits 1 when a ``kill`` mutant
survives, a marked one is killed, a run neither passes nor fails (a test id
gone, a collection error, a timeout), or the list no longer matches the
tree.  Standard library only; the mutants run one at a time.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "pyproject.toml")
STATUSES = ("kill", "equivalent", "survives")
# A mutant's tests take a few seconds; a run past this is reported as hung.
TIMEOUT_S = 120

EPOCH_SCORES = "tests/test_golden.py::test_epoch_scores_match_the_recorded_digests"
EPOCH_PRIVACY = "tests/test_black_box_privacy.py::test_an_epoch_release_spends_at_most_eps"
RELEASES = "tests/test_golden.py::test_releases_match_the_recorded_digests"
TREE_PRIVACY = "tests/test_black_box_privacy.py::test_the_tree_spends_at_most_its_composed_bound"
EPOCH_PLAN = "tests/test_harness.py::test_a_config_is_rejected_when_made_or_runs_to_its_horizon"
INDEX_VALUES = "tests/test_index_fast_path.py::test_private_index_values_equal_the_schedules"
GOLDEN = "tests/test_golden.py::test_grid_output_matches_the_golden_digest"
RUN_VALUES = "tests/test_golden.py::test_run_values_match_the_recorded_digests"
STRETCHES = (
    "tests/test_harness.py::test_run_single_plays_short_stretches_and_keeps_its_round_counter"
)
SCHEDULE_MEMO = "tests/test_schedule_memo.py"
INDEX_RUNS = "tests/test_index_fast_path.py::test_private_index_fast_path_matches_the_schedules"
SEED_MEMO = (
    "tests/test_seeding.py::test_a_run_after_a_sweep_with_its_seed_equals_a_run_on_a_cold_memo"
)


class Mutant(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    tests: tuple
    status: str = "kill"
    reason: str = ""


MUTANTS = (
    # The noise of each mechanism: a mutant that drops it must be seen.
    Mutant(
        "ldprse-drops-its-noise",
        "src/htbandits/policies.py",
        "        return kept + eta\n",
        "        return kept\n",
        (EPOCH_SCORES, EPOCH_PRIVACY),
    ),
    Mutant(
        "dprse-drops-its-noise",
        "src/htbandits/policies.py",
        "self._sums[a] / pulls + eta",
        "self._sums[a] / pulls + 0.0 * eta",
        (EPOCH_SCORES, EPOCH_PRIVACY),
    ),
    Mutant(
        "tree-drops-its-noise",
        "src/htbandits/mechanisms.py",
        "(finalized + eta)",
        "(finalized + 0.0 * eta)",
        (RELEASES, TREE_PRIVACY),
    ),
    # Noise scales.
    Mutant(
        "dprse-halves-its-noise-scale",
        "src/htbandits/policies.py",
        "return 2.0 * sched.truncation / (sched.pulls_per_arm * eps)",
        "return 1.0 * sched.truncation / (sched.pulls_per_arm * eps)",
        (EPOCH_SCORES,),
    ),
    # The epoch plan and the commit rule.
    Mutant(
        "plan-drops-epochs-ending-at-the-horizon",
        "src/htbandits/policies.py",
        "            if end <= horizon:\n",
        "            if end < horizon:\n",
        (EPOCH_PLAN,),
    ),
    Mutant(
        "commit-at-an-epoch-ending-at-the-horizon",
        "src/htbandits/policies.py",
        "        if end > self.horizon:\n",
        "        if end >= self.horizon:\n",
        (EPOCH_PLAN,),
    ),
    # Elimination thresholds.
    Mutant(
        "central-elimination-threshold-halved",
        "src/htbandits/policies.py",
        "CENTRAL_ELIMINATION_MULT = 12.0",
        "CENTRAL_ELIMINATION_MULT = 6.0",
        (GOLDEN,),
    ),
    # Truncation levels and the index radius.
    Mutant(
        "private-truncation-one-pull-late",
        "src/htbandits/policies.py",
        "return [(eps_u * n / log_pow) ** exp for n in pulls]",
        "return [(eps_u * (n + 1) / log_pow) ** exp for n in pulls]",
        (INDEX_VALUES,),
    ),
    Mutant(
        "private-radius-one-ulp-high",
        "src/htbandits/policies.py",
        "self._share_tables(18.0, 2, 4,",
        "self._share_tables(18.000000000000004, 2, 4,",
        (INDEX_VALUES,),
    ),
    # The stretch bounds.
    Mutant(
        "stretch-one-round-too-long",
        "src/htbandits/harness.py",
        "t = play_until(min(next_cp, t + _STRETCH - 1))",
        "t = play_until(min(next_cp, t + _STRETCH))",
        (STRETCHES,),
    ),
    # The seed memo: a stream served from it must read on past the prefix.
    Mutant(
        "seed-memo-hit-rereads-the-prefix",
        "src/htbandits/seeding.py",
        "                self._skip = _PREFIX\n",
        "                self._skip = 0\n",
        (SEED_MEMO,),
    ),
    # A wrong mutant that no test kills yet.
    Mutant(
        "index-score-one-ulp-high",
        "src/htbandits/policies.py",
        "score = means[a] + scale * weights[a]",
        "score = means[a] + scale * weights[a] * 1.0000000000000002",
        (INDEX_VALUES, INDEX_RUNS, GOLDEN, RUN_VALUES),
        "survives",
        "ROADMAP item 17: the value tests read C(t) and w, not the score the argmax "
        "compares, and a one-ulp score flips no arm of the digested runs",
    ),
    # Mutants that give the same doubles.
    Mutant(
        "schedule-memo-untyped",
        "src/htbandits/policies.py",
        "functools.lru_cache(maxsize=_MEMO_TABLES, typed=True)(_Schedule)",
        "functools.lru_cache(maxsize=_MEMO_TABLES, typed=False)(_Schedule)",
        (SCHEDULE_MEMO, INDEX_VALUES),
        "equivalent",
        "every policy passes each table constant as one fixed type (m and k ints, "
        "the rest floats), so no two keys of equal value differ in type",
    ),
    Mutant(
        "tree-clamp-strict",
        "src/htbandits/mechanisms.py",
        "                scale * _log(2.0 * (u if u >= _MIN_UNIFORM else _MIN_UNIFORM))\n"
        "                if u < 0.5\n",
        "                scale * _log(2.0 * (u if u > _MIN_UNIFORM else _MIN_UNIFORM))\n"
        "                if u < 0.5\n",
        (RELEASES, TREE_PRIVACY),
        "equivalent",
        "at u = 2**-53 both arms of the clamp give 2**-53",
    ),
    Mutant(
        "tree-half-uniform-takes-the-negative-branch",
        "src/htbandits/mechanisms.py",
        "                if u < 0.5\n                else -scale",
        "                if u <= 0.5\n                else -scale",
        (RELEASES, TREE_PRIVACY),
        "equivalent",
        "at u = 0.5 the draw is +0.0 instead of -0.0, and finalized is never -0.0 "
        "(its sum starts at 0.0), so finalized + eta is the same double",
    ),
)


def problems(root: Path = ROOT) -> list:
    """Why the list does not apply to the tree at ``root`` (empty when it does)."""
    found = []
    for m in MUTANTS:
        where = f"{m.name}: "
        if m.status not in STATUSES:
            found.append(where + f"status must be one of {STATUSES}, got {m.status!r}")
        if (m.status == "kill") == bool(m.reason):
            found.append(where + "a reason goes with, and only with, an equivalent or survives mark")
        path = root / m.path
        count = path.read_text().count(m.old) if path.is_file() else 0
        if count != 1:
            found.append(where + f"the old text occurs {count} times in {m.path}, not once")
        for test in m.tests:
            file, _, function = test.partition("::")
            test_path = root / file
            if not test_path.is_file() or function and f"def {function}(" not in test_path.read_text():
                found.append(where + f"no test {test}")
    return found


def copy_tree(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", "*.egg-info")
    for name in COPIED:
        if (ROOT / name).is_dir():
            shutil.copytree(ROOT / name, dest / name, ignore=ignore)
        else:
            shutil.copy2(ROOT / name, dest / name)


def run_python(copy: Path, args: list) -> subprocess.CompletedProcess:
    """Run Python in ``copy`` with its ``src`` first on the path."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(
        [sys.executable, *args], cwd=copy, env=env, capture_output=True, text=True,
        timeout=TIMEOUT_S,
    )


def run_tests(copy: Path, tests) -> tuple:
    """``(outcome, output)``: "passed", "failed", or why the run did neither."""
    try:
        proc = run_python(copy, ["-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests])
    except subprocess.TimeoutExpired:
        return f"timed out after {TIMEOUT_S} s", ""
    outcome = {0: "passed", 1: "failed"}.get(proc.returncode, f"pytest exit {proc.returncode}")
    return outcome, proc.stdout + proc.stderr


def check_clean_copy(tests) -> list:
    """Run every named test on an unchanged copy; return the errors."""
    with tempfile.TemporaryDirectory(prefix="mutate-") as tmp:
        copy = Path(tmp)
        copy_tree(copy)
        proc = run_python(copy, ["-c", "import htbandits; print(htbandits.__file__)"])
        imported = proc.stdout.strip()
        if proc.returncode or not Path(imported).is_relative_to(copy):
            return [f"the copy imports htbandits from {imported or proc.stderr.strip()}"]
        outcome, output = run_tests(copy, tests)
    if outcome != "passed":
        return [f"the named tests {outcome} on an unchanged copy:\n{output[-3000:]}"]
    return []


def run_mutant(m: Mutant) -> tuple:
    """``(verdict, error)``: error is None when the mutant behaved as marked."""
    with tempfile.TemporaryDirectory(prefix="mutate-") as tmp:
        copy = Path(tmp)
        copy_tree(copy)
        path = copy / m.path
        path.write_text(path.read_text().replace(m.old, m.new))
        outcome, output = run_tests(copy, m.tests)
    if outcome not in ("passed", "failed"):
        return outcome, f"{m.name}: {outcome}\n{output[-3000:]}"
    verdict = "killed" if outcome == "failed" else "survived"
    expected = "killed" if m.status == "kill" else "survived"
    if verdict != expected:
        return verdict, f"{m.name}: marked {m.status}, but its tests {outcome}"
    return verdict, None


def main() -> int:
    errors = problems()
    if errors:
        print("\n".join(errors))
        return 1
    errors = check_clean_copy(sorted({test for m in MUTANTS for test in m.tests}))
    for m in MUTANTS if not errors else ():
        start = time.perf_counter()
        verdict, error = run_mutant(m)
        print(f"{m.status:<10} {verdict:<9} {time.perf_counter() - start:5.1f} s  {m.name}", flush=True)
        if error:
            errors.append(error)
    print("\n".join(errors) or f"{len(MUTANTS)} mutants behaved as marked")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
