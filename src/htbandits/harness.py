"""Experiment harness: configs, single runs, replication, aggregation, CSV output.

A run is fully determined by its :class:`ExperimentConfig` and repetition
index: reward and noise streams derive from ``(base_seed, rep, arm, purpose)``
keys, so reruns are bit-identical and parallel execution equals sequential.
Regret traces record exact pseudo-regret (gap-weighted pull counts), not
realized reward differences.

``run_single`` has the policy play the rounds in stretches.  While the
policy is uncommitted, a stretch plays at most ``_STRETCH`` = 64 rounds and
ends at the next checkpoint at the latest, and the checkpoint's regret is
computed after the stretch that ends there, from the pull counts the
policy's stretch loop keeps.  Once an elimination policy has committed, one
stretch plays every round left (see below).  The local round counter ``t``
is the next round before each stretch, so a sampler that reads ``t - 1`` as
the rounds done (``bench/pace.py``) lags the run by fewer than 64 rounds
until the policy commits, and by the whole committed stretch inside it.

Every stream is read through a :class:`~htbandits.seeding.BlockStream`, which
derives its generator on the first read, draws uniforms in blocks and hands
them out one or ``k`` at a time.  The policy takes each arm's rewards in
blocks: ``model.samples`` maps a block of the arm's uniforms in one pass.
The private index policy's trees read their noise streams one uniform per
played pull.  The values are unchanged: a stream's doubles depend only on
its key, ``Generator.random(n)`` returns exactly the doubles of ``n`` scalar
calls, and each stream has a single consumer, so deriving late and drawing
ahead change only when the generator advances, never what a consumer reads.
Once the rounds end the policy drops the rewards no round read.  A stream
that is never read (the noise of an arm that is never released, the rewards
of an arm that is never pulled) is never derived.  Every stream is given its
key, so runs of one ``base_seed`` and ``rep`` share the seeding module's
bounded memo of stream prefixes: a stream whose key an earlier run of the
process read takes its first 256 doubles from the memo and derives its
generator only to read past them.  The memo holds copies of doubles, never
state a run changes, so a run's output does not depend on what ran before it
in the process.

Once an elimination policy commits, every remaining round plays one arm, so
the policy's stretch loop plays them as blocks of that arm's rewards,
appended to the transcript's columns in bulk: the rest of the arm's current
block, then takes of up to 1024 rewards, never one list of the whole tail.
That stretch passes the checkpoints, and each gets its regret from the same
``math.fsum`` over a copy of the policy's pull counts, the committed arm's
count computed from the round; while the committed arm has a zero gap the
regret cannot move, and the first value is kept.

``write_csv`` builds each output file as one string and writes it in one
call; the CSV files hold the bytes ``csv.writer`` would write.
"""

import csv
import functools
import itertools
import math
import operator
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import __version__
from .distributions import (
    BanditInstance,
    format_value,
    instance_description,
    make_central_hard_instance,
    make_pareto_instance,
    make_two_arm_hard_instance,
)
from .mechanisms import NoiseHook, NoiseSource, PrivacyLedger
from .policies import DPRobustSE, DPRobustUCB, LDPRobustSE, RobustUCB
from .schedules import MomentParams, _as_index, _check_beta, _check_eps, _check_v
from .seeding import (
    ELIMINATION_NOISE,
    PERTURBATION_NOISE,
    REWARDS,
    TREE_NOISE,
    BlockStream,
    derive_stream,
)

__all__ = [
    "ALGORITHMS",
    "SETTINGS",
    "ExperimentConfig",
    "RegretTrace",
    "SummaryStats",
    "checkpoint_schedule",
    "make_instance_for",
    "make_policy",
    "run_single",
    "run_experiment",
    "aggregate",
    "write_csv",
    "read_runs_csv",
    "RUNS_HEADER",
    "SUMMARY_HEADER",
]

ALGORITHMS = ("dprucb", "dprse", "ldprse", "rucb")
SETTINGS = ("S1", "S2", "S3", "two_arm_hard", "k_arm_hard")

RUNS_HEADER = ["algo", "setting", "epsilon", "v", "rep", "t", "cum_regret"]
SUMMARY_HEADER = ["algo", "setting", "epsilon", "v", "t", "mean", "std", "n_reps"]

# Default parameters of the hard-instance settings.
TWO_ARM_HARD_DELTA = 0.1
K_ARM_HARD_MEANS = (0.5, 0.4, 0.3, 0.2, 0.1)


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything that determines an experiment's outcome.

    Regret is recorded at ``checkpoint_count`` geometric checkpoints (see
    :func:`checkpoint_schedule`).  ``beta`` is the elimination confidence;
    None means ``1/horizon``.  ``zero_noise`` (True or False) swaps in the
    zero-noise test hook (no privacy guarantee).  The fields hold the values
    the checks return: Python ints and floats, whatever integer or real type
    was given.  A config that its policy's constructor would reject, such as
    an eps too small or too large for the policy's formulas in doubles,
    raises ``ValueError`` here.
    """

    algo: str
    setting: str
    v: float
    eps: float
    horizon: int
    reps: int
    base_seed: int
    checkpoint_count: int = 200
    beta: float | None = None
    zero_noise: bool = False

    def __post_init__(self) -> None:
        if self.algo not in ALGORITHMS:
            raise ValueError(f"algo must be one of {ALGORITHMS}, got {self.algo!r}")
        if self.setting not in SETTINGS:
            raise ValueError(f"setting must be one of {SETTINGS}, got {self.setting!r}")
        _check_v(self.v)
        _check_eps(self.eps)
        if not isinstance(self.zero_noise, bool):
            raise ValueError(f"zero_noise must be True or False, got {self.zero_noise!r}")
        # Python floats and ints, as checked: a numpy scalar would carry numpy
        # arithmetic into every round (same values, slower).  The CSV and
        # .meta text is the same.
        object.__setattr__(self, "v", float(self.v))
        object.__setattr__(self, "eps", float(self.eps))
        lows = {"horizon": 1, "reps": 1, "base_seed": 0, "checkpoint_count": 1}
        for name, low in lows.items():
            object.__setattr__(self, name, _as_index(name, getattr(self, name), low))
        if self.beta is not None:
            _check_beta(self.beta)
            object.__setattr__(self, "beta", float(self.beta))
        # A policy checks the rest when it is built: a horizon below dprucb's
        # opening pass over the arms, the resolved beta of the elimination
        # policies (1.0 at horizon 1), an eps that their schedules or noise
        # scales cannot carry.  Building repetition 0's policy, whose streams
        # are never read, makes such a config fail before any worker starts.
        make_policy(self, make_instance_for(self.setting, self.v), 0)

    @property
    def resolved_beta(self) -> float:
        return self.beta if self.beta is not None else 1.0 / self.horizon

    def checkpoints(self) -> tuple:
        return checkpoint_schedule(self.horizon, count=self.checkpoint_count)


@dataclass(frozen=True)
class RegretTrace:
    """One repetition's pseudo-regret at the checkpoint rounds.

    ``checkpoints`` is a tuple of ``(t, cumulative_regret)`` pairs, strictly
    increasing in ``t`` and non-decreasing in regret.
    """

    rep: int
    checkpoints: tuple

    @property
    def final_regret(self) -> float:
        return self.checkpoints[-1][1]


@dataclass(frozen=True)
class SummaryStats:
    """Across-rep mean and population std (ddof=0) of regret per checkpoint."""

    checkpoints: tuple
    means: tuple
    stds: tuple
    n_reps: int


# Every repetition of a config asks for the same grid, so the last few grids
# are kept.  A bad argument raises before anything is stored.
@functools.lru_cache(maxsize=16, typed=True)
def checkpoint_schedule(horizon: int, count: int = 200) -> tuple:
    """Checkpoint rounds: ``count`` geometric points from 1 to ``horizon``.

    The final round is always included.  Points are rounded to integers and
    deduplicated, so fewer than ``count`` may remain.
    """
    horizon = _as_index("horizon", horizon, 1)
    count = _as_index("count", count, 1)
    # Python floats: rounding numpy scalars one at a time costs ~3x more.
    raw = np.geomspace(1.0, float(horizon), num=min(count, horizon)).tolist()
    points = {min(max(round(x), 1), horizon) for x in raw}
    points.add(horizon)
    return tuple(sorted(points))


def make_instance_for(setting: str, v: float) -> BanditInstance:
    """Build the reward instance of a named setting."""
    if setting in ("S1", "S2", "S3"):
        return make_pareto_instance(setting, v)
    if setting == "two_arm_hard":
        return make_two_arm_hard_instance(TWO_ARM_HARD_DELTA, v, flavor="low")
    if setting == "k_arm_hard":
        return make_central_hard_instance(K_ARM_HARD_MEANS, v)
    raise ValueError(f"unknown setting {setting!r}")


# run_single has an uncommitted policy play at most this many rounds at a
# time, so the round counter t that bench/pace.py samples moves at least this
# often until the policy commits.
_STRETCH = 64

# The stream purpose of each private algorithm's noise; rucb draws none.
_NOISE_PURPOSE = {"dprucb": TREE_NOISE, "dprse": ELIMINATION_NOISE, "ldprse": PERTURBATION_NOISE}


def _streams(config: ExperimentConfig, rep: int, num_arms: int, purpose: int) -> list:
    # One stream per arm, read through the prefix memo and derived, through
    # this module's name derive_stream, only past what the memo holds.
    seed = config.base_seed
    return [
        BlockStream(
            functools.partial(derive_stream, seed, rep, arm=a, purpose=purpose),
            (seed, rep, a, purpose),
        )
        for a in range(num_arms)
    ]


def _take_rewards(model, stream):
    """``take(k)``: the arm's next ``k`` rewards, mapped from ``k`` uniforms of its stream."""
    samples, uniforms = model.samples, stream.random

    def take(k: int) -> list:
        return samples(uniforms(k))

    return take


def make_policy(
    config: ExperimentConfig,
    instance: BanditInstance,
    rep: int,
    ledger: PrivacyLedger | None = None,
):
    """Construct the configured policy with its per-arm noise streams.

    The streams are derived on their first read, so ``rep`` is checked here:
    a non-negative integer (numpy's included).
    """
    rep = _as_index("rep", rep, 0)
    params = MomentParams(u=instance.u, v=instance.v)
    algo = config.algo
    if algo == "rucb":
        return RobustUCB(instance.num_arms, params)
    hook = NoiseHook.ZERO if config.zero_noise else NoiseHook.LAPLACE
    sources = [
        NoiseSource(rng, hook, ledger)
        for rng in _streams(config, rep, instance.num_arms, _NOISE_PURPOSE[algo])
    ]
    if algo == "dprucb":
        return DPRobustUCB(params, config.eps, config.horizon, sources)
    policy_class = DPRobustSE if algo == "dprse" else LDPRobustSE
    return policy_class(
        params, config.eps, config.horizon, sources, beta=config.resolved_beta
    )


def run_single(
    config: ExperimentConfig,
    rep: int,
    instance: BanditInstance | None = None,
    ledger: PrivacyLedger | None = None,
    return_policy: bool = False,
):
    """Play one repetition and return its :class:`RegretTrace`.

    The policy plays the rounds a stretch at a time (``_play_until``) and
    counts its pulls.  A stretch of an uncommitted policy ends at the next
    checkpoint or after ``_STRETCH`` rounds; a committed policy plays every
    round left in one stretch, and each checkpoint it passed gets its regret
    from the pull counts (see the module docstring).  With
    ``return_policy=True`` returns ``(trace, policy)`` so tests can inspect
    final policy state.
    """
    if instance is None:
        instance = make_instance_for(config.setting, config.v)
    policy = make_policy(config, instance, rep, ledger=ledger)
    streams = _streams(config, rep, instance.num_arms, REWARDS)
    takes = [_take_rewards(model, stream) for model, stream in zip(instance.arms, streams)]
    horizon = config.horizon
    policy._begin_run(takes, horizon)
    gaps = instance.gaps
    # The policy's own pull counts, which its stretch loop keeps.
    counts = policy._counts
    cps = config.checkpoints()
    values = []
    cp_iter = iter(cps)
    next_cp = next(cp_iter)
    # The harness keeps the select/observe contract itself, so it has the
    # policy play a stretch of rounds at a time.
    play_until = policy._play_until
    # t is the next round: bench/pace.py reads t - 1 as the rounds done.
    t = 1
    try:
        while t <= horizon:
            arm = policy._committed
            if arm is None:
                # An uncommitted stretch ends at the next checkpoint at the latest.
                t = play_until(min(next_cp, t + _STRETCH - 1))
                if t > next_cp:
                    values.append(math.fsum(map(operator.mul, gaps, counts)))
                    next_cp = next(cp_iter, None)
            else:
                # A committed stretch plays every round left and passes the
                # checkpoints.  It moves only the arm's count, which after
                # round s is its count at the end less the rounds after s,
                # written into a copy of the counts at each checkpoint; with a
                # zero gap the regret keeps its first value.
                t = play_until(horizon)
                counts = list(counts)
                gap, offset, value = gaps[arm], counts[arm] - (t - 1), None
                while next_cp is not None:
                    if gap or value is None:
                        counts[arm] = offset + next_cp
                        value = math.fsum(map(operator.mul, gaps, counts))
                    values.append(value)
                    next_cp = next(cp_iter, None)
    finally:
        policy._drop_lookahead()
    trace = RegretTrace(rep=rep, checkpoints=tuple(zip(cps, values)))
    if return_policy:
        return trace, policy
    return trace


def run_experiment(config: ExperimentConfig, workers: int = 1):
    """Run all repetitions and return ``(traces, summary)``.

    ``workers > 1`` fans repetitions out to a process pool of at most
    ``config.reps`` processes (a pool forks all its workers at the first
    submit); results are identical to the sequential run, in repetition order.
    """
    workers = min(_as_index("workers", workers, 1), config.reps)
    reps = range(config.reps)
    if workers == 1:
        traces = [run_single(config, rep) for rep in reps]
    else:
        # Imported here, so importing the package does not load multiprocessing.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            traces = list(pool.map(run_single, itertools.repeat(config), reps))
    return traces, aggregate(traces)


def aggregate(traces) -> SummaryStats:
    """Across-rep mean/std (ddof=0) of regret at each checkpoint."""
    if not traces:
        raise ValueError("need at least one trace")
    cps = tuple(t for t, _ in traces[0].checkpoints)
    for trace in traces:
        if tuple(t for t, _ in trace.checkpoints) != cps:
            raise ValueError("traces have mismatched checkpoint grids")
    matrix = np.array([[value for _, value in trace.checkpoints] for trace in traces])
    return SummaryStats(
        checkpoints=cps,
        means=tuple(float(x) for x in matrix.mean(axis=0)),
        stds=tuple(float(x) for x in matrix.std(axis=0)),
        n_reps=len(traces),
    )


def write_csv(
    path,
    config: ExperimentConfig,
    instance: BanditInstance,
    traces,
    summary: SummaryStats,
) -> dict:
    """Write ``<path>.runs.csv``, ``<path>.summary.csv`` and ``<path>.meta``.

    Floats are written with 17 significant digits, so values round-trip
    exactly.  Each file is built as one string and written in one call; the
    CSV files hold the bytes ``csv.writer`` would write, lines ending in
    ``\\r\\n``.  Returns the three paths keyed by ``"runs"``, ``"summary"``,
    ``"meta"``.
    """
    base = Path(path)
    base.parent.mkdir(parents=True, exist_ok=True)
    runs_path = base.with_name(base.name + ".runs.csv")
    summary_path = base.with_name(base.name + ".summary.csv")
    meta_path = base.with_name(base.name + ".meta")

    # Every field is a validated algo or setting name, an int or a ``.17g``
    # number, so none needs quoting: these are the bytes csv.writer writes.
    # ``{x:.17g}`` is format_value without its float() call, which changes no
    # int or float's text.
    eps_s = format_value(config.eps)
    v_s = format_value(config.v)
    prefix = f"{config.algo},{config.setting},{eps_s},{v_s},"
    lines = [",".join(RUNS_HEADER)]
    for trace in traces:
        head = f"{prefix}{trace.rep},"
        lines += [f"{head}{t},{value:.17g}" for t, value in trace.checkpoints]
    lines.append("")
    runs_path.write_bytes("\r\n".join(lines).encode())

    lines = [",".join(SUMMARY_HEADER)]
    lines += [
        f"{prefix}{t},{mean:.17g},{std:.17g},{summary.n_reps}"
        for t, mean, std in zip(summary.checkpoints, summary.means, summary.stds)
    ]
    lines.append("")
    summary_path.write_bytes("\r\n".join(lines).encode())

    lines = [f"package_version={__version__}"]
    for f in fields(config):
        value = getattr(config, f.name)
        if f.name == "beta":
            value = config.resolved_beta
        if isinstance(value, float):
            value = format_value(value)
        lines.append(f"{f.name}={value}")
    lines += [
        f"instance.{line}"
        for line in instance_description(instance, setting=config.setting)
    ]
    lines.append("")
    meta_path.write_bytes("\n".join(lines).encode())
    return {"runs": runs_path, "summary": summary_path, "meta": meta_path}


def read_runs_csv(path) -> list:
    """Read a ``.runs.csv`` back into :class:`RegretTrace` objects.

    A wrong or missing header, or a row (a blank line included) whose field
    count is not the header's, raises ``ValueError``.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != RUNS_HEADER:
            raise ValueError(f"unexpected header {header}")
        per_rep: dict = {}
        for row in reader:
            if len(row) != len(RUNS_HEADER):
                raise ValueError(
                    f"line {reader.line_num}: expected {len(RUNS_HEADER)} fields,"
                    f" got {len(row)}"
                )
            rep = int(row[4])
            per_rep.setdefault(rep, []).append((int(row[5]), float(row[6])))
    return [
        RegretTrace(rep=rep, checkpoints=tuple(points))
        for rep, points in sorted(per_rep.items())
    ]
