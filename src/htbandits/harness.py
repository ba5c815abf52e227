"""Experiment harness: configs, single runs, replication, aggregation, CSV output.

A run is fully determined by its :class:`ExperimentConfig` and repetition
index: reward and noise streams derive from ``(base_seed, rep, arm, purpose)``
keys, so reruns are bit-identical and parallel execution equals sequential.
Regret traces record exact pseudo-regret (gap-weighted pull counts), not
realized reward differences.

Every stream is read through a :class:`~htbandits.seeding.BlockStream`, which
derives its generator on the first read, draws uniforms in blocks and hands
them out one at a time.  Rewards (``model.sample``) and noise
(``NoiseSource.draw``) still map one uniform per call.  The values are
unchanged: a stream's doubles depend only on its key, ``Generator.random(n)``
returns exactly the doubles of ``n`` scalar calls, and each stream has a
single consumer, so deriving late and drawing ahead change only when the
generator advances, never what a consumer reads.  A stream that is never read
(the noise of an arm that is never released, the rewards of an arm that is
never pulled) is never derived.

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
from .mechanisms import NoiseHook, NoiseSource, PrivacyLedger, _as_index
from .policies import DPRobustSE, DPRobustUCB, LDPRobustSE, RobustUCB
from .schedules import MomentParams
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
    None means ``1/horizon``.  ``zero_noise`` swaps in the zero-noise test hook
    (no privacy guarantee).
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
        if not 0.0 < self.v <= 1.0:
            raise ValueError(f"v must lie in (0, 1], got {self.v}")
        if not 0.0 < self.eps < math.inf:
            raise ValueError(f"eps must be finite and positive, got {self.eps}")
        # Python floats: a numpy scalar would carry numpy arithmetic into every
        # round (same values, slower).  The CSV and .meta text is the same.
        object.__setattr__(self, "v", float(self.v))
        object.__setattr__(self, "eps", float(self.eps))
        for name in ("horizon", "reps", "base_seed", "checkpoint_count"):
            _as_index(name, getattr(self, name))
        if self.horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {self.horizon}")
        if self.reps < 1:
            raise ValueError(f"reps must be >= 1, got {self.reps}")
        if self.base_seed < 0:
            raise ValueError(f"base_seed must be non-negative, got {self.base_seed}")
        if self.checkpoint_count < 1:
            raise ValueError(f"checkpoint_count must be >= 1, got {self.checkpoint_count}")
        # The elimination policies run at the resolved beta, which is 1.0 at
        # horizon 1; checked here so that a run fails before any worker starts.
        beta = self.resolved_beta if self.algo in ("dprse", "ldprse") else self.beta
        if beta is not None and not 0.0 < beta < 1.0:
            raise ValueError(f"beta must lie in (0, 1), got {beta}")
        if self.beta is not None:
            object.__setattr__(self, "beta", float(self.beta))
        if self.algo == "dprucb":
            # The index policy opens with one pull of every arm.  Checked here
            # so that a run fails before any worker process starts.
            num_arms = make_instance_for(self.setting, self.v).num_arms
            if self.horizon < num_arms:
                raise ValueError(
                    f"horizon {self.horizon} is below the number of arms {num_arms}"
                )

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
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
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


# The stream purpose of each private algorithm's noise; rucb draws none.
_NOISE_PURPOSE = {"dprucb": TREE_NOISE, "dprse": ELIMINATION_NOISE, "ldprse": PERTURBATION_NOISE}


def _streams(config: ExperimentConfig, rep: int, num_arms: int, purpose: int) -> list:
    # One stream per arm, derived on its first read.
    return [
        BlockStream(
            functools.partial(derive_stream, config.base_seed, rep, arm=a, purpose=purpose)
        )
        for a in range(num_arms)
    ]


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
    rep = _as_index("rep", rep)
    if not 0 <= rep:
        raise ValueError(f"rep must be non-negative, got {rep}")
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

    With ``return_policy=True`` returns ``(trace, policy)`` so tests can
    inspect final policy state.
    """
    if instance is None:
        instance = make_instance_for(config.setting, config.v)
    policy = make_policy(config, instance, rep, ledger=ledger)
    reward_rngs = _streams(config, rep, instance.num_arms, REWARDS)
    samplers = [model.sample for model in instance.arms]
    gaps = instance.gaps
    counts = [0] * instance.num_arms
    cps = config.checkpoints()
    values = []
    cp_iter = iter(cps)
    next_cp = next(cp_iter)
    # The harness keeps the select/observe contract itself, so it drives the
    # policy core: the _select and _play that select_arm and observe call.
    select = policy._select
    play = policy._play
    for t in range(1, config.horizon + 1):
        arm = select(t)
        play(t, arm, samplers[arm](reward_rngs[arm]))
        counts[arm] += 1
        if t == next_cp:
            values.append(math.fsum(map(operator.mul, gaps, counts)))
            next_cp = next(cp_iter, None)
    trace = RegretTrace(rep=rep, checkpoints=tuple(zip(cps, values)))
    if return_policy:
        return trace, policy
    return trace


def run_experiment(config: ExperimentConfig, workers: int = 1):
    """Run all repetitions and return ``(traces, summary)``.

    ``workers > 1`` fans repetitions out to a process pool; results are
    identical to the sequential run, in repetition order.
    """
    workers = _as_index("workers", workers)
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
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
