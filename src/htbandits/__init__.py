"""Differentially private multi-armed bandits with heavy-tailed rewards.

Library plus CLI simulator for regret experiments with private index and
elimination policies under a raw-moment tail assumption.  See the subpackage
docstrings: :mod:`~htbandits.distributions` (reward models),
:mod:`~htbandits.mechanisms` (noise and the prefix-sum release tree),
:mod:`~htbandits.schedules` (truncation levels, radii, epoch schedules),
:mod:`~htbandits.policies` (the bandit algorithms),
:mod:`~htbandits.audit` (post-hoc privacy audit),
:mod:`~htbandits.harness` (experiment runner and CSV output).
"""

import types

__version__ = "0.1.0"

from .audit import AuditFinding, AuditReport, audit_run
from .distributions import (
    BanditInstance,
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
from .harness import (
    ALGORITHMS,
    SETTINGS,
    ExperimentConfig,
    RegretTrace,
    SummaryStats,
    aggregate,
    checkpoint_schedule,
    make_instance_for,
    make_policy,
    read_runs_csv,
    run_experiment,
    run_single,
    write_csv,
)
from .mechanisms import (
    AdaptiveTree,
    NoiseHook,
    NoiseSource,
    PrivacyLedger,
    laplace_from_uniform,
    tree_noise_bound,
)
from .policies import (
    DPRobustSE,
    DPRobustUCB,
    LDPRobustSE,
    RobustUCB,
    TranscriptEntry,
)
from .schedules import (
    EpochSchedule,
    MAX_EPOCH_PULLS,
    MomentParams,
    central_se_schedule,
    local_se_schedule,
    nonprivate_ucb_radius,
    nonprivate_ucb_threshold,
    private_ucb_radius,
    private_ucb_truncation,
)
from .seeding import derive_stream

# The public names are exactly the ones imported above.
__all__ = ["__version__"] + [
    name
    for name, value in list(globals().items())
    if not name.startswith("_") and not isinstance(value, types.ModuleType)
]
