"""The package's public names."""

import htbandits

# ``htbandits.__all__`` of release 0.1.0, in order.
RELEASE_0_1_0_EXPORTS = [
    "__version__",
    "AuditFinding",
    "AuditReport",
    "audit_run",
    "BanditInstance",
    "FiniteSupportModel",
    "ParetoModel",
    "SETTING_MEANS",
    "instance_description",
    "make_central_hard_instance",
    "make_central_shifted_arm",
    "make_instance",
    "make_pareto_instance",
    "make_two_arm_hard_instance",
    "moment_bound",
    "ALGORITHMS",
    "SETTINGS",
    "ExperimentConfig",
    "RegretTrace",
    "SummaryStats",
    "aggregate",
    "checkpoint_schedule",
    "make_instance_for",
    "make_policy",
    "read_runs_csv",
    "run_experiment",
    "run_single",
    "write_csv",
    "AdaptiveTree",
    "NoiseHook",
    "NoiseSource",
    "PrivacyLedger",
    "laplace_from_uniform",
    "sample_laplace",
    "sample_laplace_many",
    "tree_noise_bound",
    "DPRobustSE",
    "DPRobustUCB",
    "LDPRobustSE",
    "Policy",
    "RobustUCB",
    "TranscriptEntry",
    "TRANSCRIPT_SCHEMA_VERSION",
    "EpochSchedule",
    "MAX_EPOCH_PULLS",
    "MomentParams",
    "central_se_schedule",
    "local_se_schedule",
    "nonprivate_ucb_radius",
    "nonprivate_ucb_threshold",
    "private_ucb_radius",
    "private_ucb_truncation",
    "derive_stream",
]

# Removed since: the vector Laplace samplers (the scalar map behind
# NoiseSource.draw is the only one), the unused Policy protocol and the
# transcript schema version, which nothing read.
REMOVED = {"sample_laplace", "sample_laplace_many", "Policy", "TRANSCRIPT_SCHEMA_VERSION"}


def test_exports_are_the_release_list_minus_removed_names() -> None:
    expected = [name for name in RELEASE_0_1_0_EXPORTS if name not in REMOVED]
    assert htbandits.__all__ == expected
