"""Golden output digest: the bytes of ``runs.csv`` and ``summary.csv`` over a
fixed grid of configurations.

A change that keeps the simulator's behaviour keeps this digest.  A change
that moves float evaluation order, stream consumption or CSV formatting moves
it, and must re-record it here and say why in CHANGES.md.

The grid covers every algorithm on every setting at a short horizon, the
cells where elimination epochs really complete (so the epoch, release and
elimination code is hashed, not only the committed fallback), and one cell
run through the process pool.

That digest hashes regret, which pull counts determine, so it cannot see a
change in the last bits of a reward, a noise scale or a release.  The value
digests hash every transcript and ledger column by ``float.hex`` on the
transcript test's cells, and are gated the same way.  No column stores a tree
release or a noise value, so the release digests hash the private index
policy's per-arm means (noisy sum / pulls) as each round's selection reads
them, on three cells played through ``select_arm``/``observe``: one audited,
one whose arms pass the schedule tables' cap of 2**17 pulls, and the
benchmark's 1e5-round cell.  ``run_single`` must end each in the same state.
"""

from __future__ import annotations

import hashlib
from itertools import product

from htbandits import (
    ALGORITHMS,
    SETTINGS,
    DPRobustUCB,
    ExperimentConfig,
    PrivacyLedger,
    make_instance_for,
    make_policy,
    run_experiment,
    run_single,
    write_csv,
)

from test_transcript import CASES, config_for, drive_by_contract, instance_for, tree_state

V = 0.9
SEED = 7

GOLDEN_SHA256 = "6022fc41c9e97db840b85b68e060075b19f362130994a2cc739c93930c8a2a07"

# (algo, setting, eps, horizon, completed epochs of rep 0)
EPOCH_CELLS = (
    ("dprse", "k_arm_hard", 1000.0, 300, 2),
    ("dprse", "two_arm_hard", 100.0, 5000, 2),
    ("ldprse", "two_arm_hard", 1000.0, 5000, 1),
)

POOLED_CELL = ("dprucb", "S2", 1.0, 1000)


def _config(algo: str, setting: str, eps: float, horizon: int) -> ExperimentConfig:
    return ExperimentConfig(
        algo=algo, setting=setting, v=V, eps=eps, horizon=horizon, reps=2, base_seed=SEED
    )


def grid():
    """``(config, workers)`` for every cell, in hashing order."""
    for algo, setting, eps in product(ALGORITHMS, SETTINGS, (1.0, 1000.0)):
        yield _config(algo, setting, eps, 300), 1
    for algo, setting, eps, horizon, _ in EPOCH_CELLS:
        yield _config(algo, setting, eps, horizon), 1
    yield _config(*POOLED_CELL), 2


def grid_digest(out_dir) -> str:
    digest = hashlib.sha256()
    for index, (config, workers) in enumerate(grid()):
        traces, summary = run_experiment(config, workers=workers)
        instance = make_instance_for(config.setting, config.v)
        paths = write_csv(out_dir / f"cell{index}", config, instance, traces, summary)
        for kind in ("runs", "summary"):
            digest.update(paths[kind].read_bytes())
    return digest.hexdigest()


def test_epoch_cells_complete_epochs() -> None:
    for algo, setting, eps, horizon, epochs in EPOCH_CELLS:
        _, policy = run_single(_config(algo, setting, eps, horizon), 0, return_policy=True)
        assert len(policy.completed_epochs) == epochs, (algo, setting, eps, horizon)


def test_grid_output_matches_the_golden_digest(tmp_path) -> None:
    assert grid_digest(tmp_path) == GOLDEN_SHA256


# Per cell of test_transcript.CASES, (algo, setting, eps, horizon, arm
# order): the value digest of its audited rep 0.  Cells 6-9 end in committed
# tails; their digests were recorded with every round played one at a time,
# as were those of the five short dprucb cells.  The five short rucb cells'
# were recorded with each rucb round a _select, _play and _observe call.
VALUE_SHA256 = {
    ("dprse", "S1", 1.0, 300, "given"): (
        "768034fb86f89f23117a6ac1c166eff420c9986a704c3c770a9e6b993ccf7116"
    ),
    ("dprse", "two_arm_hard", 100.0, 5000, "given"): (
        "961a71f9773c663e254e1e7769ffda6157d89fd80bade0f2afa302c6efe30565"
    ),
    ("ldprse", "two_arm_hard", 1000.0, 5000, "given"): (
        "7139c8a7f9ccf43fc4d4b3cd4e3306f29e8f27c9c6ba616de2025ab5b5ccbca5"
    ),
    ("dprucb", "S1", 1.0, 2000, "given"): (
        "fdbae04b15bf17888d6cac694ef262c6f198afe395472e617e9f54c11c72402c"
    ),
    ("rucb", "S3", 1.0, 2000, "given"): (
        "b55649d095f9f9bad6738863be61131fc10f511f49a2a477d525d528312e949e"
    ),
    ("dprse", "S1", 1.0, 100_000, "given"): (
        "f4cf051c6105935a2b33d85a03b88cafb94713d62000a09dc235b222f795b4f9"
    ),
    ("ldprse", "two_arm_hard", 1000.0, 20_000, "given"): (
        "052a44568a15b8c5f672fe06d792b0cc83078559b5e11ff0ec9566788535f7c0"
    ),
    ("dprse", "S1", 1.0, 20_000, "reversed"): (
        "f7f2cfff7a437b7a407e32c3daf2575d7cbb6d6cb4a5e9a09b1e7e03777ea768"
    ),
    ("dprse", "S1", 1000.0, 2000, "given"): (
        "1823a515c3f27bd51b5e021482663be4c840ac58a300733bc42a0c5ef312654c"
    ),
    ("dprucb", "S1", 1.0, 5, "given"): (
        "b44c72f99a2cdf0ad43d30a3869da86e00515aa49740e37bbb44ac477148fb26"
    ),
    ("dprucb", "S1", 1.0, 6, "given"): (
        "47db64c0ee391284650aeb69628a7754018f25cbd5a850d03f5dfd4490231504"
    ),
    ("dprucb", "S1", 1.0, 64, "given"): (
        "5f87e6f342c577e86ea1b22f10ecebed162b1372deccd70b7d0220c75d691afc"
    ),
    ("dprucb", "S1", 1.0, 65, "given"): (
        "c08bd78b3659db1725c0171e23a53e528213fc2522babafe449b894323061b6f"
    ),
    ("dprucb", "S1", 1.0, 130, "given"): (
        "b2474b37d5ca1c01fc22a6021d6dc830c7f9d4942e3e5ead19504bb888a58a31"
    ),
    ("rucb", "S1", 1.0, 5, "given"): (
        "d3c321d43d421ce255130d03a70aa31c7d6a033d3c541d2ac9609d40caa474f0"
    ),
    ("rucb", "S1", 1.0, 6, "given"): (
        "0ce7a80bdd2e61b518628ec042998b316d98411ea05f5f4ee17d2847916a2537"
    ),
    ("rucb", "S1", 1.0, 64, "given"): (
        "ab625603880bcb986d71cf5068da32ad55accd4b1e58ad3f6c91317df0fc807b"
    ),
    ("rucb", "S1", 1.0, 65, "given"): (
        "f1ca0bbc446067b4f6dac0398a634b765a346a4b75c06c96705388dffaed0966"
    ),
    ("rucb", "S1", 1.0, 130, "given"): (
        "c30562b1024d828d66d4225b8a344fd74bb4722dc73e405494027d107db2f3a4"
    ),
}


def value_digest(config: ExperimentConfig, instance=None) -> str:
    """SHA-256 of the transcript, draw and insertion columns of the audited rep 0.

    Floats are hashed as ``float.hex``, integers as decimal text; each
    column ends with a separator, so no value can move between columns.
    """
    ledger = PrivacyLedger()
    _, policy = run_single(config, 0, instance=instance, ledger=ledger, return_policy=True)
    digest = hashlib.sha256()
    for table in (policy.transcript, ledger.noise_draws, ledger.insertions):
        for column in table.columns:
            text = map(float.hex if column.typecode == "d" else str, column)
            digest.update(",".join(text).encode() + b";")
    return digest.hexdigest()


def test_run_values_match_the_recorded_digests() -> None:
    digests = {}
    for algo, setting, eps, horizon, _, _, arms in CASES:
        cell = (algo, setting, eps, horizon, arms)
        digests[cell] = value_digest(
            config_for(algo, setting, eps, horizon), instance_for(setting, arms)
        )
        print(f"value digest {algo} {setting} eps={eps:g} T={horizon} {arms}: {digests[cell]}")
    assert digests == VALUE_SHA256


# (setting, eps, horizon, seed, audited): the release digest of rep 0.  The
# first is test_transcript.CASES' T=2000 dprucb cell; on the second both arms
# pass 2**17 pulls (152,406 and 147,594).
RELEASE_CELLS = {
    ("S1", 1.0, 2000, SEED, True): "bc03eb93a121c87017873eb04c78bbcdeb7e28b1ff799e381e12d687c5af62c2",
    ("two_arm_hard", 1.0, 300_000, SEED, False): (
        "6640815bc33fd84b6d8f18646dbbdccedafa544630a7efa77de6c3f7f32ff0b1"
    ),
    ("S1", 1.0, 100_000, SEED, False): (
        "3ca09643fa80b43a2b1f6c18ee87fcefb47c31ce02e804338d39dece059dd0ab"
    ),
}


def release_digest(monkeypatch, config: ExperimentConfig, ledger) -> tuple:
    """SHA-256 of ``float.hex`` of the means before every round, then the final means.

    The repetition is played through ``select_arm``/``observe``, and
    ``select_arm`` calls ``_select(t)`` once before each round plays, so the
    wrapper hashes the means round ``t``'s arm was chosen from: the policy's
    stretch loop chose it when round ``t - 1`` ended.  When the digests were
    recorded, ``_select(t)`` itself read these means in every round, under
    ``run_single`` too.  Returns the digest and the played policy.
    """
    digest = hashlib.sha256()
    select = DPRobustUCB._select

    def hashing_select(self, t: int) -> int:
        digest.update(",".join(map(float.hex, self._means)).encode() + b";")
        return select(self, t)

    monkeypatch.setattr(DPRobustUCB, "_select", hashing_select)
    policy = make_policy(config, make_instance_for(config.setting, config.v), 0, ledger=ledger)
    drive_by_contract(config, policy)
    monkeypatch.undo()
    digest.update(",".join(map(float.hex, policy._means)).encode())
    return digest.hexdigest(), policy


def played_state(policy, ledger) -> tuple:
    """The final means, tree states, transcript and ledger columns of a played policy."""
    tables = [policy.transcript] + ([ledger.noise_draws, ledger.insertions] if ledger else [])
    return (
        [x.hex() for x in policy._means],
        [tree_state(tree) for tree in policy._trees],
        [column.tobytes() for table in tables for column in table.columns],
    )


def test_releases_match_the_recorded_digests(monkeypatch) -> None:
    # run_single's private index policy reads its means in a loop that calls
    # no _select, so the digest is taken on the contract's route, and
    # run_single must end in that route's state.
    digests = {}
    for setting, eps, horizon, seed, audited in RELEASE_CELLS:
        cell = (setting, eps, horizon, seed, audited)
        config = ExperimentConfig(
            algo="dprucb", setting=setting, v=V, eps=eps, horizon=horizon, reps=1, base_seed=seed
        )
        ledgers = [PrivacyLedger(), PrivacyLedger()] if audited else [None, None]
        digests[cell], by_contract = release_digest(monkeypatch, config, ledgers[0])
        print(f"release digest {cell}: {digests[cell]} pulls {by_contract.pull_counts}")
        if horizon == 300_000:
            assert min(by_contract.pull_counts) > 2**17
        _, policy = run_single(config, 0, ledger=ledgers[1], return_policy=True)
        assert played_state(policy, ledgers[1]) == played_state(by_contract, ledgers[0])
    assert digests == RELEASE_CELLS
