"""Command-line entry point: argument handling, outputs, error reporting."""

from __future__ import annotations

import concurrent.futures

import pytest

import htbandits.cli
from htbandits.cli import main


def run_cli(tmp_path, *extra: str) -> int:
    argv = [
        "--algo", "dprse",
        "--setting", "S1",
        "--v", "0.9",
        "--eps", "1.0",
        "--horizon", "500",
        "--reps", "2",
        "--seed", "1",
        "--out", str(tmp_path / "exp"),
        *extra,
    ]
    return main(argv)


def test_cli_writes_the_three_output_files(tmp_path, capsys) -> None:
    assert run_cli(tmp_path) == 0
    for suffix in (".runs.csv", ".summary.csv", ".meta"):
        assert (tmp_path / f"exp{suffix}").exists()
    out = capsys.readouterr().out
    assert "final regret mean=" in out
    assert "wrote" in out


def test_cli_reruns_are_byte_identical(tmp_path) -> None:
    run_cli(tmp_path, "--checkpoints", "10")
    first = (tmp_path / "exp.runs.csv").read_bytes()
    run_cli(tmp_path, "--checkpoints", "10")
    assert (tmp_path / "exp.runs.csv").read_bytes() == first


def test_cli_accepts_the_zero_noise_hook(tmp_path) -> None:
    assert run_cli(tmp_path, "--zero-noise") == 0


def test_cli_rejects_unknown_flags(tmp_path) -> None:
    with pytest.raises(SystemExit) as excinfo:
        run_cli(tmp_path, "--frobnicate")
    assert excinfo.value.code == 2


def test_cli_rejects_an_unknown_algorithm(tmp_path) -> None:
    with pytest.raises(SystemExit) as excinfo:
        main(["--algo", "bogus", "--setting", "S1", "--v", "0.9", "--eps", "1.0",
              "--horizon", "10", "--out", str(tmp_path / "x")])
    assert excinfo.value.code == 2


def test_cli_reports_bad_values_on_stderr(tmp_path, capsys) -> None:
    code = main(["--algo", "dprse", "--setting", "S1", "--v", "0.9", "--eps", "-1.0",
                 "--horizon", "10", "--out", str(tmp_path / "x")])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:")
    assert not (tmp_path / "x.runs.csv").exists()


def test_cli_rejects_an_infinite_budget(tmp_path, capsys) -> None:
    code = main(["--algo", "dprucb", "--setting", "S1", "--v", "0.9", "--eps", "inf",
                 "--horizon", "50", "--out", str(tmp_path / "x")])
    assert code == 1
    assert capsys.readouterr().err == "error: eps must be finite and positive, got inf\n"
    assert not (tmp_path / "x.runs.csv").exists()


def test_cli_rejects_a_short_dprucb_horizon_before_starting_workers(
    tmp_path, capsys, monkeypatch
) -> None:
    pools = []
    monkeypatch.setattr(
        concurrent.futures, "ProcessPoolExecutor", lambda *args, **kwargs: pools.append(kwargs)
    )
    code = main(["--algo", "dprucb", "--setting", "S1", "--v", "0.9", "--eps", "1",
                 "--horizon", "3", "--reps", "2", "--workers", "2",
                 "--out", str(tmp_path / "x")])
    assert code == 1
    assert capsys.readouterr().err == "error: horizon 3 is below the number of arms 5\n"
    assert pools == []


def test_cli_rejects_a_one_round_elimination_run_before_starting_workers(
    tmp_path, capsys, monkeypatch
) -> None:
    pools = []
    monkeypatch.setattr(
        concurrent.futures, "ProcessPoolExecutor", lambda *args, **kwargs: pools.append(kwargs)
    )
    for algo in ("dprse", "ldprse"):
        code = main(["--algo", algo, "--setting", "S1", "--v", "0.9", "--eps", "1",
                     "--horizon", "1", "--reps", "2", "--workers", "2",
                     "--out", str(tmp_path / "x")])
        assert code == 1
        assert capsys.readouterr().err == "error: beta must lie in (0, 1), got 1.0\n"
    assert pools == []


def test_cli_rejects_an_unusable_out_before_any_repetition(tmp_path, capsys, monkeypatch) -> None:
    def run_experiment(*args, **kwargs):
        raise AssertionError("run_experiment called")

    monkeypatch.setattr(htbandits.cli, "run_experiment", run_experiment)
    (tmp_path / "file").write_text("")
    code = main(["--algo", "rucb", "--setting", "S1", "--v", "0.9", "--eps", "1",
                 "--horizon", "10", "--out", str(tmp_path / "file" / "x")])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: [Errno")


@pytest.mark.parametrize(
    "algo, setting, eps",
    [
        ("dprucb", "S2", "5e-324"),  # eps / ln T underflows to 0
        ("dprucb", "S1", "1.7e308"),  # the first truncation level is inf
        ("dprse", "S1", "5e-324"),  # the epoch length's divisor underflows to 0
        ("dprse", "S1", "1.7e308"),  # the first release's scale is inf
        ("ldprse", "S1", "5e-324"),
        ("ldprse", "S1", "1e-170"),  # eps**2 underflows to 0
        ("ldprse", "S1", "1.7e308"),  # eps**2 overflows
    ],
)
def test_an_eps_the_formulas_cannot_carry_is_rejected_before_any_repetition(
    algo, setting, eps, tmp_path, capsys, monkeypatch
) -> None:
    with pytest.raises(ValueError):
        htbandits.ExperimentConfig(
            algo=algo, setting=setting, v=0.9, eps=float(eps), horizon=100, reps=1, base_seed=0
        )

    def run_experiment(*args, **kwargs):
        raise AssertionError("run_experiment called")

    monkeypatch.setattr(htbandits.cli, "run_experiment", run_experiment)
    code = main(["--algo", algo, "--setting", setting, "--v", "0.9", "--eps", eps,
                 "--horizon", "100", "--out", str(tmp_path / "x")])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: ")
