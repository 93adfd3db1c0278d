"""The scripts CI runs fail when the identities they check break."""

import dataclasses
import importlib.util
from pathlib import Path

import pytest

from qfeedback.measurement import ModelKind

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.fixture
def ensemble_check():
    spec = importlib.util.spec_from_file_location(
        "ensemble_check", SCRIPTS / "ensemble_check.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_ensemble_check_passes(ensemble_check, capsys):
    assert ensemble_check.main(["--models", "5"]) == 0
    assert "BREACH" not in capsys.readouterr().err


@pytest.mark.parametrize("temperature, dropped", [("1", 0), ("0.01", 5)])
def test_ensemble_check_counts_the_cycles_that_drop(ensemble_check, capsys, temperature, dropped):
    # energy-basis projectors onto high levels have p_n below the fixed floor at low T
    assert ensemble_check.main(["--models", "10", "--temperature", temperature]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert f"cycles that dropped an outcome      : {dropped} of 20" in lines


def test_ensemble_check_fails_on_a_broken_identity(ensemble_check, monkeypatch, capsys):
    run_cycle = ensemble_check.run_cycle

    def off_by_a_little(*args, **kwargs):
        ledger = run_cycle(*args, **kwargs)
        return dataclasses.replace(ledger, work_fb=ledger.work_fb + 1e-6)

    monkeypatch.setattr(ensemble_check, "run_cycle", off_by_a_little)
    assert ensemble_check.main(["--models", "5"]) == 1
    assert "BREACH: cycle work identity" in capsys.readouterr().err


def test_ensemble_check_fails_on_a_broken_controller_ledger(ensemble_check, monkeypatch, capsys):
    run_controller_cycle = ensemble_check.run_controller_cycle

    def bath_off_by_a_little(*args, **kwargs):
        result = run_controller_cycle(*args, **kwargs)
        return dataclasses.replace(
            result, bath_entropy_increase=result.bath_entropy_increase + 1e-6
        )

    monkeypatch.setattr(ensemble_check, "run_controller_cycle", bath_off_by_a_little)
    assert ensemble_check.main(["--models", "5"]) == 1
    err = capsys.readouterr().err
    assert "BREACH: controller bath gain" in err
    assert "BREACH: cycle" not in err


def test_ensemble_check_gates_the_controller_work(ensemble_check, monkeypatch, capsys):
    # one work identity line per picture pass: the cycle's and each controller kind's
    assert ensemble_check.main(["--models", "5"]) == 0
    lines = capsys.readouterr().out.splitlines()
    works = [line for line in lines if line.startswith("worst |work_fb - T*dS_meas|  ")]
    assert len(works) == 5
    assert all(float(line.rsplit(":", 1)[1]) < 1e-12 for line in works)

    run_controller_cycle = ensemble_check.run_controller_cycle

    def bare_work_off(h, temperature, model, *args, **kwargs):
        result = run_controller_cycle(h, temperature, model, *args, **kwargs)
        if model.kind is ModelKind.BARE:
            result = dataclasses.replace(result, work_fb=result.work_fb + 1e-6)
        return result

    monkeypatch.setattr(ensemble_check, "run_controller_cycle", bare_work_off)
    assert ensemble_check.main(["--models", "5"]) == 1
    err = capsys.readouterr().err
    assert "BREACH: controller work identity" in err
    assert "BREACH: pure controller work identity" in err  # rank-1 projectors are bare
    assert err.count("BREACH") == 2


def test_ensemble_check_fails_on_a_broken_weak_controller_pass(
    ensemble_check, monkeypatch, capsys
):
    run_controller_cycle = ensemble_check.run_controller_cycle

    def weak_probabilities_off(h, temperature, model, *args, **kwargs):
        result = run_controller_cycle(h, temperature, model, *args, **kwargs)
        if model.kind is ModelKind.WEAK:
            result = dataclasses.replace(result, probabilities=result.probabilities + 1e-6)
        return result

    monkeypatch.setattr(ensemble_check, "run_controller_cycle", weak_probabilities_off)
    assert ensemble_check.main(["--models", "5"]) == 1
    err = capsys.readouterr().err
    assert "BREACH: weak controller probabilities" in err
    assert "BREACH: controller" not in err and "BREACH: cycle" not in err


def test_ensemble_check_fails_on_a_broken_efficient_controller_pass(
    ensemble_check, monkeypatch, capsys
):
    run_controller_cycle = ensemble_check.run_controller_cycle

    def efficient_entropy_off(h, temperature, model, *args, **kwargs):
        result = run_controller_cycle(h, temperature, model, *args, **kwargs)
        if model.kind is ModelKind.EFFICIENT:
            result = dataclasses.replace(result, delta_s_meas=result.delta_s_meas + 1e-6)
        return result

    monkeypatch.setattr(ensemble_check, "run_controller_cycle", efficient_entropy_off)
    assert ensemble_check.main(["--models", "5"]) == 1
    err = capsys.readouterr().err
    assert "BREACH: efficient controller dS_meas" in err
    assert "BREACH: controller" not in err and "BREACH: weak" not in err


def test_ensemble_check_holds_pure_outcomes_to_round_off(ensemble_check, monkeypatch, capsys):
    # 2.8e-11, the bias a 1e-12 population floor put on the presets, is a breach
    run_cycle = ensemble_check.run_cycle

    def biased(*args, **kwargs):
        ledger = run_cycle(*args, **kwargs)
        return dataclasses.replace(ledger, work_fb=ledger.work_fb + 2.8e-11)

    monkeypatch.setattr(ensemble_check, "run_cycle", biased)
    assert ensemble_check.main(["--models", "5"]) == 1
    err = capsys.readouterr().err
    assert "BREACH: pure work identity" in err
    assert "BREACH: cycle work identity" not in err
