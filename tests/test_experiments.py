"""Experiment harness: registry coverage, oracle independence, error categories."""

from fractions import Fraction

import pytest

from rlab import experiments, shift
from rlab.emit import Table, emit, format_cell
from rlab.experiments import (ConfigError, ExperimentConfig, ResourceCapError,
                              UnknownExperimentError, experiment_names,
                              run_experiment)
from rlab.finite import FiniteExpansion
from rlab.shift import ShiftCoefficients

REQUIRED = [
    "lemma1-grid", "eq2-grid", "delange-bound", "orthogonality",
    "prop1-divergence", "wintner-delange", "standard-fre", "prop2-roundtrip",
    "property-H", "property-L", "theorem4-roundtrip", "lucht-identity",
    "dK-coefficients", "zero-cloud-trend", "cw-formula", "lemma2",
    "conjecture1", "identity12", "cc", "reef", "weak-reef", "short-average",
    "concordance-thm8", "concordance-thm9",
]


def test_every_required_experiment_is_registered():
    names = experiment_names()
    for name in REQUIRED:
        assert name in names


def test_unknown_name_raises():
    with pytest.raises(UnknownExperimentError):
        run_experiment(ExperimentConfig(name="definitely-not-a-thing"))


def test_schema_violation_raises():
    with pytest.raises(ConfigError):
        run_experiment(ExperimentConfig(name="lemma1-grid", params=[1, 2]))


def test_empty_grid_is_schema_violation():
    with pytest.raises(ConfigError):
        run_experiment(ExperimentConfig(name="lemma2", params={"grid": []}))
    with pytest.raises(ConfigError):
        run_experiment(ExperimentConfig(name="lemma2",
                                        params={"grid": [100, 100]}))


@pytest.mark.parametrize("name", ["reef", "weak-reef", "short-average"])
def test_grid_value_below_one_is_config_error(name):
    with pytest.raises(ConfigError):
        run_experiment(ExperimentConfig(name=name, params={"lgrid": [0]}))


@pytest.mark.parametrize("name", ["concordance-thm8", "concordance-thm9",
                                  "property-L", "wintner-delange"])
def test_non_numeric_cut_is_config_error(name):
    with pytest.raises(ConfigError):
        run_experiment(ExperimentConfig(name=name, params={"cut": "abc"}))


def test_bool_or_non_numeric_cap_argument_is_config_error():
    cfg = ExperimentConfig(name="orthogonality")
    for bad in (True, False, "10", [10]):
        with pytest.raises(ConfigError):
            cfg.check_caps(x=bad)
        with pytest.raises(ConfigError):
            cfg.check_caps(d=bad)
    cfg.check_caps(x=10 ** 6, d=2.5)      # numbers within the caps pass


def test_cap_breach_raises():
    cfg = ExperimentConfig(name="orthogonality", cap_x=100)
    with pytest.raises(ResourceCapError):
        run_experiment(cfg)


def test_lemma1_small_passes():
    rec = run_experiment(ExperimentConfig(
        name="lemma1-grid", params={"qmax": 32, "nmax": 32}))
    assert rec.passed and rec.config_hash


def test_identity12_seed7_all_pass():
    rec = run_experiment(ExperimentConfig(
        name="identity12", seed=7, params={"trials": 4}))
    assert rec.passed


def test_prop2_pointwise_oracle_is_independent(monkeypatch):
    real = experiments.tds_to_fre

    def perturbed(t):
        e = real(t)
        fhat = list(e.fhat)
        fhat[-1] += Fraction(1, 7)
        return FiniteExpansion(e.range, fhat)

    monkeypatch.setattr(experiments, "tds_to_fre", perturbed)
    rec = run_experiment(ExperimentConfig(
        name="prop2-roundtrip", seed=3, params={"trials": 5, "nmax": 64}))
    status = {o["check"]: o["status"] for o in rec.outcomes}
    assert status["pointwise-every-n"] == "fail"


def test_identity12_detects_perturbed_qrc(monkeypatch):
    real = shift.qrc

    def perturbed(cut, q_cut):
        c = real(cut, q_cut)
        entries = list(c.entries)
        entries[0] += Fraction(1, 7)
        return ShiftCoefficients(c.length, c.q_cut, entries)

    monkeypatch.setattr(shift, "qrc", perturbed)
    rec = run_experiment(ExperimentConfig(
        name="identity12", seed=3, params={"trials": 1}))
    assert [o["status"] for o in rec.outcomes] == ["fail"]


def test_emit_formats(tmp_path):
    t = Table(["q", "value", "ratio"])
    t.add(1, Fraction(3, 2), 0.25)
    t.add(2, Fraction(5), float("inf"))
    p = emit(t, tmp_path / "x.csv", "csv")
    text = open(p).read().splitlines()
    assert text[0] == "q,value,ratio"
    assert text[1] == "1,3/2,0.25"
    assert text[2].startswith("2,5,")
    import json
    p2 = emit(t, tmp_path / "x.json", "json")
    payload = json.load(open(p2))
    assert payload["rows"][0] == [1, "3/2", 0.25]


def test_emit_empty_table(tmp_path):
    t = Table(["a", "b"])
    p = emit(t, tmp_path / "empty.csv", "csv")
    assert open(p).read().strip() == "a,b"


def test_format_cell_float_precision():
    # 17 significant digits: lossless float roundtrip
    assert format_cell(0.1) == "0.10000000000000001"
    assert float(format_cell(1 / 3)) == 1 / 3
    assert float(format_cell(2.0 ** -52)) == 2.0 ** -52
    assert format_cell(Fraction(7, 1)) == "7"
    assert format_cell(Fraction(-7, 3)) == "-7/3"
