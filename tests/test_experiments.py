"""Experiment harness: registry coverage, oracle independence, error categories."""

import csv
import functools
import inspect
import math
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from rlab import experiments, kernels, shift
from rlab.emit import Table, emit, format_cell
from rlab.expansions import ZeroCloudElement, evaluate_partial
from rlab.experiments import (ConfigError, ExperimentConfig, ResourceCapError,
                              UnknownExperimentError, criteria, experiment_names,
                              resolve_params, run_experiment)
from rlab.finite import FiniteExpansion
from rlab.rational import parse_rational

ROOT = Path(__file__).resolve().parent.parent

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


@pytest.mark.parametrize("bad", [True, False, "10", [10]])
@pytest.mark.parametrize("name", ["concordance-thm8", "concordance-thm9",
                                  "property-L", "wintner-delange"])
def test_bool_or_non_numeric_cut_is_config_error(name, bad):
    with pytest.raises(ConfigError, match="params.cut"):
        run_experiment(ExperimentConfig(name=name, params={"cut": bad}))


def _declared(name):
    fn = experiments._REGISTRY[name]
    return {p.name: p.default
            for p in list(inspect.signature(fn).parameters.values())[1:]}


@pytest.mark.parametrize("name", REQUIRED)
def test_resolve_params_defaults_are_the_signature(name):
    declared = _declared(name)
    resolved = resolve_params(name, {})
    assert declared and resolved == declared
    for key, value in resolved.items():
        if isinstance(value, list):
            assert value is not declared[key]      # a fresh list per run


def test_resolve_params_overrides_and_accepts_int_for_float():
    got = resolve_params("orthogonality", {"qmax": 3, "tol": 1})
    assert got == {"qmax": 3, "nmax": 10, "x": 10 ** 6, "tol": 1}


def _junk(default):
    """Strategy for values that break the rule of `default`'s type."""
    if isinstance(default, list):
        bad_entry = st.tuples(_junk(default[0]), st.integers(0, len(default)))
        return st.one_of(
            st.just([]), st.none(), st.booleans(), st.integers(), st.floats(),
            st.text(max_size=4),
            bad_entry.map(lambda t: default[:t[1]] + [t[0]] + default[t[1]:]))
    others = st.one_of(st.none(), st.booleans(),
                       st.lists(st.integers(1, 9), max_size=2),
                       st.dictionaries(st.text(max_size=2), st.integers(),
                                       max_size=1))
    if isinstance(default, str):
        return st.one_of(others, st.integers(), st.floats())
    if isinstance(default, int):
        return st.one_of(others, st.integers(max_value=0), st.floats(),
                         st.text(max_size=4))
    return st.one_of(others, st.integers(max_value=0),
                     st.floats(max_value=0.0), st.sampled_from([math.nan, math.inf]),
                     st.text(max_size=4))


def _sentinel(fn):
    @functools.wraps(fn)          # keeps the signature resolution reads
    def body(cfg, **params):
        raise AssertionError("experiment body ran on rejected params")
    return body


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_rejected_params_never_reach_the_body(data):
    name = data.draw(st.sampled_from(REQUIRED))
    declared = _declared(name)
    if data.draw(st.booleans()):
        key = data.draw(st.sampled_from(sorted(declared)))
        params, named = {key: data.draw(_junk(declared[key]))}, f"params.{key}"
    else:
        key = data.draw(st.text(max_size=8).filter(lambda k: k not in declared))
        params, named = {key: declared[next(iter(declared))]}, repr(key)
    sentinels = {n: _sentinel(f) for n, f in experiments._REGISTRY.items()}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(experiments, "_REGISTRY", sentinels)
        with pytest.raises(ConfigError, match=re.escape(named)):
            run_experiment(ExperimentConfig(name=name, params=params))


@pytest.mark.parametrize("name, params", [
    ("lemma1-grid", {"qmaxx": 3}),
    ("lemma1-grid", {"qmax": "8"}),
    ("lemma1-grid", {"qmax": 3.5}),
    ("lemma1-grid", {"qmax": 0}),
    ("lemma1-grid", {"qmax": True}),
    ("lemma1-grid", {"qmax": 1e6}),          # a JSON 1e6 is a float
    ("identity12", {"trials": "x"}),
    ("identity12", {"trials": 0}),
    ("identity12", {"trials": -1}),
    ("orthogonality", {"tol": "a"}),
    ("prop1-divergence", {"margin": "x"}),
    ("cw-formula", {"grid": 1000}),
    ("cw-formula", {"functions": "one"}),
    ("delange-bound", {"tol": 1}),
])
def test_reproduced_bad_params_are_config_errors(name, params):
    with pytest.raises(ConfigError):
        run_experiment(ExperimentConfig(name=name, params=params))


def test_unknown_param_error_names_the_accepted_keys():
    with pytest.raises(ConfigError, match="accepted: qmax, nmax"):
        resolve_params("lemma1-grid", {"qmaxx": 3})


def test_conjecture1_reversed_bounds_is_config_error():
    with pytest.raises(ConfigError, match="q_lo"):
        run_experiment(ExperimentConfig(name="conjecture1",
                                        params={"q_lo": 5, "q_hi": 2}))


@pytest.mark.parametrize("x_hi", [100, 50])
def test_zero_cloud_unordered_bounds_is_config_error(x_hi):
    with pytest.raises(ConfigError, match="x_lo"):
        run_experiment(ExperimentConfig(name="zero-cloud-trend",
                                        params={"x_lo": 100, "x_hi": x_hi}))


def test_thm8_log_grid_is_capped():
    cfg = ExperimentConfig(name="concordance-thm8", cap_x=10 ** 4,
                           params={"cut": 10, "grid": [100, 200],
                                   "log_grid": [100, 10 ** 5]})
    with pytest.raises(ResourceCapError):
        run_experiment(cfg)


def test_run_record_quotes_resolved_params():
    rec = run_experiment(ExperimentConfig(
        name="lemma1-grid", params={"qmax": 8}))
    assert rec.params == {"qmax": 8, "nmax": 512}


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
        fhat = list(c.fhat)
        fhat[0] += Fraction(1, 7)
        return FiniteExpansion(c.range, fhat)

    monkeypatch.setattr(shift, "qrc", perturbed)
    rec = run_experiment(ExperimentConfig(
        name="identity12", seed=3, params={"trials": 1}))
    assert [o["status"] for o in rec.outcomes] == ["fail"]


def test_eq2_and_delange_detect_a_perturbed_table(monkeypatch):
    # the two grid experiments are the only checks of eq. (2) and of
    # Delange's bound: one entry off by one must fail both
    real = kernels.csum_block

    def perturbed(qmax, nmax):
        t = real(qmax, nmax).copy()
        t[2, 1] -= 1           # c_2(1) = -1 -> -2; the bound is tight there
        return t

    monkeypatch.setattr(kernels, "csum_block", perturbed)
    for name, params in (("eq2-grid", {"qmax": 16, "nmax": 16}),
                         ("delange-bound", {"dmax": 16, "nmax": 16})):
        rec = run_experiment(ExperimentConfig(name, params=params))
        assert [o["status"] for o in rec.outcomes] == ["fail"], name


def test_docs_and_ci_name_real_experiments():
    # the README acceptance table lists exactly the registry's criteria
    readme = (ROOT / "README.md").read_text()
    table = readme[readme.index("## Acceptance suite"):readme.index("## Layout")]
    pairs = re.findall(r"\|\s*(\d\d)\s*\|\s*([\w-]+)\s*(?=\|)", table)
    assert sorted((int(num), name) for num, name in pairs) == \
        [(num, name) for num, (_, name) in criteria().items()]
    # every experiment the CI workflow runs by name exists
    workflow = (ROOT / ".github" / "workflows" / "tier1.yml").read_text()
    names = re.findall(r"--name\s+([\w-]+)", workflow)
    assert names and set(names) <= set(experiment_names())


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


def test_emit_unknown_format_writes_no_file(tmp_path):
    t = Table(["q"], [(1,)])
    with pytest.raises(ValueError, match="unknown format 'xml'"):
        emit(t, tmp_path / "sub" / "x.xml", "xml")
    assert not (tmp_path / "sub").exists()
    kept = tmp_path / "kept.csv"
    kept.write_text("old")
    with pytest.raises(ValueError, match="unknown format"):
        emit(t, kept, "xml")
    assert kept.read_text() == "old"             # not truncated


def test_emit_ints_past_str_digit_limit(tmp_path):
    import json
    big = 10 ** 5000 + 7
    t = Table(["n", "v"])
    t.add(1, big)
    t.add(2, -big)
    rows = list(csv.reader(open(emit(t, tmp_path / "big.csv", "csv"))))
    assert [[int(n), parse_rational(v)] for n, v in rows[1:]] == [[1, big], [2, -big]]
    payload = json.load(open(emit(t, tmp_path / "big.json", "json")))
    assert [[n, parse_rational(v)] for n, v in payload["rows"]] == [[1, big], [2, -big]]


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


@pytest.mark.parametrize("name, sizes", [("lemma1-grid", ("qmax", "nmax")),
                                         ("eq2-grid", ("qmax", "nmax")),
                                         ("delange-bound", ("dmax", "nmax"))])
def test_grid_table_cells_are_checked_against_cap_x(name, sizes):
    params = dict.fromkeys(sizes, 8)        # a 9 x 9 table: 81 cells
    assert run_experiment(ExperimentConfig(name=name, params=params, cap_x=81)).passed
    with pytest.raises(ResourceCapError):
        run_experiment(ExperimentConfig(name=name, params=params, cap_x=80))


@pytest.mark.parametrize("key, value", [("seed", [1]), ("seed", True), ("seed", "3"),
                                        ("seed", 1.0), ("cap_x", "abc"), ("cap_x", 0),
                                        ("cap_x", True), ("cap_d", 2.5), ("cap_d", -1)])
def test_config_rejects_bad_seed_or_cap(key, value):
    with pytest.raises(ConfigError, match=key):
        ExperimentConfig(name="identity12", **{key: value})


def test_dk_coefficients_needs_a_point_to_check():
    with pytest.raises(ConfigError, match="nmax=1"):
        run_experiment(ExperimentConfig(name="dK-coefficients", params={"nmax": 1}))
    rec = run_experiment(ExperimentConfig(name="dK-coefficients",
                                          params={"nmax": 2, "kmax": 1}))
    assert rec.passed


def test_zero_cloud_trend_partials_are_evaluate_partial():
    # each row c_q(n) is built once for the three elements, and every
    # partial in the trend table is `evaluate_partial`'s value bit for bit
    cfg = ExperimentConfig(name="zero-cloud-trend")
    outcomes, tables = experiments._REGISTRY["zero-cloud-trend"](cfg, nmax=6, x_lo=10,
                                                                  x_hi=5000)
    rows = tables["trend"].rows
    assert len(rows) == 18 and [o["status"] for o in outcomes] == ["pass"]
    for alpha, beta, n, lo, hi in rows:
        e = ZeroCloudElement(alpha, beta)
        assert (lo, hi) == (evaluate_partial(e, n, 10), evaluate_partial(e, n, 5000))
