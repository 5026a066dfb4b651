"""Self-tests of the benchmark harness, on a small slice of one workload.

    python3 -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

from run import DEFAULT_SEED, is_count  # noqa: E402

# a slice of exact-rational that crosses the shift, rational, finite,
# expansions, ramanujan and arith layers in a couple of seconds
OPS = r"^(c14/i0/(cut|a1?[0-9])|c09/i[0-4]|c11/i[01]|c12/i[01])$"


def rep(*extra):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), "--workload", "exact-rational",
         "--seed", str(DEFAULT_SEED), "--ops", OPS, *extra],
        capture_output=True, text=True, timeout=120, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def test_traced_and_untraced_runs_give_identical_digests():
    plain = rep()
    traced = rep("--trace")
    assert plain["ops"] == traced["ops"] > 20
    assert plain["reference_checked"]
    assert plain["failures"] == traced["failures"] == []
    assert plain["digest"] == traced["digest"]


def test_count_metrics_repeat_exactly_across_traced_runs():
    first, second = rep("--trace")["layers"], rep("--trace")["layers"]
    counts = {k: v for k, v in first.items() if is_count(k)}
    assert counts["shift.shift_expansion_check.calls"] == 19
    assert counts["rational.exact_sum.terms"] > 0
    assert counts == {k: v for k, v in second.items() if is_count(k)}


def test_corrupted_reference_digest_is_a_failed_op(tmp_path):
    ref = json.loads((BENCH / "reference" / "exact-rational.json").read_text())
    ref["digests"]["c09/i3"] = "0" * 16
    path = tmp_path / "reference.json"
    path.write_text(json.dumps(ref))
    assert rep("--reference", str(path))["failures"] == [
        ["c09/i3", "digest differs from reference"]]


def test_benchmark_refuses_to_run_without_the_library(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "int-averages", "--seconds", "1"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
