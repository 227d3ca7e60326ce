"""Self-test of the benchmark: a small-grid pass of every workload in both
modes, and the output checker against corrupted reports.

Run from the repository root:  python3 -m pytest -q perfbench
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Small grids on which every op check still holds for every seeded
# parameter; below them an intertwining residual exceeds 1e-4.
SMOKE_N = {"verify_catalog": 800, "spectrum_catalog": 800, "inline_quadrature": 400}


def _benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def _run(cwd, *args):
    return subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_reports_every_metric(workload, trace):
    done = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0",
                "--trace", str(trace), "--scale", str(SMOKE_N[workload]))
    assert done.returncode == 0, done.stderr
    line = json.loads(done.stdout.splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0, done.stderr
    assert line["attempted"] == len(next(workloads.cycles(workload, 0)))  # one cycle
    declared = _benchmark()["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in line["metrics"].items()}
    if not trace:
        assert all(m["value"] > 0 for m in line["metrics"].values())


def test_benchmark_json_names_every_workload():
    assert [w["name"] for w in _benchmark()["workloads"]] == list(workloads.WORKLOADS)


def test_cycles_depend_only_on_seed():
    first = next(workloads.cycles("inline_quadrature", 7))
    again = next(workloads.cycles("inline_quadrature", 7))
    other = next(workloads.cycles("inline_quadrature", 8))
    assert first == again
    assert first != other


VERIFY_OP = {"kind": "verify", "model": "scarf2", "W": None, "params": {"A": 4.0},
             "a": None, "b": None, "N": 2000}
SPECTRUM_OP = dict(VERIFY_OP, kind="spectrum", N=1000)
DERIVE_OP = {"kind": "derive", "model": None, "W": workloads.INLINE["morse"]["W"],
             "source": "morse", "params": {"xi": 1.0}, "a": 0.5, "b": 14.0, "N": None}


def _verify_report(intertwining=1.5e-6, status="PASS"):
    return json.dumps({"residuals": {"intertwining": intertwining, "eta_hermiticity": 0.0,
                                     "etaH_hermiticity": 4.8e-5}, "status": status})


def _spectrum_report(levels=(-2.25, -0.25)):
    pairs = [[level + 1e-4, 0.0] for level in levels] + [[0.4, 0.0], [1.7, 0.0]]
    return json.dumps({"spectrum": {"eigenvalues": pairs},
                       "bound_states": {"eigenvalues": pairs[:len(levels)]}})


def _derive_report(shift=0.0):
    import numpy as np

    x = np.linspace(0.6, 13.9, 50)
    g, v = workloads.derive_reference("morse", {"xi": 1.0}, x)
    return json.dumps({"columns": {"x": list(x), "G": list(g + shift), "V": list(v)}})


def test_checker_accepts_correct_reports():
    assert workloads.check(VERIFY_OP, 0, _verify_report()) is None
    assert workloads.check(VERIFY_OP, 1, _verify_report(status="FAIL")) is None
    assert workloads.check(SPECTRUM_OP, 0, _spectrum_report()) is None
    assert workloads.check(DERIVE_OP, 0, _derive_report()) is None


@pytest.mark.parametrize("op, code, text, reason", [
    (VERIFY_OP, 0, _verify_report(intertwining=2e-4), "intertwining"),
    (VERIFY_OP, 3, _verify_report(), "exit code"),
    (VERIFY_OP, 0, _verify_report(status="FAIL"), "disagrees"),
    (SPECTRUM_OP, 0, _spectrum_report(levels=(-2.25,)), "unmatched"),
    (SPECTRUM_OP, 4, _spectrum_report(), "exit code"),
    (DERIVE_OP, 0, _derive_report(shift=1e-6), "closed form"),
    (DERIVE_OP, 0, "{\"columns\": ", "malformed"),
])
def test_checker_rejects_corrupted_reports(op, code, text, reason):
    problem = workloads.check(op, code, text)
    assert problem is not None and reason in problem


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    done = _run(str(tmp_path), "--workload", "verify_catalog", "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert done.stdout == ""
