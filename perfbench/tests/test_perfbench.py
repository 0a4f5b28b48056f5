"""Self-test of the benchmark: tiny runs emit every named metric, and a
wrong expected value shows up as a failed command.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT_DIR = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import worker  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT_DIR / "BENCHMARK.json").read_text())


def _run(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_emits_every_metric(workload, trace):
    proc = _run(ROOT_DIR, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    # Every command runs at least twice, so each output meets a repeat.
    assert result["attempted"] >= 2 * len(workloads.build(workload, 3, tiny=True))
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in spec}
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), name
    if trace and workload == "classify":
        assert result["metrics"]["kernel.calls"]["value"] == 0


def _corrupt(case):
    expect = case.expect
    if case.kind == "homcount" and expect["classes"] is not None:
        expect["classes"] += 1
    elif case.kind == "present" and "generators" in expect:
        expect["generators"] += 1
    elif case.kind == "classify" and expect["known"]:
        op = next(iter(expect["known"]))
        expect["known"][op] = not expect["known"][op]
    elif case.kind == "achiral" and expect["known"] is not None:
        expect["known"] = not expect["known"]
    else:
        return False
    return True


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_one_wrong_expected_value_fails_one_command(workload):
    borrays = worker.load_program()
    cases = workloads.build(workload, 3, tiny=True)
    counter = worker.NodeCounter(borrays.homcount._kernel)
    outputs = worker.run_pass(borrays.cli.main, cases, counter)["outputs"]
    assert worker.wrong_outputs(cases, outputs) == {}
    victim = next(i for i, case in enumerate(cases) if _corrupt(case))
    wrong = worker.wrong_outputs(cases, outputs)
    assert list(wrong) == [victim]
    assert len(wrong) / len(cases) > 0  # failed_frac


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT_DIR / "BENCHMARK.json", tmp_path)
    proc = _run(tmp_path, "classify", 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
