"""Self-test of the benchmark in quick mode (a fixed handful of ops).

Run from the repository root::

    python3 -m pytest perfbench -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)

#: The measured workloads, plus pair_edit, which runs only when named.
WORKLOADS = [w["name"] for w in SPEC["workloads"]] + ["pair_edit"]


def quick(workload: str, trace: int, seed: int = 7, cwd: str = ROOT):
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--quick"],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=180,
    )
    return proc


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    result = result_of(quick(workload, trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for metric in wanted:
        emitted = result["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"]
        assert isinstance(emitted["value"], (int, float))


def test_classroom_counts_repeat_exactly_for_a_seed():
    first = result_of(quick("classroom", 1, seed=3))["metrics"]
    second = result_of(quick("classroom", 1, seed=3))["metrics"]
    for name in ("net.msgs_per_op", "server.locks.denials_per_op"):
        assert first[name]["value"] == second[name]["value"]
    # The scripted races are the only denials, one per round of the mix.
    assert first["server.locks.denials_per_op"]["value"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "pair_edit",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_a_failed_check_names_workload_and_op():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    import workloads

    w = workloads.Classroom()
    dep = w.build(str(ROOT))
    try:
        script = w.script(__import__("random").Random(1), len(workloads.ROUND))
        for index, op in enumerate(script):
            w.run_op(dep, index, op, workloads.Recorder())
        # Diverge one replica behind the coupling's back.
        dep["scales"][0][0]._state["value"] = -1
        with pytest.raises(workloads.CheckFailed, match="classroom: op final"):
            w.check_final(dep)
    finally:
        w.teardown(dep)
