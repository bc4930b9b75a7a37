"""Every workload, at minimal length, prints every metric of BENCHMARK.json."""

import json
import shutil
import subprocess
import sys

import pytest

from conftest import BENCH

ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT, root=ROOT):
    cmd = [sys.executable, str(root / "perfbench" / "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_prints_every_metric(workload, trace):
    done = bench("--workload", workload, "--seed", "7", "--seconds", "0.01", "--trace", str(trace))
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }


def test_refuses_without_the_library():
    bare = ROOT / ".perfbench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        done = bench("--workload", "classify", "--seed", "1", "--seconds", "1", cwd=bare, root=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
