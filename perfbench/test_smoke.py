"""Smoke test of the benchmark: every workload at a tiny size, traced and untraced.

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload: str, trace: int) -> tuple[dict, str]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0.1", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, cwd=ROOT, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    (param_hash,) = [line.split()[-1] for line in lines if line.startswith("# param_sha256 ")]
    return json.loads(lines[-1]), param_hash


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_metric_reported_and_traced_hash_matches(workload):
    untraced, untraced_hash = run(workload, 0)
    traced, traced_hash = run(workload, 1)
    for result, declared in ((untraced, SPEC["end_to_end"]), (traced, SPEC["per_layer"])):
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        units = {name: m["unit"] for name, m in result["metrics"].items()}
        assert units == {m["name"]: m["unit"] for m in declared}
    assert all(untraced["metrics"][m["name"]]["value"] > 0 for m in SPEC["end_to_end"])
    assert traced_hash == untraced_hash and len(traced_hash) == 66  # quoted hex digest
