"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

from spans import Tracer, span_times

HERE = Path(__file__).resolve().parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def test_smoke_runs_every_workload_with_all_checks():
    out = _run(HERE.parent, "--smoke")
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    names = [json.loads(line)["workload"] for line in lines[:-1]]
    assert names == ["canon-cfi", "reduce-composite", "scheme-closure", "wlg-cli"]
    result = json.loads(lines[-1])
    assert set(result) == RESULT_KEYS
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0


def test_fails_without_a_source_tree(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = _run(tmp_path, "--workload", "canon-cfi", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert out.returncode != 0
    assert out.stdout.strip() == ""


def test_self_time_leaves_out_children_and_totals_leave_out_probes():
    t = Tracer()
    t.spans = [
        ["op.x", 0.0, 10.0, -1],
        ["canon.certify", 1.0, 9.0, 0],
        ["refine.refine_k", 2.0, 7.0, 1],
        ["kernels.dense_rank", 3.0, 4.0, 2],
        ["kernels.dense_rank", 5.0, 6.5, 2],
        ["probe", 7.5, 8.0, 1],
    ]
    calls, total, own, _ = span_times(t.spans)
    assert calls["kernels.dense_rank"] == 2
    assert total["canon.certify"] == 7.5
    assert total["op.x"] == 9.5
    assert own["op.x"] == 2.0
    assert own["canon.certify"] == 2.5
    assert own["refine.refine_k"] == 2.5
    assert own["kernels.dense_rank"] == 2.5
