"""Smoke tests for the benchmark itself (tiny sizes, a few seconds each).

    python3 -m pytest e2ebench -q

Every workload must emit every metric that ``BENCHMARK.json`` declares,
with its unit, in both modes; a deliberately flipped verdict must fail
the run; and the runner must refuse to run a different program.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args: str, cwd: Path = ROOT, extra_env: dict | None = None):
    env = {k: v for k, v in os.environ.items()
           if k not in ("REPRO_KERNEL", "REPRO_CHAOS")}
    env.update(extra_env or {})
    cmd = [sys.executable, str(cwd / SPEC["command"][1]), *args]
    return subprocess.run(cmd, cwd=cwd, env=env, capture_output=True,
                          text=True, timeout=600)


def result_of(proc) -> dict:
    lines = proc.stdout.strip().splitlines()
    assert lines, proc.stderr
    return json.loads(lines[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", trace, "--tiny")
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    out = result_of(proc)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True
    assert out["failed"] == 0 and out["attempted"] >= 1
    declared = SPEC["per_layer" if trace == "1" else "end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    got = {k: v["unit"] for k, v in out["metrics"].items()}
    assert got == want
    for name, metric in out["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
        if trace == "0":
            assert metric["value"] > 0, name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_a_flipped_verdict_fails_the_run(workload):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", "0", "--tiny", "--flip-one")
    out = result_of(proc)
    assert proc.returncode == 1
    assert out["correct"] is False and out["failed"] >= 1


@pytest.mark.parametrize("var", ["REPRO_KERNEL", "REPRO_CHAOS"])
def test_refuses_a_pinned_variable(var):
    proc = bench("--workload", "monitor", "--seed", "1", "--seconds", "1",
                 "--trace", "0", "--tiny", extra_env={var: "python"})
    assert proc.returncode == 2
    assert proc.stdout == ""


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
