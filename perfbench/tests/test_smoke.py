"""Tiny-size runs of every workload through the command line."""

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


def _benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as src:
        return json.load(src)


def _run(cwd, *args, timeout=180):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=timeout,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [
    w["name"] for w in _benchmark()["workloads"]
])
def test_every_named_metric_prints_with_its_unit(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "3",
                "--seconds", "1", "--trace", trace, "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    listed = _benchmark()["end_to_end" if trace == "0" else "per_layer"]
    assert set(result["metrics"]) == {m["name"] for m in listed}
    for metric in listed:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"]
        assert isinstance(printed["value"], (int, float))
        if trace == "0":
            assert printed["value"] > 0, metric["name"]
    diagnostics = json.loads(lines[-2])["diagnostics"]
    assert diagnostics["host_probe_s"]["before"] > 0
    assert all(diagnostics["gates"].values())


def test_without_program_sources_it_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "board-mp", "--seed", "1",
                "--seconds", "1", "--trace", "0", timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
