"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import compare  # noqa: E402
import workloads  # noqa: E402
from sectornet import FULL_CELL_MIN, build_udg, grid_partition, is_connected  # noqa: E402
from tracing import NullTracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAMES = [w["name"] for w in SPEC["workloads"]]


def run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=170,
    )


def records(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]


def test_workloads_match_the_spec():
    assert sorted(NAMES) == sorted(workloads.WORKLOADS) == sorted(workloads.SIZES)


def test_end_to_end_run_prints_every_metric_with_its_unit(tmp_path):
    proc = run("--workload", "quad_batch", "--seed", "5", "--seconds", "0.5",
               "--trace", "0", "--tiny", "--out", str(tmp_path / "r.jsonl"))
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in last["metrics"].items()} == units
    assert all(v["value"] > 0 for v in last["metrics"].values())


def test_every_workload_passes_and_repeats_its_digest(tmp_path):
    out = tmp_path / "r.jsonl"
    for _ in range(2):
        proc = run("--workload", "all", "--seed", "3", "--seconds", "0.3", "--tiny", "--out", str(out))
        assert proc.returncode == 0, proc.stderr
    recs = records(out)
    assert [r["workload"] for r in recs] == NAMES * 2
    for first, second in zip(recs[: len(NAMES)], recs[len(NAMES):]):
        assert first["failed"] == 0 and first["metrics"]["pass_ratio"] == 1.0
        assert first["digest"] == second["digest"]
        assert first["env"]["seed"] == 3 and first["env"]["threads"]["OMP_NUM_THREADS"] == "1"


def test_traced_run_prints_every_layer_metric(tmp_path):
    proc = run("--workload", "udg_web", "--seed", "2", "--seconds", "1", "--trace", "1",
               "--tiny", "--out", str(tmp_path / "r.jsonl"))
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in last["metrics"].items()} == units
    values = {k: v["value"] for k, v in last["metrics"].items()}
    assert values["trace.overhead_ratio"] > 0
    assert values["replacement.replace.calls"] == values["trace.ops"]
    assert values["replacement.hubs.calls"] >= values["trace.ops"]
    assert values["power.orient_and_assign.calls"] == 0


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_web_generator_is_connected_and_leaves_stray_points(seed):
    size = workloads.SIZES["udg_web"][0]
    pts = workloads.web_points(seed, size["n"])
    assert len(pts) == size["n"] == len(set(pts))
    assert is_connected(build_udg(pts))
    grid = grid_partition(pts)
    strays = sum(len(c) for c in grid.cells.values() if len(c) < FULL_CELL_MIN)
    assert strays > 0 and len(grid.full_cells()) > 1


def test_same_seed_same_inputs():
    t = NullTracer()
    for name, wl in workloads.WORKLOADS.items():
        size = workloads.SIZES[name][1]
        assert repr(wl.make(7, size, t)) == repr(wl.make(7, size, t))


def test_compare_verdicts():
    base = [100.0 + i for i in range(10)]
    assert compare.verdict(base, [v * 1.2 for v in base], "higher", 0.1) == "better"
    assert compare.verdict(base, [v * 0.8 for v in base], "higher", 0.1) == "worse"
    assert compare.verdict(base, list(base), "higher", 0.1) == "unchanged"
    noisy = [50.0, 150.0] * 5
    assert compare.verdict(noisy, noisy[::-1], "lower", 0.1) == "unresolved"


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "udg_dense", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
