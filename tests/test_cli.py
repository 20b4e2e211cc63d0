"""End-to-end command-line checks, including exit codes and determinism."""

import json
import math
import os
import subprocess
import sys

import pytest

from sectornet import fileio
from sectornet.geometry import Point
from sectornet.scg import AntennaConfig


def run_cli(*argv, env_extra=None):
    env = dict(os.environ)
    env.pop("ANTENNA_SEED", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "sectornet", *argv],
        capture_output=True,
        text=True,
        env=env,
    )


def test_import_leaves_scipy_unloaded():
    # scipy is needed only by verify_hop_spanner, which imports it itself
    code = "import sectornet, sys; assert 'scipy' not in sys.modules"
    assert subprocess.run([sys.executable, "-c", code]).returncode == 0


def test_gen_is_deterministic_and_seed_env_overrides(tmp_path):
    out = tmp_path / "inst.json"
    assert run_cli("gen", "--family", "random_square", "--n", "6", "--seed", "11", "--out", str(out)).returncode == 0
    first = out.read_bytes()
    assert run_cli("gen", "--family", "random_square", "--n", "6", "--seed", "11", "--out", str(out)).returncode == 0
    assert out.read_bytes() == first
    r = run_cli(
        "gen", "--family", "random_square", "--n", "6", "--seed", "11", "--out", str(out),
        env_extra={"ANTENNA_SEED": "12"},
    )
    assert r.returncode == 0
    assert out.read_bytes() != first
    assert json.loads(out.read_text())["metadata"]["seed"] == 12


def test_gen_writes_to_stdout_without_out():
    r = run_cli("gen", "--family", "collinear", "--n", "9", "--seed", "2")
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["kind"] == "instance" and len(doc["points"]) == 9


def test_orient4_then_verify_passes(tmp_path):
    inst = tmp_path / "quad.json"
    cfg = tmp_path / "cfg.json"
    assert run_cli("gen", "--family", "random_square", "--n", "4", "--seed", "11", "--out", str(inst)).returncode == 0
    assert run_cli("orient4", "--instance", str(inst), "--out", str(cfg)).returncode == 0
    doc = json.loads(cfg.read_text())
    assert doc["mode"] == "orient4"
    assert all(a["range"] == "inf" for a in doc["antennas"])
    r = run_cli("verify", "--config", str(cfg))
    assert r.returncode == 0
    rep = json.loads(r.stdout)
    assert rep["ok"]
    assert rep["checks"]["connected"]["passed"]
    assert rep["checks"]["coverage"]["passed"]


def test_orient4_rejects_wrong_size(tmp_path):
    inst = tmp_path / "five.json"
    assert run_cli("gen", "--family", "random_square", "--n", "5", "--seed", "1", "--out", str(inst)).returncode == 0
    assert run_cli("orient4", "--instance", str(inst)).returncode == 2


@pytest.mark.parametrize("mode,limit", [("basic", 9), ("refined", 8)])
def test_replace_then_verify_stretch(tmp_path, mode, limit):
    inst = tmp_path / "udg.json"
    cfg = tmp_path / "cfg.json"
    assert run_cli("gen", "--family", "connected_udg", "--n", "50", "--seed", "3", "--out", str(inst)).returncode == 0
    assert run_cli("replace", "--instance", str(inst), "--mode", mode, "--out", str(cfg)).returncode == 0
    doc = json.loads(cfg.read_text())
    assert doc["mode"] == f"replace-{mode}"
    assert "grid_origin" in doc["metadata"]
    assert all(abs(a["range"] - 14.0 * math.sqrt(2.0)) < 1e-12 for a in doc["antennas"])
    r = run_cli("verify", "--config", str(cfg), "--instance", str(inst))
    assert r.returncode == 0
    rep = json.loads(r.stdout)
    assert rep["ok"]
    assert rep["checks"]["stretch"]["limit"] == limit
    assert rep["checks"]["stretch"]["max_hops"] <= limit


def test_power_then_verify_cost_chain(tmp_path):
    inst = tmp_path / "pts.json"
    cfg = tmp_path / "cfg.json"
    assert run_cli("gen", "--family", "random_square", "--n", "64", "--seed", "5", "--out", str(inst)).returncode == 0
    assert run_cli("power", "--instance", str(inst), "--beta", "2", "--out", str(cfg)).returncode == 0
    doc = json.loads(cfg.read_text())
    assert doc["mode"] == "power" and doc["metadata"]["beta"] == 2.0
    r = run_cli("verify", "--config", str(cfg), "--instance", str(inst))
    assert r.returncode == 0
    rep = json.loads(r.stdout)
    assert rep["ok"] and rep["checks"]["cost-chain"]["passed"]
    assert rep["checks"]["cost-chain"]["cost_over_mst"] >= 1.0


def test_render_is_deterministic_and_draws_grid(tmp_path):
    inst = tmp_path / "udg.json"
    cfg = tmp_path / "cfg.json"
    svg = tmp_path / "pic.svg"
    run_cli("gen", "--family", "connected_udg", "--n", "40", "--seed", "4", "--out", str(inst))
    run_cli("replace", "--instance", str(inst), "--out", str(cfg))
    assert run_cli("render", "--config", str(cfg), "--out", str(svg)).returncode == 0
    body = svg.read_text()
    assert body.rstrip().endswith("</svg>")
    assert "<line" in body  # grid overlay from the stored origin
    run_cli("render", "--config", str(cfg), "--out", str(svg))
    assert svg.read_text() == body
    # non-replacement configs draw no grid
    quad = tmp_path / "quad.json"
    qcfg = tmp_path / "qcfg.json"
    run_cli("gen", "--family", "random_square", "--n", "4", "--seed", "11", "--out", str(quad))
    run_cli("orient4", "--instance", str(quad), "--out", str(qcfg))
    r = run_cli("render", "--config", str(qcfg))
    assert r.returncode == 0 and "<line" not in r.stdout


def test_verify_failure_exits_one(tmp_path):
    inst = tmp_path / "quad.json"
    cfg = tmp_path / "cfg.json"
    run_cli("gen", "--family", "random_square", "--n", "4", "--seed", "11", "--out", str(inst))
    run_cli("orient4", "--instance", str(inst), "--out", str(cfg))
    doc = json.loads(cfg.read_text())
    for a in doc["antennas"]:
        a["orientation_radians"] = 0.1  # everyone stares the same way
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    r = run_cli("verify", "--config", str(bad))
    assert r.returncode == 1
    rep = json.loads(r.stdout)
    assert not rep["ok"] and not rep["checks"]["coverage"]["passed"]


def test_verify_connected_failure(tmp_path):
    cfg = tmp_path / "two.json"
    fileio.write_config(
        [
            AntennaConfig(Point(0.0, 0.0), math.pi, range=5.0),
            AntennaConfig(Point(1.0, 0.0), 0.0, range=5.0),
        ],
        "custom",
        cfg,
    )
    r = run_cli("verify", "--config", str(cfg), "--checks", "connected")
    assert r.returncode == 1


def test_usage_errors_exit_two(tmp_path):
    inst = tmp_path / "udg.json"
    cfg = tmp_path / "cfg.json"
    run_cli("gen", "--family", "connected_udg", "--n", "30", "--seed", "3", "--out", str(inst))
    run_cli("replace", "--instance", str(inst), "--out", str(cfg))
    assert run_cli("verify", "--config", str(tmp_path / "missing.json")).returncode == 2
    assert run_cli("verify", "--config", str(cfg), "--instance", str(inst), "--checks", "bogus").returncode == 2
    assert run_cli("verify", "--config", str(cfg), "--checks", "stretch").returncode == 2  # no instance
    # coverage demands unbounded ranges
    assert run_cli("verify", "--config", str(cfg), "--checks", "coverage").returncode == 2
    # argparse-level misuse
    assert run_cli("gen", "--family", "nope", "--n", "4").returncode == 2
