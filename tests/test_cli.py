"""End-to-end command-line checks, including exit codes and determinism."""

import json
import math
import subprocess
import sys

import pytest

from sectornet import cli, fileio
from sectornet.generators import FAMILIES
from sectornet.geometry import AntennaConfig, Point
from sectornet.orientation import configs_from_assignment, orient_quadruplet
from sectornet.scg import build_scg


def run_cli(*argv):
    return subprocess.run(
        [sys.executable, "-m", "sectornet", *argv], capture_output=True, text=True
    )


def test_import_leaves_scipy_unloaded(tmp_path):
    # numpy is the only runtime dependency: scipy serves the tests alone,
    # so neither the replacement pipeline nor `verify` may load it
    inst, cfg = str(tmp_path / "inst.json"), str(tmp_path / "cfg.json")
    code = f"""
import sys
from sectornet import cli, fileio
from sectornet.generators import GenSpec, gen
from sectornet.replacement import build_udg, replace, verify_hop_spanner
from sectornet.scg import build_scg
pts = list(gen(GenSpec("connected_udg", 40, seed=3)).points)
result = replace(pts)
assert verify_hop_spanner(build_udg(pts), build_scg(result.configs), 8).ok
fileio.write_instance(pts, {inst!r})
fileio.write_config(result.configs, "replace-refined", {cfg!r})
assert cli.main(["verify", "--config", {cfg!r}, "--instance", {inst!r}]) == 0
assert "scipy" not in sys.modules
"""
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr


def test_verify_builds_the_scg_once(tmp_path, monkeypatch, capsys):
    inst = tmp_path / "udg.json"
    cfg = tmp_path / "cfg.json"
    assert cli.main(["gen", "--family", "connected_udg", "--n", "30", "--seed", "3", "--out", str(inst)]) == 0
    assert cli.main(["replace", "--instance", str(inst), "--out", str(cfg)]) == 0
    calls = []

    def counting_build_scg(configs):
        calls.append(len(configs))
        return build_scg(configs)

    monkeypatch.setattr(cli, "build_scg", counting_build_scg)
    # connected and stretch both read the SCG
    assert cli.main(["verify", "--config", str(cfg), "--instance", str(inst)]) == 0
    assert json.loads(capsys.readouterr().out)["checks"].keys() == {"connected", "stretch"}
    assert calls == [30]
    # a usage error comes before any build
    assert cli.main(["verify", "--config", str(cfg), "--checks", "stretch"]) == 2
    assert calls == [30]


def test_verify_reports_usage_errors_before_building(tmp_path, monkeypatch):
    # every requested check raises its usage errors before any check
    # builds an SCG, a unit-disk graph or a tour
    udg = tmp_path / "udg.json"
    rcfg = tmp_path / "rcfg.json"
    pts = tmp_path / "pts.json"
    pcfg = tmp_path / "pcfg.json"
    assert cli.main(["gen", "--family", "connected_udg", "--n", "30", "--seed", "3", "--out", str(udg)]) == 0
    assert cli.main(["replace", "--instance", str(udg), "--out", str(rcfg)]) == 0
    assert cli.main(["gen", "--family", "random_square", "--n", "20", "--seed", "3", "--out", str(pts)]) == 0
    assert cli.main(["power", "--instance", str(pts), "--beta", "2", "--out", str(pcfg)]) == 0
    doc = json.loads(pcfg.read_text())
    doc["metadata"]["beta"] = 0.5
    low = tmp_path / "low.json"
    low.write_text(json.dumps(doc))
    builds = []
    for name in ("build_scg", "_udg", "tsp_tour_approx"):
        monkeypatch.setattr(cli, name, lambda *a, name=name: builds.append(name))
    for argv in (
        ["--config", str(rcfg), "--checks", "connected,stretch"],  # no instance
        ["--config", str(rcfg), "--instance", str(pts), "--checks", "connected,stretch"],
        ["--config", str(pcfg), "--checks", "connected,cost-chain"],
        ["--config", str(pcfg), "--instance", str(udg), "--checks", "connected,cost-chain"],
        ["--config", str(rcfg), "--instance", str(udg), "--checks", "connected,cost-chain"],  # no beta
        ["--config", str(low), "--instance", str(pts), "--checks", "connected,cost-chain"],
        ["--config", str(pcfg), "--instance", str(pts), "--checks", "connected,coverage"],
    ):
        assert cli.main(["verify", *argv]) == 2, argv
    assert builds == []


def test_gen_is_deterministic(tmp_path):
    out = tmp_path / "inst.json"
    assert run_cli("gen", "--family", "random_square", "--n", "6", "--seed", "11", "--out", str(out)).returncode == 0
    first = out.read_bytes()
    assert run_cli("gen", "--family", "random_square", "--n", "6", "--seed", "11", "--out", str(out)).returncode == 0
    assert out.read_bytes() == first


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
    _check_zero_signs(tmp_path, cfg, inst, r.stdout)


def _check_zero_signs(tmp_path, cfg, inst, report):
    """``verify`` of ``cfg`` with the antenna at x = 0.0 rewritten to x =
    -0.0 gives ``report`` again, as -0.0 equals 0.0; moved by 1e-9, the
    antenna no longer matches the instance, a usage error."""
    doc = json.loads(cfg.read_text())
    (at,) = [a for a in doc["antennas"] if a["x"] == 0.0]
    other = tmp_path / "other.json"
    at["x"] = -0.0
    other.write_text(json.dumps(doc))
    r = run_cli("verify", "--config", str(other), "--instance", str(inst))
    assert r.returncode == 0 and r.stdout == report, r.stderr
    at["x"] = 1e-9
    other.write_text(json.dumps(doc))
    r = run_cli("verify", "--config", str(other), "--instance", str(inst))
    assert r.returncode == 2 and "do not match" in r.stderr


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
    # the same with one instance point at x = 0.0
    doc = json.loads(inst.read_text())
    doc["points"][0]["x"] = 0.0
    inst.write_text(json.dumps(doc))
    assert run_cli("power", "--instance", str(inst), "--beta", "2", "--out", str(cfg)).returncode == 0
    r = run_cli("verify", "--config", str(cfg), "--instance", str(inst))
    assert r.returncode == 0 and json.loads(r.stdout)["ok"]
    _check_zero_signs(tmp_path, cfg, inst, r.stdout)


def test_power_then_verify_below_eight_points(tmp_path):
    # the single-cluster fallback is audited as one whole-cycle section
    inst = tmp_path / "five.json"
    cfg = tmp_path / "cfg.json"
    assert run_cli("gen", "--family", "random_square", "--n", "5", "--seed", "1", "--out", str(inst)).returncode == 0
    assert run_cli("power", "--instance", str(inst), "--beta", "2", "--out", str(cfg)).returncode == 0
    r = run_cli("verify", "--config", str(cfg), "--instance", str(inst))
    assert r.returncode == 0, r.stderr
    rep = json.loads(r.stdout)
    assert rep["ok"] and rep["checks"]["cost-chain"]["max_index_gap"] == 4


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
    rep = _strict_json(r.stdout)
    assert not rep["ok"] and not rep["checks"]["coverage"]["passed"]
    # a disconnected SCG has no finite hop bound; the report stays strict JSON
    udg = tmp_path / "udg.json"
    run_cli("gen", "--family", "connected_udg", "--n", "60", "--seed", "7", "--out", str(udg))
    run_cli("replace", "--instance", str(udg), "--out", str(cfg))
    doc = json.loads(cfg.read_text())
    for a in doc["antennas"]:
        a["orientation_radians"] = 0.0
    bad.write_text(json.dumps(doc))
    r = run_cli("verify", "--config", str(bad), "--instance", str(udg))
    assert r.returncode == 1
    rep = _strict_json(r.stdout)
    assert not rep["ok"] and not rep["checks"]["connected"]["passed"]
    assert rep["checks"]["stretch"]["max_hops"] == "inf"


def _strict_json(text):
    def reject(name):
        raise ValueError(f"not JSON: {name}")

    return json.loads(text, parse_constant=reject)


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


def test_verify_rejects_an_overflowing_squared_distance(tmp_path):
    cfg = tmp_path / "far.json"
    fileio.write_config(
        [AntennaConfig(Point(-1e155, 0.0), math.pi), AntennaConfig(Point(1e155, 0.0), 0.0)],
        "custom",
        cfg,
    )
    r = run_cli("verify", "--config", str(cfg), "--checks", "connected")
    assert r.returncode == 2 and "overflow" in r.stderr
    assert "RuntimeWarning" not in r.stderr


def test_verify_rejects_costs_beyond_the_float_range(tmp_path):
    # assigning at beta 400 reads no power, so it succeeds; the audit's
    # r**400 does not fit a float, which is a usage error, not a failed check
    inst, cfg = tmp_path / "pts.json", tmp_path / "cfg.json"
    assert run_cli("gen", "--family", "random_square", "--n", "40", "--seed", "1", "--out", str(inst)).returncode == 0
    assert run_cli("power", "--instance", str(inst), "--beta", "400", "--out", str(cfg)).returncode == 0
    r = run_cli("verify", "--config", str(cfg), "--instance", str(inst))
    assert r.returncode == 2 and "overflow" in r.stderr
    assert "Traceback" not in r.stderr


def test_a_negative_gap_is_a_usage_error(tmp_path):
    out = tmp_path / "pair.json"
    r = run_cli("gen", "--family", "separated_quads", "--n", "8", "--gap", "-100", "--out", str(out))
    assert r.returncode == 2 and "gap" in r.stderr and "Traceback" not in r.stderr
    assert not out.exists()


def test_render_rejects_a_malformed_grid_origin_and_an_infinite_viewport(tmp_path, capsys):
    inst, cfg = tmp_path / "udg.json", tmp_path / "cfg.json"
    assert cli.main(["gen", "--family", "connected_udg", "--n", "30", "--seed", "3", "--out", str(inst)]) == 0
    assert cli.main(["replace", "--instance", str(inst), "--out", str(cfg)]) == 0
    doc = json.loads(cfg.read_text())
    bad = tmp_path / "bad.json"
    for origin in (["a", "b"], 5, [None, None], [True, False]):
        doc["metadata"]["grid_origin"] = origin
        bad.write_text(json.dumps(doc))
        capsys.readouterr()
        assert cli.main(["render", "--config", str(bad)]) == 2, origin
        assert "grid_origin" in capsys.readouterr().err
    # an orient4 config far out: the viewport would be -inf, nan, inf, inf
    corners = [Point(-1e308, -1e308), Point(1e308, -1e308), Point(1e308, 1e308), Point(-1e308, 1e308)]
    fileio.write_config(configs_from_assignment(orient_quadruplet(corners)), "orient4", bad)
    r = run_cli("render", "--config", str(bad))
    assert r.returncode == 2 and "float range" in r.stderr and "Traceback" not in r.stderr
    assert r.stdout == ""


def test_usage_errors_exit_two(tmp_path):
    inst = tmp_path / "udg.json"
    cfg = tmp_path / "cfg.json"
    run_cli("gen", "--family", "connected_udg", "--n", "30", "--seed", "3", "--out", str(inst))
    run_cli("replace", "--instance", str(inst), "--out", str(cfg))
    assert run_cli("verify", "--config", str(tmp_path / "missing.json")).returncode == 2
    assert run_cli("verify", "--config", str(cfg), "--instance", str(inst), "--checks", "bogus").returncode == 2
    assert run_cli("verify", "--config", str(cfg), "--checks", "stretch").returncode == 2  # no instance
    for empty in (",", ""):
        r = run_cli("verify", "--config", str(cfg), "--instance", str(inst), "--checks", empty)
        assert r.returncode == 2 and "no checks given" in r.stderr
    # coverage demands unbounded ranges
    assert run_cli("verify", "--config", str(cfg), "--checks", "coverage").returncode == 2
    # malformed files: a missing key and a wrong shape
    doc = json.loads(inst.read_text())
    del doc["points"]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    r = run_cli("orient4", "--instance", str(bad))
    assert r.returncode == 2 and str(bad) in r.stderr and "Traceback" not in r.stderr
    doc = json.loads(cfg.read_text())
    doc["antennas"] = [[0.0, 0.0]]
    bad.write_text(json.dumps(doc))
    r = run_cli("verify", "--config", str(bad), "--checks", "connected")
    assert r.returncode == 2 and str(bad) in r.stderr and "Traceback" not in r.stderr
    # an antenna with a zero aperture is malformed too, even for render
    doc = json.loads(cfg.read_text())
    doc["antennas"][0]["aperture_radians"] = 0.0
    bad.write_text(json.dumps(doc))
    r = run_cli("render", "--config", str(bad))
    assert r.returncode == 2 and str(bad) in r.stderr and "Traceback" not in r.stderr
    # argparse-level misuse
    assert run_cli("gen", "--family", "nope", "--n", "4").returncode == 2


def test_verify_rejects_a_config_that_repeats_an_antenna(tmp_path, capsys):
    # the point sets still agree, so only the count shows the repeat;
    # the audit would read one of its two radii
    inst = tmp_path / "pts.json"
    cfg = tmp_path / "cfg.json"
    assert cli.main(["gen", "--family", "random_square", "--n", "20", "--seed", "3", "--out", str(inst)]) == 0
    assert cli.main(["power", "--instance", str(inst), "--beta", "2", "--out", str(cfg)]) == 0
    doc = json.loads(cfg.read_text())
    doc["antennas"].insert(0, dict(doc["antennas"][0], range=1e9))
    cfg.write_text(json.dumps(doc))
    capsys.readouterr()
    argv = ["verify", "--config", str(cfg), "--instance", str(inst), "--checks", "cost-chain"]
    assert cli.main(argv) == 2
    assert "do not match" in capsys.readouterr().err


def test_non_finite_orientation_is_a_malformed_config(tmp_path, capsys):
    inst = tmp_path / "pts.json"
    cfg = tmp_path / "cfg.json"
    assert cli.main(["gen", "--family", "random_square", "--n", "4", "--seed", "1", "--out", str(inst)]) == 0
    assert cli.main(["orient4", "--instance", str(inst), "--out", str(cfg)]) == 0
    doc = json.loads(cfg.read_text())
    doc["antennas"][0]["orientation_radians"] = math.nan  # written as the token NaN
    cfg.write_text(json.dumps(doc))
    capsys.readouterr()
    for argv in (["verify", "--checks", "connected"], ["verify", "--checks", "coverage"], ["render"]):
        assert cli.main([*argv, "--config", str(cfg)]) == 2, argv
        err = capsys.readouterr().err
        assert str(cfg) in err and "orientation must be finite" in err


def test_a_number_written_as_a_string_or_bool_is_a_malformed_file(tmp_path, capsys):
    inst = tmp_path / "pts.json"
    cfg = tmp_path / "cfg.json"
    bad_inst = tmp_path / "bad_pts.json"
    bad_cfg = tmp_path / "bad_cfg.json"
    assert cli.main(["gen", "--family", "random_square", "--n", "4", "--seed", "1", "--out", str(inst)]) == 0
    assert cli.main(["orient4", "--instance", str(inst), "--out", str(cfg)]) == 0
    doc = json.loads(inst.read_text())
    doc["points"][0]["x"] = "0"
    bad_inst.write_text(json.dumps(doc))
    doc = json.loads(cfg.read_text())
    doc["antennas"][0]["y"] = True
    bad_cfg.write_text(json.dumps(doc))
    capsys.readouterr()
    for argv, bad in (
        (["verify", "--checks", "connected", "--config", str(bad_cfg)], bad_cfg),
        (["render", "--config", str(bad_cfg)], bad_cfg),
        (["verify", "--checks", "connected", "--config", str(cfg), "--instance", str(bad_inst)], bad_inst),
    ):
        assert cli.main(argv) == 2, argv
        err = capsys.readouterr().err
        assert str(bad) in err and "must be JSON numbers" in err


def test_replace_has_no_origin_option(tmp_path, capsys):
    # the grid origin is always the floored minimum of the points
    inst = tmp_path / "udg.json"
    assert cli.main(["gen", "--family", "connected_udg", "--n", "20", "--seed", "3", "--out", str(inst)]) == 0
    with pytest.raises(SystemExit) as exc:
        cli.main(["replace", "--instance", str(inst), "--origin", "0", "0"])
    assert exc.value.code == 2
    assert "--origin" in capsys.readouterr().err


def test_verify_writes_an_infinite_limit_as_a_string(tmp_path, monkeypatch, capsys):
    inst = tmp_path / "udg.json"
    cfg = tmp_path / "cfg.json"
    assert cli.main(["gen", "--family", "connected_udg", "--n", "30", "--seed", "3", "--out", str(inst)]) == 0
    assert cli.main(["replace", "--instance", str(inst), "--out", str(cfg)]) == 0
    capsys.readouterr()
    argv = ["verify", "--config", str(cfg), "--instance", str(inst), "--checks", "stretch"]
    assert cli.main([*argv, "--limit", "inf"]) == 0
    rep = _strict_json(capsys.readouterr().out)
    assert rep["checks"]["stretch"]["limit"] == "inf" and rep["ok"]
    # a NaN limit is a usage error, raised before any graph is built
    builds = []
    for name in ("build_scg", "_udg"):
        monkeypatch.setattr(cli, name, lambda *a, name=name: builds.append(name))
    assert cli.main([*argv, "--limit", "nan"]) == 2
    assert "NaN" in capsys.readouterr().err and builds == []


def test_non_finite_beta_is_a_usage_error(tmp_path, capsys):
    inst = tmp_path / "pts.json"
    cfg = tmp_path / "cfg.json"
    assert cli.main(["gen", "--family", "random_square", "--n", "20", "--seed", "3", "--out", str(inst)]) == 0
    for beta in ("nan", "inf"):
        assert cli.main(["power", "--instance", str(inst), "--beta", beta, "--out", str(cfg)]) == 2, beta
        assert "gradient" in capsys.readouterr().err
    assert not cfg.exists()
    assert cli.main(["power", "--instance", str(inst), "--beta", "2", "--out", str(cfg)]) == 0
    doc = json.loads(cfg.read_text())
    doc["metadata"]["beta"] = math.nan
    cfg.write_text(json.dumps(doc))  # json writes the bare NaN that Python reads back
    capsys.readouterr()
    argv = ["verify", "--config", str(cfg), "--instance", str(inst), "--checks", "cost-chain"]
    assert cli.main(argv) == 2
    assert "gradient" in capsys.readouterr().err


def test_boolean_beta_is_a_usage_error(tmp_path, capsys):
    # json's true is a Python bool, and so an int; it is no beta
    inst = tmp_path / "pts.json"
    cfg = tmp_path / "cfg.json"
    assert cli.main(["gen", "--family", "random_square", "--n", "16", "--seed", "3", "--out", str(inst)]) == 0
    assert cli.main(["power", "--instance", str(inst), "--beta", "1", "--out", str(cfg)]) == 0
    doc = json.loads(cfg.read_text())
    argv = ["verify", "--config", str(cfg), "--instance", str(inst), "--checks", "cost-chain"]
    for beta in (True, False):
        doc["metadata"]["beta"] = beta
        cfg.write_text(json.dumps(doc))
        capsys.readouterr()
        assert cli.main(argv) == 2, beta
        assert "numeric beta" in capsys.readouterr().err


def test_generating_on_a_side_that_is_not_positive_is_a_usage_error(tmp_path, capsys):
    # the zero last: unchecked, it leaves one point to redraw forever
    out = tmp_path / "pts.json"
    for side in ("-1", "0"):
        argv = ["gen", "--family", "random_square", "--n", "3", "--side", side, "--out", str(out)]
        assert cli.main(argv) == 2, side
        assert "finite positive side" in capsys.readouterr().err
    assert not out.exists()


def test_generating_on_a_subnormal_side_is_a_usage_error(tmp_path):
    # too few floats for n distinct points: once a hang, so under a bound
    out = tmp_path / "pts.json"
    for family in (["random_square", "--n", "10"], ["clustered", "--n", "3", "--clusters", "1"]):
        argv = ["gen", "--family", *family, "--side", "5e-324", "--out", str(out)]
        r = subprocess.run(
            [sys.executable, "-m", "sectornet", *argv], capture_output=True, text=True, timeout=60
        )
        assert r.returncode == 2, family
        assert "too small for" in r.stderr
    assert not out.exists()


@pytest.mark.parametrize("family", FAMILIES)
def test_generating_one_point_exits_cleanly(tmp_path, family):
    # one point: a usage error where the family needs more, never a crash
    out = tmp_path / "one.json"
    code = cli.main(["gen", "--family", family, "--n", "1", "--seed", "1", "--out", str(out)])
    assert code in (0, 2)
    if family == "collinear":
        assert code == 0
        assert len(fileio.read_instance(str(out))[0]) == 1
