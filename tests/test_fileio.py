"""JSON round trips for instances and configurations."""

import json
import math

import pytest

from sectornet import fileio
from sectornet.geometry import AntennaConfig, Point


def test_instance_round_trip_is_byte_identical(tmp_path):
    pts = [Point(0.1, -2.5), Point(3.25, 4.0), Point(-1.0, 0.0)]
    path = tmp_path / "inst.json"
    text = fileio.write_instance(pts, path, metadata={"family": "demo", "seed": 7})
    back, meta = fileio.read_instance(path)
    assert back == pts
    assert meta == {"family": "demo", "seed": 7}
    assert fileio.write_instance(back, None, metadata=meta) == text


def test_instance_defaults(tmp_path):
    path = tmp_path / "bare.json"
    fileio.write_instance([Point(1.0, 2.0)], path)
    back, meta = fileio.read_instance(path)
    assert back == [Point(1.0, 2.0)] and meta == {}


def test_config_round_trip_preserves_infinite_range(tmp_path):
    configs = [
        AntennaConfig(Point(0.0, 0.0), 0.25 * math.pi),
        AntennaConfig(Point(1.5, 2.5), 1.0, range=14.0 * math.sqrt(2.0)),
    ]
    path = tmp_path / "cfg.json"
    text = fileio.write_config(configs, "replace-refined", path, metadata={"grid_origin": [0.0, 0.0]})
    back, mode, meta = fileio.read_config(path)
    assert back == configs
    assert math.isinf(back[0].range)
    assert back[1].range == 14.0 * math.sqrt(2.0)
    assert mode == "replace-refined"
    assert meta == {"grid_origin": [0.0, 0.0]}
    assert fileio.write_config(back, mode, None, metadata=meta) == text


def test_kind_tags_are_enforced(tmp_path):
    inst = tmp_path / "inst.json"
    cfg = tmp_path / "cfg.json"
    fileio.write_instance([Point(0.0, 0.0)], inst)
    fileio.write_config([AntennaConfig(Point(0.0, 0.0), 0.0)], "orient4", cfg)
    with pytest.raises(ValueError):
        fileio.read_config(inst)
    with pytest.raises(ValueError):
        fileio.read_instance(cfg)


def test_output_is_stable_json(tmp_path):
    path = tmp_path / "x.json"
    fileio.write_instance([Point(1.0, 2.0)], path, metadata={"b": 1, "a": 2})
    doc = json.loads(path.read_text())
    assert doc["kind"] == "instance"
    # keys are sorted so reruns are byte-identical
    assert path.read_text().index('"a"') < path.read_text().index('"b"')


_ANTENNA = {"x": 0.0, "y": 0.0, "orientation_radians": 0.0, "aperture_radians": 1.5, "range": "inf"}


@pytest.mark.parametrize(
    "doc",
    [
        {"kind": "instance"},
        {"kind": "instance", "points": 3},
        {"kind": "instance", "points": [{"x": 1.0}]},
        {"kind": "instance", "points": [[1.0, 2.0]]},
        {"kind": "instance", "points": [{"x": "one", "y": 2.0}]},
        {"kind": "instance", "points": [], "metadata": [1]},
        {"kind": "config", "mode": "power"},
        {"kind": "config", "antennas": [{"x": 0.0, "y": 0.0}]},
        {"kind": "config", "antennas": {"x": 0.0}},
        {"kind": "config", "antennas": [], "mode": 7},
        # out-of-range sectors fail when the antenna is built
        *(
            {"kind": "config", "antennas": [dict(_ANTENNA, **bad)]}
            for bad in (
                {"aperture_radians": 0.0},
                {"aperture_radians": 7.0},
                {"range": 0.0},
                {"range": -1.0},
                {"range": "nan"},
                {"orientation_radians": "nan"},
                {"orientation_radians": "inf"},
            )
        ),
        ["kind", "instance"],
    ],
)
def test_malformed_files_are_value_errors_naming_the_file(tmp_path, doc):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    read = fileio.read_config if isinstance(doc, dict) and doc["kind"] == "config" else fileio.read_instance
    with pytest.raises(ValueError, match="bad.json"):
        read(path)

