"""JSON round trips for instances and configurations."""

import json
import math

import numpy as np
import pytest

from oracles import config_doc, dump_reference, instance_doc
from sectornet import fileio
from sectornet.generators import GenSpec, gen
from sectornet.geometry import QUARTER_TURN, AntennaConfig, Antennas, Point
from sectornet.replacement import build_udg, replace, verify_hop_spanner
from sectornet.scg import build_scg, is_connected


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
    assert list(back) == configs
    assert math.isinf(back[0].range)
    assert back[1].range == 14.0 * math.sqrt(2.0)
    assert mode == "replace-refined"
    assert meta == {"grid_origin": [0.0, 0.0]}
    assert fileio.write_config(back, mode, None, metadata=meta) == text


def test_a_read_config_reaches_the_spanner_check_as_columns(tmp_path):
    # reading, the graph, connectivity and the hop check run on coordinate
    # columns: no location or vertex point is built, and the worst edge
    # alone is handed out as points
    pts = list(gen(GenSpec("connected_udg", 40, seed=3)).points)
    path = tmp_path / "cfg.json"
    fileio.write_config(replace(pts).configs, "replace-refined", path)
    configs, _, _ = fileio.read_config(path)
    scg = build_scg(configs)
    assert is_connected(scg)
    rep = verify_hop_spanner(build_udg(pts), scg, 8)
    assert rep.ok and "locations" not in configs.__dict__ and "vertices" not in scg.__dict__
    assert all(type(p) is Point and p in pts for p in rep.worst_edge)
    # asked for, the points are the instance's
    assert configs.locations == scg.vertices == tuple(pts)


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
                {"range": math.nan},
                {"range": -math.inf},
                {"orientation_radians": math.nan},
                {"orientation_radians": math.inf},
                {"orientation_radians": -math.inf},
                {"aperture_radians": 2 * math.pi + 1e-9},
                {"x": math.nan},
                {"y": -math.inf},
            )
        ),
        ["kind", "instance"],
        # only JSON numbers are numbers (no strings, no bools), and they must fit a float
        *(
            {"kind": "config", "antennas": [dict(_ANTENNA, **bad)]}
            for bad in (
                {"x": "0"},
                {"y": True},
                {"orientation_radians": "0.5"},
                {"aperture_radians": True},
                {"range": "1e3"},
                {"range": "Infinity"},
                {"range": "INF"},
                {"range": ""},
                {"range": True},
                {"orientation_radians": False},
                {"x": 10**400},
            )
        ),
        {"kind": "instance", "points": [{"x": "0", "y": 2.0}]},
        {"kind": "instance", "points": [{"x": 1.0, "y": True}]},
    ],
)
def test_malformed_files_are_value_errors_naming_the_file(tmp_path, doc):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    read = fileio.read_config if isinstance(doc, dict) and doc["kind"] == "config" else fileio.read_instance
    with pytest.raises(ValueError, match="bad.json"):
        read(path)


def _reference_cases():
    rng = np.random.default_rng(15)
    many = [Point(float(x), float(y)) for x, y in rng.uniform(-50.0, 50.0, (513, 2))]
    edge = [Point(-0.0, 5e-324), Point(1.7976931348623157e308, -1.7976931348623157e308)]
    nested = {"b": [1, 2.5, {"c": None}], "a": {"d": True, "e": -0.0}, "s": 'héllo, "wörld"'}
    return [
        ([], None),
        ([Point(0.1, -2.5)], {}),
        ([Point(0.1, -2.5), Point(3.25, 4.0)], {"family": "demo", "seed": 7}),
        (many, {"grid_origin": [0.0, 0.0]}),
        (edge, None),
        ([Point(1, 2), Point(-3, 0)], {}),
        ([Point(np.float64(0.1), np.float64(-7.25)), Point(np.float64(1e-300), np.float64(2.0))], None),
        (many[:3], nested),
        (many[:2], {"points": [], "antennas": [], "metadata": {"points": []}}),
        (many[:2], {"antennas": [{"x": 1.0}], "kind": "config", "\n  \"points\": []": "\n  \"antennas\": []"}),
    ]


@pytest.mark.parametrize("points, metadata", _reference_cases())
def test_writers_match_the_reference_encoder(tmp_path, points, metadata):
    path = tmp_path / "out.json"
    text = fileio.write_instance(points, path, metadata=metadata)
    assert text == dump_reference(instance_doc(points, metadata)) == path.read_text(encoding="utf-8")
    back, _ = fileio.read_instance(path)
    assert back == points and all(type(v) is float for p in back for v in (p.x, p.y))
    # finite and infinite ranges mixed, orientations and apertures varied
    apertures, ranges = (0.5, math.pi / 2, 2 * math.pi), (math.inf, 5e-324, 14.0, 1e308)
    configs = [AntennaConfig(p, 0.37 * k - 1.0, apertures[k % 3], ranges[k % 4]) for k, p in enumerate(points)]
    text = fileio.write_config(configs, "power", path, metadata=metadata)
    assert text == dump_reference(config_doc(configs, "power", metadata)) == path.read_text(encoding="utf-8")
    back, _, _ = fileio.read_config(path)
    assert list(back) == configs and all(type(c.location.x) is type(c.location.y) is float for c in back)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_writers_refuse_non_finite_metadata(tmp_path, bad):
    path = tmp_path / "out.json"
    metadata = {"beta": {"values": [1.0, bad]}}
    with pytest.raises(ValueError, match="not JSON compliant"):
        fileio.write_instance([Point(0.0, 0.0)], path, metadata=metadata)
    with pytest.raises(ValueError, match="not JSON compliant"):
        fileio.write_config([AntennaConfig(Point(0.0, 0.0), 0.0)], "orient4", path, metadata=metadata)
    assert not path.exists()


@pytest.mark.parametrize("n", [1, 2000])
def test_rows_take_the_c_encoder(monkeypatch, n):
    # the pure-Python encoder may format the head once, but no row value:
    # those go through the C encoder, however many rows there are
    entries, floats = [], []
    make = json.encoder._make_iterencode

    def counting(markers, default, encoder, indent, floatstr, *rest):
        entries.append(1)
        return make(markers, default, encoder, indent, lambda o: floats.append(o) or floatstr(o), *rest)

    monkeypatch.setattr(json.encoder, "_make_iterencode", counting)
    points = [Point(float(k), 0.5 * k) for k in range(n)]
    fileio.write_instance(points)
    assert len(entries) <= 1 and floats == []
    entries.clear()
    fileio.write_config([AntennaConfig(p, 1.0, range=2.0) for p in points], "power")
    assert len(entries) <= 1 and floats == []


def test_repeated_values_are_formatted_once_and_keep_their_bits(tmp_path, monkeypatch):
    # -0.0 and 0.0 are equal but print differently; "inf" and a finite
    # range, and a few apertures, repeat across rows in a mixed order
    n = 60
    points = [Point(0.5 * k - 3.0, (-1) ** k * 0.25 * k) for k in range(n)]
    orientations = [(-0.0, 0.0, 1.0, -0.0, 2.5)[k % 5] for k in range(n)]
    apertures = [(QUARTER_TURN, 2 * math.pi, 0.75)[k % 3] for k in range(n)]
    ranges = [(math.inf, 14.0, math.inf, 5e-324, 14.0, 1e308, math.inf)[k % 7] for k in range(n)]
    configs = [AntennaConfig(p, o, a, r) for p, o, a, r in zip(points, orientations, apertures, ranges)]
    ants = Antennas(points, orientations, apertures, ranges)
    assert [o.hex() for o in ants.orientation.tolist()] == [o.hex() for o in orientations]
    formatted = []
    encode = fileio._encode
    monkeypatch.setattr(fileio, "_encode", lambda values: formatted.append(len(values)) or encode(values))
    path = tmp_path / "cfg.json"
    for given in (configs, ants):
        formatted.clear()
        text = fileio.write_config(given, "power", path, metadata={"beta": 2})
        assert text == dump_reference(config_doc(configs, "power", {"beta": 2})) == path.read_text(encoding="utf-8")
        # the sector columns format their distinct values only; the
        # coordinates, all distinct here, one value a row
        assert formatted == [3, 4, 4, n, n]
    assert '"orientation_radians": -0.0' in text and '"orientation_radians": 0.0' in text
    back, _, _ = fileio.read_config(path)

    def bits(c):
        return tuple(v.hex() for v in (c.location.x, c.location.y, c.orientation, c.aperture, c.range))

    assert [bits(c) for c in back] == [bits(c) for c in configs]
