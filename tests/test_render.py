import math

import pytest

from sectornet.geometry import QUARTER_TURN, AntennaConfig, Point
from sectornet.orientation import configs_from_assignment, orient_quadruplet
from sectornet.render import render_svg

SQUARE = [Point(0.0, 0.0), Point(10.0, 0.0), Point(10.0, 10.0), Point(0.0, 10.0)]


def _square_configs():
    return configs_from_assignment(orient_quadruplet(SQUARE))


def test_render_is_deterministic():
    a = render_svg(_square_configs())
    b = render_svg(_square_configs())
    assert a == b


def test_render_document_structure():
    svg = render_svg(_square_configs())
    assert svg.startswith('<?xml version="1.0"')
    assert "<svg " in svg and svg.endswith("</svg>\n")
    assert svg.count("<path ") == 4
    assert svg.count("<circle ") == 4


def test_grid_lines_only_when_origin_given():
    configs = _square_configs()
    assert "<line " not in render_svg(configs)
    with_grid = render_svg(configs, grid_origin=(0.0, 0.0))
    assert "<line " in with_grid


def test_finite_range_bounds_sector_radius():
    near = AntennaConfig(Point(0.0, 0.0), 0.0, QUARTER_TURN, 2.0)
    far = AntennaConfig(Point(5.0, 5.0), math.pi, QUARTER_TURN, math.inf)
    svg = render_svg([near, far])
    first_path = svg.split('<path d="')[1].split('"')[0]
    # the bounded sector's arc radius is its range, not the viewport blow-up
    assert " A 2.000000 2.000000 " in first_path


def test_render_rejects_empty():
    with pytest.raises(ValueError):
        render_svg([])
