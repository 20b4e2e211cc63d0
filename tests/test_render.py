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


def test_grid_is_left_out_when_it_needs_too_many_lines():
    # 1e6 apart, the grid would need about 214,000 lines per axis: the
    # picture keeps its wedges and dots, and drops the grid
    far = [AntennaConfig(Point(0.0, 0.0), 0.0), AntennaConfig(Point(1e6, 1e6), math.pi)]
    svg = render_svg(far, grid_origin=(0.0, 0.0))
    assert "<line " not in svg and svg.count("<path ") == 2 and len(svg) < 10_000
    # 2e4 apart along x the grid needs 4,288 vertical lines, over the cap
    # of 4,096; 1.9e4 apart it needs 4,073 and 1,359 horizontal ones
    assert "<line " not in render_svg([far[0], AntennaConfig(Point(2e4, 0.0), 0.0)], grid_origin=(0.0, 0.0))
    near = render_svg([far[0], AntennaConfig(Point(1.9e4, 0.0), 0.0)], grid_origin=(0.0, 0.0))
    assert near.count("<line ") == 4073 + 1359


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


@pytest.mark.parametrize("origin", [["a", "b"], 5, [None, None], [True, 0.0], [0.0], [1e308, math.nan], [10**400, 0]])
def test_render_rejects_a_grid_origin_that_is_not_two_finite_numbers(origin):
    with pytest.raises(ValueError, match="grid_origin"):
        render_svg(_square_configs(), grid_origin=origin)


def test_render_takes_an_origin_of_ints_as_floats():
    assert render_svg(_square_configs(), grid_origin=[0, 7]) == render_svg(_square_configs(), grid_origin=(0.0, 7.0))


@pytest.mark.parametrize("far", [1e308, 1e307])
def test_render_rejects_a_picture_beyond_the_float_range(far):
    # at +-1e308 the viewport overflows; at 1e307 it fits, but not 720 * height
    corners = [Point(-far, -far), Point(far, -far), Point(far, far), Point(-far, far)]
    with pytest.raises(ValueError, match="float range"):
        render_svg(configs_from_assignment(orient_quadruplet(corners)))
    svg = render_svg(configs_from_assignment(orient_quadruplet([Point(p.x / 1e153, p.y / 1e153) for p in corners])))
    assert "inf" not in svg and "nan" not in svg
