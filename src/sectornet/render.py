"""Deterministic SVG pictures of antenna configurations.

Wedges are translucent sectors clipped to the viewport, antenna
locations are dots, and replacement configurations can overlay their
7x7 grid.  All coordinates are emitted with six decimals, so the same
configuration always renders to the same bytes.
"""

from __future__ import annotations

import math
import sys
from typing import Optional, Sequence

from .geometry import AntennaConfig
from .replacement import CELL_SIDE

_PALETTE = (
    "#1f77b4",
    "#d62728",
    "#2ca02c",
    "#9467bd",
    "#ff7f0e",
    "#17becf",
    "#8c564b",
    "#e377c2",
)

_F = "{:.6f}".format

#: Width of the picture in pixels; the height keeps the viewport's aspect.
_PIXELS = 720
#: Most grid lines drawn along one axis; a wider grid is left out.
_MAX_GRID_LINES = 4096


def _sector_path(c: AntennaConfig, radius: float) -> str:
    x, y = c.location.x, c.location.y
    t0 = c.orientation - 0.5 * c.aperture
    t1 = c.orientation + 0.5 * c.aperture
    x0, y0 = x + radius * math.cos(t0), y + radius * math.sin(t0)
    x1, y1 = x + radius * math.cos(t1), y + radius * math.sin(t1)
    large = 1 if c.aperture > math.pi else 0
    return (
        f"M {_F(x)} {_F(y)} L {_F(x0)} {_F(y0)} "
        f"A {_F(radius)} {_F(radius)} 0 {large} 1 {_F(x1)} {_F(y1)} Z"
    )


def _origin(grid_origin) -> tuple[float, float]:
    """``grid_origin`` as two finite floats.  A config's metadata must give
    it as two numbers (a bool is not one); anything else raises
    ``ValueError``.  The bound compares ints exactly, so none overflows."""
    if not (
        isinstance(grid_origin, (list, tuple))
        and len(grid_origin) == 2
        and all(
            isinstance(v, (int, float)) and not isinstance(v, bool) and abs(v) <= sys.float_info.max
            for v in grid_origin
        )
    ):
        raise ValueError(f"grid_origin must be two finite numbers, got {grid_origin!r}")
    return float(grid_origin[0]), float(grid_origin[1])


def render_svg(
    configs: Sequence[AntennaConfig],
    grid_origin: Optional[tuple[float, float]] = None,
) -> str:
    """An SVG document (as a string) showing the wedges and locations.

    The 7x7 grid at ``grid_origin`` is drawn only when it needs at most
    4096 lines along each axis, so the picture's size follows its
    antennas, not its extent.  Raises ``ValueError`` on an empty
    configuration, on a ``grid_origin`` that is not two finite numbers,
    and when a coordinate of the picture would leave the float range."""
    if not configs:
        raise ValueError("nothing to render")
    origin = None if grid_origin is None else _origin(grid_origin)
    xs = [c.location.x for c in configs]
    ys = [c.location.y for c in configs]
    span = max(max(xs) - min(xs), max(ys) - min(ys), 1.0)
    margin = 0.25 * span
    x_lo, y_lo = min(xs) - margin, min(ys) - margin
    width = (max(xs) - min(xs)) + 2 * margin
    height = (max(ys) - min(ys)) + 2 * margin
    diag = math.hypot(width, height)
    # bounds every coordinate written below, and every grid offset
    reach = abs(x_lo) + abs(y_lo) + width + height + 1.5 * diag + sum(map(abs, origin or ()))
    if not (math.isfinite(reach) and math.isfinite(_PIXELS * height / width)):
        raise ValueError("the picture does not fit the float range: the viewport is not finite")

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="{_PIXELS}" '
        f'height="{_F(_PIXELS * height / width)}" '
        f'viewBox="{_F(x_lo)} {_F(-y_lo - height)} {_F(width)} {_F(height)}">',
        "<defs><clipPath id=\"vp\">"
        f'<rect x="{_F(x_lo)}" y="{_F(-y_lo - height)}" width="{_F(width)}" height="{_F(height)}"/>'
        "</clipPath></defs>",
        # flip the y axis so the picture matches plane coordinates
        '<g clip-path="url(#vp)" transform="scale(1,-1)">',
        f'<rect x="{_F(x_lo)}" y="{_F(y_lo)}" width="{_F(width)}" height="{_F(height)}" fill="#ffffff"/>',
    ]

    if origin is not None:
        ox, oy = origin
        kx = range(math.floor((x_lo - ox) / CELL_SIDE), math.ceil((x_lo + width - ox) / CELL_SIDE) + 1)
        ky = range(math.floor((y_lo - oy) / CELL_SIDE), math.ceil((y_lo + height - oy) / CELL_SIDE) + 1)
        if max(len(kx), len(ky)) > _MAX_GRID_LINES:
            kx = ky = range(0)
        for k in kx:
            gx = ox + k * CELL_SIDE
            lines.append(
                f'<line x1="{_F(gx)}" y1="{_F(y_lo)}" x2="{_F(gx)}" y2="{_F(y_lo + height)}" '
                'stroke="#bbbbbb" stroke-width="0.05"/>'
            )
        for k in ky:
            gy = oy + k * CELL_SIDE
            lines.append(
                f'<line x1="{_F(x_lo)}" y1="{_F(gy)}" x2="{_F(x_lo + width)}" y2="{_F(gy)}" '
                'stroke="#bbbbbb" stroke-width="0.05"/>'
            )

    for i, c in enumerate(configs):
        color = _PALETTE[i % len(_PALETTE)]
        radius = c.range if math.isfinite(c.range) else 1.5 * diag
        radius = min(radius, 1.5 * diag)
        lines.append(
            f'<path d="{_sector_path(c, radius)}" fill="{color}" fill-opacity="0.18" '
            f'stroke="{color}" stroke-width="0.03"/>'
        )
    dot = max(0.008 * diag, 0.02)
    for i, c in enumerate(configs):
        color = _PALETTE[i % len(_PALETTE)]
        lines.append(
            f'<circle cx="{_F(c.location.x)}" cy="{_F(c.location.y)}" r="{_F(dot)}" fill="{color}"/>'
        )
    lines.append("</g>")
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
