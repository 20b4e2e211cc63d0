"""JSON serialization for instances and antenna configurations.

The writer's contract: a file is byte for byte
``json.dumps(doc, sort_keys=True, indent=2) + "\\n"`` of its document, so
writing the same data twice produces byte-identical files.  Floats are
written with ``repr`` (shortest round-trip form), so reading back
reproduces the exact float values.  Unbounded ranges are stored as the
string ``"inf"``, and any other non-finite value (in metadata too) is a
ValueError: the output is strict JSON.

The row lists (``points``, ``antennas``) are most of a file, and an
``indent`` turns off the C encoder.  So ``_dump`` formats the small head
with the indent encoder, formats every row value in one C-encoder call,
and fills the values into a fixed per-row template.

On read, every coordinate, angle and range must be a JSON number (a
bool is not one); ``range`` may also be ``"inf"``.  Anything else, like
a wrong kind, a missing key or a wrong shape, is a ValueError naming the
file.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Callable, Optional, Sequence, Union

from .geometry import AntennaConfig, Point

PathLike = Union[str, Path]

#: Row fields in the order ``sort_keys`` writes them.
_POINT_FIELDS = ("x", "y")
_ANTENNA_FIELDS = ("aperture_radians", "orientation_radians", "range", "x", "y")

#: Without an ``indent``, ``json`` formats with its C encoder.
_encode_flat = json.JSONEncoder(separators=(",", ":"), allow_nan=False).encode


def _read(path: PathLike, kind: str, parse: Callable[[dict], tuple]) -> tuple:
    """``parse``'s fields of a ``kind`` file, then its metadata.  A wrong
    kind, a missing key or a wrong shape is a ValueError naming the file."""
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(doc, dict) or doc.get("kind") != kind:
        raise ValueError(f"{path}: not a sectornet {kind} file")
    try:
        metadata = doc.get("metadata", {})
        if not isinstance(metadata, dict):
            raise TypeError("metadata is not an object")
        return parse(doc) + (metadata,)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{path}: malformed {kind} file: {exc!r}") from None


def _numbers(*values) -> list[float]:
    """``values`` as floats, if each is a JSON number: an int or a float as
    ``json.loads`` gives them, and not a bool.  The parsers call it only
    for a row that is not all floats, such as one with integer
    coordinates."""
    for v in values:
        if type(v) not in (int, float):
            raise TypeError(f"coordinates, angles and ranges must be JSON numbers, got {v!r}")
    return [float(v) for v in values]


def _dump(doc: dict, key: str, fields: tuple[str, ...], values: list, path: Optional[PathLike]) -> str:
    """``doc`` with its empty list ``doc[key]`` filled with rows of
    ``fields``, exactly as ``json.dumps(..., sort_keys=True, indent=2)
    + "\\n"`` writes it; also written to ``path`` unless it is None.

    ``values`` holds every row's values in row order and, within a row,
    in the order of ``fields`` (sorted).  Each value is a number or the
    string ``"inf"``, so no encoded value contains a comma.
    """
    text = json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"
    if values:
        row = "    {\n" + ",\n".join(f'      "{f}": %s' for f in fields) + "\n    }"
        pieces = _encode_flat(values)[1:-1].split(",")
        rows = ",\n".join([row] * (len(pieces) // len(fields))) % tuple(pieces)
        # only a top-level key sits at a two-space indent, and a string
        # value never holds a raw newline
        before, _, after = text.partition(f'\n  "{key}": []')
        text = f'{before}\n  "{key}": [\n{rows}\n  ]{after}'
    if path is not None:
        Path(path).write_text(text, encoding="utf-8")
    return text


def write_instance(
    points: Sequence[Point], path: Optional[PathLike] = None, metadata: Optional[dict] = None
) -> str:
    values = [v for p in points for v in (p.x, p.y)]
    doc = {"kind": "instance", "points": [], "metadata": metadata or {}}
    return _dump(doc, "points", _POINT_FIELDS, values, path)


def read_instance(path: PathLike) -> tuple[list[Point], dict]:
    return _read(path, "instance", _parse_instance)


def _parse_instance(doc: dict) -> tuple[list[Point]]:
    points = []
    for e in doc["points"]:
        x, y = e["x"], e["y"]
        if not (type(x) is type(y) is float):
            x, y = _numbers(x, y)
        points.append(Point(x, y))
    return (points,)


def write_config(
    configs: Sequence[AntennaConfig],
    mode: str,
    path: Optional[PathLike] = None,
    metadata: Optional[dict] = None,
) -> str:
    values = [
        v
        for c in configs
        for v in (c.aperture, c.orientation, "inf" if math.isinf(c.range) else c.range, c.location.x, c.location.y)
    ]
    doc = {"kind": "config", "mode": mode, "antennas": [], "metadata": metadata or {}}
    return _dump(doc, "antennas", _ANTENNA_FIELDS, values, path)


def read_config(path: PathLike) -> tuple[list[AntennaConfig], str, dict]:
    return _read(path, "config", _parse_config)


def _parse_config(doc: dict) -> tuple[list[AntennaConfig], str]:
    mode = doc.get("mode", "")
    if not isinstance(mode, str):
        raise TypeError("mode is not a string")
    configs = []
    for e in doc["antennas"]:
        x, y, o, a, r = e["x"], e["y"], e["orientation_radians"], e["aperture_radians"], e["range"]
        if r == "inf":
            r = math.inf
        if not (type(x) is type(y) is type(o) is type(a) is type(r) is float):
            x, y, o, a, r = _numbers(x, y, o, a, r)
        configs.append(AntennaConfig(Point(x, y), o, a, r))
    return configs, mode
