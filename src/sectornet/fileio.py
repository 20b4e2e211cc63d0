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
with the indent encoder, formats the row values a column at a time with
the C encoder, and fills them into a fixed per-row template.  A
configuration is written from its :class:`~sectornet.geometry.Antennas`
columns, and each distinct orientation, aperture and range is formatted
once: a replacement gives every antenna the same aperture and range.
Coordinates are written as the points hold them, or as the float
columns hold them in a set made from columns.

On read, every coordinate, angle and range must be a JSON number (a
bool is not one); ``range`` may also be ``"inf"``.  Anything else, like
a wrong kind, a missing key or a wrong shape, is a ValueError naming the
file.  Coordinates are read as float columns.  A configuration is read
column by column into one :class:`~sectornet.geometry.Antennas` set,
validated in bulk, which builds no point until one is asked for.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .geometry import AntennaConfig, Antennas, Point, _antennas, _antennas_at, _points

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


def _numbers(values: list) -> list:
    """``values`` as floats, if each is a JSON number: an int or a float as
    ``json.loads`` gives them, and not a bool.  A column of floats alone
    is returned as it is."""
    if set(map(type, values)) <= {float}:
        return values
    for v in values:
        if type(v) not in (int, float):
            raise TypeError(f"coordinates, angles and ranges must be JSON numbers, got {v!r}")
    return [float(v) for v in values]


def _coordinates(xs: list, ys: list) -> tuple[np.ndarray, np.ndarray]:
    """Two coordinate columns of JSON numbers as float arrays, checked
    finite as :class:`~sectornet.geometry.Point` checks them."""
    xs, ys = _numbers(xs), _numbers(ys)
    xa, ya = np.array(xs, dtype=float), np.array(ys, dtype=float)
    finite = np.isfinite(xa) & np.isfinite(ya)
    if not finite.all():
        k = int(np.argmin(finite))
        raise ValueError(f"point coordinates must be finite, got ({xs[k]}, {ys[k]})")
    return xa, ya


def _encode(values: list) -> list[str]:
    """Each of ``values`` (numbers, or the string ``"inf"``) as JSON, in
    one C-encoder call; no encoded value contains a comma."""
    return _encode_flat(values)[1:-1].split(",") if values else []


def _encode_column(column: np.ndarray) -> list[str]:
    """Each value of a float column as JSON, infinity as ``"inf"``.  Each
    distinct value is formatted once, keyed by its bits, because ``-0.0``
    and ``0.0`` are equal but print differently."""
    bits, inverse = np.unique(column.view(np.int64), return_inverse=True)
    distinct = ["inf" if v == math.inf else v for v in bits.view(float).tolist()]
    return np.array(_encode(distinct), dtype=object)[inverse.ravel()].tolist()


def _dump(doc: dict, key: str, fields: tuple[str, ...], columns: list, path: Optional[PathLike]) -> str:
    """``doc`` with its empty list ``doc[key]`` filled with rows of
    ``fields``, exactly as ``json.dumps(..., sort_keys=True, indent=2)
    + "\\n"`` writes it; also written to ``path`` unless it is None.

    ``columns`` holds, for each of ``fields`` (sorted), every row's value
    already encoded, as :func:`_encode` gives it.
    """
    text = json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"
    n = len(columns[0])
    if n:
        k = len(fields)
        row = "    {\n" + ",\n".join(f'      "{f}": %s' for f in fields) + "\n    }"
        pieces = [""] * (k * n)
        for i, column in enumerate(columns):
            pieces[i::k] = column
        rows = ",\n".join([row] * n) % tuple(pieces)
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
    columns = [_encode([p.x for p in points]), _encode([p.y for p in points])]
    doc = {"kind": "instance", "points": [], "metadata": metadata or {}}
    return _dump(doc, "points", _POINT_FIELDS, columns, path)


def read_instance(path: PathLike) -> tuple[list[Point], dict]:
    xs, ys, metadata = _read_instance_columns(path)
    return list(_points(xs, ys)), metadata


def _read_instance_columns(path: PathLike) -> tuple[np.ndarray, np.ndarray, dict]:
    """:func:`read_instance`'s points as their x and y float columns."""
    return _read(path, "instance", _parse_instance)


def _parse_instance(doc: dict) -> tuple[np.ndarray, np.ndarray]:
    rows = doc["points"]
    return _coordinates([e["x"] for e in rows], [e["y"] for e in rows])


def write_config(
    configs: Sequence[AntennaConfig],
    mode: str,
    path: Optional[PathLike] = None,
    metadata: Optional[dict] = None,
) -> str:
    ants = _antennas(configs)
    columns = [_encode_column(c) for c in (ants.aperture, ants.orientation, ants.range)]
    columns += [_encode(c) for c in ants._coordinate_lists()]
    doc = {"kind": "config", "mode": mode, "antennas": [], "metadata": metadata or {}}
    return _dump(doc, "antennas", _ANTENNA_FIELDS, columns, path)


def read_config(path: PathLike) -> tuple[Antennas, str, dict]:
    return _read(path, "config", _parse_config)


def _parse_config(doc: dict) -> tuple[Antennas, str]:
    mode = doc.get("mode", "")
    if not isinstance(mode, str):
        raise TypeError("mode is not a string")
    rows = doc["antennas"]
    aperture, orientation, ranges, xs, ys = ([e[f] for e in rows] for f in _ANTENNA_FIELDS)
    ranges = [math.inf if r == "inf" else r for r in ranges]
    xa, ya = _coordinates(xs, ys)
    return _antennas_at(xa, ya, _numbers(orientation), _numbers(aperture), _numbers(ranges)), mode
