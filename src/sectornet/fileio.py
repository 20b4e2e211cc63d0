"""JSON serialization for instances and antenna configurations.

Floats are written with ``repr`` (shortest round-trip form) and keys are
sorted, so writing the same data twice produces byte-identical files and
reading back reproduces the exact float values.  Unbounded ranges are
stored as the string ``"inf"``.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Callable, Optional, Sequence, Union

from .geometry import AntennaConfig, Point

PathLike = Union[str, Path]


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
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}: malformed {kind} file: {exc!r}") from None


def _dump(doc: dict, path: Optional[PathLike]) -> str:
    text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    if path is not None:
        Path(path).write_text(text, encoding="utf-8")
    return text


def write_instance(
    points: Sequence[Point], path: Optional[PathLike] = None, metadata: Optional[dict] = None
) -> str:
    doc = {
        "kind": "instance",
        "points": [{"x": p.x, "y": p.y} for p in points],
        "metadata": metadata or {},
    }
    return _dump(doc, path)


def read_instance(path: PathLike) -> tuple[list[Point], dict]:
    return _read(
        path,
        "instance",
        lambda doc: ([Point(float(e["x"]), float(e["y"])) for e in doc["points"]],),
    )


def write_config(
    configs: Sequence[AntennaConfig],
    mode: str,
    path: Optional[PathLike] = None,
    metadata: Optional[dict] = None,
) -> str:
    doc = {
        "kind": "config",
        "mode": mode,
        "antennas": [
            {
                "x": c.location.x,
                "y": c.location.y,
                "orientation_radians": c.orientation,
                "aperture_radians": c.aperture,
                "range": "inf" if math.isinf(c.range) else c.range,
            }
            for c in configs
        ],
        "metadata": metadata or {},
    }
    return _dump(doc, path)


def read_config(path: PathLike) -> tuple[list[AntennaConfig], str, dict]:
    return _read(path, "config", _parse_config)


def _parse_config(doc: dict) -> tuple[list[AntennaConfig], str]:
    mode = doc.get("mode", "")
    if not isinstance(mode, str):
        raise TypeError("mode is not a string")
    configs = []
    for e in doc["antennas"]:
        rng = e["range"]
        configs.append(
            AntennaConfig(
                Point(float(e["x"]), float(e["y"])),
                float(e["orientation_radians"]),
                float(e["aperture_radians"]),
                math.inf if rng == "inf" else float(rng),
            )
        )
    return configs, mode
