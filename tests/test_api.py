"""The public surface, pinned: exported names, defaulted parameters and
class fields with defaults.

A change that adds an export or a knob (a parameter or a data-class
field with a default) has to edit the lists below, so the growth shows
in the diff.  Every export, and every public method or property of an
exported class, must also have a reader in the package or in the
benchmark: a name that only the tests use belongs in
``tests/oracles.py``.
"""

import ast
from pathlib import Path

import sectornet

EXPORTS = [
    "ANGLE_TOL",
    "CELL_SIDE",
    "DIST_SQ_TOL",
    "FULL_CELL_MIN",
    "QUARTER_TURN",
    "REPLACEMENT_RANGE",
    "TAU",
    "AntennaConfig",
    "Antennas",
    "CommGraph",
    "CostChainReport",
    "CoverageReport",
    "GridPartition",
    "HalfPlane",
    "OrientationAssignment",
    "Point",
    "PowerAssignment",
    "ReplacementResult",
    "SpannerReport",
    "SplitMix64",
    "Tour",
    "build_scg",
    "build_udg",
    "classify_separated_pair",
    "configs_from_assignment",
    "containment_matrix",
    "cost_chain_check",
    "distance",
    "find_mutual_cover_pair",
    "full_cell_labels",
    "grid_partition",
    "halfplane_cover_number",
    "is_connected",
    "mst_edges",
    "orient_and_assign",
    "orient_cluster",
    "orient_quadruplet",
    "plane_coverage_verify",
    "replace",
    "select_hubs_basic",
    "select_hubs_refined",
    "squared_distance",
    "tsp_tour_approx",
    "verify_hop_spanner",
    "weakly_separable",
]

# module.function.parameter for every function or lambda parameter that
# has a default value, sorted
DEFAULTED = [
    "cli.main.argv",
    "fileio.write_config.metadata",
    "fileio.write_config.path",
    "fileio.write_instance.metadata",
    "fileio.write_instance.path",
    "render.render_svg.grid_origin",
    "replacement.replace.mode",
]

# module.Class.field for every field declared with a default value in a
# class body (data classes and named tuples), sorted
FIELD_DEFAULTS = [
    "generators.GenSpec.case",
    "generators.GenSpec.clusters",
    "generators.GenSpec.gap",
    "generators.GenSpec.side",
    "generators.GeneratedInstance.metadata",
    "geometry.AntennaConfig.aperture",
    "geometry.AntennaConfig.range",
    "geometry.CoverageReport.witness_direction",
    "geometry.CoverageReport.witness_point",
    "orientation.OrientationAssignment.case",
]


def _defaulted(path: Path) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        a = node.args
        positional = a.posonlyargs + a.args
        names = [x.arg for x in positional[len(positional) - len(a.defaults) :]]
        names += [k.arg for k, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
        found += [f"{path.stem}.{getattr(node, 'name', '<lambda>')}.{name}" for name in names]
    return found


def test_exports_are_pinned():
    assert len(EXPORTS) == 45
    assert sectornet.__all__ == EXPORTS
    assert all(hasattr(sectornet, name) for name in EXPORTS)


def _loaded_names(tree: ast.Module, skip: str) -> set[str]:
    """Names read anywhere in the module outside its top-level
    definition of ``skip``."""
    found = set()
    for top in tree.body:
        if isinstance(top, (ast.FunctionDef, ast.ClassDef)) and top.name == skip:
            continue
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                found.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                found.add(node.attr)
    return found


def test_every_export_has_a_runtime_caller():
    src = Path(sectornet.__file__).parent
    bench = Path(__file__).resolve().parent.parent / "perfbench"
    assert bench.is_dir()
    paths = [p for p in sorted(src.glob("*.py")) if p.name != "__init__.py"]
    trees = [ast.parse(p.read_text(encoding="utf-8")) for p in paths + sorted(bench.glob("*.py"))]
    unused = [name for name in sectornet.__all__ if not any(name in _loaded_names(t, name) for t in trees)]
    assert unused == []
    # the public methods and properties of the exported classes, by name
    classes = {name for name in sectornet.__all__ if isinstance(getattr(sectornet, name), type)}
    members = [
        (node.name, item.name)
        for tree in trees
        for node in tree.body
        if isinstance(node, ast.ClassDef) and node.name in classes
        for item in node.body
        if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")
    ]
    assert len(members) > 10
    unread = [f"{c}.{m}" for c, m in members if not any(m in _loaded_names(t, m) for t in trees)]
    assert unread == []


def test_defaulted_parameters_are_pinned():
    src = Path(sectornet.__file__).parent
    found = [name for path in sorted(src.glob("*.py")) for name in _defaulted(path)]
    assert sorted(found) == DEFAULTED


def _field_defaults(path: Path) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ClassDef):
            found += [
                f"{path.stem}.{node.name}.{item.target.id}"
                for item in node.body
                if isinstance(item, ast.AnnAssign) and item.value is not None
            ]
    return found


def test_field_defaults_are_pinned():
    src = Path(sectornet.__file__).parent
    found = [name for path in sorted(src.glob("*.py")) for name in _field_defaults(path)]
    assert sorted(found) == FIELD_DEFAULTS
