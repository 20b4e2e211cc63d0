"""Sector antenna networks: orientation, replacement, and power assignment.

The package models directional antennas as quarter wedges and provides

* symmetric connectivity graphs over wedge configurations,
* plane-coverage and connectivity verification,
* orientation schemes for quadruplets, clusters, and grid-partitioned
  unit-disk instances,
* power assignment along an approximate traveling-salesman tour, and
* deterministic instance generators plus JSON/SVG I/O.
"""

from .geometry import (
    ANGLE_TOL,
    DIST_SQ_TOL,
    QUARTER_TURN,
    TAU,
    AntennaConfig,
    Antennas,
    CoverageReport,
    HalfPlane,
    Point,
    containment_matrix,
    distance,
    plane_coverage_verify,
    squared_distance,
    weakly_separable,
)
from .orientation import (
    OrientationAssignment,
    configs_from_assignment,
    orient_cluster,
    orient_quadruplet,
)
from .power import (
    CostChainReport,
    PowerAssignment,
    Tour,
    cost_chain_check,
    mst_edges,
    orient_and_assign,
    tsp_tour_approx,
)
from .replacement import (
    CELL_SIDE,
    FULL_CELL_MIN,
    REPLACEMENT_RANGE,
    GridPartition,
    ReplacementResult,
    SpannerReport,
    build_udg,
    full_cell_labels,
    grid_partition,
    replace,
    select_hubs_basic,
    select_hubs_refined,
    verify_hop_spanner,
)
from .rng import SplitMix64
from .scg import (
    CommGraph,
    build_scg,
    classify_separated_pair,
    find_mutual_cover_pair,
    halfplane_cover_number,
    is_connected,
)

__version__ = "0.1.0"

__all__ = [
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
