"""Spatial-temporal dissimilarity measures for cellular mobility patterns.

Provides a weighted composite measure built from a spatial part (share of
cells unique to one pattern) and a temporal part (mean normalized timestamp
gap on shared cells), a set of classical trajectory measures to compare
against, pairwise-matrix construction, and k-medoids clustering.
"""

from .baselines import cvti, lcss, oss, oss_components, tiakas_net, tiakas_time, tiakas_total
from .clustering import (
    MEASURES,
    ClusterAssignment,
    DissimilarityMatrix,
    build_matrix,
    kmedoids,
    resolve_measure,
)
from .errors import DomainError, FormatError, GraphNotConnectedError
from .graph import (
    CellGraph,
    example_graph,
    hex_grid,
    load_graph,
    parse_graph,
    save_graph,
)
from .measures import (
    Weights,
    spatial_dissimilarity,
    temporal_dissimilarity,
    uncommon_cell_count,
    weighted_dissimilarity,
)
from .patterns import (
    MobilityPattern,
    is_subpattern,
    load_trace,
    make_pattern,
    parse_trace,
    save_trace,
    slot_minutes,
    timestamp_of_minute,
)

__version__ = "0.1.0"

__all__ = [
    "CellGraph",
    "ClusterAssignment",
    "DissimilarityMatrix",
    "DomainError",
    "FormatError",
    "GraphNotConnectedError",
    "MEASURES",
    "MobilityPattern",
    "Weights",
    "build_matrix",
    "cvti",
    "example_graph",
    "hex_grid",
    "is_subpattern",
    "kmedoids",
    "lcss",
    "load_graph",
    "load_trace",
    "make_pattern",
    "oss",
    "oss_components",
    "parse_graph",
    "parse_trace",
    "resolve_measure",
    "save_graph",
    "save_trace",
    "slot_minutes",
    "spatial_dissimilarity",
    "temporal_dissimilarity",
    "tiakas_net",
    "tiakas_time",
    "tiakas_total",
    "timestamp_of_minute",
    "uncommon_cell_count",
    "weighted_dissimilarity",
]
