"""Zero forcing and failed zero forcing toolkit for small graphs.

Graphs live on at most 63 vertices as per-vertex neighbor bitmasks; vertex
sets are plain integer masks.  The package computes minimum forcing sets
and maximum failed sets exactly under both the standard and the positive
semidefinite color-change rule, predicts the values on named families from
closed forms, checks the characterization theorems (exhaustively on small
orders), and verifies the kernel-support certificates exactly.
"""

from .forcing import Rule, derived_set, is_failed_set, is_forcing_set, \
    is_fort, is_stalled
from .formulas import Prediction, UnsupportedFamilyError, \
    compose_disconnected, predicted_failed, predicted_table51
from .graphs import FamilyError, FamilySpec, Graph, GraphFormatError, \
    VertexSet, bits, build_family, components_within, disjoint_union, \
    graph_from_edges, is_tree, mask_of, parse_family, parse_graph
from .linalg import PatternMatrix, kernel_basis, rank_lower_bound_check, \
    sample_pattern_matrix, shifted_singular_matrix, support_implies_failed, \
    weighted_laplacian
from .search import ExtremalResult, SearchBudgetExceeded, \
    brute_failed_number, failed_number, min_fort, zero_forcing_number
from .theorems import TheoremReport

__version__ = "0.1.0"

__all__ = [
    "Rule", "derived_set", "is_failed_set", "is_forcing_set", "is_fort",
    "is_stalled",
    "Prediction", "UnsupportedFamilyError", "compose_disconnected",
    "predicted_failed", "predicted_table51",
    "FamilyError", "FamilySpec", "Graph", "GraphFormatError", "VertexSet",
    "bits", "build_family", "components_within", "disjoint_union",
    "graph_from_edges", "is_tree", "mask_of", "parse_family", "parse_graph",
    "PatternMatrix", "kernel_basis", "rank_lower_bound_check",
    "sample_pattern_matrix", "shifted_singular_matrix",
    "support_implies_failed", "weighted_laplacian",
    "ExtremalResult", "SearchBudgetExceeded", "brute_failed_number",
    "failed_number", "min_fort", "zero_forcing_number",
    "TheoremReport",
]
