"""Exact resistance distances, Kirchhoff indices and matching numbers
of unicyclic graphs, with exhaustive enumeration and verification
suites for the extremal families."""

from .enumeration import (
    CanonicalCode,
    canonical_code,
    enumerate_codes,
    enumerate_with_codes,
    extremal_search,
    free_trees,
    rooted_tree_codes,
)
from .families import (
    ExtremalPrediction,
    FamilySpec,
    girth_min_kf,
    make_cycle,
    make_path,
    make_ukt,
    make_unm,
    parse_family_spec,
    predicted_min,
    predicted_min_perfect,
    recognize_family,
    ukt_central_vertex_sum,
    ukt_kf_closed_form,
    unm_kf_closed_form,
)
from .graph import (
    DisconnectedError,
    Graph,
    GraphParseError,
    bfs_distances,
    decompose_unicyclic,
    identify_vertices,
    is_connected,
    read_graph,
    wiener_index,
    without_vertices,
    write_graph,
)
from .matching import (
    MatchingResult,
    has_perfect_matching,
    matching_number,
)
from .rational import format_rational, parse_rational
from .resistance import (
    ResistanceMatrix,
    kf_cycle,
    kf_identified,
    kirchhoff_index,
    kirchhoff_vertex_sum,
    resistance_matrix,
    vertex_sums,
)
from .verification import VerificationReport, run_suite

__version__ = "0.1.0"
