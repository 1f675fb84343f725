"""Monitoring arc-geodetic sets of oriented graphs.

A library for the mag parameter of oriented graphs: the monitoring
relation, forced vertices, exact minimum MAG-sets, orientation spectra,
generators for the analyzed graph families, and the two hardness gadget
constructions with brute-force verification oracles.
"""

from .digraph import (
    UNREACHABLE,
    OrientedGraph,
    UndirectedGraph,
    find_shortest_cycle,
)
from .errors import (
    AcyclicError,
    BadParamError,
    BudgetExceededError,
    DisconnectedInputError,
    DuplicatePairError,
    EqualVerticesError,
    GraphError,
    InvalidInstanceError,
    NotATreeError,
    NotBipartiteError,
    OutOfRangeError,
    ParseError,
    SelfLoopError,
    TooLargeError,
    TooManyEdgesError,
    WidthMismatchError,
)
from .families import (
    bipartite_extremal_orientation,
    construction_gj,
    cycle_c0,
    cycle_c1,
    cycle_c2,
    cycle_c3,
    cycle_orientation,
    directed_path,
    flipped_tournament,
    girth_alternating_orientation,
    rooted_tree_orientation,
    transitive_tournament,
)
from .formats import parse_edge_list, to_dot, write_edge_list
from .monitoring import (
    ForcedReport,
    ForcedRule,
    edge_monitors_undirected,
    forced_vertices,
    is_extremal,
    is_mag_set,
    monitors_directed,
    monitors_directed_by_counting,
    pair_monitors,
    pair_table,
)
from .reductions import (
    Nae3SatInstance,
    ReductionArtifact,
    VertexCoverInstance,
    brute_nae3sat,
    brute_vertex_cover,
    extract_nae_assignment,
    extract_vertex_cover,
    nae3sat_to_graph,
    parse_nae3sat,
    vc_to_mag_instance,
    verify_nae_reduction,
    verify_vc_reduction,
    write_nae3sat,
)
from .solver import MagResult, MegResult, mag_lower_bound, min_mag_set, min_meg_set
from .spectrum import SpectrumResult, mag_plus_at_least_n, orient, spectrum

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
