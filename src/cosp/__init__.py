"""Recognition and decomposition of cographs and series-parallel orders.

An order is series-parallel exactly when its comparability graph is a
cograph, and its tree is that graph's cotree with linear children sorted
by the order.  So one split engine serves both: it peels off connected
components and components of the complement, and a part that splits
neither way yields a four-element certificate (an induced path, read as
an N on the order side), found by the neighbor splits at the part's
lowest vertex.
"""

from .cographs import (
    Cotree,
    JoinWitness,
    NeighborSplit,
    P4Error,
    P4Witness,
    cotree,
    cotree_from_json,
    cotree_to_dot,
    cotree_to_graph,
    cotree_to_json,
    is_cograph,
    join_witness,
    neighbor_split,
    non_neighbor_components,
    parity_split_graph,
    select_universal_neighbor,
)
from .graphs import DisconnectedError, Graph, ParseError, format_graph, parse_graph
from .posets import (
    CycleError,
    MaximalChain,
    NWitness,
    Poset,
    SplitCandidates,
    format_poset,
    parse_poset,
)
from .spdecomp import (
    EndpointWitness,
    LinearSplit,
    NoEndpointError,
    SPTree,
    cotree_to_sptree,
    endpoint_witness,
    is_nfree,
    linear_split_witness,
    orient_cotree,
    sp_tree,
    sp_tree_from_json,
    sp_tree_to_dot,
    sp_tree_to_json,
    sp_tree_to_poset,
)

__version__ = "0.1.0"

__all__ = [
    "Cotree",
    "CycleError",
    "DisconnectedError",
    "EndpointWitness",
    "Graph",
    "JoinWitness",
    "LinearSplit",
    "MaximalChain",
    "NWitness",
    "NeighborSplit",
    "NoEndpointError",
    "P4Error",
    "P4Witness",
    "ParseError",
    "Poset",
    "SPTree",
    "SplitCandidates",
    "cotree",
    "cotree_from_json",
    "cotree_to_dot",
    "cotree_to_graph",
    "cotree_to_json",
    "cotree_to_sptree",
    "endpoint_witness",
    "format_graph",
    "format_poset",
    "is_cograph",
    "is_nfree",
    "join_witness",
    "linear_split_witness",
    "neighbor_split",
    "non_neighbor_components",
    "orient_cotree",
    "parity_split_graph",
    "parse_graph",
    "parse_poset",
    "select_universal_neighbor",
    "sp_tree",
    "sp_tree_from_json",
    "sp_tree_to_dot",
    "sp_tree_to_json",
    "sp_tree_to_poset",
]
