"""Recognition and decomposition of cographs and series-parallel orders.

An order is series-parallel exactly when its comparability graph is a
cograph, and its tree is that graph's cotree with linear children sorted
by the order.  So one split engine serves both: it peels off connected
components and components of the complement, and a part that splits
neither way yields a four-element certificate (an induced path, read as
an N on the order side), found by the neighbor splits at the part's
lowest vertex.

The modules: :mod:`cosp.rows` (rows of masks: the pair text reader,
the mask helpers, the closure), :mod:`cosp.engine` (the split engine on
rows, the certificates and tree text), :mod:`cosp.graphs` (graphs),
:mod:`cosp.cographs` (cotrees and the path certificate as records),
:mod:`cosp.posets` (orders), :mod:`cosp.spdecomp` (sp-trees),
:mod:`cosp.lemmas` (the paper's lemmas as checkable API),
:mod:`cosp.trees` (tree converters and the dict codec),
:mod:`cosp.pairtext` (the reader's line checks and the text writers),
:mod:`cosp.oracles` (brute-force ground truth), and the command line,
:mod:`cosp.cli` with :mod:`cosp.commands`.

The package namespace is lazy (PEP 562): ``import cosp`` imports no
module, and a public name imports the module that defines it on first
access, so a CLI request compiles only the modules it runs (a
recognition request only ``rows`` and ``engine``), and ``cosp.P4Error``
only those two, ``cosp.ParseError`` and ``cosp.CycleError`` only
``rows``.
"""

__version__ = "0.1.0"

_MODULES = {
    "cographs": ("Cotree", "P4Witness", "cotree", "cotree_to_dot", "is_cograph"),
    "engine": ("P4Error",),
    "graphs": ("DisconnectedError", "Graph", "parse_graph"),
    "lemmas": (
        "EndpointWitness",
        "JoinWitness",
        "LinearSplit",
        "NeighborSplit",
        "NoEndpointError",
        "endpoint_witness",
        "is_nfree",
        "join_witness",
        "linear_split_witness",
        "neighbor_split",
        "non_neighbor_components",
        "select_universal_neighbor",
    ),
    "pairtext": ("format_graph", "format_poset"),
    "posets": ("MaximalChain", "NWitness", "Poset", "SplitCandidates", "parse_poset"),
    "rows": ("CycleError", "ParseError"),
    "spdecomp": ("SPTree", "sp_tree", "sp_tree_to_dot"),
    "trees": (
        "cotree_from_json",
        "cotree_to_graph",
        "cotree_to_json",
        "cotree_to_sptree",
        "orient_cotree",
        "parity_split_graph",
        "sp_tree_from_json",
        "sp_tree_to_json",
        "sp_tree_to_poset",
    ),
}
_MODULE_OF = {name: module for module, names in _MODULES.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # The import statement's route, which ``python -X importtime`` reports.
    __import__(f"{__name__}.{module}")
    value = getattr(globals()[module], name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
