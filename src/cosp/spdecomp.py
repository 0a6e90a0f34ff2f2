"""Series-parallel decomposition of partial orders.

A finite order is series-parallel exactly when it avoids the four-element
"N" pattern (a < b, c < b, c < d, nothing else comparable), that is,
exactly when its comparability graph is a cograph.  So the sp-tree is
the cotree of the comparability graph, oriented: a parallel node is a
disjoint sum, and a series node is a linear sum whose children, which
are uniformly comparable to each other, run bottom to top, sorted by the
number of elements below their lowest member.  An induced path a-b-c-d
of the comparability graph is an N, read from whichever end lies below
its neighbor, and an N is checked as that path plus its orientation.
:func:`sp_tree` therefore runs the split loop and the certificate of
:mod:`cosp.cographs` on comparability masks, and the trees share that
module's codec.

Tree canonical form: disjoint children sorted by smallest leaf id,
linear children kept bottom to top (their order is meaning, not
presentation), internal nodes with at least two children, alternation
between the two internal kinds.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from .cographs import (
    LEAF,
    PARALLEL,
    SERIES,
    Cotree,
    _decompose,
    _from_signature,
    _leaf_sides,
    _p4_in_part,
    _Tree,
    _tree_dot,
    _tree_from_json,
    _tree_to_json,
    _validate_tree,
)
from .graphs import DisconnectedError, _Record, iter_bits, mask_of, vertices_of
from .posets import NWitness, Poset

LINEAR = "linear"
DISJOINT = "disjoint"


class SPTree(_Tree):
    """Decomposition tree node; linear children run bottom to top."""

    _fields = ("kind", "element", "children")
    _leaf_key = "element"
    _kinds = (LINEAR, DISJOINT)
    _sorted_kinds = (DISJOINT,)

    def __init__(self, kind: str, element: int | None = None, children: tuple[SPTree, ...] = ()):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "element", element)
        object.__setattr__(self, "children", children)

    @classmethod
    def leaf(cls, element: int) -> SPTree:
        return cls(LEAF, element=element)

    @classmethod
    def linear(cls, children: Iterable[SPTree]) -> SPTree:
        return cls(LINEAR, children=tuple(children))

    @classmethod
    def disjoint(cls, children: Iterable[SPTree]) -> SPTree:
        return cls(DISJOINT, children=tuple(children))


class LinearSplit(_Record):
    """Three-layer split around x: everything in ``lower`` sits below
    everything else, everything in ``upper`` above everything else, and
    ``middle`` contains x.  Existence certifies the order is a linear sum."""

    _fields = ("x", "lower", "middle", "upper")

    def __init__(
        self, x: int, lower: tuple[int, ...], middle: tuple[int, ...], upper: tuple[int, ...]
    ):
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "middle", middle)
        object.__setattr__(self, "upper", upper)

    def validate(self, p: Poset) -> bool:
        lo = mask_of(self.lower)
        mid = mask_of(self.middle)
        up = mask_of(self.upper)
        if lo & mid or lo & up or mid & up:
            return False
        if (lo | mid | up) != p.full_mask():
            return False
        if not (mid >> self.x) & 1:
            return False
        if lo == 0 and up == 0:
            return False
        for v in iter_bits(mid):
            if lo & ~p.below[v]:
                return False
        for v in iter_bits(up):
            if (lo | mid) & ~p.below[v]:
                return False
        return True


class EndpointWitness(_Record):
    """A maximal chain endpoint comparable to every element incomparable
    to x; side says which end of the chain qualified: "up" for the top,
    "down" for the bottom."""

    _fields = ("x", "endpoint", "side")

    def __init__(self, x: int, endpoint: int, side: str):
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "endpoint", endpoint)
        object.__setattr__(self, "side", side)


class NoEndpointError(ValueError):
    """Neither endpoint of the maximal chain through x is comparable to all
    elements incomparable to x.  For a connected order this only happens
    when the order contains an N pattern."""

    def __init__(self, x: int, top_conflict: tuple[int, int], bottom_conflict: tuple[int, int]):
        t, ty = top_conflict
        b, by = bottom_conflict
        super().__init__(
            f"no chain endpoint through {x} qualifies: "
            f"top {t} is incomparable to {ty}, bottom {b} is incomparable to {by}"
        )
        self.x = x
        self.top_conflict = top_conflict
        self.bottom_conflict = bottom_conflict


def sp_tree(p: Poset) -> SPTree | NWitness:
    """Canonical decomposition tree of p, or an N-pattern certificate.

    The cotree of the comparability graph with every series node's
    children sorted bottom to top: splitting alternates between
    components of the comparability graph (disjoint sum) and of the
    incomparability graph (linear sum).  The blocks of a linear split
    form a chain inside a part that is an order module, so the number of
    elements below a block's lowest member rises strictly up the chain
    and sorts them.  A part admitting neither split on two or more
    elements holds an induced path of the comparability graph, found on
    its masks as :func:`cotree` finds one and returned oriented as an N.
    """
    if p.order == 0:
        raise ValueError("the decomposition needs at least one element")
    comp = p.comparability_masks()
    below = p.below

    def height(block: int) -> int:
        return below[(block & -block).bit_length() - 1].bit_count()

    result = _decompose(SPTree, comp, p.full_mask(), height)
    if isinstance(result, int):
        a, b, c, d = _p4_in_part(comp, result).path
        # a < b forces c < b and c < d; b < a forces the mirror image.
        return NWitness((a, b, c, d) if (below[b] >> a) & 1 else (d, c, b, a))
    return result


def sp_tree_to_poset(t: SPTree) -> Poset:
    """Order encoded by a tree: under a linear node every element of an
    earlier child lies below every element of a later child; disjoint
    children stay incomparable.  Leaf ids must be 0..n-1."""
    sides = _leaf_sides(t, LINEAR)
    return Poset(tuple(lo for lo, _ in sides), tuple(hi for _, hi in sides))


validate_sp_tree = _validate_tree


def is_nfree(p: Poset, method: str = "modules") -> bool:
    """Decide absence of the N pattern.

    method="modules" checks that every comparability-connected block of
    every element's incomparables is a module; method="brute" runs the
    quadruple scan.  The two routes agree on every input.
    """
    if method == "brute":
        from .oracles import brute_n  # oracles imports this module

        return brute_n(p) is None
    if method != "modules":
        raise ValueError(f"unknown method {method!r}")
    for x in range(p.order):
        for block in p.incomparable_components(x):
            if not p.is_module(block):
                return False
    return True


def linear_split_witness(p: Poset) -> LinearSplit | None:
    """Find the first element (ascending id) whose split candidates are
    nonempty and whose induced three-layer split is valid.

    For a connected N-free order a candidate's split is always valid, so
    the witness exists exactly when the order is a linear sum; absence
    certifies there is none.  Candidates whose layers fail the ordering
    checks (possible only when the input contains an N) are skipped.
    Disconnected input is rejected.

    A valid split disconnects the incomparability graph (its outer layers
    are comparable to everything else, and at least one is nonempty), so
    a connected incomparability graph ends the search before any
    candidate is tried.
    """
    if p.order == 0:
        raise ValueError("the split search needs at least one element")
    g = p.comparability_graph()
    if not g.is_connected():
        raise DisconnectedError("input order is not connected")
    if len(g.co_components()) == 1:
        return None
    full = p.full_mask()
    for x in range(p.order):
        # x's split candidates: its universal neighbors, split by side.
        un = g._universal_mask(x)
        if not un:
            continue
        w = LinearSplit(
            x=x,
            lower=vertices_of(un & p.below[x]),
            middle=vertices_of(full & ~un),
            upper=vertices_of(un & p.above[x]),
        )
        if w.validate(p):
            return w
    return None


def endpoint_witness(p: Poset, x: int) -> EndpointWitness:
    """One endpoint of the deterministic maximal chain through x is
    comparable to every element incomparable to x; the top is preferred
    on ties.  Failure of both endpoints raises :class:`NoEndpointError`,
    which for connected input means an N pattern is present."""
    p._check_element(x)
    chain = p.maximal_chain(x)
    comp = p.comparability_masks()
    inc = p.full_mask() & ~comp[x] & ~(1 << x)
    top, bottom = chain.top, chain.bottom
    top_missing = inc & ~comp[top] & ~(1 << top)
    if top_missing == 0:
        return EndpointWitness(x=x, endpoint=top, side="up")
    bottom_missing = inc & ~comp[bottom] & ~(1 << bottom)
    if bottom_missing == 0:
        return EndpointWitness(x=x, endpoint=bottom, side="down")
    raise NoEndpointError(
        x,
        (top, (top_missing & -top_missing).bit_length() - 1),
        (bottom, (bottom_missing & -bottom_missing).bit_length() - 1),
    )


def cotree_to_sptree(t: Cotree) -> SPTree:
    """Orient a cograph tree: parallel becomes disjoint, series becomes
    linear with the canonical child order read bottom to top."""
    names = {LEAF: LEAF, SERIES: LINEAR, PARALLEL: DISJOINT}
    signature = []
    for kind, vertex, count in t._signature():
        if kind not in names:
            raise ValueError(f"unknown node kind {kind!r}")
        signature.append((names[kind], vertex, count))
    return _from_signature(SPTree, signature)


def orient_cotree(t: Cotree) -> Poset:
    """Order whose comparability graph is exactly the graph of the tree:
    each series node turns into a linear sum of its children in canonical
    order.  The result is always N-free."""
    return sp_tree_to_poset(cotree_to_sptree(t))


# === serialization ===


sp_tree_to_json = _tree_to_json


def sp_tree_from_json(obj: object) -> SPTree:
    """Inverse of :func:`sp_tree_to_json`; shape errors raise ValueError."""
    return _tree_from_json(obj, SPTree)


_SP_DOT_LABELS = {LINEAR: "→", DISJOINT: "∪"}


def sp_tree_to_dot(t: SPTree, labels: Sequence[int] | None = None) -> str:
    return _tree_dot("sptree", t, _SP_DOT_LABELS, labels)
