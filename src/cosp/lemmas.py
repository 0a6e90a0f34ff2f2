"""The paper's lemmas as checkable API, on both sides.

On graphs: the blocks of a vertex's non-neighbors, the split of its
neighbors against one block (:func:`neighbor_split`, whose mask routine
:func:`cosp.engine._sides` also finds the engines' certificates), a
neighbor joined to every non-neighbor, and the join witness of a graph
whose complement splits.  On orders: the three-layer linear split, the
chain endpoint comparable to an element's incomparables, and the
paper's N-free criterion (:func:`is_nfree`).  Each witness is a record
with a ``validate`` that checks it on its input, and the join and
linear-split searches return only a witness that passed it.  Every
``validate`` is False for a witness that names an id outside 0..n-1.  The
brute-force scans of :mod:`cosp.oracles` are the ground truth these
are tested against; nothing here calls them.

No CLI request that decides recognition imports this module: the
split engine (:mod:`cosp.engine`) answers those, and only ``join``,
``poset ... linear-split`` and ``poset ... endpoint`` ask for a lemma's
own witness.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable

from .cographs import P4Error, P4Witness
from .engine import InducedPath, _sides
from .graphs import (
    DisconnectedError,
    Graph,
    _Record,
    iter_bits,
    mask_components,
    mask_of,
    vertices_of,
)

# The order side's annotations name ``cosp.posets.Poset`` without importing
# it, so that ``join`` does not compile that module.


def _in_range(n: int, *groups: Iterable[int]) -> bool:
    """True when every id of every group lies in 0..n-1."""
    return all(0 <= v < n for group in groups for v in group)


def _split(g: Graph, x: int, block: int) -> tuple[int, int]:
    """:func:`cosp.engine._sides` on g, its path raised as :class:`P4Error`."""
    try:
        return _sides(g.adj, x, block)
    except InducedPath as exc:
        raise P4Error(P4Witness(exc.path), str(exc)) from None


class JoinWitness(_Record):
    """Certificate that a connected graph is a join: every member of
    ``universal_neighbors`` is adjacent to every vertex outside the set,
    so the complement is disconnected across ``split``."""

    x: int
    universal_neighbors: tuple[int, ...]
    split: tuple[tuple[int, ...], tuple[int, ...]]

    def validate(self, g: Graph) -> bool:
        if not _in_range(g.order, (self.x,), self.universal_neighbors, *self.split):
            return False
        un = mask_of(self.universal_neighbors)
        rest = mask_of(self.split[0])
        if un == 0 or (un | rest) != g.full_mask() or un & rest:
            return False
        if self.split[1] != self.universal_neighbors:
            return False
        if (g.adj[self.x] & un) != un or (un >> self.x) & 1:
            return False
        for y in self.universal_neighbors:
            if rest & ~g.adj[y]:
                return False
        return True


class NeighborSplit(_Record):
    """Split of the neighbors of x against one connected block of its
    non-neighbors: ``adjacent_all`` sees the whole block, ``adjacent_none``
    sees none of it, and the two sides are completely joined to each other."""

    component: tuple[int, ...]
    adjacent_all: tuple[int, ...]
    adjacent_none: tuple[int, ...]

    def validate(self, g: Graph, x: int) -> bool:
        if not _in_range(g.order, (x,), self.component, self.adjacent_all, self.adjacent_none):
            return False
        cm = mask_of(self.component)
        n1 = mask_of(self.adjacent_all)
        n2 = mask_of(self.adjacent_none)
        if n1 & n2 or (n1 | n2) != g.adj[x]:
            return False
        for y in self.adjacent_all:
            if cm & ~g.adj[y]:
                return False
        for y in self.adjacent_none:
            if cm & g.adj[y]:
                return False
        for y in self.adjacent_all:
            if n2 & ~g.adj[y]:
                return False
        return True


def non_neighbor_components(g: Graph, x: int) -> list[tuple[int, ...]]:
    """Connected components of the non-neighbors of x.  In a graph with no
    induced four-vertex path every block is a module."""
    g._check(x)
    inc = g.full_mask() & ~g.adj[x] & ~(1 << x)
    return [vertices_of(m) for m in mask_components(g.adj, inc)]


def neighbor_split(g: Graph, x: int, component: Iterable[int]) -> NeighborSplit:
    """Split N(x) against one connected block of non-neighbors of x.

    Every neighbor must see all of the block or none of it, and the two
    sides must be completely joined; a violation of either property pins
    an induced four-vertex path, raised as :class:`cosp.cographs.P4Error`.
    """
    g._check(x)
    cm = g._members(component)
    if cm == 0:
        raise ValueError("component must be nonempty")
    if cm & (g.adj[x] | (1 << x)):
        raise ValueError(f"component members must be non-neighbors of {x}")
    n1, n2 = _split(g, x, cm)
    return NeighborSplit(
        component=vertices_of(cm),
        adjacent_all=vertices_of(n1),
        adjacent_none=vertices_of(n2),
    )


def _first_valid(
    g: Graph, witness: Callable[[int, int], _Record], obj: Graph | Poset
) -> _Record | None:
    """The lowest x's ``witness(x, un)`` that passes ``validate`` on
    ``obj``, where ``un`` is the mask of x's universal neighbors in g and
    is nonempty, or None when no x qualifies."""
    for x in range(g.order):
        un = g._universal_mask(x)
        if un:
            w = witness(x, un)
            if w.validate(obj):
                return w
    return None


def join_witness(g: Graph) -> JoinWitness | None:
    """Find the lowest vertex whose universal neighbor set is nonempty and
    whose complement split passes :meth:`JoinWitness.validate`.

    For connected graphs with no induced four-vertex path the first such
    vertex always qualifies, and the witness exists exactly when the
    complement is disconnected; absence then means the complement is
    connected.  On other inputs a vertex whose set fails the join
    invariant is skipped.  Disconnected input is rejected.
    """
    if g.order == 0:
        raise ValueError("the witness search needs at least one vertex")
    if not g.is_connected():
        raise DisconnectedError("input graph is not connected")
    full = g.full_mask()
    return _first_valid(
        g,
        lambda x, un: JoinWitness(
            x=x,
            universal_neighbors=vertices_of(un),
            split=(vertices_of(full & ~un), vertices_of(un)),
        ),
        g,
    )


def select_universal_neighbor(g: Graph, x: int) -> int:
    """Pick a neighbor of x adjacent to every non-neighbor of x.

    Splits each block of non-neighbors, takes the block whose fully
    adjacent side is smallest (cardinality, then lexicographic), and
    returns that side's smallest member.  With no non-neighbors the
    smallest neighbor is returned.  A four-vertex path met along the way
    surfaces as :class:`cosp.cographs.P4Error`.
    """
    g._check(x)
    if g.adj[x] == 0:
        raise ValueError(f"vertex {x} has no neighbors")
    inc = g.full_mask() & ~g.adj[x] & ~(1 << x)
    if inc == 0:
        return (g.adj[x] & -g.adj[x]).bit_length() - 1
    best: tuple[int, tuple[int, ...]] | None = None
    for cm in mask_components(g.adj, inc):
        n1 = vertices_of(_split(g, x, cm)[0])
        if not n1:
            raise DisconnectedError(
                f"no neighbor of {x} reaches the block containing {cm.bit_length() - 1}"
            )
        key = (len(n1), n1)
        if best is None or key < best:
            best = key
    return best[1][0]


class LinearSplit(_Record):
    """Three-layer split around x: everything in ``lower`` sits below
    everything else, everything in ``upper`` above everything else, and
    ``middle`` contains x.  Existence certifies the order is a linear sum."""

    x: int
    lower: tuple[int, ...]
    middle: tuple[int, ...]
    upper: tuple[int, ...]

    def validate(self, p: Poset) -> bool:
        if not _in_range(p.order, (self.x,), self.lower, self.middle, self.upper):
            return False
        lo = mask_of(self.lower)
        mid = mask_of(self.middle)
        up = mask_of(self.upper)
        # On a strict order the checks below imply this one (an element in
        # two parts would lie below itself); it guards a malformed record.
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

    x: int
    endpoint: int
    side: str


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


def is_nfree(p: Poset) -> bool:
    """Decide absence of the N pattern by the paper's criterion: every
    comparability-connected block of every element's incomparables is a
    module."""
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
    # x's split candidates: its universal neighbors, split by side.
    return _first_valid(
        g,
        lambda x, un: LinearSplit(
            x=x,
            lower=vertices_of(un & p.below[x]),
            middle=vertices_of(full & ~un),
            upper=vertices_of(un & p.above[x]),
        ),
        p,
    )


def endpoint_witness(p: Poset, x: int) -> EndpointWitness:
    """One endpoint of the deterministic maximal chain through x is
    comparable to every element incomparable to x; the top is preferred
    on ties.  Failure of both endpoints raises :class:`NoEndpointError`,
    which for connected input means an N pattern is present."""
    p._check(x)
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
