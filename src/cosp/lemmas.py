"""The paper's lemmas as checkable API, on both sides.

On graphs: the blocks of a vertex's non-neighbors and the split of its
neighbors against one block (:func:`non_neighbor_components` and
:func:`neighbor_split`, whose mask routines :func:`cosp.engine._blocks`
and :func:`cosp.engine._sides` also find the engines' certificates; the
second raises the engine's :class:`cosp.engine.P4Error` here as it is), a
neighbor joined to every non-neighbor, and the join witness of a graph
whose complement splits.  On orders: the three-layer linear split, the
chain endpoint comparable to an element's incomparables, and the
paper's N-free criterion (:func:`is_nfree`).  Each witness is a record
with a ``validate`` that checks it on its input, and the join and
linear-split searches return only a witness that passed it (and
``poset ... endpoint`` prints only an endpoint that passed it); the two
searches end at once, with None, on an input whose complement is
connected, which no witness passes.  Every ``validate`` is False, never
an exception, for a witness that names anything but an id of 0..n-1,
an int that is not a bool, which is the rule of a tree's leaf ids and
of the certificates' ids, or whose groups of ids are not iterable, such
as 5.  The brute-force scans of :mod:`cosp.oracles` are the ground
truth these are tested against; nothing here calls them.

No CLI request that decides recognition imports this module: the
split engine (:mod:`cosp.engine`) answers those, and only ``join``,
``poset ... linear-split`` and ``poset ... endpoint`` ask for a lemma's
own witness; they do not compile :mod:`cosp.cographs`, which this
module does not import.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable

from .engine import _blocks, _sides, _thinnest, is_leaf_id
from .graphs import (
    DisconnectedError,
    Graph,
    _Record,
    iter_bits,
    mask_of,
    vertices_of,
)
from .rows import lowest

# The order side's annotations name ``cosp.posets.Poset`` without importing
# it, so that ``join`` does not compile that module.


def _in_range(n: int, *families: Iterable[Iterable[int]]) -> bool:
    """True when every id of every group of every family is an id of
    0..n-1 by the rule of a tree's leaf ids (:func:`cosp.engine.is_leaf_id`:
    an int, not a bool), as :func:`cosp.engine.witness_holds` takes a
    certificate's.  A family or group that is not iterable, such as 5 or
    None, is False too."""
    try:
        return all(is_leaf_id(v) and v < n for groups in families for ids in groups for v in ids)
    except TypeError:
        return False


class JoinWitness(_Record):
    """Certificate that a connected graph is a join: every member of
    ``universal_neighbors`` is adjacent to every vertex outside the set,
    so the complement is disconnected across ``split``."""

    x: int
    universal_neighbors: tuple[int, ...]
    split: tuple[tuple[int, ...], tuple[int, ...]]

    def validate(self, g: Graph) -> bool:
        if not _in_range(g.order, ((self.x,), self.universal_neighbors), self.split):
            return False
        if len(self.split) != 2 or self.split[1] != self.universal_neighbors:
            return False
        un = mask_of(self.universal_neighbors)
        rest = mask_of(self.split[0])
        if un == 0 or (un | rest) != g.full_mask() or un & rest:
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
    sees none of it, and the two sides are completely joined to each other.
    ``validate`` refuses an empty block and one that meets x or a neighbor
    of x, as :func:`neighbor_split` does."""

    component: tuple[int, ...]
    adjacent_all: tuple[int, ...]
    adjacent_none: tuple[int, ...]

    def validate(self, g: Graph, x: int) -> bool:
        if not _in_range(g.order, ((x,), self.component, self.adjacent_all, self.adjacent_none)):
            return False
        cm = mask_of(self.component)
        n1 = mask_of(self.adjacent_all)
        n2 = mask_of(self.adjacent_none)
        if not cm or cm & (g.adj[x] | 1 << x) or n1 & n2 or (n1 | n2) != g.adj[x]:
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
    return [vertices_of(m) for m in _blocks(g.adj, g.full_mask(), x)]


def neighbor_split(g: Graph, x: int, component: Iterable[int]) -> NeighborSplit:
    """Split N(x) against one connected block of non-neighbors of x.

    Every neighbor must see all of the block or none of it, and the two
    sides must be completely joined; a violation of either property pins
    an induced four-vertex path, raised as :class:`cosp.engine.P4Error`.
    """
    g._check(x)
    cm = g._members(component)
    if cm == 0:
        raise ValueError("component must be nonempty")
    if cm & (g.adj[x] | (1 << x)):
        raise ValueError(f"component members must be non-neighbors of {x}")
    n1, n2 = _sides(g.adj, x, cm)
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
    is nonempty, or None when no x qualifies.

    A witness that passes joins its set (x's universal neighbors, or the
    outer layers) to every other id, x among them, so g's complement
    splits: a connected complement has none, and ends the search before
    any x is tried."""
    if len(g.co_components()) == 1:
        return None
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
    invariant is skipped.  A connected complement ends the search before
    any vertex is tried, since a witness splits it.  Disconnected input
    is rejected.
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

    Splits each block of non-neighbors, takes the thinnest side that sees
    a whole block (:func:`cosp.engine._thinnest`, which the engine's
    certificate search shares), and returns its smallest member.  That
    side sees every block only when it lies inside every other block's
    side; when it does not, two neighbors pin an induced four-vertex
    path, which surfaces as :class:`cosp.engine.P4Error`, as does one met
    along the way.  With no non-neighbors the smallest neighbor is
    returned.
    """
    g._check(x)
    if g.adj[x] == 0:
        raise ValueError(f"vertex {x} has no neighbors")
    if g.adj[x] | 1 << x == g.full_mask():
        return lowest(g.adj[x])
    low, block = _thinnest(g.adj, g.full_mask(), x)
    if not low:
        raise DisconnectedError(
            f"no neighbor of {x} reaches the block containing {block.bit_length() - 1}"
        )
    return lowest(low)


class LinearSplit(_Record):
    """Three-layer split around x: everything in ``lower`` sits below
    everything else, everything in ``upper`` above everything else, and
    ``middle`` contains x.  Existence certifies the order is a linear sum."""

    x: int
    lower: tuple[int, ...]
    middle: tuple[int, ...]
    upper: tuple[int, ...]

    def validate(self, p: Poset) -> bool:
        if not _in_range(p.order, ((self.x,), self.lower, self.middle, self.upper)):
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

    def validate(self, p: Poset) -> bool:
        if not _in_range(p.order, ((self.x, self.endpoint),)) or self.side not in ("up", "down"):
            return False
        # The rows that lead away from x on the endpoint's side.
        away = p.above if self.side == "up" else p.below
        x, end = self.x, self.endpoint
        if away[end] or end != x and not away[x] >> end & 1:
            return False
        inc = p.full_mask() & ~(p.below[x] | p.above[x]) & ~(1 << x)
        return not inc & ~(p.below[end] | p.above[end])


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
    module.  The comparability rows are built once, and each block of two
    or more elements is tested from its members' rows (one element is a
    module), as :meth:`Poset.is_module` tests a set: about n² row reads."""
    comp = p.comparability_masks()
    for x in range(p.order):
        if not all(p._is_module_mask(b) for b in _blocks(comp, p.full_mask(), x) if b & (b - 1)):
            return False
    return True


def linear_split_witness(p: Poset) -> LinearSplit | None:
    """Find the first element (ascending id) whose split candidates are
    nonempty and whose induced three-layer split is valid.

    For a connected N-free order a candidate's split is always valid, so
    the witness exists exactly when the order is a linear sum; absence
    certifies there is none.  Candidates whose layers fail the ordering
    checks (possible only when the input contains an N) are skipped.
    A connected incomparability graph ends the search before any
    candidate is tried, since a valid split disconnects it (its outer
    layers are comparable to everything else, and at least one is
    nonempty).  Disconnected input is rejected.
    """
    return _linear_split(p, p.comparability_graph())


def _linear_split(p: Poset, g: Graph) -> LinearSplit | None:
    """The search of :func:`linear_split_witness` on p, given its comparability graph g."""
    if p.order == 0:
        raise ValueError("the split search needs at least one element")
    if not g.is_connected():
        raise DisconnectedError("input order is not connected")
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
    inc = p.full_mask() & ~(p.below[x] | p.above[x]) & ~(1 << x)
    # Each end lies on the chain through x, so it is x or comparable to x,
    # and never one of x's incomparables.
    top, bottom = chain.top, chain.bottom
    top_missing = inc & ~(p.below[top] | p.above[top])
    if top_missing == 0:
        return EndpointWitness(x=x, endpoint=top, side="up")
    bottom_missing = inc & ~(p.below[bottom] | p.above[bottom])
    if bottom_missing == 0:
        return EndpointWitness(x=x, endpoint=bottom, side="down")
    raise NoEndpointError(
        x,
        (top, lowest(top_missing)),
        (bottom, lowest(bottom_missing)),
    )
