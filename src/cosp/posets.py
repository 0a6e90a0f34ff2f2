"""Strict partial orders stored as explicit transitive closures.

Each element carries two bitmasks: the elements strictly below it and
strictly above it.  Keeping the closure dense makes comparability tests,
chain extension, and incomparability traversals single mask operations,
mirroring the graph representation in :mod:`cosp.graphs`.

What depends on comparability alone is asked of the comparability graph:
the incomparables of an element and their blocks are its non-neighbors
and their components, and an N is an induced four-vertex path of that
graph with the orientation a < b, c < b, c < d, which
:func:`cosp.engine.witness_holds` checks.  This module adds only what
the orientation decides.  The closure itself (:func:`cosp.rows._closure`)
and :class:`CycleError`, public here, are in :mod:`cosp.rows`, which a
CLI request runs without this module.

``order``, ``full_mask``, the id check and ``is_module`` come from the
row record that :class:`Poset` shares with :class:`cosp.graphs.Graph`.
Its module rule reads both families, so each outside element is below
all or none of the set and above all or none.  That is stricter than a
module of the comparability graph: in the chain 0 < 1 < 2, {0, 2} is one
of those but not a module of the order.  It is read from the members'
side, all members below and above the same outside elements, which says
the same of every record whose ``below`` and ``above`` are each other's
transpose: :meth:`Poset.validate` checks that, and every record that
:meth:`Poset.from_relations` and :func:`parse_poset` build has it.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

from .engine import _blocks, witness_holds
from .graphs import Graph, _Record, _Rows, pairs_of, vertices_of
from .rows import CycleError  # noqa: F401 (public here)
from .rows import _closure, _read_pairs, iter_bits, lowest


class NWitness(_Record):
    """Four elements (a, b, c, d) with a < b, c < b, c < d and no other
    comparabilities.  A poset contains this pattern exactly when it is not
    series-parallel."""

    quad: tuple[int, int, int, int]

    def validate(self, p: Poset) -> bool:
        return witness_holds(self.quad, p.comparability_masks(), p.below)


class SplitCandidates(_Record):
    """Elements comparable to x and to every element incomparable to x,
    split by side.  Members can serve as outer layers of a linear split
    around x."""

    lower: tuple[int, ...]
    upper: tuple[int, ...]


class MaximalChain(_Record):
    """A maximal chain, listed bottom to top."""

    elements: tuple[int, ...]

    @property
    def bottom(self) -> int:
        return self.elements[0]

    @property
    def top(self) -> int:
        return self.elements[-1]


class Poset(_Rows):
    """Immutable strict partial order; ``below[v]`` / ``above[v]`` are the
    masks of elements strictly less / greater than v in the closure."""

    below: tuple[int, ...]
    above: tuple[int, ...]
    _noun = "element"

    @classmethod
    def from_relations(
        cls, order: int, pairs: Iterable[tuple[int, int]], mode: str = "covers"
    ) -> Poset:
        """Build a poset from (u, v) pairs meaning u < v.

        mode="covers" closes the input transitively; mode="full" demands
        the input already be its own transitive closure and rejects it
        otherwise.  Cycles raise :class:`CycleError` in both modes.
        """
        if order < 0:
            raise ValueError("order must be non-negative")
        succ = [0] * order
        for u, v in pairs:
            if not (0 <= u < order and 0 <= v < order):
                raise ValueError(f"relation ({u}, {v}) out of range for order {order}")
            if u == v:
                raise ValueError(f"reflexive relation {u} < {u}")
            succ[u] |= 1 << v
        return cls(*_closure(succ, mode))

    def validate(self) -> None:
        """Check irreflexivity, transitivity, and below/above duality."""
        n = self.order
        if len(self.above) != n:
            raise ValueError("below/above length mismatch")
        for v in range(n):
            if (self.below[v] | self.above[v]) >> n:
                raise ValueError(f"element mask of {v} out of range")
            if (self.below[v] >> v) & 1 or (self.above[v] >> v) & 1:
                raise ValueError(f"reflexive entry at element {v}")
            if self.below[v] & self.above[v]:
                raise ValueError(f"element {v} both below and above another")
            for u in iter_bits(self.below[v]):
                if self.below[u] & ~self.below[v]:
                    raise ValueError(f"transitivity violated below {v}")
                if (self.above[u] >> v) & 1 == 0:
                    raise ValueError(f"duality violated for {u} < {v}")
        for v in range(n):
            for u in iter_bits(self.above[v]):
                if (self.below[u] >> v) & 1 == 0:
                    raise ValueError(f"duality violated for {v} < {u}")

    def less(self, u: int, v: int) -> bool:
        self._check(u)
        self._check(v)
        return (self.below[v] >> u) & 1 == 1

    def comparable(self, u: int, v: int) -> bool:
        self._check(u)
        self._check(v)
        return ((self.below[v] | self.above[v]) >> u) & 1 == 1

    def comparability_masks(self) -> list[int]:
        return [self.below[v] | self.above[v] for v in range(self.order)]

    def comparability_graph(self) -> Graph:
        """Graph with an edge for every comparable pair."""
        return Graph(tuple(self.comparability_masks()))

    def incomparability_graph(self) -> Graph:
        return self.comparability_graph().complement()

    def relations(self) -> list[tuple[int, int]]:
        """All closed pairs (u, v) with u < v, sorted: the pairs of the
        rows ``above``."""
        return pairs_of(self.above)

    def covers(self) -> list[tuple[int, int]]:
        """Pairs of the transitive reduction, u < v with nothing between,
        sorted: the pairs of :meth:`_cover_rows`."""
        return pairs_of(self._cover_rows())

    def _cover_rows(self) -> Iterator[int]:
        """The transitive reduction as rows: row u holds the elements that
        cover u.

        From the lowest element left above u, the walk goes down, each
        step to the highest id below it, to an element minimal among those
        left, a cover of u; what lies above that cover is not one, and is
        dropped.  Where ids rise up the order the lowest element left is
        minimal already, and where they fall each step goes far down.
        Each step may go only where every step before it could, less the
        element it leaves: on an order that changes nothing, and on rows
        that are not an order the walk still ends.
        """
        for u in range(self.order):
            row = 0
            rest = self.above[u]
            while rest:
                v = lowest(rest)
                down = rest
                while down := self.below[v] & (down ^ (1 << v)):
                    v = down.bit_length() - 1
                row |= 1 << v
                rest &= ~(self.above[v] | (1 << v))
            yield row

    def is_connected(self) -> bool:
        """Connectivity of the comparability graph."""
        return self.comparability_graph().is_connected()

    def incomparables(self, x: int) -> frozenset[int]:
        self._check(x)
        return self.comparability_graph().non_neighbors(x)

    def incomparable_components(self, x: int) -> list[tuple[int, ...]]:
        """Blocks of the elements incomparable to x, connected through
        comparability: two incomparables land in one block when a chain of
        comparable pairs inside the set links them: x's non-neighbor blocks
        (:func:`cosp.engine._blocks`) on the comparability rows."""
        self._check(x)
        return [vertices_of(m) for m in _blocks(self.comparability_masks(), self.full_mask(), x)]

    def split_candidates(self, x: int) -> SplitCandidates:
        """Elements comparable to x and to every element incomparable to x."""
        self._check(x)
        un = self.comparability_graph()._universal_mask(x)
        return SplitCandidates(
            lower=vertices_of(un & self.below[x]), upper=vertices_of(un & self.above[x])
        )

    def maximal_chain(self, x: int) -> MaximalChain:
        """Deterministic maximal chain through x.

        Grows greedily by the smallest-id element comparable to every
        current member, until no element outside the chain is comparable
        to all of it.  Reading only the rows of x and of each member, it
        builds no comparability rows.
        """
        self._check(x)
        members = [x]
        chain_mask = 1 << x
        cand = self.below[x] | self.above[x]
        while cand:
            pick = lowest(cand)
            idx = (chain_mask & self.below[pick]).bit_count()
            members.insert(idx, pick)
            chain_mask |= 1 << pick
            cand &= (self.below[pick] | self.above[pick]) & ~(1 << pick)
        return MaximalChain(tuple(members))


def parse_poset(text: str, mode: str = "covers") -> tuple[Poset, tuple[int, ...]]:
    """Parse the relation text format.

    Relation lines are ``u v`` or ``u < v``, both meaning u < v.  The
    optional header and label remapping follow the graph format rules.
    """

    return _read_pairs(text, True, lambda rows: Poset(*_closure(rows, mode)))


