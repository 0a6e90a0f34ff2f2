"""Strict partial orders stored as explicit transitive closures.

Each element carries two bitmasks: the elements strictly below it and
strictly above it.  Keeping the closure dense makes comparability tests,
chain extension, and incomparability traversals single mask operations,
mirroring the graph representation in :mod:`cosp.graphs`.

What depends on comparability alone is asked of the comparability graph:
the incomparables of an element and their blocks are its non-neighbors
and their components, and an N is an induced four-vertex path of that
graph (:class:`cosp.cographs.P4Witness`) with the orientation a < b,
c < b, c < d.  This module adds only what the orientation decides.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from .cographs import P4Witness
from .graphs import Graph, _Record, _read_pairs, _transpose, iter_bits, mask_of, vertices_of


class CycleError(ValueError):
    """The input relation has a directed cycle; ``pair`` is one offending edge."""

    def __init__(self, pair: tuple[int, int]):
        u, v = pair
        super().__init__(f"cycle error: the relation has a cycle through {u} < {v}")
        self.pair = pair


class NWitness(_Record):
    """Four elements (a, b, c, d) with a < b, c < b, c < d and no other
    comparabilities.  A poset contains this pattern exactly when it is not
    series-parallel."""

    _fields = ("quad",)

    def __init__(self, quad: tuple[int, int, int, int]):
        object.__setattr__(self, "quad", quad)

    def validate(self, p: Poset) -> bool:
        a, b, c, d = self.quad
        return (
            P4Witness(self.quad).validate(p.comparability_graph())
            and p.less(a, b)
            and p.less(c, b)
            and p.less(c, d)
        )


class SplitCandidates(_Record):
    """Elements comparable to x and to every element incomparable to x,
    split by side.  Members can serve as outer layers of a linear split
    around x."""

    _fields = ("lower", "upper")

    def __init__(self, lower: tuple[int, ...], upper: tuple[int, ...]):
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)


class MaximalChain(_Record):
    """A maximal chain, listed bottom to top."""

    _fields = ("elements",)

    def __init__(self, elements: tuple[int, ...]):
        object.__setattr__(self, "elements", elements)

    @property
    def bottom(self) -> int:
        return self.elements[0]

    @property
    def top(self) -> int:
        return self.elements[-1]


class Poset(_Record):
    """Immutable strict partial order; ``below[v]`` / ``above[v]`` are the
    masks of elements strictly less / greater than v in the closure."""

    _fields = ("below", "above")

    def __init__(self, below: tuple[int, ...], above: tuple[int, ...]):
        object.__setattr__(self, "below", below)
        object.__setattr__(self, "above", above)

    @property
    def order(self) -> int:
        return len(self.below)

    @classmethod
    def from_relations(
        cls, order: int, pairs: Iterable[tuple[int, int]], mode: str = "covers"
    ) -> Poset:
        """Build a poset from (u, v) pairs meaning u < v.

        mode="covers" closes the input transitively; mode="full" demands
        the input already be its own transitive closure and rejects it
        otherwise.  Cycles raise :class:`CycleError` in both modes.
        """
        if mode not in ("covers", "full"):
            raise ValueError(f"unknown mode {mode!r}")
        if order < 0:
            raise ValueError("order must be non-negative")
        succ = [0] * order
        for u, v in pairs:
            if not (0 <= u < order and 0 <= v < order):
                raise ValueError(f"relation ({u}, {v}) out of range for order {order}")
            if u == v:
                raise ValueError(f"reflexive relation {u} < {u}")
            succ[u] |= 1 << v
        return cls._from_succ(succ, mode)

    @classmethod
    def _from_succ(cls, succ: list[int], mode: str) -> Poset:
        """The order of :meth:`from_relations` from its successor masks:
        bit v of ``succ[u]`` stands for the pair u < v."""
        if mode not in ("covers", "full"):
            raise ValueError(f"unknown mode {mode!r}")
        order = len(succ)
        pred = _transpose(succ, order)
        # Kahn's algorithm; leftovers witness a cycle.
        indeg = list(map(int.bit_count, pred))
        queue = [v for v in range(order) if indeg[v] == 0]
        topo: list[int] = []
        while queue:
            v = queue.pop()
            topo.append(v)
            for w in iter_bits(succ[v]):
                indeg[w] -= 1
                if indeg[w] == 0:
                    queue.append(w)
        if len(topo) < order:
            leftover = mask_of(v for v in range(order) if indeg[v] > 0)
            for u in iter_bits(leftover):
                inside = succ[u] & leftover
                if inside:
                    raise CycleError((u, (inside & -inside).bit_length() - 1))
            raise CycleError((0, 0))  # unreachable: a cycle always has an internal edge
        below = _reach(topo, pred, True)
        if mode == "full":
            for v in range(order):
                missing = below[v] & ~pred[v]
                if missing:
                    u = (missing & -missing).bit_length() - 1
                    raise ValueError(
                        f"relation is not transitively closed: {u} < {v} is implied but absent"
                    )
        return cls(tuple(below), tuple(_reach(reversed(topo), succ, False)))

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

    def _check_element(self, x: int) -> None:
        if not (0 <= x < self.order):
            raise ValueError(f"element {x} out of range for order {self.order}")

    def full_mask(self) -> int:
        return (1 << self.order) - 1

    def less(self, u: int, v: int) -> bool:
        self._check_element(u)
        self._check_element(v)
        return (self.below[v] >> u) & 1 == 1

    def comparable(self, u: int, v: int) -> bool:
        self._check_element(u)
        self._check_element(v)
        return ((self.below[v] | self.above[v]) >> u) & 1 == 1

    def comparability_masks(self) -> list[int]:
        return [self.below[v] | self.above[v] for v in range(self.order)]

    def comparability_graph(self) -> Graph:
        """Graph with an edge for every comparable pair."""
        return Graph(tuple(self.comparability_masks()))

    def incomparability_graph(self) -> Graph:
        return self.comparability_graph().complement()

    def relations(self) -> list[tuple[int, int]]:
        """All closed pairs (u, v) with u < v, sorted."""
        out = []
        for v in range(self.order):
            for u in iter_bits(self.below[v]):
                out.append((u, v))
        out.sort()
        return out

    def covers(self) -> list[tuple[int, int]]:
        """Pairs of the transitive reduction: u < v with nothing between."""
        out = []
        for v in range(self.order):
            rest = self.below[v]
            while rest:
                # Climb to an element maximal in rest, a cover of v; what
                # lies below it is not.
                u = rest.bit_length() - 1
                while up := self.above[u] & rest:
                    u = up.bit_length() - 1
                out.append((u, v))
                rest &= ~(self.below[u] | (1 << u))
        out.sort()
        return out

    def is_connected(self) -> bool:
        """Connectivity of the comparability graph."""
        return self.comparability_graph().is_connected()

    def incomparables(self, x: int) -> frozenset[int]:
        self._check_element(x)
        return self.comparability_graph().non_neighbors(x)

    def incomparable_components(self, x: int) -> list[tuple[int, ...]]:
        """Blocks of the elements incomparable to x, connected through
        comparability: two incomparables land in one block when a chain of
        comparable pairs inside the set links them."""
        from .lemmas import non_neighbor_components

        self._check_element(x)
        return non_neighbor_components(self.comparability_graph(), x)

    def is_module(self, elements: Iterable[int]) -> bool:
        """True when every outside element relates uniformly (below, above,
        or incomparable) to all members of the set."""
        a = mask_of(set(elements))
        if a >> self.order:
            raise ValueError(f"member out of range for order {self.order}")
        for v in iter_bits(self.full_mask() & ~a):
            dn = self.below[v] & a
            if dn != 0 and dn != a:
                return False
            up = self.above[v] & a
            if up != 0 and up != a:
                return False
        return True

    def split_candidates(self, x: int) -> SplitCandidates:
        """Elements comparable to x and to every element incomparable to x."""
        self._check_element(x)
        un = self.comparability_graph()._universal_mask(x)
        return SplitCandidates(
            lower=vertices_of(un & self.below[x]), upper=vertices_of(un & self.above[x])
        )

    def maximal_chain(self, x: int) -> MaximalChain:
        """Deterministic maximal chain through x.

        Grows greedily by the smallest-id element comparable to every
        current member, preferring extensions below the current bottom,
        then above the current top, then interior insertions, until no
        element outside the chain is comparable to all of it.
        """
        self._check_element(x)
        comp = self.comparability_masks()
        members = [x]
        chain_mask = 1 << x
        cand = comp[x]
        while cand:
            down = cand & self.below[members[0]]
            up = cand & self.above[members[-1]]
            pool = down or up or cand
            pick = (pool & -pool).bit_length() - 1
            idx = (chain_mask & self.below[pick]).bit_count()
            members.insert(idx, pick)
            chain_mask |= 1 << pick
            cand &= comp[pick] & ~(1 << pick)
        return MaximalChain(tuple(members))


def _reach(topo: Iterable[int], step: Sequence[int], high: bool) -> list[int]:
    """Mask of everything reachable from each element along ``step`` edges;
    ``topo`` must list every step target before its source.

    A target already reached through another one adds nothing and is
    skipped.  Targets are taken from the highest id down when ``high``,
    else from the lowest up, so that when ids follow the order the first
    targets taken are the nearest ones (covers) and reach the rest.
    """
    out = [0] * len(step)
    for v in topo:
        acc = 0
        rest = step[v]
        while rest:
            u = rest.bit_length() - 1 if high else (rest & -rest).bit_length() - 1
            acc |= out[u] | (1 << u)
            rest &= ~acc
        out[v] = acc
    return out


def parse_poset(text: str, mode: str = "covers") -> tuple[Poset, tuple[int, ...]]:
    """Parse the relation text format.

    Relation lines are ``u v`` or ``u < v``, both meaning u < v.  The
    optional header and label remapping follow the graph format rules.
    """

    return _read_pairs(text, "element", True, lambda order, rows: Poset._from_succ(rows, mode))


