"""Finite simple undirected graphs over dense integer vertex ids.

Adjacency is stored as one bitmask per vertex: bit j of ``adj[i]`` is set
exactly when {i, j} is an edge.  Masks make vertex-set algebra plain
integer arithmetic and let complement-side traversals scan non-neighbors
word by word against an unvisited mask, so connected components of the
complement never require materializing complement edges.

Vertex sets returned to callers are frozensets; partitions are lists of
ascending tuples ordered by their smallest member, which keeps every
derived witness reproducible.

:class:`Graph` and :class:`cosp.posets.Poset` are both row records
(``_Rows``): each field is one family of n masks, ``adj`` for a graph,
``below`` and ``above`` for an order.  That base alone states ``order``,
``full_mask``, the id range check and ``is_module``: a set is a module
when, in every family, each outside id's row holds all of it or none,
which it tests as all members' rows agreeing outside the set.

The rows themselves, the text reader that makes them and the mask
helpers are in :mod:`cosp.rows`, which a CLI request runs without this
module; :class:`ParseError` is defined there and is public here.
"""

from __future__ import annotations

from collections.abc import Iterable

from .rows import ParseError  # noqa: F401 (public here)
from .rows import _read_pairs, iter_bits, mask_components


class DisconnectedError(ValueError):
    """Raised by operations whose contract requires a connected input."""


def mask_of(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def vertices_of(mask: int) -> tuple[int, ...]:
    return tuple(iter_bits(mask))


class _Record:
    """Immutable record: equality (same class, equal fields), hash and repr
    by its fields in order, ``match`` on them by position, and no
    assignment or deletion afterwards.

    A subclass declares each field once, as a public annotated class
    attribute in positional order, with its default, if any, as the value
    (``kind: str``, ``vertex: int | None = None``).  From those,
    ``__init_subclass__`` names ``_fields`` and ``__match_args__`` and
    writes ``__init__`` as the text of a plain ``def``, as
    :func:`collections.namedtuple` writes its ``__new__``: a constructor
    with the signature, defaults and ``TypeError`` texts of a hand-written
    one, which sets each field with ``object.__setattr__``.  A subclass
    that declares no public field keeps its base's."""

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        notes = {name: note for name, note in cls.__annotations__.items() if name[0] != "_"}
        if not notes:
            return
        cls._fields = cls.__match_args__ = fields = tuple(notes)
        # A default is read from the class when the def runs; one before a
        # field without one is a SyntaxError, as in a hand-written def.
        params = ", ".join(f"{k}=_cls.{k}" if k in cls.__dict__ else k for k in fields)
        body = "".join(f"\n    _set(self, {k!r}, {k})" for k in fields)
        namespace = {"_cls": cls, "_set": object.__setattr__, "__name__": cls.__module__}
        exec(f"def __init__(self, {params}):{body}", namespace)
        init = cls.__init__ = namespace["__init__"]
        init.__qualname__ = f"{cls.__qualname__}.__init__"
        init.__annotations__ = notes

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class _Rows(_Record):
    """A record whose ``_fields`` are n-long rows of masks over the ids
    0..n-1, one family each: a graph's ``adj``, an order's ``below`` and
    ``above``.  ``_noun`` names an id in messages."""

    _noun: str

    @property
    def order(self) -> int:
        return len(getattr(self, self._fields[0]))

    def full_mask(self) -> int:
        return (1 << self.order) - 1

    def _check(self, x: int) -> None:
        if not (0 <= x < self.order):
            raise ValueError(f"{self._noun} {x} out of range for order {self.order}")

    def _members(self, ids: Iterable[int]) -> int:
        """The mask of a set of ids, each of which must lie in 0..n-1."""
        members = set(ids)
        if members and not (0 <= min(members) and max(members) < self.order):
            raise ValueError(f"member out of range for order {self.order}")
        return mask_of(members)

    def is_module(self, ids: Iterable[int]) -> bool:
        """True when, in every row family, each outside id's row holds all
        or none of the set: for a graph, adjacent to all or none; for an
        order, below all or none and above all or none.

        It is read from the members' side (:meth:`_is_module_mask`), which
        says the same of a record whose rows are the two sides of one
        relation: ``adj`` symmetric, ``below`` and ``above`` each other's
        transpose, as :meth:`cosp.posets.Poset.validate` checks."""
        return self._is_module_mask(self._members(ids))

    def _is_module_mask(self, a: int) -> bool:
        """:meth:`is_module` of the set with mask ``a``: in every family, all
        members' rows agree outside the set, which reads |a| rows, not the
        n - |a| outside ones.  An outside id is in a member's ``adj`` row
        when its own row holds that member, and in a member's ``below``
        (``above``) row when its ``above`` (``below``) row holds it."""
        outside = self.full_mask() & ~a
        return all(len({rows[v] & outside for v in iter_bits(a)}) < 2 for rows in self._values())


class Graph(_Rows):
    """Immutable simple graph; ``adj[v]`` is the neighbor mask of vertex v."""

    adj: tuple[int, ...]
    _noun = "vertex"

    @classmethod
    def from_edges(cls, order: int, edges: Iterable[tuple[int, int]]) -> Graph:
        if order < 0:
            raise ValueError("order must be non-negative")
        adj = [0] * order
        for u, v in edges:
            if not (0 <= u < order and 0 <= v < order):
                raise ValueError(f"edge ({u}, {v}) out of range for order {order}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        return cls(tuple(adj))

    def has_edge(self, u: int, v: int) -> bool:
        self._check(u)
        self._check(v)
        return (self.adj[u] >> v) & 1 == 1

    def edges(self) -> list[tuple[int, int]]:
        out = []
        for u in range(self.order):
            upper = self.adj[u] >> (u + 1)
            for off in iter_bits(upper):
                out.append((u, u + 1 + off))
        return out

    def edge_count(self) -> int:
        return sum(m.bit_count() for m in self.adj) // 2

    def neighbors(self, x: int) -> frozenset[int]:
        self._check(x)
        return frozenset(iter_bits(self.adj[x]))

    def non_neighbors(self, x: int) -> frozenset[int]:
        """Vertices other than x that are not adjacent to x."""
        self._check(x)
        return frozenset(iter_bits(self.full_mask() & ~self.adj[x] & ~(1 << x)))

    def universal_neighbors(self, x: int) -> frozenset[int]:
        """Neighbors of x adjacent to every non-neighbor of x.

        When this set is nonempty in a connected graph with no induced
        four-vertex path, its members are adjacent to everything outside
        the set, so the graph is a join and its complement is disconnected.
        """
        self._check(x)
        return frozenset(iter_bits(self._universal_mask(x)))

    def _universal_mask(self, x: int) -> int:
        inc = self.full_mask() & ~self.adj[x] & ~(1 << x)
        out = 0
        for y in iter_bits(self.adj[x]):
            if inc & ~self.adj[y] == 0:
                out |= 1 << y
        return out

    def components(self) -> list[tuple[int, ...]]:
        return [vertices_of(m) for m in mask_components(self.adj, self.full_mask())]

    def co_components(self) -> list[tuple[int, ...]]:
        """Connected components of the complement graph."""
        return [vertices_of(m) for m in mask_components(self.adj, self.full_mask(), co=True)]

    def is_connected(self) -> bool:
        return self.order == 0 or len(mask_components(self.adj, self.full_mask())) == 1

    def induced(self, vertices: Iterable[int]) -> tuple[Graph, tuple[int, ...]]:
        """Induced subgraph plus the dense remap table.

        Returns (h, keep) where keep is the ascending tuple of original
        ids and vertex i of h corresponds to keep[i].
        """
        keep = sorted(set(vertices))
        for v in keep:
            self._check(v)
        index = {v: i for i, v in enumerate(keep)}
        sub = mask_of(keep)
        adj = [0] * len(keep)
        for i, v in enumerate(keep):
            m = 0
            for w in iter_bits(self.adj[v] & sub):
                m |= 1 << index[w]
            adj[i] = m
        return Graph(tuple(adj)), tuple(keep)

    def complement(self) -> Graph:
        full = self.full_mask()
        return Graph(tuple(full & ~m & ~(1 << v) for v, m in enumerate(self.adj)))


def parse_graph(text: str) -> tuple[Graph, tuple[int, ...]]:
    """Parse the edge-list text format (see :func:`cosp.rows._read_pairs`).
    Returns the graph and the table mapping dense id to original label."""
    return _read_pairs(text, False, lambda rows: Graph(tuple(rows)))


