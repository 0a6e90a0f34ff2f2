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
when, in every family, each outside id's row holds all of it or none.
"""

from __future__ import annotations

import json
from collections.abc import Callable, Iterable, Iterator, Sequence
from itertools import chain, compress
from operator import eq


class ParseError(ValueError):
    """Raised on malformed input text; ``line`` is the 1-based offender."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class DisconnectedError(ValueError):
    """Raised by operations whose contract requires a connected input."""


def mask_of(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def vertices_of(mask: int) -> tuple[int, ...]:
    return tuple(iter_bits(mask))


def mask_components(adj: Sequence[int], sub: int, co: bool = False) -> list[int]:
    """Connected components of the graph restricted to the vertex mask ``sub``,
    or with ``co`` of its complement, which is never built: a vertex's
    neighbor mask XOR ``sub`` holds its non-neighbors inside ``sub``.

    Returns component masks ordered by their smallest member.  A search
    that holds every vertex left stops without expanding it: on a tree of
    depth n each level peels one vertex off a part reached in one step.
    """
    flip = sub if co else 0
    comps: list[int] = []
    remaining = sub
    while remaining:
        comp = 0
        frontier = remaining & -remaining
        while frontier:
            comp |= frontier
            if comp == remaining:
                break
            nxt = 0
            f = frontier
            while f:
                low = f & -f
                f ^= low
                nxt |= adj[low.bit_length() - 1] ^ flip
            frontier = nxt & sub & ~comp
        comps.append(comp)
        remaining &= ~comp
    return comps


class _Record:
    """Immutable record over the attributes named in ``_fields``, which
    ``__init__`` sets with ``object.__setattr__``: equality (same class,
    equal fields), hash and repr by those fields in order, ``match`` on
    them by position, and no assignment or deletion afterwards."""

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        cls.__match_args__ = cls._fields

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
        order, below all or none and above all or none."""
        a = self._members(ids)
        outside = self.full_mask() & ~a
        for rows in self._values():
            for v in iter_bits(outside):
                t = rows[v] & a
                if t != 0 and t != a:
                    return False
        return True


class Graph(_Rows):
    """Immutable simple graph; ``adj[v]`` is the neighbor mask of vertex v."""

    _fields = ("adj",)
    _noun = "vertex"

    def __init__(self, adj: tuple[int, ...]):
        object.__setattr__(self, "adj", adj)

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


def _read_pairs(
    text: str, noun: str, ordered: bool, build: Callable[[int, list[int]], object]
) -> tuple[object, tuple[int, ...]]:
    """Read the pair text format shared by graphs and orders.

    Lines starting with '#' and blank lines are skipped.  An optional
    first significant line ``n <order>`` fixes the label set to
    0..order-1; without it the label set is the labels that appear,
    remapped to dense ids in sorted order.  Each other line holds two
    labels; for orders (``ordered``) it may read ``u < v``, and ``u v``
    and ``v u`` are different pairs.  Returns ``build(order, rows)`` (bit
    j of ``rows[i]`` is set for each line ``i j``, and for graphs also for
    each line ``j i``) and the table mapping dense id to original label.
    With a header, both are sized by the declared order, so running out
    of memory while making them is a ParseError on the header line.

    One of two tokenizers turns the text into flat labels, and
    :func:`_rows` builds the rows from them.  A plain text (see
    :func:`_read_plain`) is tokenized in bulk; any other text, and a plain
    one that fails a check, by :func:`cosp.pairtext._read_lines`, which
    finds and reports every error.  Its module is imported only then.
    """
    read = _read_plain(text, ordered)
    if read is None:
        from .pairtext import _read_lines

        read = _read_lines(text, noun, ordered)
    rows, labels, header = read
    try:
        return build(len(rows), rows), tuple(labels)
    except MemoryError:
        if header is None:
            raise
        raise ParseError(header, f"declared order {len(rows)} is too large") from None


_CHUNK = 1 << 16
_NOT_DIGITS = str.maketrans("", "", "0123456789")


def _read_plain(text: str, ordered: bool) -> tuple[list[int], Sequence[int], int | None] | None:
    """The rows, the label table and the header's line number (None
    without a header) of a plain text, or None for any other text.

    A text is plain when every line is ``<digits> <digits>``, or for an
    order also ``<digits> < <digits>``, ended by a newline, with ASCII
    digits and single spaces, after an optional first line ``n <digits>``:
    the form :func:`cosp.pairtext.format_graph` and
    :func:`cosp.pairtext.format_poset` write.  The
    shape of the whole text is checked first by C-level string operations,
    after an order's ``" < "`` become spaces, so that any other text costs
    little here.  The labels are then converted by one ``json.loads`` per
    chunk of at least 64 KiB cut at a newline.  With a header the chunks
    stream into :func:`_rows` one by one; without one all labels are held
    at once, to be relabelled.

    A failed check, a label with leading zeros, a failed check of
    :func:`_rows` or running out of memory gives None.
    """
    pos = text.find("\n") + 1 if text[:2] == "n " else 0
    # Taken before the " < " go, which would make "n < 5" read "n 5".
    header = text[2 : pos - 1]
    if ordered:
        text = text.replace(" < ", " ")
    # Deleting the digits must leave one space and one newline per line,
    # after the "n \n" of a header; the digits of a last line with no
    # newline would not show.
    shape = text.translate(_NOT_DIGITS)
    head = "n \n" if pos else ""
    if text[-1:] not in ("", "\n") or shape != head + " \n" * ((len(shape) - len(head)) // 2):
        return None
    try:
        declared = int(header) if pos else None
        read = _rows(_chunks(text, pos), declared, ordered, len(text))
    except (ValueError, IndexError, OverflowError, MemoryError):
        return None
    return read and (*read, 1 if pos else None)


def _chunks(text: str, pos: int) -> Iterator[list[int]]:
    """The labels of the plain lines from ``pos`` on, one flat list per
    chunk of at least 64 KiB, or the rest, cut at a newline."""
    while pos < len(text):
        end = text.find("\n", pos + _CHUNK) + 1 or len(text)
        yield json.loads("[" + text[pos : end - 1].replace("\n", ",").replace(" ", ",") + "]")
        pos = end


def _rows(
    chunks: Iterable[list[int]], declared: int | None, ordered: bool, size: int
) -> tuple[list[int], Sequence[int]] | None:
    """The rows and the label table of the pairs in ``chunks``, lists of
    flat labels ``u, v, u, v, ...``, or None when the final check fails.

    Without a header (``declared`` None) the labels are joined and mapped
    to dense ids in sorted order by ``sorted(set(...))`` and one dict,
    unless they are 0..k-1 already: no bit is ever set by a raw label.
    Each pair u v then sets bit v of ``rows[u]`` with one OR: the bit
    comes from a table of ``1 << v`` when ``size`` (the text's length) is
    at least n*n, else from a shift, so the table, about n*n/15 bytes,
    never outgrows the text.  A label outside the declared order is an
    IndexError, found in each chunk read with shifts before any shift.  A
    graph's pair also sets bit u of ``rows[v]`` when read with shifts;
    with the table its mirror half comes from one :func:`_transpose`, an
    n-long list that is no larger than the text.

    An order's pair u u gives None, and so do fewer bits in the finished
    rows than the pairs set (a duplicate in either orientation, or a
    graph's self-loop).
    """
    if declared is None:
        flat = list(chain.from_iterable(chunks))
        labels: Sequence[int] = sorted(set(flat))
        declared = len(labels)
        if labels and labels[-1] != declared - 1:
            flat = list(map(dict(zip(labels, range(declared))).__getitem__, flat))
        chunks = (flat,)
    else:
        labels = range(declared)
    rows = [0] * declared
    bits = [1 << v for v in range(declared)] if declared * declared <= size else None
    count = 0
    for chunk in chunks:
        # Checked on the pairs, not the rows, which an absurd header makes
        # far more numerous.
        if ordered and any(map(eq, chunk[::2], chunk[1::2])):
            return None
        pairs = iter(chunk)
        if bits is None:
            # A label far out of range would be a shift by gigabytes.
            if chunk and max(chunk) >= declared:
                raise IndexError
            for u, v in zip(pairs, pairs):
                rows[u] |= 1 << v
                if not ordered:
                    rows[v] |= 1 << u
        else:
            for u, v in zip(pairs, pairs):
                rows[u] |= bits[v]
        count += len(chunk)
    if ordered:
        count //= 2
    elif bits is not None:
        rows = [row | col for row, col in zip(rows, _transpose(rows, declared))]
    if sum(map(int.bit_count, filter(None, rows))) != count:
        return None
    return rows, labels


_DIGITS = 1 << 20


def _transpose(rows: list[int], n: int) -> list[int]:
    """The transpose of n rows of n bits: bit i of ``out[j]`` is bit j of
    ``rows[i]``.

    Rows with more than one bit in eight set are written as binary digit
    strings, at most about 1 MiB of digits at a time, and each column is
    read back with one strided slice and ``int(..., 2)``; sparser rows
    are walked bit by bit, and zero rows are skipped.
    """
    out = [0] * n
    if sum(map(int.bit_count, filter(None, rows))) * 8 <= n * n:
        for i in compress(range(n), rows):
            row = rows[i]
            bit = 1 << i
            while row:
                low = row & -row
                out[low.bit_length() - 1] |= bit
                row ^= low
        return out
    spec = f"0{n}b"
    step = max(1, _DIGITS // n)
    for start in range(0, n, step):
        # Digit k of a row's string is bit n-1-k.  The rows go in last
        # first, so that row ``start`` is the lowest digit of each column.
        digits = "".join([format(row, spec) for row in reversed(rows[start : start + step])])
        for j in range(n):
            out[j] |= int(digits[n - 1 - j :: n], 2) << start
    return out


def parse_graph(text: str) -> tuple[Graph, tuple[int, ...]]:
    """Parse the edge-list text format (see :func:`_read_pairs`).  Returns
    the graph and the table mapping dense id to original label."""
    return _read_pairs(text, "vertex", False, lambda order, rows: Graph(tuple(rows)))


