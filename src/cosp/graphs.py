"""Finite simple undirected graphs over dense integer vertex ids.

Adjacency is stored as one bitmask per vertex: bit j of ``adj[i]`` is set
exactly when {i, j} is an edge.  Masks make vertex-set algebra plain
integer arithmetic and let complement-side traversals scan non-neighbors
word by word against an unvisited mask, so connected components of the
complement never require materializing complement edges.

Vertex sets returned to callers are frozensets; partitions are lists of
ascending tuples ordered by their smallest member, which keeps every
derived witness reproducible.
"""

from __future__ import annotations

import json
from collections.abc import Callable, Iterable, Iterator, Sequence
from itertools import compress, islice
from operator import itemgetter


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


def mask_co_components(adj: Sequence[int], sub: int) -> list[int]:
    """Components of the complement restricted to ``sub``, as masks."""
    return mask_components(adj, sub, co=True)


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


class Graph(_Record):
    """Immutable simple graph; ``adj[v]`` is the neighbor mask of vertex v."""

    _fields = ("adj",)

    def __init__(self, adj: tuple[int, ...]):
        object.__setattr__(self, "adj", adj)

    @property
    def order(self) -> int:
        return len(self.adj)

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

    def _check_vertex(self, x: int) -> None:
        if not (0 <= x < self.order):
            raise ValueError(f"vertex {x} out of range for order {self.order}")

    def full_mask(self) -> int:
        return (1 << self.order) - 1

    def has_edge(self, u: int, v: int) -> bool:
        self._check_vertex(u)
        self._check_vertex(v)
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
        self._check_vertex(x)
        return frozenset(iter_bits(self.adj[x]))

    def non_neighbors(self, x: int) -> frozenset[int]:
        """Vertices other than x that are not adjacent to x."""
        self._check_vertex(x)
        return frozenset(iter_bits(self.full_mask() & ~self.adj[x] & ~(1 << x)))

    def universal_neighbors(self, x: int) -> frozenset[int]:
        """Neighbors of x adjacent to every non-neighbor of x.

        When this set is nonempty in a connected graph with no induced
        four-vertex path, its members are adjacent to everything outside
        the set, so the graph is a join and its complement is disconnected.
        """
        self._check_vertex(x)
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
        return [vertices_of(m) for m in mask_co_components(self.adj, self.full_mask())]

    def is_connected(self) -> bool:
        return self.order == 0 or len(mask_components(self.adj, self.full_mask())) == 1

    def induced(self, vertices: Iterable[int]) -> tuple[Graph, tuple[int, ...]]:
        """Induced subgraph plus the dense remap table.

        Returns (h, keep) where keep is the ascending tuple of original
        ids and vertex i of h corresponds to keep[i].
        """
        keep = sorted(set(vertices))
        for v in keep:
            self._check_vertex(v)
        index = {v: i for i, v in enumerate(keep)}
        sub = mask_of(keep)
        adj = [0] * len(keep)
        for i, v in enumerate(keep):
            m = 0
            for w in iter_bits(self.adj[v] & sub):
                m |= 1 << index[w]
            adj[i] = m
        return Graph(tuple(adj)), tuple(keep)

    def is_module(self, vertices: Iterable[int]) -> bool:
        """True when every outside vertex is adjacent to all or none of the set."""
        a = mask_of(set(vertices))
        if a >> self.order:
            raise ValueError(f"member out of range for order {self.order}")
        for v in iter_bits(self.full_mask() & ~a):
            t = self.adj[v] & a
            if t != 0 and t != a:
                return False
        return True

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

    A plain text (see :func:`_read_plain`) is read in bulk, one OR per
    line into ``rows[u]``, a graph's mirror half then added by one
    :func:`_transpose`; any other text, and a plain one that fails a
    check, is read line by line, with the same results and errors.  The
    line reader sets both halves of a graph as it goes, and drops its
    split lines and token dict before ``build``, which for an order runs
    the closure.  One pass: a token maps to its id
    through one dict keyed by the canonical spelling ``str(label)``, and
    the row bit finds duplicates.
    A line the dict does not decide (a label's first appearance, another
    spelling of a label, a comment or an error) takes the checks in full
    and enters its labels, so the dict holds only the labels in use,
    however large the declared order.
    """
    rows = _read_plain(text, ordered)
    if rows is not None:
        return _built(build, rows, 1)
    pair, sep = ("relation", " < ") if ordered else ("edge", " ")
    lines = text.splitlines()
    declared: int | None = None
    first = 0
    for first, raw in enumerate(lines):
        tokens = raw.split()
        if not tokens or tokens[0].startswith("#"):
            continue
        if tokens[0] == "n":
            if len(tokens) != 2:
                raise ParseError(first + 1, "malformed header, expected 'n <order>'")
            try:
                declared = int(tokens[1])
            except ValueError:
                raise ParseError(first + 1, f"malformed header order {tokens[1]!r}") from None
            if declared < 0:
                raise ParseError(first + 1, "declared order must be non-negative")
            first += 1
        break
    ids: dict[str, int] = {}
    labels: list[int] = []
    try:
        rows = [] if declared is None else [0] * declared
    except (OverflowError, MemoryError):
        raise ParseError(first, f"declared order {declared} is too large") from None
    get = ids.get
    for lineno, line in enumerate(islice(lines, first, None), first + 1):
        tokens = line.split()
        if len(tokens) == 2 or ordered and len(tokens) == 3 and tokens[1] == "<":
            i = get(tokens[0])
            j = get(tokens[-1])
            if i is not None and j is not None and i != j and not rows[i] >> j & 1:
                rows[i] |= 1 << j
                if not ordered:
                    rows[j] |= 1 << i
                continue
        if not tokens or tokens[0].startswith("#"):
            continue
        try:
            if len(tokens) != 2 and not (ordered and len(tokens) == 3 and tokens[1] == "<"):
                raise ValueError
            u, v = int(tokens[0]), int(tokens[-1])
        except ValueError:
            raise ParseError(lineno, f"expected two {noun} labels, got {line.strip()!r}") from None
        if u < 0 or v < 0:
            raise ParseError(lineno, f"{noun} labels must be non-negative")
        if u == v:
            raise ParseError(lineno, f"{'reflexive relation' if ordered else 'self-loop'} {u}{sep}{v}")
        if declared is None:
            i = _new_id(ids, labels, rows, u)
            j = _new_id(ids, labels, rows, v)
        elif u >= declared or v >= declared:
            # No pair out of range ever entered a row, so this test may
            # come before the duplicate test.
            raise ParseError(lineno, f"{noun} {max(u, v)} outside declared order {declared}")
        else:
            i, j = u, v
            ids[str(u)] = u
            ids[str(v)] = v
        if rows[i] >> j & 1:
            raise ParseError(lineno, f"duplicate {pair} {u}{sep}{v}")
        rows[i] |= 1 << j
        if not ordered:
            rows[j] |= 1 << i
    del lines, ids, get
    if declared is None:
        order, rows, labels = _sorted_ids(rows, labels)
        return build(order, rows), labels
    return _built(build, rows, first)


def _built(
    build: Callable[[int, list[int]], object], rows: list[int], header: int
) -> tuple[object, tuple[int, ...]]:
    """``build`` of rows sized by a header, and the identity label table;
    running out of memory while making them is a ParseError on the header."""
    declared = len(rows)
    try:
        return build(declared, rows), tuple(range(declared))
    except MemoryError:
        raise ParseError(header, f"declared order {declared} is too large") from None


_CHUNK = 1 << 16
_NOT_DIGITS = str.maketrans("", "", "0123456789")


def _read_plain(text: str, ordered: bool) -> list[int] | None:
    """The rows of a plain text, or None for any other text.

    A text is plain when line 1 is ``n <digits>`` and every later line is
    ``<digits> <digits>`` ended by a newline, with ASCII digits and single
    spaces, as :func:`format_graph` and :func:`format_poset` write it.  It
    is read in chunks of about 64 KiB cut at newlines, each checked and
    converted by C-level string operations (the digits deleted leave
    exactly one space and one newline per line; ``json.loads`` turns the
    labels into ints).  Each line ``u v`` then sets bit v of ``rows[u]``
    with one OR: the bit comes from a table of ``1 << v`` when the text
    is at least n*n characters long, else from a shift, so the table,
    about n*n/15 bytes, never outgrows the text.  A graph takes its other
    half from :func:`_transpose`.

    A label out of range is an index error in the table or the rows; a
    chunk read with shifts has its largest label checked first.  The
    finished rows are checked once: a self-loop (a bit on an order's
    diagonal, or one bit short in a graph's rows), or a duplicate in
    either orientation (the rows then hold fewer bits than the lines
    set).  A failed check, a label with leading zeros, or running out of
    memory gives None: the line reader in :func:`_read_pairs` is the
    reference, and it finds and reports every error.
    """
    nl = text.find("\n")
    header = text[:nl]
    if nl < 0 or header[:2] != "n " or not (header[2:].isdigit() and header.isascii()):
        return None
    try:
        declared = int(header[2:])
        rows = [0] * declared
        bits = [1 << v for v in range(declared)] if declared * declared <= len(text) else None
        lines = 0
        pos = nl + 1
        while pos < len(text):
            end = text.rfind("\n", pos, pos + _CHUNK) + 1
            if not end:
                return None
            chunk = text[pos:end]
            count = chunk.count("\n")
            if chunk.translate(_NOT_DIGITS) != " \n" * count:
                return None
            labels = json.loads("[" + chunk[:-1].replace("\n", ",").replace(" ", ",") + "]")
            pairs = iter(labels)
            if bits is None:
                # A label far out of range would be a shift by gigabytes.
                if max(labels) >= declared:
                    return None
                for u, v in zip(pairs, pairs):
                    rows[u] |= 1 << v
            else:
                for u, v in zip(pairs, pairs):
                    rows[u] |= bits[v]
            lines += count
            pos = end
        if ordered:
            if any(row >> i & 1 for i, row in enumerate(rows)):
                return None
        else:
            rows = [row | col for row, col in zip(rows, _transpose(rows, declared))]
            lines *= 2
    except (ValueError, IndexError, OverflowError, MemoryError):
        return None
    if sum(map(int.bit_count, rows)) != lines:
        return None
    return rows


_DIGITS = 1 << 20


def _transpose(rows: Sequence[int], n: int) -> list[int]:
    """The transpose of n rows of n bits: bit i of ``out[j]`` is bit j of
    ``rows[i]``.

    Rows with more than one bit in eight set are written as binary digit
    strings, at most about 1 MiB of digits at a time, and each column is
    read back with one strided slice and ``int(..., 2)``; sparser rows
    are walked bit by bit.
    """
    out = [0] * n
    if sum(map(int.bit_count, rows)) * 8 <= n * n:
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


def _new_id(ids: dict[str, int], labels: list[int], rows: list[int], label: int) -> int:
    """Id of ``label``, given the next free one on first appearance."""
    key = str(label)
    i = ids.get(key)
    if i is None:
        i = ids[key] = len(labels)
        labels.append(label)
        rows.append(0)
    return i


def _sorted_ids(rows: list[int], labels: list[int]) -> tuple[int, list[int], tuple[int, ...]]:
    """Relabel ids given in order of first appearance to sorted-label order.

    A row moves bit by bit when it is sparse, and as a string of binary
    digits permuted in one C-level gather when it is dense.
    """
    n = len(labels)
    order = sorted(range(n), key=labels.__getitem__)
    if order != list(range(n)):
        new = [0] * n
        for i, old in enumerate(order):
            new[old] = i
        # Digit k of a row's n-digit binary string is bit n-1-k.
        gather = itemgetter(*[n - 1 - order[n - 1 - k] for k in range(n)])
        out = []
        for old in order:
            row = rows[old]
            if row.bit_count() * 8 > n:
                out.append(int("".join(gather(format(row, f"0{n}b"))), 2))
                continue
            m = 0
            while row:
                low = row & -row
                m |= 1 << new[low.bit_length() - 1]
                row ^= low
            out.append(m)
        rows = out
    return n, rows, tuple(labels[old] for old in order)


def parse_graph(text: str) -> tuple[Graph, tuple[int, ...]]:
    """Parse the edge-list text format (see :func:`_read_pairs`).  Returns
    the graph and the table mapping dense id to original label."""
    return _read_pairs(text, "vertex", False, lambda order, rows: Graph(tuple(rows)))


def format_graph(g: Graph, labels: Sequence[int] | None = None) -> str:
    """Serialize to the edge-list text format.

    With the default dense labeling a header line declares the order, so
    isolated vertices survive the round trip.  Custom labels drop the
    header (its count would clash with relabeled ids); every vertex must
    then appear in some edge, or the serialization would lose it.
    """
    if labels is None or tuple(labels) == tuple(range(g.order)):
        lines = [f"n {g.order}"]
        labels = range(g.order)
    else:
        if len(set(labels)) != g.order:
            raise ValueError("labels must be distinct, one per vertex")
        lines = []
        for v in range(g.order):
            if not g.adj[v]:
                raise ValueError(
                    f"vertex {labels[v]} has no edges and no header can declare it"
                )
    for u, v in g.edges():
        lines.append(f"{labels[u]} {labels[v]}")
    return "\n".join(lines) + "\n"
