"""Cograph recognition and canonical series/parallel decomposition.

A finite graph is a cograph exactly when it has no induced four-vertex
path.  Recognition proceeds by repeated splitting: a graph on two or
more vertices either falls apart into connected components (parallel
node) or its complement does (series node); when neither happens the
graph contains an induced path on four vertices, found by the
neighbor-split lemma at the part's lowest vertex (the mask routine behind
:func:`neighbor_split`), and that path is returned as a certificate
instead of a tree.  This is the component / co-component scheme whose
linear-time form is due to Corneil, Perl and Stewart (SIAM J. Comput.
14(4), 1985).

The split loop, the certificate and the tree codec serve orders too
(:mod:`cosp.spdecomp`): the helpers read the leaf field and kind names
from the tree class, and none of them recurses, so trees of any depth
work.  Every tree (but those of the public node constructors) is built
from its signature, the flat preorder list that also decides equality.

Trees are kept canonical: no series child of a series node, no parallel
child of a parallel node, at least two children per internal node, and
children ordered by their smallest leaf id.  Canonical form makes tree
equality meaningful, so round trips through the graph are exact.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from .graphs import (
    DisconnectedError,
    Graph,
    _Record,
    iter_bits,
    mask_components,
    mask_of,
    vertices_of,
)

LEAF = "leaf"
SERIES = "series"
PARALLEL = "parallel"


class P4Witness(_Record):
    """An induced path a-b-c-d: edges ab, bc, cd; non-edges ac, ad, bd."""

    _fields = ("path",)

    def __init__(self, path: tuple[int, int, int, int]):
        object.__setattr__(self, "path", path)

    def validate(self, g: Graph) -> bool:
        a, b, c, d = self.path
        if len({a, b, c, d}) != 4:
            return False
        for v in self.path:
            if not (0 <= v < g.order):
                return False
        return (
            g.has_edge(a, b)
            and g.has_edge(b, c)
            and g.has_edge(c, d)
            and not g.has_edge(a, c)
            and not g.has_edge(a, d)
            and not g.has_edge(b, d)
        )


class P4Error(ValueError):
    """An operation that requires a path-free input found an induced
    four-vertex path; ``witness`` carries it."""

    def __init__(self, witness: P4Witness, message: str):
        super().__init__(message)
        self.witness = witness


class JoinWitness(_Record):
    """Certificate that a connected graph is a join: every member of
    ``universal_neighbors`` is adjacent to every vertex outside the set,
    so the complement is disconnected across ``split``."""

    _fields = ("x", "universal_neighbors", "split")

    def __init__(
        self,
        x: int,
        universal_neighbors: tuple[int, ...],
        split: tuple[tuple[int, ...], tuple[int, ...]],
    ):
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "universal_neighbors", universal_neighbors)
        object.__setattr__(self, "split", split)

    def validate(self, g: Graph) -> bool:
        if not (0 <= self.x < g.order):
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

    _fields = ("component", "adjacent_all", "adjacent_none")

    def __init__(
        self,
        component: tuple[int, ...],
        adjacent_all: tuple[int, ...],
        adjacent_none: tuple[int, ...],
    ):
        object.__setattr__(self, "component", component)
        object.__setattr__(self, "adjacent_all", adjacent_all)
        object.__setattr__(self, "adjacent_none", adjacent_none)

    def validate(self, g: Graph, x: int) -> bool:
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


class _Tree(_Record):
    """Equality, hashing and pickling of :class:`Cotree` and ``SPTree`` by
    flat preorder signature, and their repr, all without recursion, so
    trees of any depth work.  A subclass names its fields, its leaf field,
    its two internal kinds (join-like first) and the kinds whose children
    are sorted by smallest leaf."""

    def _signature(self) -> list[tuple]:
        # Kind, leaf id and child count of every node in preorder: the
        # counts fix the shape, so equal signatures mean equal trees.
        key = self._leaf_key
        return [(n.kind, getattr(n, key), len(n.children)) for n in _preorder(self)]

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self is other or self._signature() == other._signature()

    def __hash__(self) -> int:
        return hash(tuple(self._signature()))

    def __reduce__(self):
        return _from_signature, (type(self), self._signature())

    def __repr__(self) -> str:
        key = self._leaf_key

        def text(node):
            # The record repr; a one-tuple of children ends in ",)".
            head = f"{type(node).__qualname__}(kind={node.kind!r}, {key}={getattr(node, key)!r}"
            return f"{head}, children=(", ",))" if len(node.children) == 1 else "))"

        return _tree_text(self, text)


def _from_signature(cls: type, signature: list[tuple]) -> _Tree:
    """The tree of class ``cls`` with this signature: the inverse of
    ``_Tree._signature`` and the one place that builds trees from a flat
    form.  A signature lists ``(kind, leaf id, child count)`` in preorder,
    a node's last child first.  Read backwards, it builds every subtree
    before its parent, first child first, so a node's children are the
    top of the stack in order."""
    stack: list = []
    for kind, leaf, count in reversed(signature):
        cut = len(stack) - count
        node = cls(kind, leaf, tuple(stack[cut:]))
        del stack[cut:]
        stack.append(node)
    return stack[0]


class Cotree(_Tree):
    """Decomposition tree node; series means join, parallel means disjoint
    union, leaves carry vertex ids."""

    _fields = ("kind", "vertex", "children")
    _leaf_key = "vertex"
    _kinds = (SERIES, PARALLEL)
    _sorted_kinds = (SERIES, PARALLEL)

    def __init__(self, kind: str, vertex: int | None = None, children: tuple[Cotree, ...] = ()):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "vertex", vertex)
        object.__setattr__(self, "children", children)

    @classmethod
    def leaf(cls, vertex: int) -> Cotree:
        return cls(LEAF, vertex=vertex)

    @classmethod
    def series(cls, children: Iterable[Cotree]) -> Cotree:
        return cls(SERIES, children=tuple(children))

    @classmethod
    def parallel(cls, children: Iterable[Cotree]) -> Cotree:
        return cls(PARALLEL, children=tuple(children))


def _preorder(t: Cotree) -> list[Cotree]:
    # Parents before children; reversed gives a children-first order.
    out = []
    stack = [t]
    while stack:
        node = stack.pop()
        out.append(node)
        stack.extend(node.children)
    return out


def _tree_text(t: _Tree, text) -> str:
    """The text of a tree, written in one walk in preorder, first child
    first, without recursion: ``text(node)`` gives a node's opening and
    closing text, and ``", "`` goes between siblings."""
    out = []
    stack: list = [t]  # nodes still to write, or text to copy out
    while stack:
        node = stack.pop()
        if type(node) is str:
            out.append(node)
            continue
        opening, closing = text(node)
        out.append(opening)
        children = node.children
        if children:
            stack.append(closing)
            for child in children[:0:-1]:
                stack += child, ", "
            stack.append(children[0])
        else:
            out.append(closing)
    return "".join(out)


def _leaf_masks(t: _Tree) -> tuple[list[_Tree], dict[int, int]]:
    """Preorder of a tree and the leaf mask of every node, keyed by ``id``;
    raises ValueError on a bad leaf id, an unknown kind, an internal node
    with fewer than two children, or a repeated leaf."""
    key = t._leaf_key
    order = _preorder(t)
    mask: dict[int, int] = {}
    for node in reversed(order):
        if node.kind == LEAF:
            value = getattr(node, key)
            if not isinstance(value, int) or value < 0:
                raise ValueError(f"leaf {key} must be a non-negative int, got {value!r}")
            mask[id(node)] = 1 << value
            continue
        if node.kind not in t._kinds:
            raise ValueError(f"unknown node kind {node.kind!r}")
        if len(node.children) < 2:
            raise ValueError(f"{node.kind} node with fewer than two children")
        m = 0
        total = 0
        for child in node.children:
            cm = mask[id(child)]
            m |= cm
            total += cm.bit_count()
        if m.bit_count() != total:
            raise ValueError("duplicate leaf ids")
        mask[id(node)] = m
    return order, mask


def _dense_order(full: int) -> int:
    n = full.bit_length()
    if full != (1 << n) - 1:
        raise ValueError("leaf ids must form a dense 0..n-1 range")
    return n


def _validate_tree(t: _Tree) -> None:
    """Raise ValueError unless the tree is canonical with distinct leaves."""
    key = t._leaf_key
    order, mask = _leaf_masks(t)
    for node in order:
        if node.kind == LEAF:
            if node.children:
                raise ValueError("leaf with children")
            continue
        if getattr(node, key) is not None:
            raise ValueError(f"internal node with {key} {getattr(node, key)!r}")
        if any(child.kind == node.kind for child in node.children):
            raise ValueError(f"{node.kind} child of {node.kind} node")
        lows = [mask[id(child)] & -mask[id(child)] for child in node.children]
        if node.kind in t._sorted_kinds and lows != sorted(lows):
            raise ValueError(f"{node.kind} children not ordered by smallest leaf id")


validate_cotree = _validate_tree


def _decompose(cls: type, adj: Sequence[int], full: int, series_key=None):
    """Split the vertex mask ``full`` into components of ``adj`` (parallel
    node) or of its complement (series node) until every part is one
    vertex; children go by smallest member, or by ``series_key`` under a
    series node.  Returns the tree of class ``cls`` (whose ``_kinds``
    name the nodes), built from the signature written as parts are popped,
    or the first part that splits neither way."""
    join, union = cls._kinds
    signature = []
    stack = [full]
    while stack:
        sub = stack.pop()
        if sub & (sub - 1) == 0:
            signature.append((LEAF, sub.bit_length() - 1, 0))
            continue
        parts = mask_components(adj, sub)
        if len(parts) > 1:
            signature.append((union, None, len(parts)))
        else:
            parts = mask_components(adj, sub, co=True)
            if len(parts) == 1:
                return sub
            if series_key is not None:
                parts.sort(key=series_key)
            signature.append((join, None, len(parts)))
        stack.extend(parts)
    return _from_signature(cls, signature)


def cotree(g: Graph) -> Cotree | P4Witness:
    """Canonical decomposition tree of g, or an induced-path certificate.

    The split alternates between connected components and components of
    the complement; a part with neither split on two or more vertices
    must contain an induced four-vertex path, and one inside that part,
    found by the neighbor splits at its lowest vertex, is returned as
    (a, b, c, d) with a < d.
    """
    if g.order == 0:
        raise ValueError("the decomposition needs at least one vertex")
    result = _decompose(Cotree, g.adj, g.full_mask())
    if isinstance(result, int):
        return _p4_in_part(g.adj, result)
    return result


def _p4_in_part(adj: Sequence[int], sub: int) -> P4Witness:
    """An induced path (a, b, c, d), a < d, inside ``sub``, a part of the
    graph with neighbor masks ``adj`` that splits neither way, by the
    neighbor-split lemma at its lowest vertex x.  :func:`_sides` of each
    block of x's non-neighbors in ``sub`` raises the path unless the
    block's neighbors split into sides A (seeing it whole) and Z that are
    joined.  Then the smallest A is not inside every other A', or the part
    would split in the complement, so y in A - A' and z in A' - A give the
    path b, y, z, b'."""
    x = (sub & -sub).bit_length() - 1
    try:
        sides = [
            (_sides(adj, x, block)[0], block)
            for block in mask_components(adj, sub & ~adj[x] & ~(1 << x))
        ]
    except P4Error as exc:
        path = exc.witness.path
    else:
        low, block = min(sides, key=lambda side: side[0].bit_count())
        high, other = next(side for side in sides if low & ~side[0])
        path = tuple((m & -m).bit_length() - 1 for m in (block, low & ~high, high & ~low, other))
    return P4Witness(path if path[0] < path[3] else path[::-1])


def _leaf_sides(t: _Tree, joined: str) -> list[tuple[int, int]]:
    """For each leaf id, the masks of the leaves that come before it and
    after it under the ``joined`` nodes above it.  Leaf ids must be 0..n-1.

    Each node's pair passes down in preorder: a child of a joined node adds
    its earlier siblings' leaves to the first mask and its later siblings'
    to the second, so no leaf is visited once per ancestor."""
    order, mask = _leaf_masks(t)
    sides = [(0, 0)] * _dense_order(mask[id(t)])
    outside = {id(t): (0, 0)}
    for node in order:
        lo, hi = outside.pop(id(node))
        if node.kind == LEAF:
            sides[getattr(node, t._leaf_key)] = (lo, hi)
        elif node.kind != joined:
            for child in node.children:
                outside[id(child)] = (lo, hi)
        else:
            highs = []
            for child in reversed(node.children):
                highs.append(hi)
                hi |= mask[id(child)]
            for child, child_hi in zip(node.children, reversed(highs)):
                outside[id(child)] = (lo, child_hi)
                lo |= mask[id(child)]
    return sides


def cotree_to_graph(t: Cotree) -> Graph:
    """Graph encoded by a tree: two leaves are adjacent exactly when their
    closest common ancestor is a series node.  Leaf ids must be 0..n-1."""
    return Graph(tuple(lo | hi for lo, hi in _leaf_sides(t, SERIES)))


def is_cograph(g: Graph) -> bool:
    if g.order == 0:
        return True
    return isinstance(cotree(g), Cotree)


def non_neighbor_components(g: Graph, x: int) -> list[tuple[int, ...]]:
    """Connected components of the non-neighbors of x.  In a graph with no
    induced four-vertex path every block is a module."""
    g._check_vertex(x)
    inc = g.full_mask() & ~g.adj[x] & ~(1 << x)
    return [vertices_of(m) for m in mask_components(g.adj, inc)]


def neighbor_split(g: Graph, x: int, component: Iterable[int]) -> NeighborSplit:
    """Split N(x) against one connected block of non-neighbors of x.

    Every neighbor must see all of the block or none of it, and the two
    sides must be completely joined; a violation of either property pins
    an induced four-vertex path, raised as :class:`P4Error`.
    """
    g._check_vertex(x)
    cm = mask_of(set(component))
    if cm == 0:
        raise ValueError("component must be nonempty")
    if cm >> g.order:
        raise ValueError(f"member out of range for order {g.order}")
    if cm & (g.adj[x] | (1 << x)):
        raise ValueError(f"component members must be non-neighbors of {x}")
    n1, n2 = _sides(g.adj, x, cm)
    return NeighborSplit(
        component=vertices_of(cm),
        adjacent_all=vertices_of(n1),
        adjacent_none=vertices_of(n2),
    )


def _sides(adj: Sequence[int], x: int, block: int) -> tuple[int, int]:
    """The neighbor-split lemma on masks: the neighbors of x that see all
    of ``block`` (a connected mask of non-neighbors of x) and those that
    see none of it, read from the block's own rows.  A neighbor that sees
    part of the block, or two sides not joined, pins an induced path,
    raised as :class:`P4Error` from the lowest such vertices."""
    n1 = adj[x]
    seen = 0
    for b in iter_bits(block):
        n1 &= adj[b]
        seen |= adj[b]
    n2 = adj[x] & ~seen
    partial = adj[x] & ~n1 & ~n2
    if partial:
        # y sees part of the block: an edge a-b inside it with y-a but not
        # y-b gives the induced path x, y, a, b.
        y = (partial & -partial).bit_length() - 1
        for a in iter_bits(adj[y] & block):
            bs = adj[a] & block & ~adj[y]
            if bs:
                b = (bs & -bs).bit_length() - 1
                w = P4Witness((x, y, a, b))
                raise P4Error(w, f"vertex {y} is adjacent to part of the block only")
        raise ValueError("component is not connected")
    unjoined = 0
    for z in iter_bits(n2):
        unjoined |= n1 & ~adj[z]
    if unjoined:
        y1 = (unjoined & -unjoined).bit_length() - 1
        missing = n2 & ~adj[y1]
        y2 = (missing & -missing).bit_length() - 1
        c0 = (block & -block).bit_length() - 1
        w = P4Witness((c0, y1, x, y2))
        raise P4Error(w, f"neighbors {y1} and {y2} are not adjacent across the split")
    return n1, n2


def join_witness(g: Graph) -> JoinWitness | None:
    """Search a connected graph for a vertex whose universal neighbor set is
    nonempty and return the resulting complement split.

    For connected graphs with no induced four-vertex path the witness
    exists exactly when the complement is disconnected; absence then
    means the complement is connected.  Disconnected input is rejected.
    """
    if g.order == 0:
        raise ValueError("the witness search needs at least one vertex")
    if not g.is_connected():
        raise DisconnectedError("input graph is not connected")
    full = g.full_mask()
    for x in range(g.order):
        un = g._universal_mask(x)
        if un:
            rest = full & ~un
            return JoinWitness(
                x=x,
                universal_neighbors=vertices_of(un),
                split=(vertices_of(rest), vertices_of(un)),
            )
    return None


def select_universal_neighbor(g: Graph, x: int) -> int:
    """Pick a neighbor of x adjacent to every non-neighbor of x.

    Splits each block of non-neighbors, takes the block whose fully
    adjacent side is smallest (cardinality, then lexicographic), and
    returns that side's smallest member.  With no non-neighbors the
    smallest neighbor is returned.  A four-vertex path met along the way
    surfaces as :class:`P4Error`.
    """
    g._check_vertex(x)
    if g.adj[x] == 0:
        raise ValueError(f"vertex {x} has no neighbors")
    inc = g.full_mask() & ~g.adj[x] & ~(1 << x)
    if inc == 0:
        return (g.adj[x] & -g.adj[x]).bit_length() - 1
    best: tuple[int, tuple[int, ...]] | None = None
    for cm in mask_components(g.adj, inc):
        n1 = vertices_of(_sides(g.adj, x, cm)[0])
        if not n1:
            raise DisconnectedError(
                f"no neighbor of {x} reaches the block containing {cm.bit_length() - 1}"
            )
        key = (len(n1), n1)
        if best is None or key < best:
            best = key
    return best[1][0]


def parity_split_graph(n: int, offset: int = 0) -> Graph:
    """Window of the split graph on the integers where even numbers form a
    clique and odd numbers an independent set: {i, j} with i < j is an
    edge exactly when i is even.  Vertex k of the result stands for the
    integer offset + k.  Every window is a cograph."""
    if n < 1:
        raise ValueError("window size must be positive")
    full = (1 << n) - 1
    adj = [0] * n
    evens_below = 0
    for j in range(n):
        adj[j] |= evens_below
        if (j + offset) % 2 == 0:
            evens_below |= 1 << j
            adj[j] |= full & ~((1 << (j + 1)) - 1)
    return Graph(tuple(adj))


# === serialization ===


def _tree_to_json(t: _Tree, labels: Sequence[int] | None = None) -> dict:
    """Nested dict form: leaves {"kind": "leaf", <leaf field>: k}, internal
    nodes {"kind": kind, "children": [...]}; the leaf field is "vertex"
    for cotrees and "element" for series-parallel trees."""
    key = t._leaf_key
    built: dict[int, dict] = {}
    for node in reversed(_preorder(t)):
        if node.kind == LEAF:
            v = getattr(node, key)
            built[id(node)] = {"kind": LEAF, key: v if labels is None else labels[v]}
        else:
            built[id(node)] = {
                "kind": node.kind,
                "children": [built[id(c)] for c in node.children],
            }
    return built[id(t)]


cotree_to_json = _tree_to_json


def _tree_json_text(t: _Tree, labels: Sequence[int] | None = None) -> str:
    """``json.dumps(_tree_to_json(t, labels))``, written from the tree."""
    key = t._leaf_key
    leaf = f'{{"kind": "{LEAF}", "{key}": '

    def text(node):
        if node.kind == LEAF:
            v = getattr(node, key)
            return f"{leaf}{v if labels is None else labels[v]}}}", ""
        return f'{{"kind": "{node.kind}", "children": [', "]}"

    return _tree_text(t, text)


def _tree_from_json(obj: object, cls: type):
    """Inverse of :func:`_tree_to_json` for trees of class ``cls``; shape
    errors raise ValueError, the first one met in the signature's order
    (preorder, last child first)."""
    key = cls._leaf_key
    signature: list[tuple[str, int | None, int]] = []
    stack = [obj]
    while stack:
        node = stack.pop()
        if not isinstance(node, dict):
            raise ValueError(f"tree node must be an object, got {type(node).__name__}")
        kind = node.get("kind")
        if kind == LEAF:
            v = node.get(key)
            if not isinstance(v, int) or isinstance(v, bool) or v < 0:
                raise ValueError(f"leaf {key} must be a non-negative int, got {v!r}")
            signature.append((LEAF, v, 0))
        elif kind in cls._kinds:
            children = node.get("children")
            if not isinstance(children, list) or len(children) < 2:
                raise ValueError(f"{kind} node needs a list of at least two children")
            signature.append((kind, None, len(children)))
            stack.extend(children)
        else:
            raise ValueError(f"unknown node kind {kind!r}")
    return _from_signature(cls, signature)


def cotree_from_json(obj: object) -> Cotree:
    """Inverse of :func:`cotree_to_json`; shape errors raise ValueError."""
    return _tree_from_json(obj, Cotree)


_DOT_LABELS = {SERIES: "×", PARALLEL: "∪"}


def cotree_to_dot(t: Cotree, labels: Sequence[int] | None = None) -> str:
    return _tree_dot("cotree", t, _DOT_LABELS, labels)


def _tree_dot(name, t, kind_labels, labels) -> str:
    key = t._leaf_key
    lines = [f"graph {name} {{"]
    stack = [(t, None)]
    counter = 0
    while stack:
        node, parent = stack.pop()
        nid = counter
        counter += 1
        if node.kind == LEAF:
            v = getattr(node, key)
            lab = str(v if labels is None else labels[v])
        else:
            lab = kind_labels[node.kind]
        lines.append(f'  n{nid} [label="{lab}"];')
        if parent is not None:
            lines.append(f"  n{parent} -- n{nid};")
        for child in reversed(node.children):
            stack.append((child, nid))
    lines.append("}")
    return "\n".join(lines) + "\n"
