"""Cograph recognition and canonical series/parallel decomposition.

A finite graph is a cograph exactly when it has no induced four-vertex
path.  Recognition proceeds by repeated splitting: a graph on two or
more vertices either falls apart into connected components (parallel
node) or its complement does (series node); when neither happens the
graph contains an induced path on four vertices, found by the
neighbor-split lemma at the part's lowest vertex (:func:`_sides`, the
mask routine behind :func:`cosp.lemmas.neighbor_split`), and that path
is returned as a certificate instead of a tree.  This is the component /
co-component scheme whose linear-time form is due to Corneil, Perl and
Stewart (SIAM J. Comput. 14(4), 1985).

The split loop, the certificate and the tree writers serve orders too
(:mod:`cosp.spdecomp`): the helpers read the leaf field and kind names
from the tree class, and none of them recurses, so trees of any depth
work.  Every tree (but those of the public node constructors) is built
from its signature, the flat preorder list that also decides equality.
This module holds only what a CLI request runs; the lemmas' own API is
in :mod:`cosp.lemmas`, and the converters and the dict codec are in
:mod:`cosp.trees`.

Trees are kept canonical: no series child of a series node, no parallel
child of a parallel node, at least two children per internal node, and
children ordered by their smallest leaf id.  Canonical form makes tree
equality meaningful, so round trips through the graph are exact.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from .graphs import Graph, _Record, iter_bits, mask_components

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


def is_cograph(g: Graph) -> bool:
    if g.order == 0:
        return True
    return isinstance(cotree(g), Cotree)


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


# === text output ===


def _tree_json_text(t: _Tree, labels: Sequence[int] | None = None) -> str:
    """``json.dumps(cosp.trees._tree_to_json(t, labels))``, written from
    the tree."""
    key = t._leaf_key
    leaf = f'{{"kind": "{LEAF}", "{key}": '

    def text(node):
        if node.kind == LEAF:
            v = getattr(node, key)
            return f"{leaf}{v if labels is None else labels[v]}}}", ""
        return f'{{"kind": "{node.kind}", "children": [', "]}"

    return _tree_text(t, text)


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
