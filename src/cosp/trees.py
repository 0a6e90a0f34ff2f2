"""Trees to and from other forms: the graph or order a tree encodes, the
orientation of a cotree, validation of canonical form, the nested dict
(JSON) codec, and the parity-split window generator.

None of this runs on a CLI request but ``gen``: the engine writes a
tree's signature, and the CLI writes its JSON text straight from the
signature (:func:`cosp.engine.json_text`).  Like the tree
classes, every helper here walks a tree without recursion, so trees of
any depth work.
"""

from __future__ import annotations

from collections.abc import Sequence

from .cographs import LEAF, PARALLEL, SERIES, Cotree, _from_signature, _preorder, _Tree
from .graphs import Graph
from .posets import Poset
from .spdecomp import DISJOINT, LINEAR, SPTree


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
validate_sp_tree = _validate_tree


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


def sp_tree_to_poset(t: SPTree) -> Poset:
    """Order encoded by a tree: under a linear node every element of an
    earlier child lies below every element of a later child; disjoint
    children stay incomparable.  Leaf ids must be 0..n-1."""
    sides = _leaf_sides(t, LINEAR)
    return Poset(tuple(lo for lo, _ in sides), tuple(hi for _, hi in sides))


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


# === nested dict codec ===


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
sp_tree_to_json = _tree_to_json


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


def sp_tree_from_json(obj: object) -> SPTree:
    """Inverse of :func:`sp_tree_to_json`; shape errors raise ValueError."""
    return _tree_from_json(obj, SPTree)
