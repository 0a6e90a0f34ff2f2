"""Trees to and from other forms: the graph or order a tree encodes, the
orientation of a cotree, validation of canonical form, the nested dict
(JSON) codec, and the parity-split window generator.

None of this runs on a CLI request but ``gen``: the engine writes a
tree's signature, checks it (:func:`cosp.engine.tree_holds`) and writes
its JSON text straight from it (:func:`cosp.engine.json_text`).  Every
helper here reads a tree's signature (``t._signature()``): validation
and the graph or order a tree encodes are the engine's two passes over
it (:func:`cosp.engine.tree_masks` and :func:`cosp.engine.leaf_rows`),
and the dict codec builds with :func:`cosp.cographs._fold`.  Nothing
recurses, so trees of any depth work.
"""

from __future__ import annotations

from collections.abc import Sequence

from .cographs import LEAF, PARALLEL, SERIES, Cotree, _fold, _from_signature, _Tree
from .engine import leaf_rows, tree_masks
from .graphs import Graph
from .posets import Poset
from .rows import _transpose
from .spdecomp import DISJOINT, LINEAR, SPTree


def _validate_tree(t: _Tree) -> None:
    """Raise ValueError unless the tree is canonical with distinct leaves."""
    fault = tree_masks(t._signature(), isinstance(t, SPTree))[2]
    if fault is not None:
        raise ValueError(fault)


validate_cotree = validate_sp_tree = _validate_tree


def _encoded_rows(signature: list[tuple], linear: bool = False) -> tuple[int, ...]:
    """The rows a tree encodes (:func:`cosp.engine.leaf_rows`): a cotree's
    neighbor rows, or an sp-tree's rows below each element.  Leaf ids must
    be 0..n-1."""
    masks, root, _ = tree_masks(signature, linear)
    if root & (root + 1):
        raise ValueError("leaf ids must form a dense 0..n-1 range")
    return tuple(row for _, row in sorted(leaf_rows(signature, masks, linear)))


def cotree_to_graph(t: Cotree) -> Graph:
    """Graph encoded by a tree: two leaves are adjacent exactly when their
    closest common ancestor is a series node.  Leaf ids must be 0..n-1."""
    return Graph(_encoded_rows(t._signature()))


def sp_tree_to_poset(t: SPTree) -> Poset:
    """Order encoded by a tree: under a linear node every element of an
    earlier child lies below every element of a later child; disjoint
    children stay incomparable.  Leaf ids must be 0..n-1."""
    below = _encoded_rows(t._signature(), linear=True)
    return Poset(below, tuple(_transpose(below, len(below))))


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
    integer offset + k.  Every window is a cograph: its cotree is a path
    whose node k splits vertex k off the later ones, under a series node
    when offset + k is even and under a parallel one otherwise."""
    if n < 1:
        raise ValueError("window size must be positive")
    kinds = [PARALLEL if (offset + k) % 2 else SERIES for k in range(n - 1)]
    signature = [(kind, None, 2) for kind in kinds] + [(LEAF, k, 0) for k in range(n - 1, -1, -1)]
    return Graph(_encoded_rows(signature))


# === nested dict codec ===


def _tree_to_json(t: _Tree, labels: Sequence[int] | None = None) -> dict:
    """Nested dict form: leaves {"kind": "leaf", <leaf field>: k}, internal
    nodes {"kind": kind, "children": [...]}; the leaf field is "vertex"
    for cotrees and "element" for series-parallel trees."""
    key = t._leaf_key

    def node(kind, v, children):
        if kind == LEAF:
            return {"kind": LEAF, key: v if labels is None else labels[v]}
        return {"kind": kind, "children": children}

    return _fold(t._signature(), node)


cotree_to_json = sp_tree_to_json = _tree_to_json


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
