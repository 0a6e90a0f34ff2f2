"""Trees to and from other forms: the graph or order a tree encodes, the
orientation of a cotree, validation of canonical form, the nested dict
(JSON) codec, and the parity-split window generator.

None of this runs on a CLI request but ``gen``: the engine writes a
tree's signature, checks it (:func:`cosp.engine.tree_holds`) and writes
its JSON text straight from it (:func:`cosp.engine.json_text`).  Here
the validators, the JSON reader, :func:`cotree_to_sptree` and the graph
or order a tree encodes read a tree's signature (``t._signature()``)
through one helper, :func:`_read`, which asks
:func:`cosp.engine.tree_masks`, the one statement of a tree's shape,
once.  So they all reject, with its messages, every tree that the
validators reject for its shape: a leaf id that is not a non-negative
int (a bool is not one), a leaf with children, an unknown kind, fewer
than two children, more than one root, a repeated leaf.  :func:`_read`
ranks the leaf ids when one is at least the number of leaves, so no mask
is wider than the tree has leaves, however large the ids are; the graph
or order a tree encodes (:func:`cosp.engine.leaf_rows` from those masks)
needs ids 0..n-1, which in a tree that reads are exactly the ids that
:func:`_read` leaves unranked.  The dict codec builds with
:func:`cosp.cographs._fold`.  Nothing recurses, so trees of any depth
work.
"""

from __future__ import annotations

from collections.abc import Sequence

from .cographs import LEAF, PARALLEL, SERIES, Cotree, _fold, _from_signature, _Tree
from .engine import is_leaf_id, leaf_rows, tree_masks
from .graphs import Graph
from .posets import Poset
from .rows import _transpose
from .spdecomp import DISJOINT, LINEAR, SPTree


def _read(signature: list[tuple], linear: bool) -> tuple[list[tuple], list[int], str | None]:
    """The one reading of a tree here: :func:`cosp.engine.tree_masks`
    asked once, which raises its ValueError on a signature that encodes no
    tree.  Returns the signature it read, its masks and its fault of
    canonical form or None.  When some leaf id is at least the number of
    leaves, it reads a copy in which each leaf id is replaced by its rank
    among them; the ranks keep the ids' order and repeats, so the faults
    and messages are the same, and no mask is wider than the number of
    leaves.  Otherwise the distinct ids already are their ranks, and it
    reads the signature itself: the ids are 0..n-1 exactly when the
    signature it returns is the one it was given."""
    leaves = [v for kind, v, _ in signature if kind == LEAF]
    if any(is_leaf_id(v) and v >= len(leaves) for v in leaves):
        rank = {v: r for r, v in enumerate(sorted({v for v in leaves if is_leaf_id(v)}))}
        signature = [(k, rank[v] if k == LEAF and is_leaf_id(v) else v, c) for k, v, c in signature]
    masks, _, fault = tree_masks(signature, linear)
    return signature, masks, fault


def _validate_tree(t: _Tree) -> None:
    """Raise ValueError unless the tree is canonical with distinct leaves."""
    if (fault := _read(t._signature(), isinstance(t, SPTree))[2]) is not None:
        raise ValueError(fault)


validate_cotree = validate_sp_tree = _validate_tree


def _encoded_rows(signature: list[tuple], linear: bool, order: bool) -> tuple[int, ...]:
    """The rows a tree encodes (:func:`cosp.engine.leaf_rows`): a cotree's
    neighbor rows, or with ``order`` the rows below each element of an
    sp-tree's order or of a cotree's orientation; ``linear`` marks an
    sp-tree.  Leaf ids must be 0..n-1."""
    read, masks, _ = _read(signature, linear)
    if read is not signature:
        raise ValueError("leaf ids must form a dense 0..n-1 range")
    return tuple(row for _, row in sorted(leaf_rows(signature, masks, order)))


def cotree_to_graph(t: Cotree) -> Graph:
    """Graph encoded by a tree: two leaves are adjacent exactly when their
    closest common ancestor is a series node.  Leaf ids must be 0..n-1."""
    return Graph(_encoded_rows(t._signature(), False, False))


def sp_tree_to_poset(t: SPTree) -> Poset:
    """Order encoded by a tree: under a linear node every element of an
    earlier child lies below every element of a later child; disjoint
    children stay incomparable.  Leaf ids must be 0..n-1."""
    below = _encoded_rows(t._signature(), True, True)
    return Poset(below, tuple(_transpose(below)))


def cotree_to_sptree(t: Cotree) -> SPTree:
    """Orient a cograph tree: parallel becomes disjoint, series becomes
    linear with the canonical child order read bottom to top.  A tree
    that encodes no graph raises :func:`cosp.engine.tree_masks`'
    ValueError."""
    signature = t._signature()
    _read(signature, False)
    names = {LEAF: LEAF, SERIES: LINEAR, PARALLEL: DISJOINT}
    return _from_signature(SPTree, [(names[kind], v, count) for kind, v, count in signature])


def orient_cotree(t: Cotree) -> Poset:
    """Order whose comparability graph is exactly the graph of the tree:
    each series node turns into a linear sum of its children in canonical
    order, read straight from the cotree.  The result is always N-free."""
    below = _encoded_rows(t._signature(), False, True)
    return Poset(below, tuple(_transpose(below)))


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
    return Graph(_encoded_rows(signature, False, False))


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
    """Inverse of :func:`_tree_to_json` for trees of class ``cls``.  Only
    JSON's own faults are found here, the first one met in preorder (last
    child first): a node that is not an object, a node other than a leaf
    whose ``children`` is not a list.  Every other fault of shape is
    :func:`cosp.engine.tree_masks`' ValueError."""
    signature = []
    stack = [obj]
    while stack:
        node = stack.pop()
        if not isinstance(node, dict):
            raise ValueError(f"tree node must be an object, got {type(node).__name__}")
        kind = node.get("kind")
        if kind == LEAF:
            signature.append((LEAF, node.get(cls._leaf_key), 0))
            continue
        children = node.get("children")
        if not isinstance(children, list):
            raise ValueError(f"{kind} node needs a list of children")
        signature.append((kind, None, len(children)))
        stack.extend(children)
    _read(signature, cls is SPTree)
    return _from_signature(cls, signature)


def cotree_from_json(obj: object) -> Cotree:
    """Inverse of :func:`cotree_to_json`; shape errors raise ValueError."""
    return _tree_from_json(obj, Cotree)


def sp_tree_from_json(obj: object) -> SPTree:
    """Inverse of :func:`sp_tree_to_json`; shape errors raise ValueError."""
    return _tree_from_json(obj, SPTree)
