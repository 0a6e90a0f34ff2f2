"""Trees to and from other forms: the graph or order a tree encodes, the
orientation of a cotree, validation of canonical form, the nested dict
(JSON) codec; and inputs: the parity-split window, seeded random trees,
graphs and orders, and the hard input families of the tests.

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

import itertools
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


# === generated inputs: seeded random ones, and the hard families ===

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


class SplitMix64:
    """Fixed 64-bit generator with derivable child streams.

    Pure integer arithmetic, so identical seeds give identical sequences
    on every platform; ``split`` derives an independent stream for a
    recursion branch without disturbing the parent sequence.
    """

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + _GAMMA) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def randrange(self, n: int) -> int:
        if n <= 0:
            raise ValueError("randrange needs a positive bound")
        return self.next_u64() % n

    def split(self, tag: int) -> SplitMix64:
        return SplitMix64(self.next_u64() ^ ((tag * _GAMMA) & _MASK64))

    def shuffled(self, items: list) -> list:
        out = list(items)
        for i in range(len(out) - 1, 0, -1):
            j = self.randrange(i + 1)
            out[i], out[j] = out[j], out[i]
        return out


def _random_blocks(leaf_ids: list[int], rng: SplitMix64) -> list[list[int]]:
    # 2..4 children, clipped by available leaves; every block nonempty.
    k = min(len(leaf_ids), 2 + rng.randrange(3))
    pool = rng.shuffled(leaf_ids)
    blocks = [[v] for v in pool[:k]]
    for v in pool[k:]:
        blocks[rng.randrange(k)].append(v)
    return blocks


def _rand_tree(cls: type, n: int, seed: int):
    """Reproducible random canonical tree of class ``cls`` on leaves
    0..n-1; children of every kind but linear are sorted by smallest leaf,
    as in the canonical trees, and linear ones keep their generated order.
    A node's stream serves only its blocks and its children's streams, so
    the nodes can be expanded in signature order."""
    if n < 1:
        raise ValueError("need at least one leaf")
    rng = SplitMix64(seed)
    join, union = cls._kinds
    root_kind = join if rng.randrange(2) == 0 else union
    signature = []
    stack = [(list(range(n)), root_kind, rng)]
    while stack:
        leaf_ids, kind, rng = stack.pop()
        if len(leaf_ids) == 1:
            signature.append((LEAF, leaf_ids[0], 0))
            continue
        blocks = _random_blocks(leaf_ids, rng)
        children = [(block, rng.split(i)) for i, block in enumerate(blocks)]
        if kind != LINEAR:
            children.sort(key=lambda child: min(child[0]))
        signature.append((kind, None, len(children)))
        other = union if kind == join else join
        stack.extend((block, other, stream) for block, stream in children)
    return _from_signature(cls, signature)


def rand_cotree(n: int, seed: int) -> Cotree:
    """Reproducible random canonical cotree on leaves 0..n-1."""
    return _rand_tree(Cotree, n, seed)


def rand_sptree(n: int, seed: int) -> SPTree:
    """Reproducible random canonical series-parallel tree on 0..n-1; linear
    children keep their generated bottom-to-top order."""
    return _rand_tree(SPTree, n, seed)


def rand_gnp(n: int, p_edge: float, seed: int) -> Graph:
    """Uniform random graph: each pair, in lexicographic order, becomes an
    edge independently with probability p_edge."""
    if n < 0:
        raise ValueError("order must be non-negative")
    if not 0.0 <= p_edge <= 1.0:
        raise ValueError("edge probability must lie in [0, 1]")
    rng = SplitMix64(seed)
    threshold = round(p_edge * (1 << 64))
    adj = [0] * n
    for u, v in itertools.combinations(range(n), 2):
        if rng.next_u64() < threshold:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
    return Graph(tuple(adj))


def rand_poset(n: int, p_edge: float, seed: int) -> Poset:
    """Random order: draw a random graph, orient every edge from smaller to
    larger id (always acyclic), close transitively."""
    return Poset.from_relations(n, rand_gnp(n, p_edge, seed).edges())


def parity_orientation(n: int) -> Poset:
    """The orientation of ``parity_split_graph(n)``, given by its covers:
    each even i is covered by i + 1 and i + 2.  Its sp-tree is n deep."""
    covers = [(i, j) for i in range(0, n, 2) for j in (i + 1, i + 2) if j < n]
    return Poset.from_relations(n, covers)


def spider_graph(k: int, apex: bool = False) -> Graph:
    """A clique of k vertices with a leg at each, the leg seeing only its
    clique vertex: thin, the clique 0..k-1 with the leg k+i at i, or with
    an apex, vertex 0 joined to the clique 1..k with the leg k+i at i."""
    first = int(apex)  # the clique's first vertex, and the apex's bit
    clique = ((1 << k) - 1) << first
    feet = tuple(clique & ~(1 << i) | 1 << k + i | first for i in range(first, k + first))
    return Graph((clique,) * first + feet + tuple(1 << i for i in range(first, k + first)))


def all_blocks_graph(k: int) -> Graph:
    """Vertex 0 joined to a clique 1..k, and a leg k+i, not adjacent to 0,
    that sees every clique vertex but i: every block of 0's non-neighbors
    passes its neighbor split, so the path comes from two blocks' sides."""
    clique = ((1 << k) - 1) << 1
    legs = clique << k
    feet = tuple(1 | clique & ~(1 << i) | legs & ~(1 << k + i) for i in range(1, k + 1))
    return Graph((clique,) + feet + tuple(clique & ~(1 << i) for i in range(1, k + 1)))


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
