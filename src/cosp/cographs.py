"""Cograph recognition and canonical series/parallel decomposition.

A finite graph is a cograph exactly when it has no induced four-vertex
path.  :func:`cotree` decides it by the split engine of
:mod:`cosp.engine`, which peels off connected components (parallel
node) and components of the complement (series node) and, in a part
that splits neither way, finds an induced path by the neighbor-split
lemma at the part's lowest vertex; this module gives that answer as
records: a :class:`Cotree` built from the engine's signature, or a
:class:`P4Witness`.

The tree classes serve orders too (:mod:`cosp.spdecomp`): equality,
hashing, pickling and ``repr`` go by the flat preorder signature, which
the engine writes and :func:`_from_signature` reads back, and none of
them recurses, so trees of any depth work.  The lemmas' own API is in
:mod:`cosp.lemmas`, and the converters and the dict codec are in
:mod:`cosp.trees`.

Trees are kept canonical: no series child of a series node, no parallel
child of a parallel node, at least two children per internal node, and
children ordered by their smallest leaf id.  Canonical form makes tree
equality meaningful, so round trips through the graph are exact.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence

from .engine import LEAF, PARALLEL, SERIES, cotree_signature, dot_text, tree_text, witness_holds
from .graphs import Graph, _Record


class P4Witness(_Record):
    """An induced path a-b-c-d: edges ab, bc, cd; non-edges ac, ad, bd."""

    path: tuple[int, int, int, int]

    def validate(self, g: Graph) -> bool:
        return witness_holds(self.path, g.adj)


class P4Error(ValueError):
    """An operation that requires a path-free input found an induced
    four-vertex path; ``witness`` carries it."""

    def __init__(self, witness: P4Witness, message: str):
        super().__init__(message)
        self.witness = witness


class _Tree(_Record):
    """Equality, hashing and pickling of :class:`Cotree` and ``SPTree`` by
    flat preorder signature, and their repr, all without recursion, so
    trees of any depth work.  A subclass names its fields, its leaf field
    and its two internal kinds (join-like first)."""

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
        head = f"{type(self).__qualname__}(kind="
        key = self._leaf_key

        def text(kind, leaf, count):
            # The record repr; a one-tuple of children ends in ",)".
            opening = f"{head}{kind!r}, {key}={leaf!r}, children=("
            return opening, ",))" if count == 1 else "))"

        return tree_text(self._signature(), text)


def _fold(signature: list[tuple], node: Callable) -> object:
    """The value of a tree from its signature, built bottom-up by
    ``node(kind, leaf, children)`` from the values of the node's children,
    first child first: the one place that builds trees and their dicts
    from a flat form.  A
    signature lists ``(kind, leaf id, child count)`` in preorder, a node's
    last child first.  Read backwards, it builds every subtree before its
    parent, first child first, so a node's children are the top of the
    stack in order."""
    stack: list = []
    for kind, leaf, count in reversed(signature):
        cut = len(stack) - count
        stack[cut:] = [node(kind, leaf, stack[cut:])]
    return stack[0]


def _from_signature(cls: type, signature: list[tuple]) -> _Tree:
    """The tree of class ``cls`` with this signature: the inverse of
    ``_Tree._signature``."""
    return _fold(signature, lambda kind, leaf, children: cls(kind, leaf, tuple(children)))


class Cotree(_Tree):
    """Decomposition tree node; series means join, parallel means disjoint
    union, leaves carry vertex ids."""

    kind: str
    vertex: int | None = None
    children: tuple[Cotree, ...] = ()
    _leaf_key = "vertex"
    _kinds = (SERIES, PARALLEL)

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


def cotree(g: Graph) -> Cotree | P4Witness:
    """Canonical decomposition tree of g, or an induced-path certificate.

    The split alternates between connected components and components of
    the complement; a part with neither split on two or more vertices
    must contain an induced four-vertex path, and one inside that part,
    found by the neighbor splits at its lowest vertex, is returned as
    (a, b, c, d) with a < d.
    """
    result = cotree_signature(g.adj)
    if type(result) is tuple:
        return P4Witness(result)
    return _from_signature(Cotree, result)


def is_cograph(g: Graph) -> bool:
    if g.order == 0:
        return True
    return isinstance(cotree(g), Cotree)


def cotree_to_dot(t: Cotree, labels: Sequence[int] | None = None) -> str:
    return dot_text("cotree", t._signature(), labels)
