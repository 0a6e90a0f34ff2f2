"""Series-parallel decomposition of partial orders.

A finite order is series-parallel exactly when it avoids the four-element
"N" pattern (a < b, c < b, c < d, nothing else comparable), that is,
exactly when its comparability graph is a cograph.  So the sp-tree is
the cotree of the comparability graph, oriented: a parallel node is a
disjoint sum, and a series node is a linear sum whose children, which
are uniformly comparable to each other, run bottom to top, sorted by the
number of elements below their lowest member.  An induced path a-b-c-d
of the comparability graph is an N, read from whichever end lies below
its neighbor, and an N is checked as that path plus its orientation.
:func:`sp_tree` therefore runs the split loop and the certificate of
:mod:`cosp.engine` on comparability masks, and the trees share the
engine's text writers and :mod:`cosp.cographs`' tree base.  The
order-side lemmas are in :mod:`cosp.lemmas`, and the tree converters in
:mod:`cosp.trees`.

Tree canonical form: disjoint children sorted by smallest leaf id,
linear children kept bottom to top (their order is meaning, not
presentation), internal nodes with at least two children, alternation
between the two internal kinds.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from .cographs import _from_signature, _Tree
from .engine import DISJOINT, LEAF, LINEAR, dot_text, sp_tree_signature
from .posets import NWitness, Poset


class SPTree(_Tree):
    """Decomposition tree node; linear children run bottom to top."""

    kind: str
    element: int | None = None
    children: tuple[SPTree, ...] = ()
    _leaf_key = "element"
    _kinds = (LINEAR, DISJOINT)

    @classmethod
    def leaf(cls, element: int) -> SPTree:
        return cls(LEAF, element=element)

    @classmethod
    def linear(cls, children: Iterable[SPTree]) -> SPTree:
        return cls(LINEAR, children=tuple(children))

    @classmethod
    def disjoint(cls, children: Iterable[SPTree]) -> SPTree:
        return cls(DISJOINT, children=tuple(children))


def sp_tree(p: Poset) -> SPTree | NWitness:
    """Canonical decomposition tree of p, or an N-pattern certificate.

    The cotree of the comparability graph with every series node's
    children sorted bottom to top: splitting alternates between
    components of the comparability graph (disjoint sum) and of the
    incomparability graph (linear sum).  The blocks of a linear split
    form a chain inside a part that is an order module, so the number of
    elements below a block's lowest member rises strictly up the chain
    and sorts them.  A part admitting neither split on two or more
    elements holds an induced path of the comparability graph, found on
    its masks as :func:`cotree` finds one and returned oriented as an N.
    """
    result = sp_tree_signature(p.comparability_masks(), p.below)
    if type(result) is tuple:
        return NWitness(result)
    return _from_signature(SPTree, result)


def sp_tree_to_dot(t: SPTree, labels: Sequence[int] | None = None) -> str:
    return dot_text("sptree", t._signature(), labels)
