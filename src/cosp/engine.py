"""The split engine on rows of masks: trees, certificates and tree text.

A graph on two or more vertices either falls apart into connected
components (parallel node) or its complement does (series node); when
neither happens the part contains an induced four-vertex path, found by
the neighbor-split lemma at the part's lowest vertex, whose mask
routines are :func:`_blocks` (the blocks of its non-neighbors),
:func:`_sides` (its neighbors split against one block) and
:func:`_thinnest` (the thinnest side that sees a whole block, which
must lie inside every other), and that path is the certificate instead
of a tree.  This is the component /
co-component scheme whose linear-time form is due to Corneil, Perl and
Stewart (SIAM J. Comput. 14(4), 1985).  An order is series-parallel
exactly when its comparability graph is a cograph, so the same loop on
comparability masks decides orders: a series node becomes a linear one
with its children sorted bottom to top, and a path becomes an N.  So
each entry here takes a graph's rows ``adj`` and, for an order, its
comparability rows as ``adj`` plus its own rows ``below``, which only
orient the answer: :func:`tree_signature` decomposes,
:func:`witness_holds` checks a certificate and :func:`tree_holds` a tree.

Everything here takes rows (see :mod:`cosp.rows`) and gives plain
values, and nothing recurses.  A tree is its signature: the list of
``(kind, leaf id, child count)`` of its nodes in preorder, a node's last
child first, which is also what decides tree equality.  One pass,
:func:`_pieces`, cuts a signature into the pieces of its text, which
:func:`json_text`, :func:`dot_text` and the tree classes' ``repr`` join,
and one check on masks decides every certificate.  What a tree means is
stated here once, by two passes over its signature: :func:`tree_masks`
from the leaves up (each internal node's leaves, the tree's shape and
its canonical form), then :func:`leaf_rows` from the root down (the row
each leaf must have).  :func:`tree_holds` checks a tree against the rows
it came from before the CLI prints it, and :mod:`cosp.trees` validates
trees and rebuilds their graphs and orders with the same two passes,
and reads and orients trees with the first.  A
recognition request runs this module and :mod:`cosp.rows` alone;
:func:`cosp.cographs.cotree`, :func:`cosp.spdecomp.sp_tree`, the
witnesses' ``validate`` and the tree classes' text wrap these functions
for the records.
"""

from collections.abc import Callable, Iterator, Sequence

from .rows import iter_bits, lowest, mask_components

LEAF = "leaf"
SERIES = "series"
PARALLEL = "parallel"
LINEAR = "linear"
DISJOINT = "disjoint"


class P4Error(ValueError):
    """An operation that requires a path-free input found an induced
    four-vertex path, ``path``: :func:`_sides` raises it, and so the
    lemma API (:mod:`cosp.lemmas`) does.  ``witness`` is the path as a
    :class:`cosp.cographs.P4Witness`; :mod:`cosp.cographs` exports this
    class."""

    def __init__(self, path: tuple[int, int, int, int], message: str):
        super().__init__(message)
        self.path = path

    @property
    def witness(self):
        from .cographs import P4Witness

        return P4Witness(self.path)


def _decompose(adj: Sequence[int], below: Sequence[int] | None = None) -> list[tuple] | int:
    """Split the ids 0..n-1 of the rows ``adj`` into components of ``adj``
    (a parallel node, or given ``below`` a disjoint one) or of its
    complement (a series node, or a linear one) until every part is one
    id; children go by smallest member, a linear node's bottom to top by
    the number of elements below their lowest member.  Returns the tree's
    signature, written as parts are popped, or the first part that splits
    neither way."""
    join, union = (SERIES, PARALLEL) if below is None else (LINEAR, DISJOINT)
    signature = []
    stack = [(1 << len(adj)) - 1]
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
            if below is not None:
                parts.sort(key=lambda block: below[lowest(block)].bit_count())
            signature.append((join, None, len(parts)))
        stack.extend(parts)
    return signature


def tree_signature(
    adj: Sequence[int], below: Sequence[int] | None = None
) -> list[tuple] | tuple[int, int, int, int]:
    """The signature of the canonical cotree of the graph with rows
    ``adj``, or an induced path (a, b, c, d), a < d, inside the first
    part that splits neither way.

    Given ``below``, the rows of an order whose comparability rows are
    ``adj``, the signature of its canonical sp-tree, or an N: the cotree
    of the comparability graph with every series node a linear one, its
    children sorted bottom to top.  The blocks of a linear split form a
    chain inside a part that is an order module, so the number of
    elements below a block's lowest member rises strictly up the chain
    and sorts them.  The induced path is read as an N from the end that
    lies below its neighbor.
    """
    if not adj:
        noun = "vertex" if below is None else "element"
        raise ValueError(f"the decomposition needs at least one {noun}")
    result = _decompose(adj, below)
    if type(result) is not int:
        return result
    a, b, c, d = _p4_in_part(adj, result)
    # a < b forces c < b and c < d; b < a forces the mirror image.
    return (a, b, c, d) if below is None or below[b] >> a & 1 else (d, c, b, a)


def _p4_in_part(adj: Sequence[int], sub: int) -> tuple[int, int, int, int]:
    """An induced path (a, b, c, d), a < d, inside ``sub``, a part of the
    graph with neighbor masks ``adj`` that splits neither way, by the
    neighbor-split lemma at its lowest vertex x: :func:`_thinnest` raises
    it, since a thinnest side inside every other would split the part in
    the complement."""
    try:
        _thinnest(adj, sub, lowest(sub))
    except P4Error as exc:
        path = exc.path
    return path if path[0] < path[3] else path[::-1]


def _thinnest(adj: Sequence[int], sub: int, x: int) -> tuple[int, int]:
    """The thinnest side A that sees a whole block of x's non-neighbors in
    ``sub`` (x's :func:`_blocks`, each split by :func:`_sides`), and that
    block, the first by smallest member among the thinnest.  A's members
    see every block when A lies inside every other block's side A', which
    must hold: else y in A - A' and z in A' - A give the induced path b,
    y, z, b', raised as :class:`P4Error`, as :func:`_sides` raises its
    own.  x must have a non-neighbor in ``sub``."""
    sides = [(_sides(adj, x, block)[0], block) for block in _blocks(adj, sub, x)]
    low, block = min(sides, key=lambda side: side[0].bit_count())
    for high, other in sides:
        if low & ~high:
            y, z = lowest(low & ~high), lowest(high & ~low)
            path = (lowest(block), y, z, lowest(other))
            raise P4Error(path, f"neighbors {y} and {z} each see a block that the other does not")
    return low, block


def _blocks(adj: Sequence[int], sub: int, x: int) -> list[int]:
    """The blocks of x's non-neighbors inside the mask ``sub``, x left out:
    their components, by smallest member.  In a graph with no induced
    four-vertex path each block is a module, and :func:`_sides` splits x's
    neighbors against it."""
    return mask_components(adj, sub & ~adj[x] & ~(1 << x))


def _sides(adj: Sequence[int], x: int, block: int) -> tuple[int, int]:
    """The neighbor-split lemma on masks: the neighbors of x that see all
    of ``block`` (a connected mask of non-neighbors of x) and those that
    see none of it, read from the block's own rows.  A neighbor that sees
    part of the block, or two sides not joined, pins an induced path,
    raised as :class:`P4Error` from the lowest such vertices.  The join
    check reads the rows of the thinner side, so its cost follows the
    smaller of the two."""
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
        y = lowest(partial)
        for a in iter_bits(adj[y] & block):
            bs = adj[a] & block & ~adj[y]
            if bs:
                b = lowest(bs)
                raise P4Error((x, y, a, b), f"vertex {y} is adjacent to part of the block only")
        raise ValueError("component is not connected")
    # The neighbors of the first side that miss part of the second, read
    # from the rows of the thinner side: the lowest of them is the first
    # that a walk up the first side meets.
    if n2.bit_count() < n1.bit_count():
        unjoined = 0
        for z in iter_bits(n2):
            unjoined |= n1 & ~adj[z]
    else:
        unjoined = next((1 << y for y in iter_bits(n1) if n2 & ~adj[y]), 0)
    if unjoined:
        y1 = lowest(unjoined)
        y2 = lowest(n2 & ~adj[y1])
        message = f"neighbors {y1} and {y2} are not adjacent across the split"
        raise P4Error((lowest(block), y1, x, y2), message)
    return n1, n2


def witness_holds(
    ids: Sequence[int], adj: Sequence[int], below: Sequence[int] | None = None
) -> bool:
    """True when ``ids`` are four distinct ids a, b, c, d of the rows
    ``adj`` that form an induced path a-b-c-d.  For an order, ``adj`` is
    its comparability rows and ``below`` its own, and a < b, c < b and
    c < d must hold too: the path is an N.  An id is taken by the rule of
    a tree's leaf ids (:func:`is_leaf_id`) below n, so a certificate of
    another length, or with a bool, a float or an id out of range, is
    False, and so is one that is not a sequence at all, such as 5 or None.
    This is the one check of a certificate, run before the CLI prints one
    and by ``validate``."""
    try:
        if len(ids) != 4 or len(set(ids)) < 4 or not all(
            is_leaf_id(v) and v < len(adj) for v in ids
        ):
            return False
    except TypeError:
        return False
    a, b, c, d = ids
    pairs = (a, b), (b, c), (c, d), (a, c), (a, d), (b, d)
    if [adj[u] >> v & 1 for u, v in pairs] != [1, 1, 1, 0, 0, 0]:
        return False
    return below is None or all(below[v] >> u & 1 for u, v in ((a, b), (c, b), (c, d)))


# === what a tree means ===


def is_leaf_id(leaf: object) -> bool:
    """A tree's leaf id is a non-negative int that is not a bool."""
    return isinstance(leaf, int) and not isinstance(leaf, bool) and leaf >= 0


def tree_masks(signature: list[tuple], linear: bool) -> tuple[list[int], int, str | None]:
    """The leaf masks of a tree's internal nodes, by one pass over its
    signature from the leaves up: a cotree's, or with ``linear`` an
    sp-tree's.  Returns the masks, the last node in preorder first, the
    root's mask, and the first fault of canonical form in preorder or
    None: an internal node with a leaf id, a child of its parent's kind,
    or children of a kind other than linear not ordered by smallest leaf.
    A signature that encodes no tree raises ValueError: a leaf whose id
    is not a non-negative int (:func:`is_leaf_id`; a bool is not one), a
    leaf with children, an unknown kind, fewer than two children, fewer
    children than the node's count, more than one root, a repeated leaf.
    This is the one statement of a tree's shape: every entry of
    :mod:`cosp.trees` asks it too, through that module's one reading of
    a tree.  Leaves get no mask, and an internal node's mask has a bit
    per leaf id below its largest, so its size follows the ids'
    magnitude; that reading asks it of the ids' ranks when an id is at
    least the number of leaves, so no mask there is wider than the leaf
    count."""
    kinds, key = ((LINEAR, DISJOINT), "element") if linear else ((SERIES, PARALLEL), "vertex")
    masks = []
    done = []  # (kind, lowest leaf, mask or 0) of each subtree whose parent is to come
    fault = None
    for kind, leaf, count in reversed(signature):
        if kind == LEAF:
            if not is_leaf_id(leaf):
                raise ValueError(f"leaf {key} must be a non-negative int, got {leaf!r}")
            if count:
                raise ValueError("leaf with children")
            done.append((LEAF, leaf, 0))
            continue
        if kind not in kinds:
            raise ValueError(f"unknown node kind {kind!r}")
        if count < 2:
            raise ValueError(f"{kind} node with fewer than two children")
        if count > len(done):
            raise ValueError(f"{kind} node with missing children")
        mask, same, ordered = 0, False, True
        low = last = done[-count][1]  # the lowest leaf so far, and the last child's
        for child_kind, child_low, child_mask in done[-count:]:  # first child first
            mask |= child_mask or 1 << child_low
            same |= child_kind == kind
            if child_low < last:
                ordered = False
                low = min(low, child_low)
            last = child_low
        if leaf is not None:
            fault = f"internal node with {key} {leaf!r}"
        elif same:
            fault = f"{kind} child of {kind} node"
        elif not ordered and kind != LINEAR:
            fault = f"{kind} children not ordered by smallest leaf id"
        masks.append(mask)
        done[-count:] = [(kind, low, mask)]
    if len(done) != 1:
        raise ValueError(f"forest of {len(done)} trees")
    root = done[0][2] or 1 << done[0][1]
    if root.bit_count() != len(signature) - len(masks):
        raise ValueError("duplicate leaf ids")
    return masks, root, fault


def leaf_rows(
    signature: list[tuple], masks: list[int], linear: bool, rows: Sequence[int] | None = None
) -> Iterator[tuple[int, int]]:
    """``(v, row)`` for every leaf v of a tree, in signature order, by one
    pass from the root down that uses up :func:`tree_masks`' ``masks``:
    v's row of the cotree's graph, the leaves of its series ancestors'
    other children, or with ``linear`` its row of the elements below v in
    the sp-tree's order, the leaves of its linear ancestors' earlier
    children; there a cotree's series node reads as a linear one, which
    gives the cotree's orientation.  Given ``rows``, only the leaves whose
    row is not theirs.  A node's mask is let go once its children no
    longer need it."""
    parents = [[False, 0, 0]]  # per child to come: its parent's [joined, row, leaves]
    for kind, leaf, count in signature:
        join, row, rest = entry = parents.pop()
        mask = masks.pop() if count else 0
        if join:
            own = mask or 1 << leaf
            if linear:
                rest ^= own  # the leaves of the earlier siblings, met after this one
                entry[2] = rest
                row |= rest
            else:
                row |= rest ^ own
        if count:
            join = kind == SERIES or kind == LINEAR
            parents += [[join, row, mask if join else 0]] * count
        elif rows is None or row != rows[leaf]:
            yield leaf, row


def tree_holds(
    signature: list[tuple], adj: Sequence[int], below: Sequence[int] | None = None
) -> bool:
    """True when the signature is a canonical cotree on the ids of the rows
    ``adj`` that rebuilds them, or given ``below``, the rows of an order
    whose comparability rows are ``adj``, a canonical sp-tree that rebuilds
    ``below``.  This is the one check of a tree, run before the CLI prints
    one."""
    linear = below is not None
    rows = below if linear else adj
    try:
        masks, root, fault = tree_masks(signature, linear)
    except ValueError:
        return False
    if fault is not None or root != (1 << len(rows)) - 1:
        return False
    return next(leaf_rows(signature, masks, linear, rows=rows), None) is None


# === text output ===


def _pieces(signature: list[tuple], text: Callable) -> list:
    """The pieces of a tree's text in preorder, first child first, made in
    one pass without recursion: each node's opening and closing piece from
    ``text(kind, leaf, count)``, and ``", "`` between siblings.  The
    signature lists a node's last child first, so the pieces are made back
    to front: a node puts down its closing piece at once and its opening
    when its first child is done."""
    out = []  # the pieces, last first
    pending = []  # [opening, children not yet done] of each open node
    for kind, leaf, count in signature:
        opening, closing = text(kind, leaf, count)
        out.append(closing)
        if count:
            pending.append([opening, count])
            continue
        out.append(opening)
        while pending:
            top = pending[-1]
            top[1] -= 1
            if top[1]:
                out.append(", ")
                break
            out.append(top[0])
            pending.pop()
    out.reverse()
    return out


def json_text(signature: list[tuple], key: str, labels: Sequence[int] | None = None) -> str:
    """``json.dumps`` of the nested dicts of a tree
    (:func:`cosp.trees.cotree_to_json`), written from its signature;
    ``key`` is the leaf field, ``vertex`` or ``element``."""
    leaf = f'{{"kind": "{LEAF}", "{key}": '

    def text(kind, v, count):
        if kind == LEAF:
            return f"{leaf}{v if labels is None else labels[v]}}}", ""
        return f'{{"kind": "{kind}", "children": [', "]}"

    return "".join(_pieces(signature, text))


_DOT_LABELS = {SERIES: "×", PARALLEL: "∪", LINEAR: "→", DISJOINT: "∪"}


def dot_text(name: str, signature: list[tuple], labels: Sequence[int] | None = None) -> str:
    """The DOT graph of a tree: a line per node, numbered ``n0, n1, ...``
    in preorder with the first child first, each followed by the edge from
    its parent; the nodes come in the order of the tree's text, whose
    opening pieces here are the nodes and whose closing ones end them."""
    lines = [f"graph {name} {{"]
    parents = []  # the numbers of the nodes not yet ended, innermost last
    number = 0
    for piece in _pieces(signature, lambda kind, v, count: ((kind, v), None)):
        if piece is None:
            parents.pop()
        elif piece != ", ":
            kind, v = piece
            label = _DOT_LABELS[kind] if kind != LEAF else v if labels is None else labels[v]
            lines.append(f'  n{number} [label="{label}"];')
            if parents:
                lines.append(f"  n{parents[-1]} -- n{number};")
            parents.append(number)
            number += 1
    lines.append("}")
    return "\n".join(lines) + "\n"
