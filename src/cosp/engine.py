"""The split engine on rows of masks: trees, certificates and tree text.

A graph on two or more vertices either falls apart into connected
components (parallel node) or its complement does (series node); when
neither happens the part contains an induced four-vertex path, found by
the neighbor-split lemma at the part's lowest vertex (:func:`_sides`),
and that path is the certificate instead of a tree.  This is the
component / co-component scheme whose linear-time form is due to
Corneil, Perl and Stewart (SIAM J. Comput. 14(4), 1985).  An order is
series-parallel exactly when its comparability graph is a cograph, so
the same loop on comparability masks decides orders: a series node
becomes a linear one with its children sorted bottom to top, and a path
becomes an N.

Everything here takes rows (see :mod:`cosp.rows`) and gives plain
values, and nothing recurses.  A tree is its signature: the list of
``(kind, leaf id, child count)`` of its nodes in preorder, a node's last
child first, which is also what decides tree equality.  The writers turn
a signature into JSON, DOT or ``repr`` text in one pass, and one check
on masks decides every certificate.  What a tree means is stated here
once, by two passes over its signature: :func:`tree_masks` from the
leaves up (each internal node's leaves, and its canonical form), then
:func:`leaf_rows` from the root down (the row each leaf must have).
:func:`tree_holds` checks a tree against the rows it came from before
the CLI prints it, and :mod:`cosp.trees` validates trees and rebuilds
their graphs and orders with the same two passes.  A recognition
request runs this module and :mod:`cosp.rows` alone;
:func:`cosp.cographs.cotree`, :func:`cosp.spdecomp.sp_tree`, the
witnesses' ``validate`` and the tree classes' text wrap these functions
for the records.
"""

from collections.abc import Callable, Iterator, Sequence

from .rows import iter_bits, mask_components

LEAF = "leaf"
SERIES = "series"
PARALLEL = "parallel"
LINEAR = "linear"
DISJOINT = "disjoint"


class InducedPath(ValueError):
    """An induced four-vertex path met by :func:`_sides`, as ``path``;
    the lemma API raises it as :class:`cosp.cographs.P4Error`."""

    def __init__(self, path: tuple[int, int, int, int], message: str):
        super().__init__(message)
        self.path = path


def _decompose(adj: Sequence[int], kinds: tuple[str, str], series_key=None) -> list[tuple] | int:
    """Split the ids 0..n-1 of the rows ``adj`` into components of ``adj``
    (a node of the second of ``kinds``) or of its complement (the first)
    until every part is one id; children go by smallest member, or by
    ``series_key`` under the first kind.  Returns the tree's signature,
    written as parts are popped, or the first part that splits neither
    way."""
    join, union = kinds
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
            if series_key is not None:
                parts.sort(key=series_key)
            signature.append((join, None, len(parts)))
        stack.extend(parts)
    return signature


def cotree_signature(adj: Sequence[int]) -> list[tuple] | tuple[int, int, int, int]:
    """The signature of the canonical cotree of the graph with rows
    ``adj``, or an induced path (a, b, c, d), a < d, inside the first
    part that splits neither way."""
    if not adj:
        raise ValueError("the decomposition needs at least one vertex")
    result = _decompose(adj, (SERIES, PARALLEL))
    return _p4_in_part(adj, result) if type(result) is int else result


def sp_tree_signature(
    comp: Sequence[int], below: Sequence[int]
) -> list[tuple] | tuple[int, int, int, int]:
    """The signature of the canonical sp-tree of the order with rows
    ``below`` and comparability rows ``comp``, or an N (a, b, c, d).

    It is the cotree of the comparability graph with every series node's
    children sorted bottom to top.  The blocks of a linear split form a
    chain inside a part that is an order module, so the number of
    elements below a block's lowest member rises strictly up the chain
    and sorts them.  A part that splits neither way holds an induced path
    of the comparability graph, read as an N from the end that lies below
    its neighbor.
    """
    if not comp:
        raise ValueError("the decomposition needs at least one element")

    def height(block: int) -> int:
        return below[(block & -block).bit_length() - 1].bit_count()

    result = _decompose(comp, (LINEAR, DISJOINT), height)
    if type(result) is not int:
        return result
    a, b, c, d = _p4_in_part(comp, result)
    # a < b forces c < b and c < d; b < a forces the mirror image.
    return (a, b, c, d) if (below[b] >> a) & 1 else (d, c, b, a)


def _p4_in_part(adj: Sequence[int], sub: int) -> tuple[int, int, int, int]:
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
    except InducedPath as exc:
        path = exc.path
    else:
        low, block = min(sides, key=lambda side: side[0].bit_count())
        high, other = next(side for side in sides if low & ~side[0])
        path = tuple((m & -m).bit_length() - 1 for m in (block, low & ~high, high & ~low, other))
    return path if path[0] < path[3] else path[::-1]


def _sides(adj: Sequence[int], x: int, block: int) -> tuple[int, int]:
    """The neighbor-split lemma on masks: the neighbors of x that see all
    of ``block`` (a connected mask of non-neighbors of x) and those that
    see none of it, read from the block's own rows.  A neighbor that sees
    part of the block, or two sides not joined, pins an induced path,
    raised as :class:`InducedPath` from the lowest such vertices."""
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
                raise InducedPath((x, y, a, b), f"vertex {y} is adjacent to part of the block only")
        raise ValueError("component is not connected")
    unjoined = 0
    for z in iter_bits(n2):
        unjoined |= n1 & ~adj[z]
    if unjoined:
        y1 = (unjoined & -unjoined).bit_length() - 1
        missing = n2 & ~adj[y1]
        y2 = (missing & -missing).bit_length() - 1
        c0 = (block & -block).bit_length() - 1
        message = f"neighbors {y1} and {y2} are not adjacent across the split"
        raise InducedPath((c0, y1, x, y2), message)
    return n1, n2


def witness_holds(
    ids: Sequence[int], adj: Sequence[int], below: Sequence[int] | None = None
) -> bool:
    """True when ``ids`` are four distinct ids a, b, c, d of the rows
    ``adj`` that form an induced path a-b-c-d.  For an order, ``adj`` is
    its comparability rows and ``below`` its own, and a < b, c < b and
    c < d must hold too: the path is an N.  This is the one check of a
    certificate, run before the CLI prints one and by ``validate``."""
    a, b, c, d = ids
    if len({a, b, c, d}) != 4 or not all(0 <= v < len(adj) for v in ids):
        return False
    pairs = (a, b), (b, c), (c, d), (a, c), (a, d), (b, d)
    if [adj[u] >> v & 1 for u, v in pairs] != [1, 1, 1, 0, 0, 0]:
        return False
    return below is None or all(below[v] >> u & 1 for u, v in ((a, b), (c, b), (c, d)))


# === what a tree means ===


def tree_masks(signature: list[tuple], linear: bool = False) -> tuple[list[int], int, str | None]:
    """The leaf masks of a tree's internal nodes, by one pass over its
    signature from the leaves up: a cotree's, or with ``linear`` an
    sp-tree's.  Returns the masks, the last node in preorder first, the
    root's mask, and the first fault of canonical form in preorder or
    None: an internal node with a leaf id, a child of its parent's kind,
    or children of a kind other than linear not ordered by smallest leaf.
    A tree that encodes nothing (a leaf id that is not a non-negative int,
    a leaf with children, an unknown kind, fewer than two children, a
    repeated leaf) raises ValueError.  Leaves get no mask."""
    kinds, key = ((LINEAR, DISJOINT), "element") if linear else ((SERIES, PARALLEL), "vertex")
    masks = []
    done = []  # (kind, lowest leaf, mask or 0) of each subtree whose parent is to come
    fault = None
    for kind, leaf, count in reversed(signature):
        if kind == LEAF:
            if not isinstance(leaf, int) or leaf < 0:
                raise ValueError(f"leaf {key} must be a non-negative int, got {leaf!r}")
            if count:
                raise ValueError("leaf with children")
            done.append((LEAF, leaf, 0))
            continue
        if kind not in kinds:
            raise ValueError(f"unknown node kind {kind!r}")
        if count < 2:
            raise ValueError(f"{kind} node with fewer than two children")
        children = done[-count:]  # first child first
        if count == 2:  # every node of a path-like tree, on a short path
            (first_kind, low, first_mask), (last_kind, last_low, last_mask) = children
            mask = (first_mask or 1 << low) | (last_mask or 1 << last_low)
            ordered = low < last_low
            same = first_kind == kind or last_kind == kind
            if not ordered:
                low = last_low
        else:  # the sum is the union unless a leaf repeats, which the root's count catches
            mask = sum(own or 1 << child_low for _, child_low, own in children)
            lows = [child[1] for child in children]
            ordered, same, low = lows == sorted(lows), kind in [c[0] for c in children], min(lows)
        if leaf is not None:
            fault = f"internal node with {key} {leaf!r}"
        elif same:
            fault = f"{kind} child of {kind} node"
        elif not ordered and kind != LINEAR:
            fault = f"{kind} children not ordered by smallest leaf id"
        masks.append(mask)
        done[-count:] = [(kind, low, mask)]
    root = done[0][2] or 1 << done[0][1]
    if root.bit_count() != len(signature) - len(masks):
        raise ValueError("duplicate leaf ids")
    return masks, root, fault


def leaf_rows(
    signature: list[tuple], masks: list[int], linear: bool = False, rows: Sequence[int] | None = None
) -> Iterator[tuple[int, int]]:
    """``(v, row)`` for every leaf v of a tree, in signature order, by one
    pass from the root down that uses up :func:`tree_masks`' ``masks``:
    v's row of the cotree's graph, the leaves of its series ancestors'
    other children, or with ``linear`` its row of the elements below v in
    the sp-tree's order, the leaves of its linear ancestors' earlier
    children.  Given ``rows``, only the leaves whose row is not theirs.
    A node's mask is let go once its children no longer need it."""
    joined = LINEAR if linear else SERIES
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
            join = kind == joined
            parents += [[join, row, mask if join else 0]] * count
        elif rows is None or row != rows[leaf]:
            yield leaf, row


def tree_holds(signature: list[tuple], rows: Sequence[int], linear: bool = False) -> bool:
    """True when the signature is a canonical tree on the ids of ``rows``
    that rebuilds them: a graph's neighbor rows, or with ``linear`` an
    order's rows of the elements below each.  This is the one check of a
    tree, run before the CLI prints one."""
    try:
        masks, root, fault = tree_masks(signature, linear)
    except ValueError:
        return False
    if fault is not None or root != (1 << len(rows)) - 1:
        return False
    return next(leaf_rows(signature, masks, linear, rows=rows), None) is None


# === text output ===


def tree_text(
    signature: list[tuple], text: Callable[[str, int | None, int], tuple[str, str]]
) -> str:
    """The text of the tree with this signature: ``text(kind, leaf,
    count)`` gives a node's opening and closing text, and ``", "`` goes
    between siblings."""
    return "".join(_pieces(signature, text))


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

    return tree_text(signature, text)


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
