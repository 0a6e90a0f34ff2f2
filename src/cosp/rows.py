"""Rows of masks: the pair text reader, the mask helpers and the closure.

A graph or an order is held as rows, one mask per id: bit j of
``adj[i]`` is set exactly when {i, j} is an edge, and bit j of
``below[i]`` exactly when j < i.  This module turns a text into those
rows and an order's rows into its closure, and holds the helpers that
read masks.  It is all that a recognition request runs before the split
engine (:mod:`cosp.engine`): the records built on these rows,
:class:`cosp.graphs.Graph` and :class:`cosp.posets.Poset`, and their
query API are not loaded by a request, and nothing here serves only
them.

A walk over a mask's bits whose order decides nothing takes the top bit
first, which costs less to find than the lowest; a walk whose order
picks an answer (components by smallest member, a witness, a cycle's
pair, :func:`iter_bits`) goes from the lowest up, and one id picked
from a mask is its :func:`lowest`.
"""

import json
import re
from collections.abc import Callable, Iterable, Iterator, Sequence
from itertools import chain, compress
from operator import eq, not_


class ParseError(ValueError):
    """Raised on malformed input text; ``line`` is the 1-based offender."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class CycleError(ValueError):
    """The input relation has a directed cycle; ``pair`` is one offending edge."""

    def __init__(self, pair: tuple[int, int]):
        u, v = pair
        super().__init__(f"cycle error: the relation has a cycle through {u} < {v}")
        self.pair = pair


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def lowest(mask: int) -> int:
    """The lowest set bit position of the nonempty ``mask``."""
    return (mask & -mask).bit_length() - 1


def mask_components(adj: Sequence[int], sub: int, co: bool = False) -> list[int]:
    """Connected components of the graph restricted to the vertex mask ``sub``,
    or with ``co`` of its complement, which is never built: a vertex's
    neighbor mask XOR ``sub`` holds its non-neighbors inside ``sub``.

    Returns component masks ordered by their smallest member.  A search
    that holds every vertex left stops without expanding it: on a tree of
    depth n each level peels one vertex off a part reached in one step.
    """
    flip = sub if co else 0
    comps: list[int] = []
    remaining = sub
    while remaining:
        comp = 0
        frontier = remaining & -remaining
        while frontier:
            comp |= frontier
            if comp == remaining:
                break
            nxt = 0
            f = frontier
            while f:
                top = f.bit_length() - 1
                f ^= 1 << top
                nxt |= adj[top] ^ flip
            frontier = nxt & sub & ~comp
        comps.append(comp)
        remaining &= ~comp
    return comps


def _read_pairs(
    text: str, ordered: bool, build: Callable[[list[int]], object]
) -> tuple[object, tuple[int, ...]]:
    """Read the pair text format shared by graphs and orders.

    Lines starting with '#' and blank lines are skipped.  An optional
    first significant line ``n <order>`` fixes the label set to
    0..order-1; without it the label set is the labels that appear,
    remapped to dense ids in sorted order.  Each other line holds two
    labels; for orders (``ordered``) it may read ``u < v``, and ``u v``
    and ``v u`` are different pairs.  Returns ``build(rows)`` (bit j of
    ``rows[i]`` is set for each line ``i j``, and for graphs also for each
    line ``j i``) and the table mapping dense id to original label.
    With a header, both are sized by the declared order, so running out
    of memory while making them, or while reading, is a ParseError on the
    header line.

    The header is line 1 when it reads ``n <digits>``, and there is none
    when line 1 starts as no blank line, comment or header can; only any
    other text has its first lines read by
    :func:`cosp.pairtext._header`.  The lines after them go piece by
    piece (:func:`_pieces`) into :func:`_rows`, each plain piece converted
    in bulk (:func:`_bulk`) and any other by
    :func:`cosp.pairtext._read_lines`, which stops at the first line that
    fails a check.  When that pass finds a fault, the same loop runs again
    with every piece read line by line, and the first error is raised: a
    line that fails a check, or a duplicate of a pair before it,
    whichever comes first.  So a text whose pieces are all plain never
    imports :mod:`cosp.pairtext`.
    """
    declared, lineno, start = None, 0, 0
    header = _HEADER.match(text)
    if header:
        declared, lineno, start = int(header[1]), 1, header.end()
    elif text[:1] in ("#", "n") or text[:1].isspace():
        from .pairtext import _header

        declared, lineno, start = _header(text)

    def labels(bulk: bool) -> Iterator[list[int]]:
        # The flat labels u, v, u, v, ... of each piece; the number and
        # error of a line that fails a check go to ``stop``, and end them.
        # Lines are counted in the pieces read line by line only, so a
        # number is right only with bulk off: with bulk allowed, any fault
        # sends the text to the pass that reads every line.
        nonlocal stop
        number = lineno
        for piece in _pieces(text, start):
            flat = bulk and _bulk(piece, ordered)
            if not flat:
                from .pairtext import _read_lines

                flat, number, error = _read_lines(piece, number, declared, ordered)
                if error:
                    stop = number, error
                    yield flat
                    return
            yield flat

    try:
        for bulk in (True, False):
            stop = None
            try:
                read = _rows(labels(bulk), declared, ordered, len(text))
            except (ValueError, IndexError):
                # Raised for a piece read in bulk only: a label that
                # json.loads refuses, or one outside the declared order.
                continue
            if read and not stop:
                return build(read[0]), tuple(read[1])
    except (OverflowError, MemoryError):
        if declared is None:
            raise
        raise ParseError(lineno, f"declared order {declared} is too large") from None
    if read:
        raise ParseError(*stop)
    from .pairtext import _duplicate

    raise _duplicate(text, start, lineno, ordered)


_CHUNK = 1 << 16
_HEADER = re.compile(r"n ([0-9]{1,20})\n")  # at most 20 digits: int() takes them under any limit
_NOT_DIGITS = str.maketrans("", "", "0123456789")


def _pieces(text: str, pos: int) -> Iterator[str]:
    """The text from ``pos`` on in pieces of at least 64 KiB, or the rest,
    each cut after a newline, so that no line spans two pieces and only
    one piece's lines or labels are held at a time."""
    while pos < len(text):
        end = text.find("\n", pos + _CHUNK) + 1 or len(text)
        yield text[pos:end]
        pos = end


def _bulk(piece: str, ordered: bool) -> list[int] | None:
    """The labels of a plain piece as one flat list, by one
    ``json.loads``, or None for any other piece.

    A piece is plain when every line is ``<digits> <digits>``, or for an
    order also ``<digits> < <digits>``, ended by a newline, with ASCII
    digits and single spaces: the form :func:`cosp.pairtext.format_graph`
    and :func:`cosp.pairtext.format_poset` write after their header.  Its
    shape is checked by C-level string operations, after an order's
    ``" < "`` become spaces, so that any other piece costs little here.
    A label with leading zeros, which json.loads refuses, raises
    ValueError.  The labels take no other check here: :func:`_rows` finds
    a label out of range, a self-loop and a pair ``u u``.
    """
    if ordered:
        piece = piece.replace(" < ", " ")
    # Deleting the digits must leave one space and one newline per line;
    # the digits of a last line with no newline would not show.
    shape = piece.translate(_NOT_DIGITS)
    if piece[-1] != "\n" or shape != " \n" * (len(shape) // 2):
        return None
    return json.loads("[" + piece[:-1].replace("\n", ",").replace(" ", ",") + "]")


def _rows(
    chunks: Iterable[list[int]], declared: int | None, ordered: bool, size: int
) -> tuple[list[int], Sequence[int]] | None:
    """The rows and the label table of the pairs in ``chunks``, lists of
    flat labels ``u, v, u, v, ...``, or None when the final check fails.

    Without a header (``declared`` None) the labels are joined and mapped
    to dense ids in sorted order by ``sorted(set(...))`` and one dict,
    unless they are 0..k-1 already: no bit is ever set by a raw label.
    Each pair u v then sets bit v of ``rows[u]`` with one OR: the bit
    comes from a table of ``1 << v`` when ``size`` (the text's length) is
    at least n*n, else from a shift, so the table, about n*n/15 bytes,
    never outgrows the text.  A label outside the declared order is an
    IndexError, found in each chunk read with shifts before any shift.  A
    graph's pair also sets bit u of ``rows[v]`` when read with shifts;
    with the table its mirror half comes from one :func:`_transpose`, an
    n-long list that is no larger than the text.

    An order's pair u u gives None, and so do fewer bits in the finished
    rows than the pairs set (a duplicate in either orientation, or a
    graph's self-loop).
    """
    if declared is None:
        flat = list(chain.from_iterable(chunks))
        labels: Sequence[int] = sorted(set(flat))
        declared = len(labels)
        if labels and labels[-1] != declared - 1:
            flat = list(map(dict(zip(labels, range(declared))).__getitem__, flat))
        chunks = (flat,)
    else:
        labels = range(declared)
    rows = [0] * declared
    bits = [1 << v for v in range(declared)] if declared * declared <= size else None
    count = 0
    for chunk in chunks:
        # Checked on the pairs, not the rows, which an absurd header makes
        # far more numerous.
        if ordered and any(map(eq, chunk[::2], chunk[1::2])):
            return None
        pairs = iter(chunk)
        if bits is None:
            # A label far out of range would be a shift by gigabytes.
            if chunk and max(chunk) >= declared:
                raise IndexError
            for u, v in zip(pairs, pairs):
                rows[u] |= 1 << v
                if not ordered:
                    rows[v] |= 1 << u
        else:
            for u, v in zip(pairs, pairs):
                rows[u] |= bits[v]
        count += len(chunk)
    if ordered:
        count //= 2
    elif bits is not None:
        rows = [row | col for row, col in zip(rows, _transpose(rows))]
    if sum(map(int.bit_count, filter(None, rows))) != count:
        return None
    return rows, labels


_DIGITS = 1 << 20


def _transpose(rows: list[int]) -> list[int]:
    """The transpose of n rows of n bits: bit i of ``out[j]`` is bit j of
    ``rows[i]``.

    Rows with more than one bit in eight set are written as binary digit
    strings, at most about 1 MiB of digits at a time, and each column is
    read back with one strided slice and ``int(..., 2)``; sparser rows
    are walked bit by bit.  One pass over all rows lists the nonzero
    ones, and the bit count and the sparse walk read only those.
    """
    n = len(rows)
    out = [0] * n
    nonzero = list(compress(range(n), rows))
    if sum(map(int.bit_count, map(rows.__getitem__, nonzero))) * 8 <= n * n:
        for i in nonzero:
            row = rows[i]
            bit = 1 << i
            while row:
                top = row.bit_length() - 1
                out[top] |= bit
                row ^= 1 << top
        return out
    spec = f"0{n}b"
    step = max(1, _DIGITS // n)
    for start in range(0, n, step):
        # Digit k of a row's string is bit n-1-k.  The rows go in last
        # first, so that row ``start`` is the lowest digit of each column.
        digits = "".join([format(row, spec) for row in reversed(rows[start : start + step])])
        for j in range(n):
            out[j] |= int(digits[n - 1 - j :: n], 2) << start
    return out


def _closure(succ: list[int], mode: str) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The rows ``below`` and ``above`` of the order whose pairs are the
    successor masks ``succ`` (bit v of ``succ[u]`` stands for u < v),
    closed transitively.  mode="covers" closes any relation; mode="full"
    demands that it be its own closure.  A cycle raises
    :class:`CycleError`."""
    if mode not in ("covers", "full"):
        raise ValueError(f"unknown mode {mode!r}")
    order = len(succ)
    # The in-degrees, the queue and the transpose are made before any pass
    # over the rows, so that an order too large for memory fails at once.
    indeg = [0] * order
    topo = list(range(order))
    pred = _transpose(succ)
    # Kahn's algorithm, with the order found so far as its queue, which
    # grows as it is read; leftovers witness a cycle.
    indeg[:] = map(int.bit_count, pred)
    topo[:] = compress(topo, map(not_, indeg))
    for v in topo:
        for w in iter_bits(succ[v]):
            indeg[w] -= 1
            if indeg[w] == 0:
                topo.append(w)
    if len(topo) < order:
        # Each element left has a predecessor left, so some edge lies inside.
        leftover = sum(1 << v for v in range(order) if indeg[v] > 0)
        u = next(u for u in iter_bits(leftover) if succ[u] & leftover)
        raise CycleError((u, lowest(succ[u] & leftover)))
    below = _reach(topo, pred)
    if mode == "full":
        for v in range(order):
            missing = below[v] & ~pred[v]
            if missing:
                u = lowest(missing)
                raise ValueError(
                    f"relation is not transitively closed: {u} < {v} is implied but absent"
                )
        return tuple(below), tuple(succ)  # its own closure: ``succ`` is ``above``
    # The transpose is dropped before ``above`` is made, so that three row
    # families are held at most, not four.
    del pred
    return tuple(below), tuple(_reach(reversed(topo), succ))


def _reach(topo: Iterable[int], step: Sequence[int]) -> list[int]:
    """Mask of everything reachable from each element along ``step`` edges;
    ``topo`` must list every step target before its source.

    Targets are taken from the highest id down, and one already reached
    through another adds nothing and is skipped.
    """
    out = [0] * len(step)
    for v in topo:
        acc = 0
        rest = step[v]
        while rest:
            u = rest.bit_length() - 1
            acc |= out[u] | (1 << u)
            rest &= ~acc
        out[v] = acc
    return out
