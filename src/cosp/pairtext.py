"""The pair text format's line reader and its writers.

:func:`cosp.rows._read_pairs` reads a plain text (the form the writers
here produce) in bulk and imports this module only for any other text,
or a plain one that fails a check: :func:`_read_lines`, the reference
reader, then takes every line through every check and reports the first
error.  :func:`format_graph` and :func:`format_poset` write
graphs and orders through :func:`_write_pairs`.
"""

from __future__ import annotations

import sys
from collections.abc import Iterable, Iterator, Sequence
from itertools import chain

from .rows import _CHUNK, ParseError, _rows, iter_bits

# The annotations name ``cosp.graphs.Graph`` and ``cosp.posets.Poset``
# without importing them, so that a request whose text is read line by
# line compiles neither module.


def _pieces(text: str) -> Iterator[list[str]]:
    """The lines of ``text.splitlines()``, one list per piece of the text
    of at most 64 KiB (or one longer line) cut after a newline, so that
    only one piece's lines are held at a time."""
    pos = 0
    while pos < len(text):
        end = text.rfind("\n", pos, pos + _CHUNK) + 1 or text.find("\n", pos + _CHUNK) + 1
        end = end or len(text)
        yield text[pos:end].splitlines()
        pos = end


def _too_long(what: str, *tokens: str) -> str | None:
    """The error for a token that ``int()`` refuses only for Python's limit
    on the digits of an integer string, or None.  The limit is kept: it
    guards against quadratic parsing, and lifting it would change the
    whole process."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    for token in tokens:
        digits = token.lstrip("+-").replace("_", "")
        if limit and len(digits) > limit and digits.isdecimal():
            return f"{what} has more than {limit} digits"
    return None


def _read_lines(text: str, ordered: bool) -> tuple[list[int], Sequence[int], int | None]:
    """The rows, the label table and the header's line number (None
    without a header) of any text, read line by line.

    Blank lines and comments are skipped.  The header is the first other
    line when it reads ``n ...``.  Each line after it takes one route,
    every check in turn: its shape, the conversion of its labels, their
    signs, a self-loop or reflexive pair, and the declared range; no
    line skips a check because its labels were seen before.  The labels
    of each piece's lines (:func:`_pieces`) go to :func:`cosp.rows._rows`
    as one flat list, so that with a header only one piece's labels are
    held at a time, as in the bulk read.  The tokenizer stops at the
    first line that fails a check.  When the bits of the pairs before it
    come up short, one ordered scan of the pairs names the first
    duplicate, whose line comes earlier, and that error is raised ahead
    of the tokenizer's.
    """
    noun, pair, sep = ("element", "relation", " < ") if ordered else ("vertex", "edge", " ")
    declared: int | None = None
    first: int | None = None  # the header's line number
    for lineno, line in enumerate(chain.from_iterable(_pieces(text)), 1):
        tokens = line.split()
        if not tokens or tokens[0][0] == "#":
            continue
        if tokens[0] == "n":
            if len(tokens) != 2:
                raise ParseError(lineno, "malformed header, expected 'n <order>'")
            try:
                declared = int(tokens[1])
            except ValueError:
                error = _too_long("declared order", tokens[1])
                raise ParseError(lineno, error or f"malformed header order {tokens[1]!r}") from None
            if declared < 0:
                raise ParseError(lineno, "declared order must be non-negative")
            first = lineno
        break
    stop = None  # the line number and error of the first line that fails a check

    def labels() -> Iterator[list[int]]:
        nonlocal stop
        lineno = 0
        for lines in _pieces(text):
            flat: list[int] = []
            error = None
            for lineno, line in enumerate(lines, lineno + 1):
                tokens = line.split()
                if not tokens or tokens[0][0] == "#" or lineno == first:
                    continue
                if len(tokens) != 2 and not (ordered and len(tokens) == 3 and tokens[1] == "<"):
                    error = f"expected two {noun} labels, got {line.strip()!r}"
                    break
                try:
                    u, v = int(tokens[0]), int(tokens[-1])
                except ValueError:
                    error = _too_long(f"{noun} label", tokens[0], tokens[-1])
                    error = error or f"expected two {noun} labels, got {line.strip()!r}"
                    break
                if u < 0 or v < 0:
                    error = f"{noun} labels must be non-negative"
                elif u == v:
                    error = f"{'reflexive relation' if ordered else 'self-loop'} {u}{sep}{v}"
                elif declared is not None and (u >= declared or v >= declared):
                    error = f"{noun} {max(u, v)} outside declared order {declared}"
                else:
                    flat += u, v
                    continue
                break
            yield flat
            if error is not None:
                stop = lineno, error
                return

    try:
        read = _rows(labels(), declared, ordered, len(text))
    except (OverflowError, MemoryError):
        if declared is None:
            raise
        raise ParseError(first, f"declared order {declared} is too large") from None
    if read is None:
        seen = set()
        for lineno, line in enumerate(chain.from_iterable(_pieces(text)), 1):
            tokens = line.split()
            if tokens and tokens[0][0] != "#" and lineno != first:
                u, v = int(tokens[0]), int(tokens[-1])
                key = (u, v) if ordered or u < v else (v, u)
                if key in seen:
                    raise ParseError(lineno, f"duplicate {pair} {u}{sep}{v}")
                seen.add(key)
    if stop is not None:
        raise ParseError(*stop)
    return (*read, first)


def _write_pairs(
    order: int,
    rows: Iterable[int],
    labels: Sequence[int] | None,
    linked: Iterable[int],
    noun: str,
    unpaired: str,
) -> str:
    """Write the pair text format read by :func:`cosp.rows._read_pairs`.

    ``rows`` holds one mask per id u, of the ids v it is paired with; each
    pair is a line ``u v``, in the order of u, then v.  Each row's lines
    are joined into one string as it is written, so the writer holds
    about twice the text it returns (the rows' strings, then their join),
    and never a string or tuple per pair.

    With the default dense labeling a header line declares the order, so
    ids in no pair survive the round trip.  Other labels drop the header
    (its count would clash with them); they must then be distinct, one
    per id, and every id must occur in a pair, which it does when its
    entry in ``linked`` is nonzero.
    """
    if labels is None or tuple(labels) == tuple(range(order)):
        out = [f"n {order}\n"]
        labels = range(order)
    else:
        if len(set(labels)) != order:
            raise ValueError(f"labels must be distinct, one per {noun}")
        out = []
        for v, link in enumerate(linked):
            if not link:
                raise ValueError(f"{noun} {labels[v]} {unpaired} and no header can declare it")
    names = [f"{label}" for label in labels]
    for u, row in enumerate(rows):
        if row:
            head = f"{names[u]} "
            out.append(head + f"\n{head}".join([names[v] for v in iter_bits(row)]) + "\n")
    return "".join(out)


def format_graph(g: Graph, labels: Sequence[int] | None = None) -> str:
    """Serialize to the edge-list text format (see :func:`_write_pairs`):
    the header or the labels, then one line ``u v`` per edge, u < v, from
    the upper triangle of ``g.adj`` (:meth:`cosp.graphs.Graph._upper_rows`,
    which :meth:`cosp.graphs.Graph.edges` reads too)."""
    return _write_pairs(g.order, g._upper_rows(), labels, g.adj, "vertex", "has no edges")


def format_poset(p: Poset, labels: Sequence[int] | None = None, mode: str = "covers") -> str:
    """Serialize to the relation text format (see :func:`_write_pairs`).

    mode="covers" writes the transitive reduction, the rows
    :meth:`cosp.posets.Poset._cover_rows` (row u holds the elements that
    cover u), made one at a time as they are written; mode="full" writes
    the whole closure, the rows ``p.above``.  Neither mode holds a pair
    list, so both peak at about twice the text.  Both round-trip through
    :func:`cosp.posets.parse_poset`.
    """
    if mode not in ("covers", "full"):
        raise ValueError(f"unknown mode {mode!r}")
    rows = p.above if mode == "full" else p._cover_rows()
    # An element occurs in a cover exactly when it is comparable to another.
    linked = map(int.__or__, p.below, p.above)
    return _write_pairs(p.order, rows, labels, linked, "element", "occurs in no relation")
