"""The pair text format's line reader and its writers.

:func:`cosp.rows._read_pairs` reads a plain text (the form the writers
here produce) in bulk and imports this module only for any other text,
or a plain one that fails a check: :func:`_read_lines` then finds and
reports every error.  :func:`format_graph` and :func:`format_poset` write
graphs and orders through :func:`_write_pairs`.
"""

from __future__ import annotations

import sys
from collections.abc import Iterable, Iterator, Sequence
from itertools import islice

from .rows import _CHUNK, ParseError, _rows

# The annotations name ``cosp.graphs.Graph`` and ``cosp.posets.Poset``
# without importing them, so that a request whose text is read line by
# line compiles neither module.


def _lines(text: str) -> Iterator[str]:
    """The lines of ``text.splitlines()``, split from pieces of the text of
    at most 64 KiB (or one longer line) cut after a newline, so that only
    one piece's lines are held at a time."""
    pos = 0
    while pos < len(text):
        end = text.rfind("\n", pos, pos + _CHUNK) + 1 or text.find("\n", pos + _CHUNK) + 1
        end = end or len(text)
        yield from text[pos:end].splitlines()
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

    The header is the first line that is neither blank nor a comment and
    reads ``n ...``.  Each other line takes every check in turn: its
    shape, the signs of its labels, a self-loop or reflexive pair, and
    the declared range.  The tokenizer stops at the first line that fails
    one and hands the pairs before it to :func:`cosp.rows._rows`.  When
    their bits come up short, one ordered scan of the pairs names the
    first duplicate, whose line comes earlier, and that error is raised
    ahead of the tokenizer's.
    """
    noun, pair, sep = ("element", "relation", " < ") if ordered else ("vertex", "edge", " ")
    declared: int | None = None
    first = 0  # the header's line number
    # A label's spellings on lines that passed map to one int, made once.
    known: dict[str, int] = {}
    get = known.get
    flat: list[int] = []
    error = None
    for lineno, line in enumerate(_lines(text), 1):
        tokens = line.split()
        if len(tokens) == 2 or ordered and len(tokens) == 3 and tokens[1] == "<":
            u = get(tokens[0])
            v = get(tokens[-1])
            if u is not None and v is not None and u != v:
                flat += u, v
                continue
        if not tokens or tokens[0][0] == "#":
            continue
        if tokens[0] == "n" and not first and not flat:
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
            known[tokens[0]] = u
            known[tokens[-1]] = v
            flat += u, v
            continue
        break
    del known, get
    try:
        read = _rows((flat,), declared, ordered, len(text))
    except (OverflowError, MemoryError):
        if declared is None:
            raise
        raise ParseError(first, f"declared order {declared} is too large") from None
    if read is None:
        seen = set()
        pairs = iter(flat)
        for k, (u, v) in enumerate(zip(pairs, pairs)):
            key = (u, v) if ordered or u < v else (v, u)
            if key in seen:
                break
            seen.add(key)
        # The k-th line after the header that is neither blank nor a comment.
        lines = enumerate(_lines(text), 1)
        at = (i for i, line in lines if i > first and (t := line.split()) and t[0][0] != "#")
        raise ParseError(next(islice(at, k, None)), f"duplicate {pair} {u}{sep}{v}")
    if error is not None:
        raise ParseError(lineno, error)
    return (*read, None if declared is None else first)


def _write_pairs(
    order: int,
    pairs: Iterable[tuple[int, int]],
    labels: Sequence[int] | None,
    linked: Iterable[int],
    noun: str,
    unpaired: str,
) -> str:
    """Write the pair text format read by :func:`cosp.rows._read_pairs`.

    With the default dense labeling a header line declares the order, so
    ids in no pair survive the round trip.  Other labels drop the header
    (its count would clash with them); they must then be distinct, one
    per id, and every id must occur in a pair, which it does when its
    entry in ``linked`` is nonzero.
    """
    if labels is None or tuple(labels) == tuple(range(order)):
        lines = [f"n {order}"]
        labels = range(order)
    else:
        if len(set(labels)) != order:
            raise ValueError(f"labels must be distinct, one per {noun}")
        lines = []
        for v, link in enumerate(linked):
            if not link:
                raise ValueError(f"{noun} {labels[v]} {unpaired} and no header can declare it")
    for u, v in pairs:
        lines.append(f"{labels[u]} {labels[v]}")
    del pairs  # format_graph's edge list outweighs the text: free it before the join
    return "\n".join(lines) + "\n"


def format_graph(g: Graph, labels: Sequence[int] | None = None) -> str:
    """Serialize to the edge-list text format (see :func:`_write_pairs`):
    the header or the labels, then one line ``u v`` per edge, u < v."""
    return _write_pairs(g.order, g.edges(), labels, g.adj, "vertex", "has no edges")


def format_poset(p: Poset, labels: Sequence[int] | None = None, mode: str = "covers") -> str:
    """Serialize to the relation text format (see :func:`_write_pairs`).

    mode="covers" writes the transitive reduction, mode="full" the whole
    closure; both round-trip through :func:`cosp.posets.parse_poset`.
    """
    if mode not in ("covers", "full"):
        raise ValueError(f"unknown mode {mode!r}")
    pairs = p.covers() if mode == "covers" else p.relations()
    # An element occurs in a cover exactly when it is comparable to another.
    linked = map(int.__or__, p.below, p.above)
    return _write_pairs(p.order, pairs, labels, linked, "element", "occurs in no relation")
