"""The pair text format's line checks and its writers.

:func:`cosp.rows._read_pairs` reads every text piece by piece, each
plain piece (the form the writers here produce) in bulk, and imports
this module only for a text whose first lines it cannot read at a glance
(:func:`_header`), for a piece that is not plain (:func:`_read_lines`,
which takes each line through every check), and to name a duplicate
pair (:func:`_duplicate`).  :func:`format_graph` and
:func:`format_poset` write graphs and orders through
:func:`_write_pairs`.
"""

from __future__ import annotations

import sys
from collections.abc import Iterable, Sequence
from itertools import chain

from .rows import ParseError, _pieces, iter_bits

# The annotations name ``cosp.graphs.Graph`` and ``cosp.posets.Poset``
# without importing them, so that a request whose text is read line by
# line compiles neither module.


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


def _header(text: str) -> tuple[int | None, int, int]:
    """The order that the header of ``text`` declares, or None without
    one, and the number and the length of the lines before its first
    pair: blank lines and comments, then the header, which is the first
    other line when that reads ``n ...``."""
    lineno = pos = 0
    for line in chain.from_iterable(piece.splitlines(True) for piece in _pieces(text, 0)):
        tokens = line.split()
        if tokens and tokens[0][0] != "#":
            if tokens[0] != "n":
                break
            lineno += 1
            if len(tokens) != 2:
                raise ParseError(lineno, "malformed header, expected 'n <order>'")
            try:
                declared = int(tokens[1])
            except ValueError:
                error = _too_long("declared order", tokens[1])
                raise ParseError(lineno, error or f"malformed header order {tokens[1]!r}") from None
            if declared < 0:
                raise ParseError(lineno, "declared order must be non-negative")
            return declared, lineno, pos + len(line)
        lineno += 1
        pos += len(line)
    return None, lineno, pos


def _read_lines(
    piece: str, lineno: int, declared: int | None, ordered: bool
) -> tuple[list[int], int, str | None]:
    """The labels ``u, v, u, v, ...`` of the lines of ``piece``, the first
    of them line ``lineno + 1``, as one flat list, the number of the last
    line read, and the error of that line when it fails a check, or None.

    Blank lines and comments are skipped.  Each other line takes every
    check in turn: its shape, the conversion of its labels, their signs,
    a self-loop or reflexive pair, and the declared range; no line skips
    a check because its labels were seen before.  The labels stop at the
    first line that fails one.
    """
    noun, sep = ("element", " < ") if ordered else ("vertex", " ")
    flat: list[int] = []
    for lineno, line in enumerate(piece.splitlines(), lineno + 1):
        tokens = line.split()
        if not tokens or tokens[0][0] == "#":
            continue
        if len(tokens) != 2 and not (ordered and len(tokens) == 3 and tokens[1] == "<"):
            return flat, lineno, f"expected two {noun} labels, got {line.strip()!r}"
        try:
            u, v = int(tokens[0]), int(tokens[-1])
        except ValueError:
            error = _too_long(f"{noun} label", tokens[0], tokens[-1])
            return flat, lineno, error or f"expected two {noun} labels, got {line.strip()!r}"
        if u < 0 or v < 0:
            return flat, lineno, f"{noun} labels must be non-negative"
        if u == v:
            return flat, lineno, f"{'reflexive relation' if ordered else 'self-loop'} {u}{sep}{v}"
        if declared is not None and (u >= declared or v >= declared):
            return flat, lineno, f"{noun} {max(u, v)} outside declared order {declared}"
        flat += u, v
    return flat, lineno, None


def _duplicate(text: str, pos: int, lineno: int, ordered: bool) -> ParseError:
    """The error of the first line of the text from ``pos`` on (line
    ``lineno + 1``) whose pair repeats one before it, in either
    orientation for a graph.  The lines before it must pass every check
    of :func:`_read_lines`, as they do when the rows of their pairs came
    up short."""
    pair, sep = ("relation", " < ") if ordered else ("edge", " ")
    seen = set()
    lines = chain.from_iterable(map(str.splitlines, _pieces(text, pos)))
    for lineno, line in enumerate(lines, lineno + 1):
        tokens = line.split()
        if tokens and tokens[0][0] != "#":
            u, v = int(tokens[0]), int(tokens[-1])
            key = (u, v) if ordered or u < v else (v, u)
            if key in seen:
                return ParseError(lineno, f"duplicate {pair} {u}{sep}{v}")
            seen.add(key)


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
