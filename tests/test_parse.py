"""The shared pair text format of graphs and orders: every rejected input
with its exact message and line, the accepted oddities, random
well-formed files written in every accepted spelling, and the bulk read
of plain files against the line reader."""

import random
import subprocess
import sys
import tracemalloc
from itertools import chain
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import cosp
from cosp import (
    CycleError,
    Graph,
    ParseError,
    Poset,
    format_graph,
    format_poset,
    parse_graph,
    parse_poset,
)
from cosp import pairtext
from cosp.rows import _closure, _read_pairs, _read_plain, _transpose
from cosp.rows import iter_bits, lowest, mask_components

CYCLE = "cycle"

# (text, graph outcome, order outcome); an outcome is (line, message) for a
# ParseError, CYCLE for the order's CycleError, or None when accepted.
REJECTED = [
    # headers
    ("n\n0 1\n", (1, "malformed header, expected 'n <order>'"), (1, "malformed header, expected 'n <order>'")),
    ("n 3 4\n", (1, "malformed header, expected 'n <order>'"), (1, "malformed header, expected 'n <order>'")),
    ("n x\n0 1\n", (1, "malformed header order 'x'"), (1, "malformed header order 'x'")),
    ("# c\n\nn 2.5\n", (3, "malformed header order '2.5'"), (3, "malformed header order '2.5'")),
    ("n -1\n", (1, "declared order must be non-negative"), (1, "declared order must be non-negative")),
    (
        "n 3\nn 4\n0 1\n",
        (2, "expected two vertex labels, got 'n 4'"),
        (2, "expected two element labels, got 'n 4'"),
    ),
    ("0 1\nn 3\n", (2, "expected two vertex labels, got 'n 3'"), (2, "expected two element labels, got 'n 3'")),
    # line shapes
    ("0 1 2\n", (1, "expected two vertex labels, got '0 1 2'"), (1, "expected two element labels, got '0 1 2'")),
    ("0 < 1\n", (1, "expected two vertex labels, got '0 < 1'"), None),
    ("0 > 1\n", (1, "expected two vertex labels, got '0 > 1'"), (1, "expected two element labels, got '0 > 1'")),
    (
        "0 < 1 < 2\n",
        (1, "expected two vertex labels, got '0 < 1 < 2'"),
        (1, "expected two element labels, got '0 < 1 < 2'"),
    ),
    ("0\n", (1, "expected two vertex labels, got '0'"), (1, "expected two element labels, got '0'")),
    (
        "n 2\n0 1\n  0 1 # x\t\n",
        (3, "expected two vertex labels, got '0 1 # x'"),
        (3, "expected two element labels, got '0 1 # x'"),
    ),
    # labels
    ("a b\n", (1, "expected two vertex labels, got 'a b'"), (1, "expected two element labels, got 'a b'")),
    ("0 1\n0 #\n", (2, "expected two vertex labels, got '0 #'"), (2, "expected two element labels, got '0 #'")),
    ("n 3\n0 b\n", (2, "expected two vertex labels, got '0 b'"), (2, "expected two element labels, got '0 b'")),
    ("-1 0\n", (1, "vertex labels must be non-negative"), (1, "element labels must be non-negative")),
    ("n 3\n0 -2\n", (2, "vertex labels must be non-negative"), (2, "element labels must be non-negative")),
    # self-loops and reflexive relations, also through other spellings and
    # before the range check
    ("2 2\n", (1, "self-loop 2 2"), (1, "reflexive relation 2 < 2")),
    ("n 3\n5 5\n", (2, "self-loop 5 5"), (2, "reflexive relation 5 < 5")),
    ("+5 5\n", (1, "self-loop 5 5"), (1, "reflexive relation 5 < 5")),
    ("0 1\n007 7\n", (2, "self-loop 7 7"), (2, "reflexive relation 7 < 7")),
    ("n 3\n1 +1\n", (2, "self-loop 1 1"), (2, "reflexive relation 1 < 1")),
    ("0 1\n1 1\n", (2, "self-loop 1 1"), (2, "reflexive relation 1 < 1")),
    ("n 3\n0 1\n0 < 0\n", (3, "expected two vertex labels, got '0 < 0'"), (3, "reflexive relation 0 < 0")),
    # duplicates in both orientations and spellings
    ("0 1\n0 1\n", (2, "duplicate edge 0 1"), (2, "duplicate relation 0 < 1")),
    ("0 1\n1 0\n", (2, "duplicate edge 1 0"), CYCLE),
    ("n 3\n0 1\n2 1\n1 2\n", (4, "duplicate edge 1 2"), CYCLE),
    ("n 3\n0 1\r\n1 0\r\n", (3, "duplicate edge 1 0"), CYCLE),
    ("1 2\n2 3\n01 2\n", (3, "duplicate edge 1 2"), (3, "duplicate relation 1 < 2")),
    ("n 3\n01 2\n2 1\n", (3, "duplicate edge 2 1"), CYCLE),
    ("n 3\n1 2\n1 +2\n", (3, "duplicate edge 1 2"), (3, "duplicate relation 1 < 2")),
    ("0 < 1\n0 1\n", (1, "expected two vertex labels, got '0 < 1'"), (2, "duplicate relation 0 < 1")),
    # labels outside the declared order
    ("n 3\n0 5\n", (2, "vertex 5 outside declared order 3"), (2, "element 5 outside declared order 3")),
    ("n 3\n0 1\n7 1\n", (3, "vertex 7 outside declared order 3"), (3, "element 7 outside declared order 3")),
    ("n 0\n0 1\n", (2, "vertex 1 outside declared order 0"), (2, "element 1 outside declared order 0")),
    ("n 3\n1 03\n", (2, "vertex 3 outside declared order 3"), (2, "element 3 outside declared order 3")),
    # declared orders whose rows cannot be allocated
    (
        "n 18446744073709551616\n0 1\n",
        (1, "declared order 18446744073709551616 is too large"),
        (1, "declared order 18446744073709551616 is too large"),
    ),
    (
        "n 9223372036854775807\n",
        (1, "declared order 9223372036854775807 is too large"),
        (1, "declared order 9223372036854775807 is too large"),
    ),
    # plain texts, which are read in bulk until a check fails (new rows go
    # last: the id of each row's test carries its position)
    ("n 3\n0 1\n2 2\n", (3, "self-loop 2 2"), (3, "reflexive relation 2 < 2")),
    ("n 3\n0 1\n1 3\n", (3, "vertex 3 outside declared order 3"), (3, "element 3 outside declared order 3")),
    ("n 3\n0 1\n2 1\n0 1\n", (4, "duplicate edge 0 1"), (4, "duplicate relation 0 < 1")),
    ("n 3\n0 1\n2 1\n1 0\n", (4, "duplicate edge 1 0"), CYCLE),
    ("n 3\n1 2\n01 2\n", (3, "duplicate edge 1 2"), (3, "duplicate relation 1 < 2")),
    ("n 3\n0 1\n0 1", (3, "duplicate edge 0 1"), (3, "duplicate relation 0 < 1")),
    ("n 3\n0 1\n1 2", None, None),
    # a duplicate comes before a later line's error, and header-less and
    # ' < ' texts are read in bulk until a check fails
    ("n 3\n0 1\n0 1\nx y\n", (3, "duplicate edge 0 1"), (3, "duplicate relation 0 < 1")),
    ("n 3\n0 1\n0 1\n0 5\n", (3, "duplicate edge 0 1"), (3, "duplicate relation 0 < 1")),
    ("1 2\n3 4\n2 1\n", (3, "duplicate edge 2 1"), CYCLE),
    ("n 3\n0 < 1\n0 < 1\n", (2, "expected two vertex labels, got '0 < 1'"), (3, "duplicate relation 0 < 1")),
    ("0 1\n23", (2, "expected two vertex labels, got '23'"), (2, "expected two element labels, got '23'")),
    # a ' < ' in a header is no header, and two spellings of one label
    # that earlier lines used apart still make a self-loop
    ("n < 5\n0 1\n", (1, "malformed header, expected 'n <order>'"), (1, "malformed header, expected 'n <order>'")),
    ("n < 5\n0 < 1\n", (1, "malformed header, expected 'n <order>'"), (1, "malformed header, expected 'n <order>'")),
    ("n 3\n0 1\n01 2\n1 01\n", (4, "self-loop 1 1"), (4, "reflexive relation 1 < 1")),
    # a label equal to the declared order, read in bulk with shifts
    ("n 100\n0 100\n", (2, "vertex 100 outside declared order 100"), (2, "element 100 outside declared order 100")),
    # lines of labels that earlier lines used still take every check: only
    # 'u v' and 'u < v' are pairs, and '<' is no label
    ("0 1\n0 > 1\n", (2, "expected two vertex labels, got '0 > 1'"), (2, "expected two element labels, got '0 > 1'")),
    (
        "0 1\n2 3\n0 < 1 2\n",
        (3, "expected two vertex labels, got '0 < 1 2'"),
        (3, "expected two element labels, got '0 < 1 2'"),
    ),
    ("0 < 1\n< 1\n", (1, "expected two vertex labels, got '0 < 1'"), (2, "expected two element labels, got '< 1'")),
    ("n 3\n0 -1\n", (2, "vertex labels must be non-negative"), (2, "element labels must be non-negative")),
    # a comment line is not counted when a duplicate's line is found
    ("n 3\n0 1\n#c d\n0 1\n", (4, "duplicate edge 0 1"), (4, "duplicate relation 0 < 1")),
]


def test_row_helpers_finish_on_small_rows(within):
    # Every loop of the row helpers drops what it has read from what is
    # left; one that stopped dropping would run forever, so small rows with
    # known answers go first, each under a time limit.
    assert within(2, lambda: list(iter_bits(0b101101))) == [0, 2, 3, 5]
    assert lowest(0b101000) == 3 and lowest(1) == 0
    p3 = [0b0010, 0b0101, 0b0010, 0b0000]  # the path 0-1-2, and 3 alone
    assert within(2, lambda: mask_components(p3, 0b1111)) == [0b0111, 0b1000]
    assert within(2, lambda: mask_components(p3, 0b1111, co=True)) == [0b1111]
    assert within(2, lambda: mask_components(p3, 0b1101, co=True)) == [0b1101]
    two = [0b0010, 0b0001, 0b1000, 0b0100]  # the edges 0-1 and 2-3
    assert within(2, lambda: mask_components(two, 0b1111)) == [0b0011, 0b1100]
    assert within(2, lambda: mask_components(two, 0b1111, co=True)) == [0b1111]
    assert within(2, lambda: _transpose([0b010, 0b100, 0b001])) == [0b100, 0b001, 0b010]
    assert within(2, lambda: _transpose([1 << 8] + [0] * 8)) == [0] * 8 + [1]
    chain = ((0, 0b001, 0b011), (0b110, 0b100, 0))  # 0 < 1 < 2
    assert within(2, lambda: _closure([0b010, 0b100, 0], "covers")) == chain
    assert within(2, lambda: _closure([0b110, 0b100, 0], "full")) == chain
    with pytest.raises(CycleError):
        within(2, lambda: _closure([0b10, 0b01], "covers"))
    rows, labels, header = within(2, lambda: _read_plain("n 3\n0 1\n2 1\n", False))
    assert (rows, list(labels), header) == ([0b010, 0b101, 0b010], [0, 1, 2], 1)
    rows, labels, header = within(2, lambda: _read_plain("5 < 9\n9 7\n", True))
    assert (rows, list(labels), header) == ([0b100, 0, 0b010], [5, 7, 9], None)


def test_line_reader_pieces_read_as_the_whole_text(monkeypatch, within):
    # The line reader splits the text a piece at a time, cut after a
    # newline: with pieces of a few characters, every prefix of a text with
    # each kind of line break splits as the whole, and every rejected input
    # fails as before.  A cut that stopped moving forward would loop
    # forever, so this test comes first and each split has a time limit.
    text = "n 3\r\n0 1\r\n\n# c\r1  2\x0b\x85 2 0\n\n\n0 1"

    class Spied(str):
        # Keeps each piece that the reader cuts from the text.
        def __getitem__(self, key):
            pieces.append(piece := super().__getitem__(key))
            return piece

    for chunk in (1, 2, 3, 5):
        monkeypatch.setattr(pairtext, "_CHUNK", chunk)
        for end in range(len(text) + 1):
            split = within(2, lambda: list(chain.from_iterable(pairtext._pieces(text[:end]))))
            assert split == text[:end].splitlines()
        # A piece is at most one chunk, or else one line and its newline.
        pieces = []
        within(2, lambda: list(pairtext._pieces(Spied(text))))
        assert all(len(piece) <= chunk or piece.count("\n") <= 1 for piece in pieces)
    for case in REJECTED:
        test_rejected_inputs(*case)


@pytest.mark.parametrize("text, graph_outcome, order_outcome", REJECTED)
def test_rejected_inputs(text, graph_outcome, order_outcome):
    for parse, outcome in ((parse_graph, graph_outcome), (parse_poset, order_outcome)):
        if outcome is None:
            parse(text)
        elif outcome == CYCLE:
            with pytest.raises(CycleError):
                parse(text)
        else:
            line, message = outcome
            with pytest.raises(ParseError) as exc:
                parse(text)
            assert type(exc.value) is ParseError
            assert str(exc.value) == f"line {line}: {message}"
            assert exc.value.line == line


LIMIT_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)()
LONG = "1" + "0" * LIMIT_DIGITS
ZERO_LED = "0" + "1" * LIMIT_DIGITS


@pytest.mark.skipif(not LIMIT_DIGITS, reason="int() has no limit on digits here")
@pytest.mark.parametrize(
    "text, line, what",
    [
        (f"n 5\n0 {LONG}\n", 2, "{noun} label"),
        (f"0 1\n{LONG} 0\n", 2, "{noun} label"),
        (f"{ZERO_LED} 1\n", 1, "{noun} label"),
        (f"n 3\n# c\n0 {ZERO_LED}\n", 3, "{noun} label"),
        (f"n {LONG}\n0 1\n", 1, "declared order"),
        (f"\nn {ZERO_LED}\n", 2, "declared order"),
    ],
    ids=[
        "header",
        "no-header",
        "leading-zero",
        "leading-zero-header",
        "order",
        "leading-zero-order",
    ],
)
def test_labels_beyond_the_digit_limit_name_it(text, line, what):
    # Python refuses to convert more digits than its limit; the message
    # names that limit, and a label at the limit is read.
    for parse, noun in ((parse_graph, "vertex"), (parse_poset, "element")):
        with pytest.raises(ParseError) as exc:
            parse(text)
        message = what.format(noun=noun)
        assert str(exc.value) == f"line {line}: {message} has more than {LIMIT_DIGITS} digits"
        assert parse(f"0 {'9' * LIMIT_DIGITS}\n")[1] == (0, int("9" * LIMIT_DIGITS))


@pytest.mark.skipif(not LIMIT_DIGITS, reason="int() has no limit on digits here")
def test_a_label_at_the_digit_limit_is_not_too_long():
    # Beside a label that is no integer, one of exactly the limit's digits
    # is not the line's fault.
    at_limit = "9" * LIMIT_DIGITS
    for parse, noun in ((parse_graph, "vertex"), (parse_poset, "element")):
        with pytest.raises(ParseError) as exc:
            parse(f"{at_limit} x\n")
        assert str(exc.value) == f"line 1: expected two {noun} labels, got '{at_limit} x'"


@pytest.mark.memory
def test_line_reader_memory_follows_the_labels():
    # One string per line of the whole text costs about eight times the
    # text for lines of eight characters; the line reader holds the flat
    # labels (two pointers a line) and one 64 KiB piece's lines.
    n = 360
    text = f"n {n}\n" + "".join(f"{u} {v}\n" for u in range(n) for v in range(u + 1, n)) + "#\n"
    tracemalloc.start()
    try:
        g, _ = parse_graph(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.edge_count() == n * (n - 1) // 2
    assert peak < 5 * len(text)


LIMIT = 500 * 2**20


def run_limited(args, timeout=120):
    """Run ``python *args`` from the source tree with at most LIMIT bytes of
    address space."""
    resource = pytest.importorskip("resource")
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        cwd=Path(cosp.__file__).parents[1],
        timeout=timeout,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (LIMIT, LIMIT)),
    )


@pytest.mark.memory
@pytest.mark.parametrize(
    "command, text",
    [
        (["check"], "n 30000000\n0 1\n"),
        (["cotree"], "n 30000000\n0 1\n"),
        (["poset", "nfree"], "n 30000000\n0 < 1\n"),
        (["poset", "nfree"], "n 15000000\n0 < 1\n"),
    ],
)
def test_header_beyond_memory_is_a_parse_error(tmp_path, command, text):
    # The rows a 15M or 30M header asks for fit in 500 MB, the arrays built
    # from them do not: the failed allocation is reported against the header.
    path = tmp_path / "big.txt"
    path.write_text(text)
    proc = run_limited(["-m", "cosp.cli", command[0], str(path), *command[1:]])
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == f"line 1: declared order {text.split()[1]} is too large\n"


@pytest.mark.parametrize("text, line", [("n 3\n0 1\n", 1), ("# c\nn 3\n0 1\n", 2), ("0 1\n", None)])
def test_a_failed_build_names_the_header(text, line):
    # The test above runs out of memory for real, in a process of its own;
    # here the build fails at once.  The plain reader and the line reader
    # each give the header's line, and without a header the error stands.
    def build(rows):
        raise MemoryError

    if line is None:
        with pytest.raises(MemoryError):
            _read_pairs(text, False, build)
        return
    with pytest.raises(ParseError) as exc:
        _read_pairs(text, False, build)
    assert (exc.value.line, str(exc.value)) == (line, f"line {line}: declared order 3 is too large")


@pytest.mark.memory
def test_closure_beyond_memory_fails_before_any_pass_over_the_rows():
    # The rows and in-degrees of 15M elements fit in 500 MB, the Kahn
    # queue's 15M ids do not: it is made before the transpose reads a row.
    script = (
        "import cosp.rows\n"
        "calls = []\n"
        "transpose = cosp.rows._transpose\n"
        "cosp.rows._transpose = lambda *args: calls.append(1) or transpose(*args)\n"
        "try:\n"
        "    cosp.rows._closure([0] * 15_000_000, 'covers')\n"
        "except MemoryError:\n"
        "    print('MemoryError', len(calls))\n"
    )
    proc = run_limited(["-c", script])
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "MemoryError 0\n", "")


def test_large_header_over_a_short_plain_text_keeps_the_shifts(tmp_path):
    # A table of 1 << v for v < 200000 would take 2.5 GB: a plain text this
    # short must be read with shifts.  The parsers run as check and
    # poset ... nfree call them (both commands then run out of memory in the
    # decomposition, whose 200000 singleton masks take as much).
    path = tmp_path / "sparse.txt"
    path.write_text("n 200000\n0 1\n2 3\n1 3\n")
    script = (
        "import sys\n"
        "from cosp import parse_graph, parse_poset\n"
        "from cosp.rows import _read_plain\n"
        "text = open(sys.argv[1]).read()\n"
        "assert _read_plain(text, False) is not None\n"
        "g, _ = parse_graph(text)\n"
        "p, _ = parse_poset(text, mode='covers')\n"
        "print(g.order, g.edge_count(), p.order, len(p.relations()))\n"
    )
    proc = run_limited(["-c", script, str(path)])
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "200000 3 200000 4\n", "")


def test_label_far_out_of_range_is_never_shifted():
    # Read with shifts, a label of 10**8 would make a 12 MB int before the
    # rows could show it: the bulk read checks each chunk's largest label.
    text = "n 300\n0 1\n0 100000000\n"
    tracemalloc.start()
    try:
        assert _read_plain(text, False) is None and _read_plain(text, True) is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    with pytest.raises(ParseError, match="^line 3: vertex 100000000 outside declared order 300$"):
        parse_graph(text)


def test_header_less_labels_are_relabelled_before_any_shift():
    # A shift by a raw label of 10**100 would not fit in memory: a
    # header-less plain text maps its labels to 0..k-1 before any row bit.
    big = 10**100
    text = f"0 {big}\n3 {big}\n0 3\n3 7\n"
    tracemalloc.start()
    try:
        assert _read_plain(text, False) is not None and _read_plain(text, True) is not None
        graph, order = parse_graph(text), parse_poset(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    pairs = [(0, 3), (1, 3), (0, 1), (1, 2)]
    assert graph == (Graph.from_edges(4, pairs), (0, 3, 7, big))
    assert order == (Poset.from_relations(4, pairs), (0, 3, 7, big))


def test_written_labels_must_be_distinct_and_each_in_a_pair():
    # Text with labels has no header, so a repeated label would merge two
    # ids and an id in no pair would be lost.
    graph = Graph.from_edges(3, [(0, 1)])
    order = Poset.from_relations(3, [(0, 1)])
    cases = [
        (format_graph, graph, (7, 7, 9), "labels must be distinct, one per vertex"),
        (format_graph, graph, (7, 8), "labels must be distinct, one per vertex"),
        (format_graph, graph, (7, 8, 9), "vertex 9 has no edges and no header can declare it"),
        (format_poset, order, (7, 7, 9), "labels must be distinct, one per element"),
        (format_poset, order, (7, 8), "labels must be distinct, one per element"),
        (format_poset, order, (7, 8, 9), "element 9 occurs in no relation and no header can declare it"),
    ]
    for write, obj, labels, message in cases:
        with pytest.raises(ValueError) as info:
            write(obj, labels)
        assert str(info.value) == message


def edges_by_label(text):
    g, labels = parse_graph(text)
    return labels, sorted(tuple(sorted((labels[u], labels[v]))) for u, v in g.edges())


def relations_by_label(text):
    p, labels = parse_poset(text)
    return labels, sorted((labels[u], labels[v]) for u, v in p.relations())


def test_accepted_oddities():
    assert edges_by_label("n 3\r\n0 1\r\n1 2\r\n") == ((0, 1, 2), [(0, 1), (1, 2)])
    assert edges_by_label("#one\n# two tokens\n\n  \t\nn 3\n#x y\n 2\t 0 \n\n") == (
        (0, 1, 2),
        [(0, 2)],
    )
    assert edges_by_label("n 03\n1 2\n") == ((0, 1, 2), [(1, 2)])
    assert edges_by_label("+5 3\n007 3\n1_0 5\n") == ((3, 5, 7, 10), [(3, 5), (3, 7), (5, 10)])
    assert edges_by_label("n 11\n+5 3\n007 3\n1_0 5\n") == (
        tuple(range(11)),
        [(3, 5), (3, 7), (5, 10)],
    )
    big = 2**64
    assert edges_by_label(f"{big + 1} 3\n{big} {big + 1}\n") == (
        (3, big, big + 1),
        [(3, big + 1), (big, big + 1)],
    )
    assert relations_by_label("0 < 1\n1   <\t2\n") == ((0, 1, 2), [(0, 1), (0, 2), (1, 2)])
    assert relations_by_label("\r\n# c\n+9 < 007\n7 2\n") == ((2, 7, 9), [(7, 2), (9, 2), (9, 7)])
    assert relations_by_label(f"n 2\n# {big}\n1 0\n") == ((0, 1), [(1, 0)])
    assert relations_by_label(f"{big} < 5\n") == ((5, big), [(big, 5)])
    assert parse_graph("") == (Graph(()), ())
    assert parse_poset("# nothing\n") == (Poset((), ()), ())


MAX_ORDER = 14
SETTINGS = settings(max_examples=200, derandomize=True, deadline=None)

# Ways to write a label, and fillers that carry no pairs.
SPELLINGS = (str, lambda x: f"+{x}", lambda x: f"00{x}")
FILLERS = ("", "   ", "\t", "#", "# a comment", "#0 1", "  # 2 3 4")


@st.composite
def written(draw, ordered):
    """A random graph or order over 0..n-1, and a file that writes it in
    shuffled lines under sparse labels (or, with a header, dense ones) with
    flipped edges, mixed spellings, comments, blank lines and extra
    whitespace.  Returns the structure, the label of each id, whether the
    file has a header, and the text."""
    n = draw(st.integers(0, MAX_ORDER))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = sorted(draw(st.sets(st.sampled_from(pairs)))) if pairs else []
    if ordered:
        perm = draw(st.permutations(range(n)))
        chosen = [(perm[u], perm[v]) for u, v in chosen]
        structure = Poset.from_relations(n, chosen)
    else:
        structure = Graph.from_edges(n, chosen)
    header = draw(st.booleans())
    if header:
        label = list(range(n))
    else:
        big = st.integers(0, 2**70)
        label = draw(st.lists(big, min_size=n, max_size=n, unique=True))
    lines = []
    for u, v in draw(st.permutations(chosen)):
        if not ordered and draw(st.booleans()):
            u, v = v, u
        a, b = (draw(st.sampled_from(SPELLINGS))(label[x]) for x in (u, v))
        sep = draw(st.sampled_from((" ", "\t", "  ", " < ", "\t<  ") if ordered else (" ", "\t", "  ")))
        pad = draw(st.sampled_from(("", " ", "\t ")))
        lines.append(f"{pad}{a}{sep}{b}{pad}")
    for _ in range(draw(st.integers(0, 4))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(FILLERS)))
    if header:
        lines[:0] = draw(st.lists(st.sampled_from(FILLERS), max_size=2)) + [f"n {n}"]
    end = draw(st.sampled_from(("\n", "\r\n")))
    return structure, label, header, end.join(lines) + end


def expected_labels(masks, label, header):
    """Every id under a header; else the labels of the ids in some pair, sorted."""
    if header:
        return tuple(label)
    return tuple(sorted(label[v] for v, m in enumerate(masks) if m))


@SETTINGS
@given(written(ordered=False))
def test_random_graph_files(case):
    g, label, header, text = case
    parsed, labels = parse_graph(text)
    assert labels == expected_labels(g.adj, label, header)
    vertex = {lab: v for v, lab in enumerate(label)}
    back = [vertex[lab] for lab in labels]
    for i in range(parsed.order):
        for j in range(parsed.order):
            assert parsed.adj[i] >> j & 1 == g.adj[back[i]] >> back[j] & 1


@SETTINGS
@given(written(ordered=True))
def test_random_order_files(case):
    p, label, header, text = case
    parsed, labels = parse_poset(text)
    assert labels == expected_labels(p.comparability_masks(), label, header)
    element = {lab: v for v, lab in enumerate(label)}
    back = [element[lab] for lab in labels]
    for i in range(parsed.order):
        assert parsed.below[i] == sum(1 << j for j in range(parsed.order) if p.less(back[j], back[i]))


def dense(text):
    """Whether the bulk read of a plain text takes its single-bit masks from
    a table, which it does when n squared is at most the length of the
    text: n is the header's order, or else the number of labels."""
    head = text[: text.find("\n")]
    n = int(head[2:]) if head[:2] == "n " else len(set(text.replace("<", "").split()))
    return n * n <= len(text)


def far_apart(declared):
    """A plain text ``0 1``, then every pair of 2..299: more than 128 KiB
    lies between its first line and a line appended to it."""
    middle = "".join(f"{u} {v}\n" for u in range(2, 300) for v in range(u + 1, 300))
    assert len(middle) > 2 * 2**16
    return f"n {declared}\n0 1\n{middle}"


def test_far_apart_duplicate_names_its_line():
    # The two copies of 0 1 sit in different 64 KiB chunks of a plain text:
    # the bulk read sees too few row bits and the line reader names the line.
    clean = far_apart(300)
    assert _read_plain(clean, False) is not None and _read_plain(clean, True) is not None
    line = clean.count("\n") + 1
    for parse, message in ((parse_graph, "duplicate edge 0 1"), (parse_poset, "duplicate relation 0 < 1")):
        with pytest.raises(ParseError) as exc:
            parse(clean + "0 1\n")
        assert str(exc.value) == f"line {line}: {message}"


@pytest.mark.parametrize("declared", [300, 1000], ids=["dense", "sparse"])
def test_far_apart_flipped_duplicate(declared):
    # 0 1, and 1 0 more than 128 KiB later: a graph's rows miss a bit only
    # once the transpose is ORed in, and the line reader names the line; an
    # order holds both pairs and has the cycle the line reader finds.
    clean = far_apart(declared)
    assert dense(clean) == (declared == 300)
    assert _read_plain(clean, False) is not None and _read_plain(clean, True) is not None
    text = clean + "1 0\n"
    line = clean.count("\n") + 1
    assert outcome(parse_graph, text) == (ParseError, f"line {line}: duplicate edge 1 0")
    assert _read_plain(text, True) is not None
    cycle = outcome(parse_poset, text)
    assert cycle[0] is CycleError and cycle == outcome(parse_poset, text + "#\n")


@pytest.mark.parametrize("n", [0, 1, 64, 65])
@pytest.mark.parametrize(
    "digits", [None, 200, 50], ids=["one-block", "blocks-of-3", "blocks-of-1"]
)
def test_transpose(monkeypatch, n, digits):
    # Dense rows (more than one bit in eight set) go through digit strings,
    # in blocks of ``_DIGITS // n`` rows, and of one row when ``_DIGITS``
    # is below n; sparse ones are walked bit by bit.  Both must match the
    # definition.
    if digits is not None:
        monkeypatch.setattr(cosp.rows, "_DIGITS", digits)
    rng = random.Random(n)
    routes = set()
    for _ in range(20):
        density = rng.choice((0.02, 0.5))
        rows = [sum(1 << j for j in range(n) if rng.random() < density) for _ in range(n)]
        routes.add(sum(map(int.bit_count, rows)) * 8 > n * n)
        want = [sum((rows[i] >> j & 1) << i for i in range(n)) for j in range(n)]
        assert _transpose(rows) == want
    assert routes == ({False} if n == 0 else {False, True})


PLAIN_ORDER = 40


@st.composite
def plain(draw, ordered, is_dense):
    """A random graph or order, its label table and its plain text: an
    optional header, then one line per pair in shuffled order, graph edges
    flipped at random, and in some order texts ``u < v`` on some lines.  A
    dense text holds at least three quarters of the pairs over 0..n-1,
    enough for n*n to fit in its length.  Under a header the labels are
    the ids, and a sparse text holds any of the pairs under a header
    100-199 larger than n.  Without one the labels are the ids, or 2v+1,
    or (when dense) random labels up to 2**62, and a sparse text is a
    matching of at least two pairs."""
    header = draw(st.booleans())
    less = ordered and draw(st.booleans())
    n = draw(st.integers(0 if is_dense or header else 4, PLAIN_ORDER))
    rnd = random.Random(draw(st.integers(0, 2**32 - 1)))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    if is_dense:
        chosen = rnd.sample(pairs, len(pairs) - rnd.randint(0, len(pairs) // 4))
    elif header:
        chosen = rnd.sample(pairs, rnd.randint(0, len(pairs)))
    else:
        shuffled = rnd.sample(range(n), n)
        chosen = list(zip(shuffled[::2], shuffled[1::2]))
    if ordered:
        perm = rnd.sample(range(n), n)
        chosen = [(perm[u], perm[v]) for u, v in chosen]
    else:
        chosen = [(v, u) if rnd.getrandbits(1) else (u, v) for u, v in chosen]
    if header:
        declared = n + (0 if is_dense else rnd.randint(100, 199))
        label = used = range(declared)
        text = f"n {declared}\n"
    else:
        labelings = [range(n), [2 * v + 1 for v in range(n)]]
        if is_dense:
            labelings.append(rnd.sample(range(2**62), n))
        label = rnd.choice(labelings)
        used = sorted({v for pair in chosen for v in pair}, key=label.__getitem__)
        text = ""
    for u, v in chosen:
        text += f"{label[u]}{' < ' if less and rnd.getrandbits(1) else ' '}{label[v]}\n"
    index = {v: i for i, v in enumerate(used)}
    ids = [(index[u], index[v]) for u, v in chosen]
    structure = Poset.from_relations(len(used), ids) if ordered else Graph.from_edges(len(used), ids)
    return structure, tuple(label[v] for v in used), text


# Edits of a plain text: each keeps it plain-looking or breaks one rule.
FAULTS = (
    "none",
    "repeat a line",
    "repeat a line flipped",
    "self-loop",
    "label out of range",
    "leading zero",
    "no final newline",
    "tab",
    "two spaces",
    "carriage return",
    "plus sign",
    "comment line",
    "blank line",
    "one label",
    "three labels",
)


def inject(draw, text, fault):
    lines = text.split("\n")[:-1]
    head = lines[:1] if text[:2] == "n " else []
    del lines[: len(head)]
    # Past the header's order, or else past every label in use.
    n = int(head[0][2:]) if head else max(map(int, text.replace("<", "").split()), default=-1) + 1
    at = draw(st.integers(0, len(lines)))
    pick = lines[draw(st.integers(0, len(lines) - 1))] if lines else "0 1"
    u, *_, v = pick.split()
    big = n + draw(st.integers(0, 2))
    edits = {
        "repeat a line": [pick],
        "repeat a line flipped": [f"{v} {u}"],
        "self-loop": [f"{u} {u}"],
        "label out of range": [draw(st.sampled_from((f"{u} {big}", f"{big} {v}")))],
        "leading zero": [f"0{u} {v}"],
        "tab": [f"{u}\t{v}"],
        "two spaces": [f"{u}  {v}"],
        "carriage return": [f"{u} {v}\r"],
        "plus sign": [f"+{u} {v}"],
        "comment line": ["# c"],
        "blank line": [""],
        "one label": [u],
        "three labels": [f"{u} {v} {u}"],
    }
    lines[at:at] = edits.get(fault, [])
    end = "" if fault == "no final newline" else "\n"
    return "\n".join([*head, *lines]) + end


def outcome(parse, text):
    try:
        return parse(text)
    except (ParseError, CycleError) as exc:
        return type(exc), str(exc)


@SETTINGS
@given(plain(False, is_dense=True), plain(False, is_dense=False))
def test_plain_graph_files(dense_case, sparse_case):
    for is_dense, (g, labels, text) in ((True, dense_case), (False, sparse_case)):
        assert dense(text) == is_dense
        assert _read_plain(text, False) is not None
        assert parse_graph(text) == (g, labels)


@SETTINGS
@given(plain(True, is_dense=True), plain(True, is_dense=False))
def test_plain_order_files(dense_case, sparse_case):
    for is_dense, (p, labels, text) in ((True, dense_case), (False, sparse_case)):
        assert dense(text) == is_dense
        assert _read_plain(text, True) is not None
        assert parse_poset(text) == (p, labels)


def less_lines(text):
    """An order's text with every pair line written ``u < v``."""
    lines = text.replace(" < ", " ").split("\n")
    return "\n".join(line if line[:2] == "n " else line.replace(" ", " < ") for line in lines)


# Copies of a plain text that say the same in other spellings; an order's
# text has one more, less_lines.
COPIES = (
    lambda text: text.replace("\n", "\r\n"),
    lambda text: "# c\n" + text,
    lambda text: text.replace(" ", "  "),
)


@SETTINGS
@given(st.booleans(), st.booleans(), st.data())
def test_spelled_copies_read_as_the_plain_text(ordered, is_dense, data):
    # The bulk read of a plain text and the line reader's read of each copy
    # give the same rows and labels (a comment line moves the header).
    _, _, text = data.draw(plain(ordered, is_dense))
    rows, labels, _ = _read_plain(text, ordered)
    for copy in COPIES + (less_lines,) * ordered:
        again, relabels, _ = pairtext._read_lines(copy(text), ordered)
        assert (again, tuple(relabels)) == (rows, tuple(labels))


@SETTINGS
@given(st.booleans(), st.sampled_from(FAULTS), st.data())
def test_bulk_read_agrees_with_the_line_reader(ordered, fault, data):
    # Each fault goes into a dense and a sparse text, with or without a
    # header.  A last line '#' makes any text one that only the line
    # reader reads.
    parse = parse_poset if ordered else parse_graph
    for is_dense in (True, False):
        _, _, text = data.draw(plain(ordered, is_dense))
        text = inject(data.draw, text, fault)
        assert outcome(parse, text) == outcome(parse, text + "\n#")
