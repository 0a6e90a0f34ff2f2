"""How the engine's cost grows with n, pinned by counts instead of clocks.

Each family runs the engine at n and at 2n on rows that count what is read
from them: the rows read through indexing, and the 64-bit words those rows
hold.  Per doubling of the input, the rows read may grow by at most
``READS`` times, and the words by at most ``OVER_INPUT`` times the growth
of the input itself (n + edges for a graph, n + covers for an order).  A
count does not depend on the machine or its load, so the bounds can be
tight.  A header over isolated vertices reads almost no rows, so its
measure is the engine's traced memory peak, under the words' bound.

A family and measure that grow faster today is a strict xfail naming the
ROADMAP item that is to bring it down: 5 (ids that hide the vertex a
search should peel), 7 (orders decided through their closure) or 2 (many
vertices and few edges).  The change that fixes one must remove its mark.

The library's own N-free criterion (:func:`cosp.is_nfree`) is pinned the
same way, on counted ``below`` and ``above`` rows.  Last, whole requests
(``check``, ``cotree``, ``poset ... nfree|sptree``) through
:func:`cosp.cli.main` are pinned by their traced memory peak, which may
grow at most ``PEAK_OVER_INPUT`` times as fast as n + pairs of their
text, on the same strict-xfail terms.
"""

import contextlib
import functools
import io
import random
import tracemalloc

import pytest

from cosp import Graph, Poset, cli, format_graph, format_poset, is_nfree, parity_split_graph
from cosp import cotree_to_graph, sp_tree_to_poset
from cosp.engine import tree_signature
from cosp.rows import _closure, iter_bits
from cosp.trees import parity_orientation, rand_cotree, rand_gnp, rand_sptree, spider_graph

READS = 2.3
OVER_INPUT = 1.25


class Counted(list):
    """Rows that count, in ``tally``, the rows read by indexing and the
    64-bit words those rows hold."""

    def __init__(self, rows, tally):
        super().__init__(rows)
        self.tally = tally

    def __getitem__(self, i):
        row = super().__getitem__(i)
        self.tally["reads"] += 1
        self.tally["words"] += (row.bit_length() + 63) // 64
        return row


def relabel(adj, seed):
    """The rows of the same graph with its ids permuted by ``seed``."""
    ids = list(range(len(adj)))
    random.Random(seed).shuffle(ids)
    out = [0] * len(adj)
    for v, row in enumerate(adj):
        out[ids[v]] = sum(1 << ids[u] for u in iter_bits(row))
    return out


def graph(adj):
    """Run the cograph engine on counted rows: n + edges, and the counts."""
    tally = {"reads": 0, "words": 0}
    tree_signature(Counted(adj, tally))
    return len(adj) + sum(map(int.bit_count, adj)) // 2, tally


def order(p, tally=None):
    """Run the order engine on counted comparability and below rows, adding
    to ``tally`` when given: n + covers, and the counts."""
    tally = tally or {"reads": 0, "words": 0}
    comp = [b | a for b, a in zip(p.below, p.above)]
    tree_signature(Counted(comp, tally), Counted(p.below, tally))
    return p.order + len(p.covers()), tally


def chain_covers(n: int):
    """A chain given by its covers, closed on counted successor rows, then
    run as an order."""
    tally = {"reads": 0, "words": 0}
    succ = [1 << v + 1 for v in range(n - 1)] + [0]
    return order(Poset(*_closure(Counted(succ, tally), "covers")), tally)


def isolated_peak(n: int):
    """``n N`` and one edge: the traced peak of the cograph engine."""
    adj = [0] * n
    adj[0], adj[1] = 2, 1
    tracemalloc.start()
    try:
        tree_signature(adj)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return n + 1, {"peak": peak}


# family: (n, run(n) -> (input size, counts)).
FAMILIES = {
    "windows": (1000, lambda n: graph(list(parity_split_graph(n).adj))),
    "windows-shuffled": (500, lambda n: graph(relabel(parity_split_graph(n).adj, 1))),
    "orientations": (500, lambda n: order(parity_orientation(n))),
    "thin-spiders": (500, lambda k: graph(spider_graph(k).adj)),
    "apex-spiders": (500, lambda k: graph(spider_graph(k, apex=True).adj)),
    "chain-covers": (1000, chain_covers),
    "isolated": (4000, isolated_peak),
}


def waits(item: int, why: str):
    return pytest.mark.xfail(strict=True, reason=f"ROADMAP item {item}: {why}")


CASES = [
    pytest.param("windows", "reads"),
    pytest.param("windows", "words"),
    pytest.param(
        "windows-shuffled", "reads", marks=waits(5, "each search starts at the lowest id")
    ),
    pytest.param(
        "windows-shuffled", "words", marks=waits(5, "each search starts at the lowest id")
    ),
    pytest.param("orientations", "reads"),
    pytest.param(
        "orientations", "words", marks=waits(7, "comparability rows are n bits, not covers")
    ),
    pytest.param("thin-spiders", "reads"),
    pytest.param("thin-spiders", "words"),
    pytest.param("apex-spiders", "reads"),
    pytest.param("apex-spiders", "words"),
    pytest.param("chain-covers", "reads"),
    pytest.param("chain-covers", "words", marks=waits(7, "the closure of a chain is n²/2 bits")),
    pytest.param("isolated", "peak", marks=waits(2, "every singleton part is an n-bit mask")),
]


@functools.cache
def growth(family: str) -> tuple[float, dict[str, float]]:
    """How much the input and each count grow from n to 2n; each family
    runs once, for all of its measures."""
    n, run = FAMILIES[family]
    (size, counts), (size2, counts2) = run(n), run(2 * n)
    return size2 / size, {measure: counts2[measure] / counts[measure] for measure in counts}


@pytest.mark.parametrize("family, measure", CASES)
def test_cost_grows_with_the_input(family, measure):
    inputs, grew = growth(family)
    bound = READS if measure == "reads" else OVER_INPUT * inputs
    assert grew[measure] <= bound, f"{measure} grew {grew[measure]:.2f}x, the input {inputs:.2f}x"


# In the window's orientation each element's incomparables hold one block of
# more than one element, n/2 elements wide on average: about n²/2 member rows
# to read, 4x per doubling.
NFREE_READS = 4.6


def nfree_reads(p):
    """``is_nfree`` on the order p, read through counted ``below`` and
    ``above`` rows: the rows read."""
    tally = {"reads": 0, "words": 0}
    assert is_nfree(Poset(Counted(p.below, tally), Counted(p.above, tally)))
    return tally["reads"]


def test_the_nfree_criterion_reads_rows_quadratic_in_n():
    grew = nfree_reads(parity_orientation(200)) / nfree_reads(parity_orientation(100))
    assert grew <= NFREE_READS, f"rows read grew {grew:.2f}x"


def test_the_nfree_criterion_builds_the_comparability_rows_once(monkeypatch):
    calls = []
    masks = Poset.comparability_masks
    monkeypatch.setattr(Poset, "comparability_masks", lambda p: calls.append(p) or masks(p))
    assert is_nfree(parity_orientation(40))
    assert len(calls) == 1


# === whole requests ===

PEAK_OVER_INPUT = 1.25

def chain_text(n: int) -> str:
    return f"n {n}\n" + "".join(f"{u} {u + 1}\n" for u in range(n - 1))


def shuffled_window_text(n: int) -> str:
    return format_graph(Graph(tuple(relabel(parity_split_graph(n).adj, 1))))


def sp_order_text(n: int, mode: str = "covers") -> str:
    return format_poset(sp_tree_to_poset(rand_sptree(n, 1)), mode=mode)


# family: (n, text(n), side).  The sparse families are the inputs of ROADMAP
# items 2 and 7, at 3,000 and 6,000 ids, and the random sp-order, given by
# its covers as gen writes it, runs at 2,000 and 4,000 elements, where its
# comparability rows outgrow its covers clearly; the dense families, the
# passing controls among them, run at 200 and 400, so that the whole test
# takes about 15 s.
REQUESTS = {
    "matching": (3000, lambda n: "".join(f"{u} {u + 1}\n" for u in range(0, n, 2)), "graph"),
    "star-at-top": (3000, lambda n: "".join(f"{u} {n - 1}\n" for u in range(n - 1)), "graph"),
    "isolated": (3000, lambda n: f"n {n}\n0 1\n", "graph"),
    "antichain": (3000, lambda n: f"n {n}\n", "order"),
    "chain-covers": (3000, chain_text, "order"),
    "windows-shuffled": (200, shuffled_window_text, "graph"),
    "apex-spiders": (200, lambda k: format_graph(spider_graph(k, apex=True)), "graph"),
    "random-cotree": (200, lambda n: format_graph(cotree_to_graph(rand_cotree(n, 1))), "graph"),
    "windows": (200, lambda n: format_graph(parity_split_graph(n)), "graph"),
    "random-sp-order": (2000, sp_order_text, "order"),
    "random-sp-order-closed": (200, lambda n: sp_order_text(n, "full"), "order"),
    "gnp": (200, lambda n: format_graph(rand_gnp(n, 0.5, 1)), "graph"),
}
COMMANDS = {"graph": (("check",), ("cotree",)), "order": (("poset", "nfree"), ("poset", "sptree"))}
ITEM_2 = "every singleton part and every row is as wide as the highest id"
OVER = {
    "matching": waits(2, ITEM_2),
    "star-at-top": waits(2, ITEM_2),
    "isolated": waits(2, ITEM_2),
    "antichain": waits(2, ITEM_2),
    "chain-covers": waits(7, "the closure of a chain is n²/2 bits"),
    "random-sp-order": waits(7, "comparability rows are n bits, not covers"),
}


def input_size(text: str) -> int:
    """n + pairs of a plain text: its declared order, or else its labels,
    and its lines that hold a pair."""
    lines = text.splitlines()
    if text[:2] == "n ":
        return int(lines[0][2:]) + len(lines) - 1
    return len(set(text.split())) + len(lines)


def request_peak(path, command, text):
    """The traced memory peak of one request on ``text`` through
    :func:`cosp.cli.main`, which must answer it with exit 0 or 1."""
    path.write_text(text)
    argv = [command[0], str(path), *command[1:]]
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code in (0, 1)
    return peak


@pytest.mark.memory
@pytest.mark.parametrize(
    "family, command",
    [
        pytest.param(family, command, marks=OVER.get(family, ()), id=f"{family}-{command[-1]}")
        for family, (_, _, side) in REQUESTS.items()
        for command in COMMANDS[side]
    ],
)
def test_request_memory_grows_with_the_input(tmp_path, family, command):
    n, text, _ = REQUESTS[family]
    small, large = text(n), text(2 * n)
    inputs = input_size(large) / input_size(small)
    path = tmp_path / "input.txt"
    grew = request_peak(path, command, large) / request_peak(path, command, small)
    assert grew <= PEAK_OVER_INPUT * inputs, f"the peak grew {grew:.2f}x, n + pairs {inputs:.2f}x"
