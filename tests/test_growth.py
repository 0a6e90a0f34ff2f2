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
same way, on counted ``below`` and ``above`` rows.
"""

import functools
import random
import tracemalloc

import pytest

from cosp import Poset, is_nfree, parity_split_graph
from cosp.engine import tree_signature
from cosp.rows import _closure, iter_bits
from cosp.trees import parity_orientation, spider_graph

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
    pytest.param("apex-spiders", "reads", marks=waits(5, "the join check reads the wide side")),
    pytest.param("apex-spiders", "words", marks=waits(5, "the join check reads the wide side")),
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
