"""Strict partial orders: closure, validation, chains, and the text format."""

import itertools
import subprocess
import sys
from pathlib import Path

import pytest

import cosp
from cosp import CycleError, Poset, format_poset, is_nfree, parse_poset
from cosp.oracles import enumerate_posets
from cosp.rows import iter_bits, lowest
from cosp.trees import parity_orientation, rand_poset, rand_sptree, sp_tree_to_poset

# The orders most tests use, given by their closed rows (below, above), so
# that importing this module runs no closure; the first test closes their
# covers.  Covers 0<1, 2<1, 2<3: the order whose diagram draws the letter N.
N_POSET = Poset((0, 0b0101, 0, 0b0100), (0b0010, 0, 0b1010, 0))
CHAIN3 = Poset((0, 0b001, 0b011), (0b110, 0b100, 0))
ANTICHAIN3 = Poset((0, 0, 0), (0, 0, 0))
DIAMOND4 = Poset((0, 0b0001, 0b0001, 0b0111), (0b1110, 0b1000, 0b1000, 0))
COVERS = [
    (N_POSET, [(0, 1), (2, 1), (2, 3)]),
    (CHAIN3, [(0, 1), (1, 2)]),
    (ANTICHAIN3, []),
    (DIAMOND4, [(0, 1), (0, 2), (1, 3), (2, 3)]),
]


def closure_by_paths(n, pairs):
    """Reference closure: u < v iff a directed path joins them."""
    reach = {u: {v for a, v in pairs if a == u} for u in range(n)}
    changed = True
    while changed:
        changed = False
        for u in range(n):
            extra = set()
            for v in reach[u]:
                extra |= reach[v]
            if not extra <= reach[u]:
                reach[u] |= extra
                changed = True
    return {(u, v) for u in range(n) for v in reach[u]}


def test_the_cover_walk_ends_on_rows_that_are_not_an_order(within):
    # A record's rows are not checked when it is made.  On symmetric rows the
    # walk down ``below`` comes back up, and on reflexive ones it stays put;
    # each step drops the element it leaves, so the walk still ends.
    triangle = (0b110, 0b101, 0b011)
    full = (0b111, 0b111, 0b111)
    for rows in (triangle, full):
        q = Poset(rows, rows)
        within(2, q.covers)
        within(2, lambda: format_poset(q))


def test_the_orders_close_from_their_covers(within):
    # The closure's walks drop what they reached from what is left; one
    # that stopped dropping would loop forever, hence the time limit.
    for p, covers in COVERS:
        assert within(2, lambda: Poset.from_relations(p.order, covers)) == p


def test_cover_and_chain_walks_finish(within):
    # Each step of the cover walk and of the chain's growth drops what it
    # picked from what is left; a step that dropped nothing would loop
    # forever, so small orders and their duals go first, under a limit.
    for p in (CHAIN3, N_POSET, DIAMOND4):
        for q in (p, Poset(p.above, p.below)):
            assert within(2, q.covers) == hasse(q)
            for x in range(q.order):
                chain = within(2, lambda: q.maximal_chain(x)).elements
                assert x in chain and all(map(q.less, chain, chain[1:]))


def test_from_relations_closure():
    assert CHAIN3.relations() == [(0, 1), (0, 2), (1, 2)]
    assert N_POSET.relations() == [(0, 1), (2, 1), (2, 3)]
    assert DIAMOND4.relations() == [
        (0, 1),
        (0, 2),
        (0, 3),
        (1, 3),
        (2, 3),
    ]


def test_closure_matches_path_reachability():
    pair_sets = [
        [(0, 1), (1, 2), (3, 1)],
        [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)],
        [(4, 3), (3, 2), (2, 1), (1, 0)],
    ]
    for pairs in pair_sets:
        n = max(max(p) for p in pairs) + 1
        p = Poset.from_relations(n, pairs)
        got = {(u, v) for u in range(n) for v in range(n) if u != v and p.less(u, v)}
        assert got == closure_by_paths(n, pairs)


def test_cycle_rejected():
    with pytest.raises(CycleError):
        Poset.from_relations(2, [(0, 1), (1, 0)])
    with pytest.raises(CycleError) as exc:
        Poset.from_relations(3, [(0, 1), (1, 2), (2, 0)])
    assert exc.value.pair is not None


def test_from_relations_rejects_bad_pairs():
    with pytest.raises(ValueError):
        Poset.from_relations(2, [(0, 0)])
    with pytest.raises(ValueError):
        Poset.from_relations(2, [(0, 2)])
    for pair in ((2, 0), (-1, 0), (0, -1)):
        with pytest.raises(ValueError, match=rf"^relation \({pair[0]}, {pair[1]}\) out of range"):
            Poset.from_relations(2, [pair])
    with pytest.raises(ValueError, match=r"^order must be non-negative$"):
        Poset.from_relations(-1, [])


def test_full_mode_requires_closure():
    Poset.from_relations(3, [(0, 1), (1, 2), (0, 2)], mode="full")
    with pytest.raises(ValueError):
        Poset.from_relations(3, [(0, 1), (1, 2)], mode="full")


def test_validate_invariants():
    for p in (N_POSET, CHAIN3, ANTICHAIN3, DIAMOND4):
        p.validate()


@pytest.mark.parametrize(
    "below, above, message",
    [
        ((0,), (), "below/above length mismatch"),
        ((0b10,), (0,), "element mask of 0 out of range"),
        ((0b1,), (0,), "reflexive entry at element 0"),
        ((0, 0b10), (0, 0), "reflexive entry at element 1"),
        ((0, 0), (0, 0b10), "reflexive entry at element 1"),
        ((0b10, 0), (0b10, 0), "element 0 both below and above another"),
        ((0, 0b1, 0b10), (0b10, 0b100, 0), "transitivity violated below 2"),
        ((0, 0b1), (0, 0), "duality violated for 0 < 1"),
        ((0, 0), (0b10, 0), "duality violated for 0 < 1"),
    ],
    ids=["length", "range", "reflexive", "reflexive-below", "reflexive-above", "both-sides", "transitivity", "below-dual", "above-dual"],
)
def test_validate_names_each_fault(below, above, message):
    with pytest.raises(ValueError) as exc:
        Poset(below, above).validate()
    assert str(exc.value) == message


def test_less_and_comparable():
    assert N_POSET.less(2, 3)
    assert not N_POSET.less(3, 2)
    assert not N_POSET.less(0, 3)
    assert N_POSET.comparable(0, 1)
    assert not N_POSET.comparable(1, 3)


def test_covers_reduction():
    assert CHAIN3.covers() == [(0, 1), (1, 2)]
    assert DIAMOND4.covers() == [(0, 1), (0, 2), (1, 3), (2, 3)]
    # a cover plus the pair it implies collapses back to covers
    p = Poset.from_relations(3, [(0, 1), (1, 2), (0, 2)])
    assert p.covers() == [(0, 1), (1, 2)]
    # below 2, the highest id 1 lies under 0: the cover of 2 is found by
    # climbing from 1 to 0
    assert Poset.from_relations(3, [(1, 0), (0, 2)]).covers() == [(0, 2), (1, 0)]
    assert Poset.from_relations(4, [(2, 1), (1, 0), (0, 3)]).covers() == [(0, 3), (1, 0), (2, 1)]


def hasse(p):
    """The covers by definition: u < v with no element between them, an
    element above u and below v."""
    return [
        (u, v)
        for u in range(p.order)
        for v in iter_bits(p.above[u])
        if p.above[u] & p.below[v] == 0
    ]


def test_covers_are_the_hasse_diagram():
    # Every order of at most 5 elements, then random sp-orders and orders
    # whose ids rise up the order, each with its dual, whose ids fall: the
    # walk from the lowest element above u down to a cover is long there.
    orders = [p for n in range(6) for p in enumerate_posets(n)]
    for seed in range(1, 6):
        orders += [sp_tree_to_poset(rand_sptree(40, seed)), rand_poset(40, 0.2, seed)]
    orders.append(parity_orientation(41))
    for p in orders:
        for q in (p, Poset(p.above, p.below)):
            assert q.covers() == hasse(q)


def test_comparability_graph():
    assert CHAIN3.comparability_graph().edges() == [(0, 1), (0, 2), (1, 2)]
    assert ANTICHAIN3.comparability_graph().edges() == []
    # the N order's comparability graph is an induced four-vertex path
    assert N_POSET.comparability_graph().edges() == [(0, 1), (1, 2), (2, 3)]


def test_incomparability_graph_is_complement():
    for p in (N_POSET, CHAIN3, ANTICHAIN3, DIAMOND4):
        comp = p.comparability_graph()
        inc = p.incomparability_graph()
        assert inc == comp.complement()


def test_connectivity():
    assert CHAIN3.is_connected()
    assert not ANTICHAIN3.is_connected()
    assert N_POSET.is_connected()
    two = Poset.from_relations(4, [(0, 1), (2, 3)])
    assert not two.is_connected()


def test_incomparables():
    assert N_POSET.incomparables(0) == {2, 3}
    assert CHAIN3.incomparables(1) == frozenset()


def test_incomparable_components():
    # c and d are comparable, so they land in one block
    assert N_POSET.incomparable_components(0) == [(2, 3)]
    assert CHAIN3.incomparable_components(1) == []
    assert Poset.from_relations(2, []).incomparable_components(0) == [(1,)]
    assert DIAMOND4.incomparable_components(1) == [(2,)]


def test_incomparable_components_load_no_lemma_code():
    # The blocks are the engine's, read from the comparability rows: no
    # lemma module is imported for them.
    code = (
        "import sys\n"
        "from cosp.posets import Poset\n"
        "print(Poset.from_relations(4, [(0, 1), (2, 1), (2, 3)]).incomparable_components(0))\n"
        "print('cosp.lemmas' in sys.modules)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code],
        capture_output=True,
        text=True,
        cwd=Path(cosp.__file__).parents[1],
        check=True,
    )
    assert proc.stdout == "[(2, 3)]\nFalse\n"


def test_lowest_is_the_lowest_set_bit():
    assert lowest(1) == 0
    for k in (1, 2, 63, 64, 300):
        assert lowest(1 << k) == k
    assert lowest(0b1011000) == 3
    assert lowest(1 << 300 | 1 << 70 | 1 << 9) == 9


def test_is_module():
    # b is above c but incomparable to d, so {c, d} is not a module
    assert not N_POSET.is_module([2, 3])
    assert Poset.from_relations(3, [(0, 1), (1, 2), (0, 2)]).is_module([0, 1])
    assert N_POSET.is_module(range(4))
    assert N_POSET.is_module([1])
    assert DIAMOND4.is_module([1, 2])
    # 0 is below 1 but not below 3: only the rows of what lies above 0 show it
    assert not N_POSET.is_module([1, 3])
    # 1 is comparable to both 0 and 2, but lies above 0 and below 2
    assert not CHAIN3.is_module([0, 2])
    for members in ([-2], [0, 9], [4]):
        with pytest.raises(ValueError, match=r"^member out of range for order 4$"):
            N_POSET.is_module(members)


def test_is_nfree_tests_only_blocks_of_two_or_more(monkeypatch):
    # One element is a module, so an antichain's blocks, all single
    # elements, are never tested.  The N stops at its first block, the
    # incomparables {2, 3} of 0, which 1 lies above in part.
    tested = []
    test = Poset._is_module_mask
    monkeypatch.setattr(Poset, "_is_module_mask", lambda p, a: tested.append(a) or test(p, a))
    assert is_nfree(Poset.from_relations(5, []))
    assert tested == []
    assert not is_nfree(N_POSET)
    assert tested == [0b1100]


def test_element_out_of_range():
    for x in (9, -1, 3):
        with pytest.raises(ValueError, match=rf"^element {x} out of range for order 3$"):
            CHAIN3.less(0, x)
        with pytest.raises(ValueError, match=rf"^element {x} out of range for order 3$"):
            CHAIN3.incomparables(x)


def test_unknown_mode():
    with pytest.raises(ValueError, match=r"^unknown mode 'closed'$"):
        Poset.from_relations(2, [(0, 1)], mode="closed")
    with pytest.raises(ValueError, match=r"^unknown mode 'closed'$"):
        parse_poset("0 1\n", mode="closed")
    with pytest.raises(ValueError, match=r"^unknown mode 'closed'$"):
        format_poset(CHAIN3, mode="closed")


def test_split_candidates():
    c = CHAIN3.split_candidates(1)
    assert c.lower == (0,) and c.upper == (2,)
    c = N_POSET.split_candidates(0)
    assert c.lower == () and c.upper == ()
    c = DIAMOND4.split_candidates(1)
    assert c.lower == (0,) and c.upper == (3,)


def test_maximal_chain_examples():
    mc = CHAIN3.maximal_chain(1)
    assert mc.elements == (0, 1, 2)
    assert mc.bottom == 0 and mc.top == 2
    mc = Poset.from_relations(2, []).maximal_chain(0)
    assert mc.elements == (0,)
    assert mc.bottom == mc.top == 0
    assert DIAMOND4.maximal_chain(1).elements == (0, 1, 3)


def test_maximal_chain_ends_on_a_record_whose_element_holds_itself(within):
    # Element 1 is below itself and below 0: the pick of 1 leaves the
    # candidates, although its own row holds it (were it kept, the chain
    # would grow forever, hence the time limit).
    record = Poset(below=(0b10, 0b10), above=(0, 0b11))
    assert within(2, lambda: record.maximal_chain(0)).elements == (1, 0)


def test_maximal_chain_is_maximal():
    for p in (N_POSET, DIAMOND4, CHAIN3):
        for x in range(p.order):
            mc = p.maximal_chain(x)
            elems = mc.elements
            assert x in elems
            for a, b in itertools.combinations(elems, 2):
                assert p.comparable(a, b)
            for a, b in zip(elems, elems[1:]):
                assert p.less(a, b)
            outside = set(range(p.order)) - set(elems)
            for v in outside:
                assert any(not p.comparable(v, e) for e in elems)


def test_parse_minimal():
    p, labels = parse_poset("0 1\n1 2\n")
    assert p.relations() == [(0, 1), (0, 2), (1, 2)]
    assert labels == (0, 1, 2)


def test_parse_angle_form():
    p, labels = parse_poset("0 < 1\n1 < 2\n")
    assert p == parse_poset("0 1\n1 2\n")[0]


def test_parse_full_mode():
    p, _ = parse_poset("0 1\n0 2\n1 2\n", mode="full")
    assert p == CHAIN3
    with pytest.raises(ValueError):
        parse_poset("0 1\n1 2\n", mode="full")


def test_parse_cycle():
    with pytest.raises(CycleError):
        parse_poset("0 1\n1 0\n")


def test_parse_rejects_duplicates_and_loops():
    from cosp import ParseError

    with pytest.raises(ParseError) as exc:
        parse_poset("0 1\n0 1\n")
    assert exc.value.line == 2
    with pytest.raises(ParseError):
        parse_poset("1 1\n")


def test_parse_sparse_labels():
    p, labels = parse_poset("5 9\n9 12\n")
    assert labels == (5, 9, 12)
    assert p.relations() == [(0, 1), (0, 2), (1, 2)]


def test_parse_header():
    p, labels = parse_poset("n 3\n0 1\n")
    assert p.order == 3
    assert p.incomparables(2) == {0, 1}


def test_format_round_trip():
    for p in (N_POSET, CHAIN3, ANTICHAIN3, DIAMOND4):
        for mode in ("covers", "full"):
            again, labels = parse_poset(format_poset(p, mode=mode), mode=mode)
            assert again == p
            assert labels == tuple(range(p.order))


def test_format_full_lists_closure():
    text = format_poset(CHAIN3, mode="full")
    assert "0 2" in text
