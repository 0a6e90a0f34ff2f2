"""Strict partial orders: closure, validation, chains, and the text format."""

import itertools

import pytest

from cosp import CycleError, Poset, format_poset, parse_poset

# covers 0<1, 2<1, 2<3: the four-element order whose diagram draws the letter N
N_POSET = Poset.from_relations(4, [(0, 1), (2, 1), (2, 3)])
CHAIN3 = Poset.from_relations(3, [(0, 1), (1, 2)])
ANTICHAIN3 = Poset.from_relations(3, [])
DIAMOND4 = Poset.from_relations(4, [(0, 1), (0, 2), (1, 3), (2, 3)])


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
        ((0b10, 0), (0b10, 0), "element 0 both below and above another"),
        ((0, 0b1, 0b10), (0b10, 0b100, 0), "transitivity violated below 2"),
        ((0, 0b1), (0, 0), "duality violated for 0 < 1"),
        ((0, 0), (0b10, 0), "duality violated for 0 < 1"),
    ],
    ids=["length", "range", "reflexive", "both-sides", "transitivity", "below-dual", "above-dual"],
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


def test_is_module():
    # b is above c but incomparable to d, so {c, d} is not a module
    assert not N_POSET.is_module([2, 3])
    assert Poset.from_relations(3, [(0, 1), (1, 2), (0, 2)]).is_module([0, 1])
    assert N_POSET.is_module(range(4))
    assert N_POSET.is_module([1])
    assert DIAMOND4.is_module([1, 2])


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
