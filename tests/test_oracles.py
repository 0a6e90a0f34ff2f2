"""Brute-force ground truth and enumerators."""

import pytest

from cosp import Graph, P4Witness, Poset, cotree, is_cograph
from cosp import oracles
from cosp.rows import iter_bits

P4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
C4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
K3 = Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)])
PAW = Graph.from_edges(4, [(0, 1), (0, 2), (1, 2), (1, 3)])
DIAMOND = Graph.from_edges(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])
N_POSET = Poset.from_relations(4, [(0, 1), (2, 1), (2, 3)])
DIAMOND4 = Poset.from_relations(4, [(0, 1), (0, 2), (1, 3), (2, 3)])


def test_brute_p4():
    assert oracles.brute_p4(P4).path == (0, 1, 2, 3)
    assert oracles.brute_p4(C4) is None
    assert oracles.brute_p4(DIAMOND) is None
    from cosp import parity_split_graph

    assert oracles.brute_p4(parity_split_graph(8)) is None


def test_brute_n():
    w = oracles.brute_n(N_POSET)
    assert w.quad == (0, 1, 2, 3)
    assert w.validate(N_POSET)
    assert oracles.brute_n(Poset.from_relations(4, [])) is None
    assert oracles.brute_n(DIAMOND4) is None


def test_brute_cograph_def():
    assert not oracles.brute_cograph_def(P4)
    assert oracles.brute_cograph_def(K3)
    assert oracles.brute_cograph_def(DIAMOND)
    with pytest.raises(ValueError):
        oracles.brute_cograph_def(Graph.from_edges(13, []))


def test_graph_modules():
    mods = oracles.graph_modules(PAW)
    assert (0, 2) in mods
    assert (1, 3) not in mods
    k2 = Graph.from_edges(2, [(0, 1)])
    assert oracles.graph_modules(k2) == [(), (0,), (1,), (0, 1)]


def test_prime_graph():
    assert oracles.is_prime_graph(P4)
    assert not oracles.is_prime_graph(PAW)
    assert not oracles.is_prime_graph(K3)


def test_poset_modules():
    mods = oracles.poset_modules(N_POSET)
    assert (2, 3) not in mods
    assert oracles.is_prime_poset(N_POSET)
    assert not oracles.is_prime_poset(DIAMOND4)


def test_is_module_agrees_with_the_oracles_on_every_subset():
    # is_module reads the members' rows, the oracles every outside id's: the
    # two readings agree on symmetric rows and on dual below and above rows.
    records = [g for n in range(6) for g in oracles.enumerate_graphs(n)]
    records += [p for n in range(5) for p in oracles.enumerate_posets(n)]
    subsets = 0
    for r in records:
        modules = set(oracles.graph_modules(r) if isinstance(r, Graph) else oracles.poset_modules(r))
        for a in range(1 << r.order):
            members = tuple(iter_bits(a))
            assert r.is_module(members) == (members in modules), (r, members)
        subsets += 1 << r.order
    assert subsets == 33_867 + 3_671


def test_module_guard():
    with pytest.raises(ValueError):
        oracles.graph_modules(Graph.from_edges(21, []))


def test_enumerate_graphs_counts():
    assert sum(1 for _ in oracles.enumerate_graphs(0)) == 1
    assert sum(1 for _ in oracles.enumerate_graphs(2)) == 2
    assert sum(1 for _ in oracles.enumerate_graphs(3)) == 8
    assert sum(1 for _ in oracles.enumerate_graphs(5)) == 1024
    with pytest.raises(ValueError):
        next(oracles.enumerate_graphs(7))


def test_enumerate_posets_counts():
    assert sum(1 for _ in oracles.enumerate_posets(0)) == 1
    assert sum(1 for _ in oracles.enumerate_posets(2)) == 3
    assert sum(1 for _ in oracles.enumerate_posets(3)) == 19
    assert sum(1 for _ in oracles.enumerate_posets(4)) == 219
    assert sum(1 for _ in oracles.enumerate_posets(5)) == 4231
    with pytest.raises(ValueError):
        next(oracles.enumerate_posets(6))
    # The naturally labeled orders (OEIS A006455).
    counts = [sum(1 for _ in oracles.enumerate_natural_posets(n)) for n in range(8)]
    assert counts == [1, 1, 2, 7, 40, 357, 4824, 96428]
    with pytest.raises(ValueError):
        next(oracles.enumerate_natural_posets(8))


def test_natural_orders_are_the_labeled_orders_that_follow_their_ids():
    natural = list(oracles.enumerate_natural_posets(5))
    for p in natural:
        p.validate()
    follow = {p for p in oracles.enumerate_posets(5) if all(u < v for u, v in p.relations())}
    assert len(set(natural)) == len(natural) and set(natural) == follow


def test_every_order_of_five_elements_agrees_with_the_oracles():
    # One element past the N itself: every order-side claim on each of the
    # 4,231 labeled orders, as oracle-compare --max-poset-n 5 checks them.
    for p in oracles.enumerate_posets(5):
        assert oracles.check_poset_instance(p) is None, p


def test_every_natural_order_of_six_elements_agrees_with_the_oracles():
    # Two elements past the N, every order up to isomorphism: an N beside
    # two other elements, a linear node of three blocks under a disjoint
    # one.  In a natural order a lower block's ids are all smaller, so the
    # rules that read ids (linear children by height, the N's orientation)
    # are also run on each dual, whose ids fall up the order.  CI runs the
    # 96,428 natural orders of seven and their duals.
    for p in oracles.enumerate_natural_posets(6):
        for q in (p, Poset(p.above, p.below)):
            assert oracles.check_poset_instance(q) is None, q


def test_enumerate_posets_all_valid():
    for p in oracles.enumerate_posets(3):
        p.validate()


def test_engines_vs_oracles_small(graphs_to_4):
    # cross-route agreement on every graph with at most four vertices
    for g in graphs_to_4:
        assert is_cograph(g) == (oracles.brute_p4(g) is None)
        assert is_cograph(g) == oracles.brute_cograph_def(g)
        w = cotree(g) if g.order else None
        if isinstance(w, P4Witness):
            # the least labeling of a path starts at its smaller end
            assert w.path[0] < w.path[3]
            assert w.validate(g)
