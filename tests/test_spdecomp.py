"""Series-parallel decomposition, linear splits, and chain endpoints."""

import itertools
import json
import random
import time

import pytest

from cosp import (
    Cotree,
    DisconnectedError,
    NoEndpointError,
    NWitness,
    Poset,
    SPTree,
    cotree,
    cotree_to_graph,
    cotree_to_sptree,
    endpoint_witness,
    is_nfree,
    linear_split_witness,
    orient_cotree,
    sp_tree,
    sp_tree_from_json,
    sp_tree_to_dot,
    sp_tree_to_json,
    sp_tree_to_poset,
)
from cosp.cographs import _preorder
from cosp.trees import SplitMix64, rand_cotree, rand_sptree, validate_sp_tree
from cosp import oracles

N_POSET = Poset.from_relations(4, [(0, 1), (2, 1), (2, 3)])
CHAIN3 = Poset.from_relations(3, [(0, 1), (1, 2)])
DIAMOND4 = Poset.from_relations(4, [(0, 1), (0, 2), (1, 3), (2, 3)])


def leaf(v):
    return SPTree.leaf(v)


def test_n_witness_validate(posets_to_4):
    assert NWitness((0, 1, 2, 3)).validate(N_POSET)
    assert not NWitness((0, 1, 2, 3)).validate(DIAMOND4)
    assert not NWitness((1, 0, 2, 3)).validate(N_POSET)
    assert not NWitness((0, 1, 2, 2)).validate(N_POSET)
    # Every quad of every small order, repeats and the out-of-range id n
    # included, against the definition.
    for p in posets_to_4:
        n = p.order

        def less(u, v):
            return (p.below[v] >> u) & 1 == 1

        for quad in itertools.product(range(n + 1), repeat=4):
            a, b, c, d = quad
            expected = (
                len(set(quad)) == 4
                and n not in quad
                and less(a, b)
                and less(c, b)
                and less(c, d)
                and not (less(a, c) or less(c, a))
                and not (less(a, d) or less(d, a))
                and not (less(b, d) or less(d, b))
            )
            assert NWitness(quad).validate(p) == expected, (p, quad)


def test_sp_tree_antichain():
    p = Poset.from_relations(2, [])
    assert sp_tree(p) == SPTree.disjoint((leaf(0), leaf(1)))


def test_sp_tree_chain():
    assert sp_tree(CHAIN3) == SPTree.linear((leaf(0), leaf(1), leaf(2)))


def test_sp_tree_singleton():
    assert sp_tree(Poset.from_relations(1, [])) == leaf(0)


def test_sp_tree_n_yields_witness():
    w = sp_tree(N_POSET)
    assert isinstance(w, NWitness)
    assert w.quad == (0, 1, 2, 3)
    assert w.validate(N_POSET)


def test_sp_tree_diamond():
    t = sp_tree(DIAMOND4)
    assert t == SPTree.linear(
        (leaf(0), SPTree.disjoint((leaf(1), leaf(2))), leaf(3))
    )


def test_sp_tree_linear_children_bottom_to_top():
    # 2 < 0: listed child order must follow the order, not the ids
    p = Poset.from_relations(2, [(1, 0)])
    assert sp_tree(p) == SPTree.linear((leaf(1), leaf(0)))


def test_sp_tree_to_poset_examples():
    assert sp_tree_to_poset(SPTree.linear((leaf(0), leaf(1)))) == Poset.from_relations(
        2, [(0, 1)]
    )
    assert sp_tree_to_poset(SPTree.disjoint((leaf(0), leaf(1)))) == Poset.from_relations(
        2, []
    )
    t = SPTree.linear((leaf(0), SPTree.disjoint((leaf(1), leaf(2))), leaf(3)))
    p = sp_tree_to_poset(t)
    assert p.relations() == [(0, 1), (0, 2), (0, 3), (1, 3), (2, 3)]


def test_sp_tree_to_poset_rejects_duplicates():
    with pytest.raises(ValueError):
        sp_tree_to_poset(SPTree.disjoint((leaf(1), leaf(1))))


def oriented_cotree(p):
    """Cotree of the comparability graph, oriented by p: series children
    bottom to top, a path a-b-c-d read as an N from its lower end."""
    t = cotree(p.comparability_graph())
    if not isinstance(t, Cotree):
        a, b, c, d = t.path
        return NWitness((a, b, c, d) if p.less(a, b) else (d, c, b, a))

    def height(s):  # elements below any one leaf of s, higher up the order
        while s.children:
            s = s.children[0]
        return p.below[s.element].bit_count()

    built = {}
    for node in reversed(_preorder(cotree_to_sptree(t))):
        children = tuple(built[id(c)] for c in node.children)
        if node.kind == "linear":
            children = tuple(sorted(children, key=height))
        built[id(node)] = SPTree(node.kind, node.element, children)
    return built[id(node)]


def shuffled_sp_orders():
    """Orders of random sp-trees of up to 60 elements with their ids
    shuffled, so that the lowest ids of linear blocks do not follow the
    order."""
    rng = random.Random(1)
    for n in range(1, 61):
        p = sp_tree_to_poset(rand_sptree(n, n))
        perm = list(range(n))
        rng.shuffle(perm)
        yield Poset.from_relations(n, [(perm[u], perm[v]) for u, v in p.relations()])


def test_sp_round_trip_enumerated(posets_to_4):
    for p in [*posets_to_4, *shuffled_sp_orders()]:
        if p.order == 0:
            continue
        t = sp_tree(p)
        assert t == oriented_cotree(p)
        if isinstance(t, NWitness):
            assert t.validate(p)
            continue
        validate_sp_tree(t)
        assert sp_tree_to_poset(t) == p


def test_sp_tree_chain_prefixed_n_adversary():
    # The N with a chain 0 < ... < k-1 in place of its first element: the
    # comparability graph is a P4 whose first vertex became a k-clique.
    k = 120
    chain = [(i, i + 1) for i in range(k - 1)]
    p = Poset.from_relations(k + 3, chain + [(k - 1, k), (k + 1, k), (k + 1, k + 2)])
    t0 = time.perf_counter()
    w = sp_tree(p)
    assert time.perf_counter() - t0 < 1.0
    assert w.quad == (0, k, k + 1, k + 2)
    assert w.validate(p)


def test_is_nfree_methods_agree(posets_to_4):
    # The module criterion against the oracles' quadruple scan.
    for p in posets_to_4:
        assert is_nfree(p) == (oracles.brute_n(p) is None)


def test_is_nfree_examples():
    assert not is_nfree(N_POSET)
    assert is_nfree(Poset.from_relations(4, [(0, 1), (1, 2), (2, 3)]))
    assert is_nfree(DIAMOND4)


def test_linear_split_two_chain():
    w = linear_split_witness(Poset.from_relations(2, [(0, 1)]))
    assert w.x == 0
    assert w.lower == ()
    assert w.middle == (0,)
    assert w.upper == (1,)


def test_linear_split_diamond():
    w = linear_split_witness(DIAMOND4)
    assert w.x == 0
    assert (w.lower, w.middle, w.upper) == ((), (0,), (1, 2, 3))
    assert w.validate(DIAMOND4)


def test_linear_split_around_a_middle_element():
    # 1 < 0 < 2: element 0 has an element on each side, and each side is
    # its layer.
    w = linear_split_witness(Poset.from_relations(3, [(1, 0), (0, 2)]))
    assert (w.x, w.lower, w.middle, w.upper) == (0, (1,), (0,), (2,))


def test_linear_split_validate_rejects_ids_out_of_range():
    from cosp import LinearSplit

    assert not LinearSplit(0, (-1,), (0, 1, 2, 3), ()).validate(N_POSET)
    w = linear_split_witness(DIAMOND4)
    assert w.validate(DIAMOND4)
    for bad in (-1, 4, 10**9):
        assert not LinearSplit(bad, w.lower, w.middle, w.upper).validate(DIAMOND4)
        assert not LinearSplit(w.x, w.lower, w.middle, w.upper + (bad,)).validate(DIAMOND4)


def test_linear_split_absent_on_n():
    # both candidate sets of every element fail the layer conditions
    assert linear_split_witness(N_POSET) is None


def test_linear_split_absent_on_long_n():
    # Four 700-element chains joined as an N: connected, with a connected
    # incomparability graph, so no element has a split.
    k = 700
    chains = [(i, i + 1) for c in range(4) for i in range(c * k, c * k + k - 1)]
    p = Poset.from_relations(4 * k, chains + [(k - 1, k), (3 * k - 1, k), (3 * k - 1, 3 * k)])
    t0 = time.perf_counter()
    assert linear_split_witness(p) is None
    assert time.perf_counter() - t0 < 1.0


def test_linear_split_rejects_disconnected():
    with pytest.raises(DisconnectedError):
        linear_split_witness(Poset.from_relations(2, []))


def test_linear_split_family(connected_nfree_to_4):
    for p in connected_nfree_to_4:
        w = linear_split_witness(p)
        disconnected_inc = len(p.incomparability_graph().components()) > 1
        assert (w is not None) == disconnected_inc
        if w is not None:
            assert w.validate(p)


def test_endpoint_diamond():
    w = endpoint_witness(DIAMOND4, 1)
    assert w.endpoint == 3
    assert w.side == "up"


def test_endpoint_two_chain_tie_prefers_top():
    w = endpoint_witness(Poset.from_relations(2, [(0, 1)]), 0)
    assert w.endpoint == 1
    assert w.side == "up"


def test_endpoint_antichain_under_top():
    p = Poset.from_relations(3, [(0, 2), (1, 2)])
    w = endpoint_witness(p, 0)
    assert w.endpoint == 2
    assert w.side == "up"


def test_endpoint_error_carries_conflicts():
    with pytest.raises(NoEndpointError) as exc:
        endpoint_witness(Poset.from_relations(2, []), 0)
    err = exc.value
    assert err.x == 0
    assert err.top_conflict is not None
    assert err.bottom_conflict is not None


def test_endpoint_error_names_the_lowest_conflicts(posets_to_4):
    # In the N the chain through 0 is 0 < 1: of 0's incomparables 2 and 3,
    # its top 1 misses 3 and its bottom 0 misses 2.
    with pytest.raises(NoEndpointError) as exc:
        endpoint_witness(N_POSET, 0)
    err = exc.value
    assert (err.x, err.top_conflict, err.bottom_conflict) == (0, (1, 3), (0, 2))
    assert str(err) == (
        "no chain endpoint through 0 qualifies: "
        "top 1 is incomparable to 3, bottom 0 is incomparable to 2"
    )
    # On every order of up to four elements, connected or not: the top when
    # it sees all of x's incomparables, else the bottom when it does, else
    # each end with the lowest incomparable of x that it misses.
    for p in posets_to_4:
        for x in range(p.order):
            chain = p.maximal_chain(x)
            inc = p.incomparables(x)
            top, bottom = (
                (end, min((y for y in inc if not p.comparable(end, y)), default=None))
                for end in (chain.top, chain.bottom)
            )
            try:
                w = endpoint_witness(p, x)
            except NoEndpointError as error:
                assert None not in (top[1], bottom[1])
                assert (error.x, error.top_conflict, error.bottom_conflict) == (x, top, bottom)
            else:
                expected = (top[0], "up") if top[1] is None else (bottom[0], "down")
                assert bottom[1] is None or top[1] is None
                assert (w.x, w.endpoint, w.side) == (x, *expected)


def test_endpoint_family(connected_nfree_to_4):
    for p in connected_nfree_to_4:
        for x in range(p.order):
            w = endpoint_witness(p, x)
            inc = p.incomparables(x)
            assert all(p.comparable(w.endpoint, y) for y in inc)
            mc = p.maximal_chain(x)
            assert w.endpoint == (mc.top if w.side == "up" else mc.bottom)


def test_cotree_to_sptree_shape():
    from cosp import Graph

    g = Graph.from_edges(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])
    st = cotree_to_sptree(cotree(g))
    assert isinstance(st, SPTree)
    validate_sp_tree(st)
    assert sp_tree_to_poset(st).comparability_graph() == g
    odd = Cotree.series((Cotree.leaf(0), Cotree("join", None, (Cotree.leaf(1), Cotree.leaf(2)))))
    with pytest.raises(ValueError, match="unknown node kind 'join'"):
        cotree_to_sptree(odd)


def test_orient_cotree_examples():
    two_series = Cotree.series((Cotree.leaf(0), Cotree.leaf(1)))
    assert orient_cotree(two_series) == Poset.from_relations(2, [(0, 1)])
    two_parallel = Cotree.parallel((Cotree.leaf(0), Cotree.leaf(1)))
    assert orient_cotree(two_parallel) == Poset.from_relations(2, [])
    t = Cotree.series(
        (Cotree.parallel((Cotree.leaf(0), Cotree.leaf(3))), Cotree.leaf(1), Cotree.leaf(2))
    )
    p = orient_cotree(t)
    assert not p.comparable(0, 3)
    assert p.less(0, 1) and p.less(3, 1) and p.less(1, 2)
    assert p.comparability_graph() == cotree_to_graph(t)
    assert is_nfree(p)


def test_orient_cotree_random_round_trip():
    rng = SplitMix64(7)
    for _ in range(50):
        n = 1 + rng.randrange(30)
        t = rand_cotree(n, rng.next_u64())
        p = orient_cotree(t)
        assert p.comparability_graph() == cotree_to_graph(t)
        assert oracles.brute_n(p) is None
        assert not isinstance(sp_tree(p), NWitness)


def test_sp_json_round_trip():
    for p in (CHAIN3, DIAMOND4, Poset.from_relations(3, [])):
        t = sp_tree(p)
        blob = json.dumps(sp_tree_to_json(t))
        assert sp_tree_from_json(json.loads(blob)) == t


def test_sp_json_rejects_malformed():
    with pytest.raises(ValueError):
        sp_tree_from_json({"kind": "leaf"})
    with pytest.raises(ValueError):
        sp_tree_from_json({"kind": "linear", "children": []})
    with pytest.raises(ValueError):
        sp_tree_from_json({"kind": "leaf", "vertex": 0})


def test_sp_dot_output():
    dot = sp_tree_to_dot(sp_tree(DIAMOND4))
    assert dot.startswith("graph sptree {")
    assert '[label="→"]' in dot
    assert '[label="∪"]' in dot
