"""Cograph recognition, cotrees, witnesses, and the neighborhood splits."""

import itertools
import json
import pickle
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from cosp import (
    Cotree,
    DisconnectedError,
    EndpointWitness,
    Graph,
    JoinWitness,
    LinearSplit,
    NeighborSplit,
    NWitness,
    P4Error,
    P4Witness,
    Poset,
    SPTree,
    cotree,
    cotree_from_json,
    cotree_to_dot,
    cotree_to_graph,
    cotree_to_json,
    cotree_to_sptree,
    is_cograph,
    is_nfree,
    join_witness,
    linear_split_witness,
    neighbor_split,
    non_neighbor_components,
    parity_split_graph,
    orient_cotree,
    select_universal_neighbor,
    sp_tree,
    sp_tree_from_json,
    sp_tree_to_json,
    sp_tree_to_poset,
)
from cosp.engine import _blocks, _decompose, is_leaf_id, json_text, tree_holds, tree_masks
from cosp.engine import tree_signature
from cosp.trees import _read, all_blocks_graph, rand_cotree, rand_sptree, spider_graph
from cosp.trees import validate_cotree, validate_sp_tree
from cosp.graphs import mask_of
from cosp.rows import iter_bits
from cosp import oracles

P4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
C4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
K2 = Graph.from_edges(2, [(0, 1)])
K3 = Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)])
PAW = Graph.from_edges(4, [(0, 1), (0, 2), (1, 2), (1, 3)])
DIAMOND = Graph.from_edges(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])


def leaf(v):
    return Cotree.leaf(v)


def test_the_witness_searches_end(within):
    # A witness's other side is ``full & ~un``; a side made from a negative
    # mask would be walked forever, so each search runs first, under a limit.
    w = within(2, lambda: join_witness(DIAMOND))
    assert w is not None and w.validate(DIAMOND)
    vee = Poset.from_relations(3, [(0, 1), (0, 2)])  # {0} below the antichain {1, 2}
    s = within(2, lambda: linear_split_witness(vee))
    assert s is not None and s.validate(vee)


def test_p4_witness_validate():
    assert P4Witness((0, 1, 2, 3)).validate(P4)
    # the reversed labeling traces the same path
    assert P4Witness((3, 2, 1, 0)).validate(P4)
    assert not P4Witness((0, 1, 2, 3)).validate(C4)
    assert not P4Witness((0, 2, 1, 3)).validate(P4)
    assert not P4Witness((1, 2, 3, 0)).validate(P4)
    assert not P4Witness((0, 1, 2, 2)).validate(P4)


def test_cotree_k2():
    assert cotree(K2) == Cotree.series((leaf(0), leaf(1)))


def test_cotree_2k1():
    assert cotree(Graph.from_edges(2, [])) == Cotree.parallel((leaf(0), leaf(1)))


def test_cotree_single_vertex():
    assert cotree(Graph.from_edges(1, [])) == leaf(0)


def test_cotree_diamond():
    t = cotree(DIAMOND)
    assert t == Cotree.series(
        (Cotree.parallel((leaf(0), leaf(3))), leaf(1), leaf(2))
    )


def test_cotree_p4_yields_witness():
    w = cotree(P4)
    assert isinstance(w, P4Witness)
    assert w.path == (0, 1, 2, 3)
    assert w.validate(P4)


def test_cotree_clique_p4_adversary():
    # A P4 whose first vertex is replaced by a clique on 0..k-1: a scan of
    # 4-subsets passes every clique quadruple before reaching the path.
    k = 120
    clique = [(i, j) for i in range(k) for j in range(i + 1, k)]
    edges = clique + [(i, k) for i in range(k)] + [(k, k + 1), (k + 1, k + 2)]
    ids = list(range(k + 3))
    random.Random(1).shuffle(ids)
    for relabel in (list(range(k + 3)), ids):
        g = Graph.from_edges(k + 3, [(relabel[u], relabel[v]) for u, v in edges])
        t0 = time.perf_counter()
        w = cotree(g)
        assert time.perf_counter() - t0 < 0.01
        assert w.validate(g) and w.path[0] < w.path[3]
    assert cotree(Graph.from_edges(k + 3, edges)).path == (0, k, k + 1, k + 2)


def two_unjoined():
    """0 joined to a clique 1..5 less the edges 2-5 and 3-4, and 6 seeing
    1, 2 and 3."""
    clique = [(u, v) for u in range(1, 6) for v in range(u + 1, 6)]
    edges = [(0, v) for v in range(1, 6)] + [e for e in clique if e not in ((2, 5), (3, 4))]
    return Graph.from_edges(7, edges + [(1, 6), (2, 6), (3, 6)])


@pytest.mark.parametrize(
    "g, path",
    [
        # a neighbor of 0 sees part of a block
        (P4, (0, 1, 2, 3)),
        # a thin spider, prime: the sides of the first block, {1} and
        # {2, 3}, are not joined
        (spider_graph(3), (3, 0, 1, 4)),
        # the bull: every split holds, but the sides {2} and {1} of the
        # blocks {3} and {4} do not nest
        (Graph.from_edges(5, [(0, 1), (0, 2), (1, 2), (1, 4), (2, 3)]), (3, 2, 1, 4)),
        # C5: the neighbors 1 and 4 of 0 both see part of the block {2, 3};
        # the lowest gives the path
        (Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]), (0, 1, 2, 3)),
        # of the side {1, 2, 3} of the block {6}, both 2 and 3 miss a member
        # of the other side {4, 5}; the lowest gives the path
        (two_unjoined(), (5, 0, 2, 6)),
    ],
    ids=[
        "partial-block",
        "sides-not-joined",
        "sides-not-nested",
        "lowest-partial",
        "lowest-unjoined",
    ],
)
def test_certificate_each_lemma_case(g, path):
    assert cotree(g).path == path


def test_certificate_all_blocks_split_is_fast():
    g = all_blocks_graph(1000)
    t0 = time.perf_counter()
    w = cotree(g)
    assert time.perf_counter() - t0 < 0.1
    assert w.path == (1001, 2, 1, 1002)


def test_certificate_thin_spider_is_fast():
    g = spider_graph(2000)
    t0 = time.perf_counter()
    w = cotree(g)
    assert time.perf_counter() - t0 < 0.5
    assert w.validate(g) and w.path[0] < w.path[3]


@st.composite
def flipped_cographs(draw):
    """A random cograph with a few pairs flipped: the part that splits
    neither way is often a proper piece of the graph."""
    n = draw(st.integers(4, 40))
    adj = list(cotree_to_graph(rand_cotree(n, draw(st.integers(0, 2**32)))).adj)
    pair = st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True)
    for u, v in draw(st.lists(pair, min_size=1, max_size=4)):
        adj[u] ^= 1 << v
        adj[v] ^= 1 << u
    return Graph(tuple(adj))


@st.composite
def clique_and_blocks(draw):
    """Vertex 0, a clique of neighbors 1..m, and blocks of non-neighbors,
    each a random cograph joined to a random set of clique vertices.  No
    split at 0 fails, so any path comes from sides that do not nest."""
    m = draw(st.integers(2, 8))
    clique = (1 << m + 1) - 2
    adj = [clique] + [clique & ~(1 << i) | 1 for i in range(1, m + 1)]
    for _ in range(draw(st.integers(2, 5))):
        size, seed = draw(st.integers(1, 6)), draw(st.integers(0, 2**32))
        block = cotree_to_graph(rand_cotree(size, seed))
        base = len(adj)
        sides = mask_of(draw(st.sets(st.integers(1, m))))
        for i in iter_bits(sides):
            adj[i] |= block.full_mask() << base
        adj += [row << base | sides for row in block.adj]
    return Graph(tuple(adj))


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.one_of(flipped_cographs(), clique_and_blocks()))
def test_certificate_lies_in_the_stuck_part(g):
    part = _decompose(g.adj)
    w = cotree(g)
    assert isinstance(part, int) == isinstance(w, P4Witness)
    if isinstance(w, P4Witness):
        assert w.validate(g) and w.path[0] < w.path[3]
        assert all(part >> v & 1 for v in w.path)


def test_cotree_canonical_form(connected_cographs_to_6):
    for g in connected_cographs_to_6[::7]:
        t = cotree(g)
        validate_cotree(t)
        assert cotree_to_graph(t) == g
        # the sp-tree of the orientation is the cotree, oriented
        assert sp_tree(orient_cotree(t)) == cotree_to_sptree(t)


def test_tree_holds_on_its_input_only(graphs_to_4, connected_cographs_to_6, posets_to_4):
    # The engine's tree of every cograph and N-free order of the fixtures
    # rebuilds its rows, and no longer does once one edge or relation flips.
    checked = 0
    for g in [g for g in graphs_to_4 if g.order and is_cograph(g)] + connected_cographs_to_6:
        signature = tree_signature(g.adj)
        assert tree_holds(signature, g.adj)
        for u, v in itertools.combinations(range(g.order), 2):
            adj = list(g.adj)
            adj[u] ^= 1 << v
            adj[v] ^= 1 << u
            assert not tree_holds(signature, adj)
        checked += 1
    for p in posets_to_4:
        if not p.order or not is_nfree(p):
            continue
        comp = p.comparability_masks()
        signature = tree_signature(comp, p.below)
        assert tree_holds(signature, comp, p.below)
        for u, v in itertools.permutations(range(p.order), 2):
            below = list(p.below)
            below[v] ^= 1 << u
            assert not tree_holds(signature, comp, below)
        checked += 1
    assert checked == 3301


@pytest.mark.parametrize(
    "signature",
    [
        [("series", None, 1), ("leaf", 0, 0)],
        [("series", None, 2), ("leaf", 0, 0), ("leaf", 0, 0)],
        [("series", None, 2), ("leaf", -1, 0), ("leaf", 0, 0)],
        [("join", None, 2), ("leaf", 0, 0), ("leaf", 1, 0)],
        [("leaf", 0, 1), ("leaf", 1, 0)],
        # A bool is no leaf id, though True == 1.
        [("series", None, 2), ("leaf", True, 0), ("leaf", 0, 0)],
    ],
)
def test_tree_holds_is_false_on_a_tree_that_encodes_nothing(signature):
    assert not tree_holds(signature, K2.adj)


@pytest.mark.parametrize("count", [2, 3])
def test_tree_holds_is_false_when_a_node_misses_children(count):
    # The node claims more children than the signature holds: with one
    # fewer, the rest would rebuild the graph with no edges.
    signature = [("parallel", None, count)] + [("leaf", v, 0) for v in range(count - 2, -1, -1)]
    assert not tree_holds(signature, [0] * (count - 1))
    with pytest.raises(ValueError, match="^parallel node with missing children$"):
        tree_masks(signature, False)


def test_tree_holds_is_false_on_a_tree_not_canonical_or_not_on_every_id():
    leaves = [("leaf", v, 0) for v in (2, 1, 0)]
    # series(series(0, 1), 2) rebuilds K3, but is not canonical.
    nested = [("series", None, 2), leaves[0], ("series", None, 2), *leaves[1:]]
    assert not tree_holds(nested, K3.adj)
    # series(0, 1) is canonical, but K3 has a vertex 2.
    assert not tree_holds([("series", None, 2), *leaves[1:]], K3.adj)
    # A lone leaf whose id is not the one vertex's.
    assert not tree_holds([("leaf", 1, 0)], [0])


def test_a_lone_leaf_is_its_own_root():
    # The root's mask is the leaf's own bit, whatever its id.
    assert tree_masks([("leaf", 5, 0)], False) == ([], 1 << 5, None)


L0, L1, L2 = (Cotree.leaf(v) for v in range(3))
E0, E1, E2 = (SPTree.leaf(v) for v in range(3))
BIG = 10**100  # a leaf id whose mask, 1 << BIG, does not fit in memory


def cotree_masks(signature):
    return tree_masks(signature, False)


@pytest.mark.parametrize(
    "check, tree, message",
    [
        (validate_cotree, Cotree.leaf(-1), "leaf vertex must be a non-negative int, got -1"),
        (validate_sp_tree, SPTree.leaf("0"), "leaf element must be a non-negative int, got '0'"),
        (validate_cotree, Cotree("join", None, (L0, L1)), "unknown node kind 'join'"),
        (validate_cotree, Cotree.series([L0]), "series node with fewer than two children"),
        (validate_cotree, Cotree.parallel([L0, L0]), "duplicate leaf ids"),
        (cotree_to_graph, Cotree.parallel([L0, L2]), "leaf ids must form a dense 0..n-1 range"),
        (sp_tree_to_poset, SPTree.linear([E1, E2]), "leaf ids must form a dense 0..n-1 range"),
        (validate_cotree, Cotree("leaf", 0, (L1,)), "leaf with children"),
        (validate_cotree, Cotree("series", 2, (L0, L1)), "internal node with vertex 2"),
        (
            validate_cotree,
            Cotree.series([Cotree.series([L0, L1]), L2]),
            "series child of series node",
        ),
        (
            validate_sp_tree,
            SPTree.linear([SPTree.linear([E0, E1]), E2]),
            "linear child of linear node",
        ),
        (
            validate_cotree,
            Cotree.parallel([L1, L0]),
            "parallel children not ordered by smallest leaf id",
        ),
        (
            validate_sp_tree,
            SPTree.disjoint([E1, E0]),
            "disjoint children not ordered by smallest leaf id",
        ),
        (cotree_to_graph, Cotree.leaf(5), "leaf ids must form a dense 0..n-1 range"),
        (
            validate_cotree,
            Cotree.series([Cotree.series([L0, L1]), L2, Cotree.leaf(3)]),
            "series child of series node",
        ),
        # A signature that leaves two subtrees: two leaves, and a two-child
        # node followed by a stray leaf.
        (cotree_masks, [("leaf", 0, 0), ("leaf", 1, 0)], "forest of 2 trees"),
        (
            cotree_masks,
            [("series", None, 2), ("leaf", 1, 0), ("leaf", 0, 0), ("leaf", 2, 0)],
            "forest of 2 trees",
        ),
        # A bool is no leaf id, though True == 1.
        (
            validate_cotree,
            Cotree.series([L0, Cotree.leaf(True)]),
            "leaf vertex must be a non-negative int, got True",
        ),
        (
            validate_sp_tree,
            SPTree.linear([E0, SPTree.leaf(True)]),
            "leaf element must be a non-negative int, got True",
        ),
        # The JSON reader and the orientation ask engine.tree_masks too.
        (
            cotree_from_json,
            {"kind": "series", "children": [{"kind": "leaf", "vertex": 0}] * 2},
            "duplicate leaf ids",
        ),
        (
            sp_tree_from_json,
            {"kind": "disjoint", "children": [{"kind": "leaf", "element": 1}] * 2},
            "duplicate leaf ids",
        ),
        (cotree_to_sptree, Cotree.series([L0, L0]), "duplicate leaf ids"),
        # They read the leaf ids' ranks, so a leaf id of 10**100 keeps each
        # fault's text.
        (
            validate_cotree,
            Cotree.parallel([Cotree.leaf(BIG), L0]),
            "parallel children not ordered by smallest leaf id",
        ),
        (cotree_to_sptree, Cotree.series([Cotree.leaf(BIG)] * 2), "duplicate leaf ids"),
        (
            cotree_from_json,
            {"kind": "series", "children": [{"kind": "leaf", "vertex": v} for v in (BIG, -BIG)]},
            f"leaf vertex must be a non-negative int, got {-BIG}",
        ),
        (
            sp_tree_from_json,
            {"kind": "linear", "children": [{"kind": "leaf", "element": v} for v in (BIG, True)]},
            "leaf element must be a non-negative int, got True",
        ),
    ],
)
def test_tree_checks_name_each_fault(check, tree, message):
    # One malformed tree per rejection of engine.tree_masks, of the validators
    # (its faults of canonical form), of the JSON reader and of the converters
    # (leaf ids not 0..n-1).
    with pytest.raises(ValueError) as exc:
        check(tree)
    assert str(exc.value) == message


def test_leaf_ids_of_any_size_are_read_by_rank():
    # The validators, the JSON reader and the orientation ask tree_masks of
    # the leaf ids' ranks: a tree with a leaf id of 10**100 reads, orients
    # and validates like one with small ids (its faults are cases above).
    t = Cotree.series([L0, Cotree.leaf(BIG)])
    s = cotree_to_sptree(t)
    assert s == SPTree.linear([E0, SPTree.leaf(BIG)])
    assert cotree_from_json(cotree_to_json(t)) == t
    assert sp_tree_from_json(sp_tree_to_json(s)) == s
    validate_cotree(t)
    validate_sp_tree(s)
    # The encoders read the same ranks, and a ranked tree has no 0..n-1 ids:
    # a mask sized by the id would not fit in memory.
    dense = "^leaf ids must form a dense 0..n-1 range$"
    for encode, tree in ((cotree_to_graph, t), (orient_cotree, t), (sp_tree_to_poset, s)):
        with pytest.raises(ValueError, match=dense):
            encode(tree)


NODE = st.tuples(
    st.sampled_from(["leaf", "series", "parallel", "linear", "disjoint", "nope"]),
    st.one_of(st.none(), st.integers(-1, 5), st.booleans(), st.just("0")),
    st.integers(0, 3),
)


@settings(max_examples=400, deadline=None)
@given(st.lists(NODE, max_size=9), st.booleans(), st.integers(1, 3))
def test_shape_on_ranks_is_shape_on_ids(signature, linear, gap):
    # Spread the valid leaf ids apart without changing their order: the fault
    # or message on the spread ids, read by rank, is the one on the ids.
    def outcome(check, signature):
        try:
            return check(signature, linear)
        except ValueError as exc:
            return f"raises {exc}"

    spread = [
        (kind, v * gap + gap - 1 if kind == "leaf" and is_leaf_id(v) else v, count)
        for kind, v, count in signature
    ]
    expected = outcome(lambda s, linear: tree_masks(s, linear)[2], signature)
    assert outcome(lambda s, linear: _read(s, linear)[2], spread) == expected


def test_cotree_to_graph_examples():
    assert cotree_to_graph(Cotree.series((leaf(0), leaf(1)))) == K2
    g = cotree_to_graph(Cotree.parallel((Cotree.series((leaf(0), leaf(1))), leaf(2))))
    assert g.edges() == [(0, 1)]
    assert g.order == 3
    t = Cotree.series((Cotree.parallel((leaf(0), leaf(3))), leaf(1), leaf(2)))
    assert cotree_to_graph(t) == DIAMOND


def test_cotree_to_graph_rejects_duplicates():
    t = Cotree.series((leaf(0), leaf(0)))
    with pytest.raises(ValueError):
        cotree_to_graph(t)


def test_is_cograph():
    assert not is_cograph(P4)
    assert is_cograph(C4)
    assert is_cograph(parity_split_graph(50))
    assert is_cograph(Graph.from_edges(0, []))


def test_non_neighbor_components():
    assert non_neighbor_components(PAW, 0) == [(3,)]
    assert non_neighbor_components(P4, 0) == [(2, 3)]
    assert non_neighbor_components(K3, 0) == []


def test_blocks_leave_x_out_and_come_by_smallest_member():
    # x is never one of its own non-neighbors, whether x is 0 or not.
    full = P4.full_mask()
    assert _blocks(P4.adj, full, 0) == [0b1100]
    assert _blocks(P4.adj, full, 3) == [0b0011]
    assert _blocks(P4.adj, 0b0111, 2) == [0b0001]
    # A vertex that sees every other one has no blocks.
    assert _blocks(K3.adj, K3.full_mask(), 0) == []
    assert _blocks(K3.adj, K3.full_mask(), 2) == []
    # 3 sees only 1; its non-neighbors 0-2 and 4-5 are two blocks, and 6
    # a third, listed by smallest member.
    g = Graph.from_edges(7, [(1, 3), (0, 2), (5, 4), (1, 6)])
    assert _blocks(g.adj, g.full_mask(), 3) == [0b0000101, 0b0110000, 0b1000000]
    assert _blocks(g.adj, g.full_mask() & ~0b0000100, 3) == [0b0000001, 0b0110000, 0b1000000]


def test_neighbor_split_paw():
    s = neighbor_split(PAW, 0, (3,))
    assert s.component == (3,)
    assert s.adjacent_all == (1,)
    assert s.adjacent_none == (2,)
    assert s.validate(PAW, 0)


def test_neighbor_split_with_vertex_0_on_the_far_side():
    # x = 2's neighbor 0 sees none of the block {3}: the lowest id on the
    # side that sees none of it.
    s = neighbor_split(PAW, 2, (3,))
    assert (s.adjacent_all, s.adjacent_none) == ((1,), (0,))
    assert s.validate(PAW, 2)


def test_neighbor_split_diamond():
    s = neighbor_split(DIAMOND, 0, (3,))
    assert s.adjacent_all == (1, 2)
    assert s.adjacent_none == ()
    assert s.validate(DIAMOND, 0)


def test_neighbor_split_p4_reports_witness():
    # 1 sees 2 but not 3 inside the block, which pins an induced path
    with pytest.raises(P4Error) as exc:
        neighbor_split(P4, 0, (2, 3))
    w = exc.value.witness
    assert w.validate(P4)
    assert w.path == (0, 1, 2, 3)


def test_neighbor_split_rejects_non_block():
    with pytest.raises(ValueError, match=r"^component must be nonempty$"):
        neighbor_split(PAW, 0, ())
    # A block holds neither x nor a neighbor of x.
    for x, component in ((0, (1,)), (0, (0,)), (0, (0, 3)), (0, (3, 2)), (3, (2, 3)), (3, (3,))):
        with pytest.raises(ValueError, match=rf"^component members must be non-neighbors of {x}$"):
            neighbor_split(PAW, x, component)
    for component in ([-1], [3, 4], [-1, 3]):
        with pytest.raises(ValueError, match=r"^member out of range for order 4$"):
            neighbor_split(PAW, 0, component)
    # 1 sees 2 but not 3, and no edge inside {2, 3} pins a path.
    g = Graph.from_edges(4, [(0, 1), (1, 2)])
    with pytest.raises(ValueError, match=r"^component is not connected$"):
        neighbor_split(g, 0, (2, 3))


def test_lemma_witnesses_reject_ids_out_of_range():
    # Each validate is False for an id outside 0..n-1, as P4Witness's is,
    # and x = -1 does not read the last row.
    from cosp import JoinWitness, NeighborSplit

    assert not NeighborSplit((-1,), (1,), (2,)).validate(PAW, 0)
    assert not JoinWitness(0, (-1,), ((0, 1, 2, 3), (-1,))).validate(PAW)
    s = neighbor_split(PAW, 3, (0, 2))
    assert s.validate(PAW, 3) and not s.validate(PAW, -1)
    w = join_witness(DIAMOND)
    assert w.validate(DIAMOND)
    for bad in (-1, 4, 10**9):
        assert not s.validate(PAW, bad)
        assert not NeighborSplit((bad,), (1,), (2,)).validate(PAW, 0)
        assert not JoinWitness(bad, w.universal_neighbors, w.split).validate(DIAMOND)
        assert not JoinWitness(w.x, (bad,), (w.split[0], (bad,))).validate(DIAMOND)


# A valid witness on a small input with one of its conditions broken, one
# case per rejection of each validate.  C4 joins {0, 2} to {1, 3}; in the paw
# x = 0 has neighbors 1, which sees the block {3}, and 2, which does not; in P4
# vertex 1's neighbors 0 and 2 split against the block {3} but are not joined.
# V has 0 below 1 and 2.  An element in two of LinearSplit's parts would lie
# below itself, so on a strict order the checks of which parts lie above which
# reject that case too; only on a malformed record, such as LOOP, where 0 lies
# below itself, does the check that the parts are disjoint decide.  Likewise
# JoinWitness's check that x is not among its universal neighbors decides only
# where x is its own neighbor, as 1 is in LOOPED, and EndpointWitness's check
# that the endpoint lies on x's side decides only where it lies below itself,
# as 1 does in SKEW's rows ``below`` alone.  Every id is taken by the
# rule of a tree's leaf ids, an int that is not a bool, below n: neither
# False, although False == 0, nor 0.0 is an id.
V = Poset.from_relations(3, [(0, 1), (0, 2)])
CHAIN = Poset.from_relations(3, [(0, 1), (1, 2)])
LOOP = Poset(below=(1, 1), above=(2, 0))
LOOPED = Graph((0b10, 0b11))
SKEW = Poset(below=(0, 0b10), above=(0, 0))
TURN = Graph((0b010, 0b100, 0b001))  # rows of the directed cycle 0 -> 1 -> 2 -> 0
N = Poset.from_relations(4, [(0, 1), (2, 1), (2, 3)])
WITNESS_CASES = [
    (JoinWitness(0, (1, 3), ((0, 2), (1, 3))), (C4,), True),
    (JoinWitness(0, (), ((0, 1, 2, 3), ())), (C4,), False),  # no universal neighbors
    (JoinWitness(0, (1,), ((0, 2), (1,))), (C4,), False),  # the sides miss vertex 3
    (JoinWitness(0, (1, 3), ((0, 2), (3, 1))), (C4,), False),  # split[1] is not them
    (JoinWitness(1, (1, 3), ((0, 2), (1, 3))), (C4,), False),  # x among them
    (JoinWitness(0, (1,), ((0, 2, 3), (1,))), (C4,), False),  # 1 misses 3
    (NeighborSplit((3,), (1,), (2,)), (PAW, 0), True),
    (NeighborSplit((3,), (1,), ()), (PAW, 0), False),  # the sides miss neighbor 2
    (NeighborSplit((3,), (1, 2), ()), (PAW, 0), False),  # 2 misses the block
    (NeighborSplit((3,), (), (1, 2)), (PAW, 0), False),  # 1 sees the block
    (NeighborSplit((3,), (2,), (0,)), (P4, 1), False),  # 0 and 2 are not joined
    (LinearSplit(1, (0,), (1,), (2,)), (CHAIN,), True),
    (LinearSplit(1, (0,), (0, 1), (2,)), (CHAIN,), False),  # 0 in two parts
    (LinearSplit(1, (0,), (1,), ()), (CHAIN,), False),  # the parts miss 2
    (LinearSplit(2, (0,), (1,), (2,)), (CHAIN,), False),  # x not in the middle
    (LinearSplit(1, (), (0, 1, 2), ()), (CHAIN,), False),  # only a middle
    (LinearSplit(0, (1,), (0,), (2,)), (CHAIN,), False),  # the middle is not above 1
    (LinearSplit(1, (0,), (1, 2), ()), (V,), True),
    (LinearSplit(1, (0,), (1,), (2,)), (V,), False),  # 2 is not above 1
    (LinearSplit(1, (0,), (0, 1), ()), (LOOP,), False),  # 0 in two parts
    (P4Witness((3, 2, 1, 0)), (P4,), True),
    (P4Witness((-1, 2, 1, 0)), (P4,), False),  # -1, out of range, would read row 3
    (P4Witness((False, 1, 2, 3)), (P4,), False),  # a bool, not the id 0
    (P4Witness((0, 1, 2)), (P4,), False),  # three ids
    (P4Witness((0, 1, 2, 3, 0)), (P4,), False),  # five ids
    (P4Witness((0.0, 1, 2, 3)), (P4,), False),  # a float
    (P4Witness((0, 1, 2, 10**100)), (P4,), False),  # far out of range
    (NWitness((0, 1, 2, 3)), (N,), True),
    (NWitness((False, 1, 2, 3)), (N,), False),  # a bool, not the id 0
    (NWitness((0, 1, 2)), (N,), False),  # three ids
    (JoinWitness(0, (1, 2), ((0, 3), (1, 2))), (DIAMOND,), True),
    (JoinWitness(False, (1, 2), ((0, 3), (1, 2))), (DIAMOND,), False),  # x a bool
    (JoinWitness(0.0, (1, 2), ((0, 3), (1, 2))), (DIAMOND,), False),  # x a float
    (NeighborSplit((3,), (True,), (2,)), (PAW, 0), False),  # a bool among the sides
    (LinearSplit(True, (0,), (1,), (2,)), (CHAIN,), False),  # x a bool
    (JoinWitness(0, (1,), ((0, 2, 3), (1,))), (PAW,), True),  # 0's neighbor 2 misses 3
    (JoinWitness(1, (1,), ((0,), (1,))), (LOOPED,), False),  # x among them, at its loop
    (P4Witness((0, 1, 2, 0)), (TURN,), False),  # every pair passes: only the repeat decides
    (P4Witness(5), (P4,), False),  # not a sequence
    (P4Witness(None), (P4,), False),  # no ids at all
    (NWitness(5), (N,), False),  # not a sequence
    (JoinWitness(0, 5, ((0, 2), (1, 3))), (C4,), False),  # universal neighbors not a group
    (JoinWitness(0, (1, 3), 5), (C4,), False),  # the split not a pair
    (JoinWitness(0, (1, 3), ((0, 2),)), (C4,), False),  # one side only
    (JoinWitness(0, (1, 3), ((0, 2), (1, 3), (0,))), (C4,), False),  # three sides
    (LinearSplit(1, 5, (1,), (2,)), (CHAIN,), False),  # lower not a group
    (NeighborSplit(5, (1,), (2,)), (PAW, 0), False),  # the block not a group
    (NeighborSplit((), (1, 2), ()), (PAW, 0), False),  # an empty block
    (NeighborSplit((2,), (1,), (2,)), (PAW, 0), False),  # the block holds 0's neighbor 2
    (NeighborSplit((3,), (1,), ()), (PAW, 3), False),  # the block holds x
    (EndpointWitness(1, 0, "down"), (V,), True),  # 1's incomparable 2 lies above 0
    (EndpointWitness(0, 0, "down"), (V,), True),  # x itself, minimal, with no incomparables
    (EndpointWitness(0, 2, "up"), (CHAIN,), True),
    (EndpointWitness(2, 2, "up"), (CHAIN,), True),  # x itself, maximal, comparable to all
    (EndpointWitness(1, 0, "up"), (V,), False),  # 0 lies below 1, not above it
    (EndpointWitness(1, 1, "up"), (V,), False),  # x is maximal but misses 2
    (EndpointWitness(1, 2, "down"), (V,), False),  # 2 does not lie below 1
    (EndpointWitness(0, 1, "up"), (CHAIN,), False),  # 1 is not maximal
    (EndpointWitness(2, 1, "down"), (CHAIN,), False),  # 1 is not minimal
    (EndpointWitness(1, 0, "left"), (V,), False),  # no such side
    (EndpointWitness(1, 0, ["down"]), (V,), False),  # a side that is not a string
    (EndpointWitness(False, 0, "down"), (V,), False),  # x a bool
    (EndpointWitness(1, 0.0, "down"), (V,), False),  # the endpoint a float
    (EndpointWitness(1, -1, "down"), (V,), False),  # -1 would read the last row
    (EndpointWitness(1, 3, "down"), (V,), False),  # out of range
    (EndpointWitness(0, 1, "up"), (SKEW,), False),  # 1 does not lie above 0
]


@pytest.mark.parametrize("witness, args, valid", WITNESS_CASES)
def test_witnesses_reject_each_broken_condition(witness, args, valid):
    assert witness.validate(*args) is valid


def test_join_witness_k2():
    w = join_witness(K2)
    assert w.x == 0
    assert w.universal_neighbors == (1,)
    assert w.validate(K2)


def test_join_witness_diamond():
    w = join_witness(DIAMOND)
    assert w.x == 0
    assert w.universal_neighbors == (1, 2)
    assert w.split == ((0, 3), (1, 2))
    assert w.validate(DIAMOND)


def test_witness_searches_stop_at_a_connected_complement(monkeypatch):
    # A witness splits the complement, so P4's connected complement, and the
    # N's connected incomparability graph, end each search before any id's
    # universal neighbors are computed or any witness is checked.
    calls = []
    universal, join_valid, split_valid = (
        Graph._universal_mask,
        JoinWitness.validate,
        LinearSplit.validate,
    )
    monkeypatch.setattr(Graph, "_universal_mask", lambda g, x: calls.append(x) or universal(g, x))
    monkeypatch.setattr(JoinWitness, "validate", lambda w, g: calls.append(w) or join_valid(w, g))
    monkeypatch.setattr(LinearSplit, "validate", lambda w, p: calls.append(w) or split_valid(w, p))
    assert join_witness(P4) is None
    assert linear_split_witness(N) is None
    assert calls == []
    # The wrappers see the searches that do run.
    assert join_witness(DIAMOND).validate(DIAMOND) and len(calls) == 3
    assert linear_split_witness(CHAIN).validate(CHAIN) and len(calls) == 6


def test_witness_searches_need_an_id():
    with pytest.raises(ValueError, match=r"^the witness search needs at least one vertex$"):
        join_witness(Graph.from_edges(0, []))
    with pytest.raises(ValueError, match=r"^the split search needs at least one element$"):
        linear_split_witness(Poset.from_relations(0, []))


def test_join_witness_requires_connected():
    with pytest.raises(DisconnectedError):
        join_witness(Graph.from_edges(2, []))


def test_join_witness_absent_on_single_vertex():
    assert join_witness(Graph.from_edges(1, [])) is None


def test_select_universal_neighbor():
    assert select_universal_neighbor(PAW, 0) == 1
    # Both neighbors of 0 see the block {3}: the side's smallest member.
    assert select_universal_neighbor(DIAMOND, 0) == 1
    # 0's non-neighbors 1 and 4 are two blocks: 2 and 3 see the block {4},
    # only 3 sees {1}, so the smaller side is {3}.
    g = Graph.from_edges(5, [(0, 2), (0, 3), (2, 3), (1, 3), (2, 4), (3, 4)])
    assert select_universal_neighbor(g, 0) == 3
    assert select_universal_neighbor(K2, 0) == 1 and select_universal_neighbor(K2, 1) == 0
    star = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    assert select_universal_neighbor(star, 1) == 0
    with pytest.raises(ValueError, match="^vertex 0 has no neighbors$"):
        select_universal_neighbor(Graph.from_edges(2, []), 0)
    with pytest.raises(DisconnectedError, match="^no neighbor of 0 reaches the block containing 2$"):
        select_universal_neighbor(Graph.from_edges(3, [(0, 1)]), 0)
    # 0's blocks {3} and {4} are seen by 1 alone and by 2 alone: neither
    # side lies inside the other, no neighbor is universal, and 3-1-2-4 is
    # an induced path.
    crossed = Graph.from_edges(5, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 4)])
    assert not crossed.universal_neighbors(0)
    with pytest.raises(P4Error) as exc:
        select_universal_neighbor(crossed, 0)
    assert exc.value.path == (3, 1, 2, 4) and exc.value.witness.validate(crossed)


def test_unjoined_sides_pin_the_lowest_pair_from_either_side():
    # The join check of a neighbor split reads the rows of its thinner side.
    # x = 0: the side that sees none of the block is thinner in the first
    # graph, the side that sees it in the second.  Either way two members of
    # the first side miss part of the second, and the lowest of them, with
    # its lowest miss, gives the path.
    thin_none = Graph.from_edges(
        6, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 5), (2, 5), (3, 5), (1, 4)]
    )
    thin_all = Graph.from_edges(
        7, [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (1, 6), (2, 6), (1, 3), (1, 4), (2, 4), (2, 5)]
    )
    for g, block, path in ((thin_none, (5,), (5, 2, 0, 4)), (thin_all, (6,), (6, 1, 0, 5))):
        with pytest.raises(P4Error) as exc:
            neighbor_split(g, 0, block)
        assert exc.value.path == path and exc.value.witness.validate(g)


def test_parity_split_graph_edges():
    assert parity_split_graph(2).edges() == [(0, 1)]
    assert parity_split_graph(4).edges() == [(0, 1), (0, 2), (0, 3), (2, 3)]
    g = parity_split_graph(9)
    for u in range(9):
        for v in range(u + 1, 9):
            assert g.has_edge(u, v) == (u % 2 == 0)


def test_parity_split_graph_offset():
    # start the window at an odd integer: position 0 stands for integer 1
    g = parity_split_graph(5, offset=1)
    for u in range(5):
        for v in range(u + 1, 5):
            assert g.has_edge(u, v) == ((u + 1) % 2 == 0)


def test_parity_split_graph_rejects_empty():
    with pytest.raises(ValueError, match="^window size must be positive$"):
        parity_split_graph(0)


def test_parity_split_truncations_small():
    for n in range(1, 10):
        g = parity_split_graph(n)
        assert oracles.brute_p4(g) is None
        if n >= 2:
            assert g.is_connected()


def test_json_round_trip():
    for g in (K2, K3, DIAMOND, C4, parity_split_graph(7)):
        t = cotree(g)
        blob = json.dumps(cotree_to_json(t))
        assert json_text(t._signature(), "vertex") == blob
        assert cotree_from_json(json.loads(blob)) == t


def test_json_text_is_json_dumps_of_the_dicts():
    # The CLI writes a tree's JSON text from the tree, not from the dicts.
    trees = [rand_cotree(n, seed) for n in range(1, 61) for seed in range(4)]
    trees += [rand_sptree(n, seed) for n in range(1, 61) for seed in range(4)]
    # Public constructors allow nodes with one child or none.
    trees.append(Cotree.series([Cotree.parallel([]), Cotree.parallel([Cotree.leaf(1)])]))
    for t in trees:
        n = len(t._signature())
        for labels in (None, [2 * v + 1 for v in range(n)]):
            text = json_text(t._signature(), t._leaf_key, labels)
            assert text == json.dumps(cotree_to_json(t, labels))


def test_deep_trees_compare_hash_and_round_trip():
    # 6000 levels, far past the interpreter's recursion limit
    g = parity_split_graph(6000, 1)
    t = cotree(g)
    back = cotree_from_json(cotree_to_json(t))
    assert back is not t
    assert back == t
    assert hash(back) == hash(t)
    assert cotree(parity_split_graph(6000, 0)) != t
    validate_cotree(t)
    # pickle and repr, which the dataclass machinery would do recursively
    assert pickle.loads(pickle.dumps(t)) == t
    oriented = cotree_to_sptree(t)
    assert pickle.loads(pickle.dumps(oriented)) == oriented
    assert repr(t).count("Cotree(") == 2 * 6000 - 1  # 6000 leaves, 5999 binary nodes
    assert repr(cotree(DIAMOND)) == (
        "Cotree(kind='series', vertex=None, children=(Cotree(kind='parallel', vertex=None, "
        "children=(Cotree(kind='leaf', vertex=0, children=()), Cotree(kind='leaf', vertex=3, "
        "children=()))), Cotree(kind='leaf', vertex=1, children=()), Cotree(kind='leaf', "
        "vertex=2, children=())))"
    )
    assert repr(Cotree.series([Cotree.leaf(3)])) == (
        "Cotree(kind='series', vertex=None, children=(Cotree(kind='leaf', vertex=3, children=()),))"
    )
    # Both rebuilds, in time linear in the tree's nodes times words per mask
    t0 = time.perf_counter()
    assert cotree_to_graph(t) == g
    assert orient_cotree(t).comparability_graph() == g
    assert time.perf_counter() - t0 < 2.0


def test_json_rejects_malformed():
    with pytest.raises(ValueError):
        cotree_from_json({"kind": "leaf"})
    with pytest.raises(ValueError):
        cotree_from_json({"kind": "series", "children": [{"kind": "leaf", "vertex": 0}]})
    with pytest.raises(ValueError):
        cotree_from_json({"kind": "nope", "children": []})
    with pytest.raises(ValueError):
        cotree_from_json({"kind": "leaf", "vertex": True})
    with pytest.raises(ValueError, match="^tree node must be an object, got list$"):
        cotree_from_json({"kind": "series", "children": [[], {"kind": "leaf", "vertex": 0}]})
    for node in ({"kind": "series"}, {"kind": "series", "children": "ab"}):
        with pytest.raises(ValueError, match="^series node needs a list of children$"):
            cotree_from_json(node)


def test_dot_output():
    t = cotree(DIAMOND)
    dot = cotree_to_dot(t)
    assert dot.startswith("graph cotree {")
    assert '[label="×"]' in dot
    assert '[label="∪"]' in dot
    assert "n0 -- n1" in dot
    assert dot.rstrip().endswith("}")


def test_dot_applies_labels():
    dot = cotree_to_dot(cotree(K2), labels=(10, 20))
    assert '[label="10"]' in dot
    assert '[label="20"]' in dot
