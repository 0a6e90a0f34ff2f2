"""The inputs that :mod:`cosp.trees` builds: the seeded generators behind
``gen`` and the benchmark, and the hard input families of the tests."""

import hashlib

import pytest

from cosp import Cotree, Graph, Poset, cotree, cotree_to_graph, format_graph, format_poset
from cosp import orient_cotree, parity_split_graph, sp_tree_to_poset
from cosp.trees import SplitMix64, all_blocks_graph, parity_orientation, rand_cotree, rand_gnp
from cosp.trees import rand_poset, rand_sptree, spider_graph, validate_cotree, validate_sp_tree


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def test_splitmix_reference_vector():
    # published first outputs of the 64-bit split-mix generator
    r = SplitMix64(0)
    assert r.next_u64() == 0xE220A8397B1DCDAF
    r = SplitMix64(1234567)
    assert [r.next_u64() for _ in range(3)] == [
        6457827717110365317,
        3203168211198807973,
        9817491932198370423,
    ]


def test_splitmix_split_streams_differ():
    r = SplitMix64(5)
    a = r.split(0)
    b = r.split(1)
    assert [a.next_u64() for _ in range(4)] != [b.next_u64() for _ in range(4)]


def test_splitmix_randrange_bounds():
    r = SplitMix64(9)
    vals = [r.randrange(10) for _ in range(200)]
    assert all(0 <= v < 10 for v in vals)
    assert len(set(vals)) == 10
    assert r.randrange(1) == 0
    with pytest.raises(ValueError):
        r.randrange(0)


def test_shuffled_is_permutation():
    r = SplitMix64(11)
    items = list(range(20))
    out = r.shuffled(items)
    assert sorted(out) == items
    assert items == list(range(20))


def test_rand_cotree_deterministic_and_canonical():
    a = rand_cotree(17, 123)
    b = rand_cotree(17, 123)
    assert a == b
    validate_cotree(a)
    assert cotree_to_graph(a).order == 17
    # single leaf regardless of seed
    assert rand_cotree(1, 0) == Cotree.leaf(0)
    assert rand_cotree(1, 7) == Cotree.leaf(0)
    with pytest.raises(ValueError):
        rand_cotree(0, 1)
    # The benchmark's input digests depend on every generated tree.
    text = format_graph(cotree_to_graph(rand_cotree(500, 1)))
    assert sha256(text) == "421425042b8804e69453d0759d1f087385d4f10f0413a369914e124c2e017f9c"


def test_rand_cotree_seed_changes_output():
    assert rand_cotree(17, 1) != rand_cotree(17, 2)
    roots = [rand_cotree(2, seed).kind for seed in range(4)]
    assert roots == ["parallel", "parallel", "series", "parallel"]


def test_rand_sptree_deterministic_and_canonical():
    a = rand_sptree(17, 123)
    b = rand_sptree(17, 123)
    assert a == b
    validate_sp_tree(a)
    assert sp_tree_to_poset(a).order == 17
    text = format_poset(sp_tree_to_poset(rand_sptree(500, 1)))
    assert sha256(text) == "7610ea55e319117a5a2c6db843aa88752432ea26bebde71bf0cbc5940376aa95"


def test_rand_gnp_extremes():
    assert rand_gnp(5, 0.0, 1).edges() == []
    assert rand_gnp(5, 1.0, 1).edge_count() == 10
    g = rand_gnp(6, 0.5, 4)
    assert g == rand_gnp(6, 0.5, 4) == Graph.from_edges(6, g.edges())
    assert rand_gnp(0, 0.5, 4) == Graph(()) and rand_gnp(3, 0.0, 1) == Graph((0, 0, 0))
    # An edge needs a draw below the threshold: here seed 6's first draw is it.
    assert rand_gnp(2, 13647215125184110592 / 2**64, 6).edge_count() == 0
    for n, p in ((-1, 0.5), (5, 1.5), (5, -0.5)):
        with pytest.raises(ValueError):
            rand_gnp(n, p, 1)
    # gen gnp and the verdicts workload's digests read these bytes.
    text = format_graph(rand_gnp(300, 0.05, 1))
    assert sha256(text) == "4181ca0fc7ff68f315edb293bf7e6905b10a5f4aa811b7e5b499e07d87645812"


def test_rand_poset_valid():
    for seed in range(5):
        p = rand_poset(8, 0.4, seed)
        p.validate()
    assert rand_poset(8, 0.4, 3) == rand_poset(8, 0.4, 3)
    # The bytes of gen poset 60 0.3 --seed 4.
    text = format_poset(rand_poset(60, 0.3, 4))
    assert sha256(text) == "220c4d4aadd578b83f04f8d29f59db558887de6441db4377818692a3224779a9"


def test_the_hard_families_by_their_relations():
    assert parity_orientation(9) == orient_cotree(cotree(parity_split_graph(9)))
    assert parity_orientation(5) == Poset.from_relations(5, [(0, 1), (0, 2), (2, 3), (2, 4)])
    assert spider_graph(3) == Graph.from_edges(6, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 4), (2, 5)])
    apex = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    assert spider_graph(3, apex=True) == Graph.from_edges(7, apex + [(1, 4), (2, 5), (3, 6)])
    legs = [(2, 4), (3, 4), (1, 5), (3, 5), (1, 6), (2, 6)]
    assert all_blocks_graph(3) == Graph.from_edges(7, apex + legs)
