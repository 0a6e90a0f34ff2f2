"""Graph representation, neighborhoods, components, and the text format."""

import pytest

from cosp import Graph, ParseError, format_graph, parse_graph
from cosp.graphs import mask_of, vertices_of
from cosp.rows import iter_bits, mask_components

PAW = Graph.from_edges(4, [(0, 1), (0, 2), (1, 2), (1, 3)])
P4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
K3 = Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)])
DIAMOND = Graph.from_edges(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])


def test_mask_helpers_round_trip():
    m = mask_of([5, 0, 2])
    assert m == 0b100101
    assert list(iter_bits(m)) == [0, 2, 5]
    assert vertices_of(m) == (0, 2, 5)


def test_from_edges_rejects_bad_input():
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(0, 3)])
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(1, 1)])
    with pytest.raises(ValueError):
        Graph.from_edges(2, [(-1, 0)])
    with pytest.raises(ValueError, match=r"^order must be non-negative$"):
        Graph.from_edges(-1, [])


def test_edges_sorted_and_counted():
    g = Graph.from_edges(4, [(3, 2), (1, 0), (0, 2)])
    assert g.edges() == [(0, 1), (0, 2), (2, 3)]
    assert g.edge_count() == 3
    assert g.has_edge(2, 0)
    assert not g.has_edge(1, 3)


def test_neighbors():
    assert PAW.neighbors(1) == {0, 2, 3}
    assert PAW.neighbors(3) == {1}
    k2 = Graph.from_edges(2, [(0, 1)])
    assert k2.neighbors(0) == {1}
    edgeless = Graph.from_edges(3, [])
    assert edgeless.neighbors(2) == frozenset()
    with pytest.raises(ValueError):
        PAW.neighbors(4)


def test_non_neighbors():
    assert PAW.non_neighbors(0) == {3}
    assert K3.non_neighbors(0) == frozenset()
    assert Graph.from_edges(3, []).non_neighbors(0) == {1, 2}


def test_neighbor_partition():
    # {x}, N(x), and the non-neighbors of x partition the vertex set
    for g in (PAW, P4, K3, DIAMOND):
        for x in range(g.order):
            n = g.neighbors(x)
            inc = g.non_neighbors(x)
            assert x not in n and x not in inc
            assert not n & inc
            assert len(n) + len(inc) + 1 == g.order


def test_universal_neighbors():
    assert P4.universal_neighbors(0) == frozenset()
    assert K3.universal_neighbors(0) == {1, 2}
    assert PAW.universal_neighbors(0) == {1}
    assert PAW.universal_neighbors(3) == {1}
    assert P4.universal_neighbors(1) == {2}


def test_components():
    assert Graph.from_edges(2, []).components() == [(0,), (1,)]
    assert P4.components() == [(0, 1, 2, 3)]
    two_edges = Graph.from_edges(4, [(0, 1), (2, 3)])
    assert two_edges.components() == [(0, 1), (2, 3)]
    assert Graph.from_edges(0, []).components() == []


def test_co_components():
    assert Graph.from_edges(2, [(0, 1)]).co_components() == [(0,), (1,)]
    assert P4.co_components() == [(0, 1, 2, 3)]
    assert DIAMOND.co_components() == [(0, 3), (1,), (2,)]


def test_mask_component_sub_restriction():
    # components of a sub-mask ignore vertices outside it
    assert mask_components(P4.adj, mask_of([0, 1, 3])) == [mask_of([0, 1]), mask_of([3])]
    assert mask_components(K3.adj, mask_of([0, 2]), co=True) == [mask_of([0]), mask_of([2])]


def test_is_connected():
    assert P4.is_connected()
    assert not Graph.from_edges(2, []).is_connected()
    assert Graph.from_edges(1, []).is_connected()
    assert Graph.from_edges(0, []).is_connected()


def test_induced():
    sub, keep = P4.induced([0, 1])
    assert keep == (0, 1)
    assert sub.edges() == [(0, 1)]
    sub, keep = P4.induced([0, 2])
    assert sub.edges() == []
    sub, keep = PAW.induced([0, 1, 2])
    assert sub == K3
    sub, keep = P4.induced([3, 1, 2])
    assert keep == (1, 2, 3)
    assert sub.edges() == [(0, 1), (1, 2)]
    with pytest.raises(ValueError):
        P4.induced([0, 4])


def test_induced_full_is_identity():
    assert P4.induced(range(4))[0] == P4


def test_is_module():
    assert PAW.is_module([0, 2])
    assert not PAW.is_module([1, 3])
    assert PAW.is_module([])
    assert PAW.is_module([2])
    assert PAW.is_module(range(4))
    for members in ([0, 9], [-1], [4]):
        with pytest.raises(ValueError, match=r"^member out of range for order 4$"):
            PAW.is_module(members)


def test_vertex_out_of_range():
    for x in (9, -1, 4):
        with pytest.raises(ValueError, match=rf"^vertex {x} out of range for order 4$"):
            PAW.has_edge(0, x)
        with pytest.raises(ValueError, match=rf"^vertex {x} out of range for order 4$"):
            PAW.neighbors(x)


def test_complement():
    assert P4.complement().edges() == [(0, 2), (0, 3), (1, 3)]
    assert K3.complement().edges() == []
    assert P4.complement().complement() == P4


def test_parse_minimal():
    g, labels = parse_graph("0 1\n1 2\n")
    assert labels == (0, 1, 2)
    assert g.edges() == [(0, 1), (1, 2)]


def test_parse_header_comments_blanks():
    text = "# a triangle\n\nn 3\n0 1\n# middle\n1 2\n0 2\n"
    g, labels = parse_graph(text)
    assert g == K3
    assert labels == (0, 1, 2)


def test_parse_header_allows_isolated_vertices():
    g, labels = parse_graph("n 4\n1 2\n")
    assert g.order == 4
    assert g.edges() == [(1, 2)]


def test_parse_sparse_labels_remapped():
    g, labels = parse_graph("10 30\n20 30\n")
    assert labels == (10, 20, 30)
    assert g.edges() == [(0, 2), (1, 2)]


def test_parse_rejects_self_loop():
    with pytest.raises(ParseError) as exc:
        parse_graph("0 1\n2 2\n")
    assert exc.value.line == 2
    assert "2 2" in str(exc.value) or "self" in str(exc.value)


def test_parse_rejects_duplicate_edge():
    with pytest.raises(ParseError) as exc:
        parse_graph("0 1\n1 0\n")
    assert exc.value.line == 2


def test_parse_rejects_out_of_range():
    with pytest.raises(ParseError) as exc:
        parse_graph("n 3\n0 5\n")
    assert exc.value.line == 2


def test_parse_rejects_garbage():
    with pytest.raises(ParseError):
        parse_graph("0 1 2\n")
    with pytest.raises(ParseError):
        parse_graph("a b\n")
    with pytest.raises(ParseError):
        parse_graph("n 3\nn 4\n0 1\n")


def test_format_round_trip():
    for g in (P4, PAW, DIAMOND, Graph.from_edges(3, [])):
        again, labels = parse_graph(format_graph(g))
        assert again == g
        assert labels == tuple(range(g.order))


def test_format_applies_labels():
    text = format_graph(Graph.from_edges(2, [(0, 1)]), labels=(7, 9))
    assert "7 9" in text
    g, labels = parse_graph(text)
    assert labels == (7, 9)
