"""Property tests through the command line on generated graphs and orders:
decisions agree with the brute-force oracles, every printed certificate
validates, and every printed tree rebuilds its input.  The CLI runs the
split engine on rows, the library on records, so every printed tree and
certificate must also be the one that ``cotree`` or ``sp_tree`` returns."""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from cosp import (
    Cotree,
    Graph,
    NWitness,
    P4Witness,
    cotree,
    cotree_from_json,
    cotree_to_graph,
    format_graph,
    format_poset,
    parse_graph,
    parse_poset,
    sp_tree,
    sp_tree_from_json,
    sp_tree_to_poset,
)
from cosp.cographs import _preorder
from cosp import oracles
from cosp.cli import main

MAX_ORDER = 12
SETTINGS = settings(max_examples=300, derandomize=True, deadline=None)


@st.composite
def pair_sets(draw, ordered):
    """An order n and a set of pairs on 0..n-1: edges, or, with ordered,
    relations u < v whose ids need not follow the order."""
    n = draw(st.integers(0, MAX_ORDER))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    if ordered:
        perm = draw(st.permutations(range(n)))
        chosen = {(perm[u], perm[v]) for u, v in chosen}
    return n, sorted(chosen)


@pytest.fixture(scope="module")
def path(tmp_path_factory):
    return str(tmp_path_factory.mktemp("properties") / "input.txt")


def cli(command, path, *rest):
    """Exit code and standard output of one request."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main([command, path, *rest])
    return code, out.getvalue()


@SETTINGS
@given(pair_sets(ordered=False))
def test_graph_requests(path, case):
    n, edges = case
    g = Graph.from_edges(n, edges)
    text = format_graph(g)
    assert parse_graph(text) == (g, tuple(range(n)))
    with open(path, "w") as fh:
        fh.write(text)
    expected = 0 if oracles.brute_p4(g) is None else 1
    result = cotree(g) if n else None
    for command in ("check", "cotree") if n else ("check",):
        code, out = cli(command, path)
        assert code == expected
        if code:
            w = P4Witness(tuple(json.loads(out)["path"]))
            assert w.validate(g) and w == result
        elif command == "cotree":
            t = cotree_from_json(json.loads(out))
            assert t == result and cotree_to_graph(t) == g
        elif n:
            assert json.loads(out) == {"cograph": True, "order": n, **summary(result)}


def summary(t: Cotree) -> dict:
    """The internal nodes by kind and the depth of a tree, from its nodes."""
    nodes = _preorder(t)
    depth = {id(t): 1}
    for node in nodes:
        for child in node.children:
            depth[id(child)] = depth[id(node)] + 1
    kinds = [node.kind for node in nodes]
    return {
        "series": kinds.count("series"),
        "parallel": kinds.count("parallel"),
        "depth": max(depth.values()),
    }


@SETTINGS
@given(pair_sets(ordered=True))
def test_order_requests(path, case):
    n, relations = case
    text = f"n {n}\n" + "".join(f"{u} {v}\n" for u, v in relations)
    p, labels = parse_poset(text)
    assert labels == tuple(range(n))
    assert parse_poset(format_poset(p)) == (p, labels)
    assert parse_poset(format_poset(p, mode="full"), mode="full") == (p, labels)
    with open(path, "w") as fh:
        fh.write(text)
    expected = 0 if oracles.brute_n(p) is None else 1
    code, out = cli("poset", path, "nfree")
    assert code == expected
    if not n:
        return
    result = sp_tree(p)
    for action in (("nfree",), ("sptree",), ("linear-split",), ("endpoint", "--x", "0")):
        code, out = cli("poset", path, *action)
        if action[0] in ("nfree", "sptree"):
            assert code == expected
        if code == 1 and '"kind": "n"' in out:
            assert expected == 1
            w = NWitness(tuple(json.loads(out)["quad"]))
            assert w.validate(p) and w == result
        elif code == 0 and action[0] == "sptree":
            t = sp_tree_from_json(json.loads(out))
            assert t == result and sp_tree_to_poset(t) == p
