"""Acceptance gate: eleven exhaustive or randomized criteria.

Each test prints one summary line (visible under ``pytest -s`` and in any
failure report) and enforces the pinned time bound where one applies.
Criteria sweep every labeled instance at desk scale, so a single
discrepancy anywhere fails loudly with the offending instance.
"""

import time

from cosp import (
    cotree,
    cotree_to_graph,
    is_cograph,
    is_nfree,
    join_witness,
    linear_split_witness,
    endpoint_witness,
    neighbor_split,
    non_neighbor_components,
    orient_cotree,
    parity_split_graph,
    select_universal_neighbor,
    sp_tree,
    sp_tree_to_poset,
)
from cosp.cographs import Cotree
from cosp.posets import NWitness
from cosp import oracles
from cosp.trees import SplitMix64, rand_cotree, rand_sptree


def _report(num, label, ok, elapsed=None, bound=None):
    status = "PASS" if ok else "FAIL"
    timing = ""
    if bound is not None:
        timing = f"  [{elapsed:.1f}s, bound {bound:.0f}s]"
    print(f"[acceptance {num:02d}] {label}: {status}{timing}")


def test_criterion_01_recognition_routes_agree():
    """Decomposition, path scan, and the defining property coincide
    on every labeled graph with at most five vertices."""
    t0 = time.perf_counter()
    bad = []
    checked = 0
    for n in range(6):
        for g in oracles.enumerate_graphs(n):
            checked += 1
            a = is_cograph(g)
            b = oracles.brute_p4(g) is None
            c = oracles.brute_cograph_def(g)
            if not (a == b == c):
                bad.append((g, a, b, c))
    elapsed = time.perf_counter() - t0
    ok = not bad and checked == 1024 + 76 and elapsed < 30.0
    _report(1, "recognition routes agree through order 5", ok, elapsed, 30.0)
    assert not bad, bad[:3]
    assert checked == 1100
    assert elapsed < 30.0


def test_criterion_02_join_witness_equivalence(connected_cographs_to_6):
    """A join witness exists exactly when the complement splits, and
    every witness set really is joined to the rest."""
    t0 = time.perf_counter()
    bad = []
    for g in connected_cographs_to_6:
        w = join_witness(g)
        split = len(g.co_components()) > 1
        if (w is not None) != split:
            bad.append((g, "existence"))
        if w is not None and not w.validate(g):
            bad.append((g, "invariant"))
    elapsed = time.perf_counter() - t0
    ok = not bad and elapsed < 300.0
    _report(2, "join witnesses track complement components", ok, elapsed, 300.0)
    assert not bad, bad[:3]
    assert elapsed < 300.0


def test_criterion_03_blocks_are_modules(connected_cographs_to_6):
    """Every non-neighbor block is a module and splits the neighborhood
    into a fully joined pair of sides."""
    bad = []
    for g in connected_cographs_to_6:
        for x in range(g.order):
            for block in non_neighbor_components(g, x):
                if not g.is_module(block):
                    bad.append((g, x, block, "module"))
                s = neighbor_split(g, x, block)
                if not s.validate(g, x):
                    bad.append((g, x, block, "split"))
    ok = not bad
    _report(3, "non-neighbor blocks are joined modules", ok)
    assert not bad, bad[:3]


def test_criterion_04_selection_is_universal(connected_cographs_to_6):
    """The chosen neighbor is adjacent to every non-neighbor of x."""
    bad = []
    for g in connected_cographs_to_6:
        for x in range(g.order):
            if not g.neighbors(x):
                continue
            y = select_universal_neighbor(g, x)
            if y not in g.universal_neighbors(x):
                bad.append((g, x, y))
    ok = not bad
    _report(4, "selected neighbors are universal", ok)
    assert not bad, bad[:3]


def test_criterion_05_nfree_routes_agree(posets_to_4):
    """Quadruple scan, module criterion, and tree construction give the
    same verdict on every labeled order with at most four elements."""
    t0 = time.perf_counter()
    bad = []
    for p in posets_to_4:
        a = oracles.brute_n(p) is None
        b = is_nfree(p)
        c = p.order == 0 or not isinstance(sp_tree(p), NWitness)
        if not (a == b == c):
            bad.append((p, a, b, c))
    elapsed = time.perf_counter() - t0
    ok = not bad and elapsed < 120.0
    _report(5, "N-freeness routes agree through order 4", ok, elapsed, 120.0)
    assert not bad, bad[:3]
    assert elapsed < 120.0


def test_criterion_06_linear_split_equivalence(connected_nfree_to_4):
    """A three-layer split exists exactly when incomparability
    disconnects, and each split satisfies its layer orderings."""
    bad = []
    for p in connected_nfree_to_4:
        w = linear_split_witness(p)
        split = len(p.incomparability_graph().components()) > 1
        if (w is not None) != split:
            bad.append((p, "existence"))
        if w is not None and not w.validate(p):
            bad.append((p, "layers"))
    ok = not bad
    _report(6, "linear splits track incomparability components", ok)
    assert not bad, bad[:3]


def test_criterion_07_endpoints_always_qualify(connected_nfree_to_4):
    """Some endpoint of a maximal chain through x is comparable to
    everything incomparable to x, for every x."""
    bad = []
    for p in connected_nfree_to_4:
        for x in range(p.order):
            try:
                w = endpoint_witness(p, x)
            except Exception as exc:  # noqa: BLE001  (counted, reported below)
                bad.append((p, x, exc))
                continue
            if any(not p.comparable(w.endpoint, y) for y in p.incomparables(x)):
                bad.append((p, x, w))
    ok = not bad
    _report(7, "chain endpoints dominate incomparables", ok)
    assert not bad, bad[:3]


def test_criterion_08_primality_transfers(posets_to_4):
    """An order is prime exactly when its comparability graph is."""
    bad = []
    for p in posets_to_4:
        if oracles.is_prime_poset(p) != oracles.is_prime_graph(p.comparability_graph()):
            bad.append(p)
    ok = not bad
    _report(8, "primality transfers to comparability graphs", ok)
    assert not bad, bad[:3]


def test_criterion_09_round_trips():
    """Ten thousand random trees per side rebuild themselves exactly,
    and a thousand orientations stay free of the four-element pattern."""
    t0 = time.perf_counter()
    bad = 0
    rng = SplitMix64(20260822)
    for _ in range(10_000):
        n = 1 + rng.randrange(64)
        t = rand_cotree(n, rng.next_u64())
        if cotree(cotree_to_graph(t)) != t:
            bad += 1
    rng = SplitMix64(20260823)
    for _ in range(10_000):
        n = 1 + rng.randrange(64)
        t = rand_sptree(n, rng.next_u64())
        if sp_tree(sp_tree_to_poset(t)) != t:
            bad += 1
    rng = SplitMix64(20260824)
    for _ in range(1_000):
        n = 1 + rng.randrange(40)
        t = rand_cotree(n, rng.next_u64())
        p = orient_cotree(t)
        if p.comparability_graph() != cotree_to_graph(t):
            bad += 1
        elif oracles.brute_n(p) is not None:
            bad += 1
    elapsed = time.perf_counter() - t0
    ok = bad == 0 and elapsed < 300.0
    _report(9, "twenty-one thousand random round trips", ok, elapsed, 300.0)
    assert bad == 0
    assert elapsed < 300.0


def test_criterion_10_window_family():
    """Every window of the even-joins-everything-above graph is a
    connected cograph whose complement splits (from two vertices up)."""
    bad = []
    for n in range(1, 201):
        g = parity_split_graph(n)
        if not is_cograph(g):
            bad.append((n, "recognition"))
        if n >= 2 and not g.is_connected():
            bad.append((n, "connectivity"))
        if n <= 9 and oracles.brute_p4(g) is not None:
            bad.append((n, "path scan"))
        if n >= 2 and join_witness(g) is None:
            bad.append((n, "join witness"))
    ok = not bad
    _report(10, "window family of two hundred truncations", ok)
    assert not bad, bad[:5]


def test_criterion_11_performance_floor():
    """Both decompositions handle ten thousand leaves within bounds."""
    g = cotree_to_graph(rand_cotree(10_000, 1))
    t0 = time.perf_counter()
    t = cotree(g)
    graph_elapsed = time.perf_counter() - t0
    assert isinstance(t, Cotree)

    p = sp_tree_to_poset(rand_sptree(10_000, 2))
    t0 = time.perf_counter()
    s = sp_tree(p)
    poset_elapsed = time.perf_counter() - t0
    assert not isinstance(s, NWitness)

    ok = graph_elapsed < 10.0 and poset_elapsed < 10.0
    _report(
        11,
        f"order ten-thousand decompositions (graph {graph_elapsed:.1f}s, order {poset_elapsed:.1f}s)",
        ok,
        max(graph_elapsed, poset_elapsed),
        10.0,
    )
    assert graph_elapsed < 10.0
    assert poset_elapsed < 10.0
