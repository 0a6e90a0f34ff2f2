"""Independent ground-truth routes: brute-force pattern scans and
exhaustive enumeration of small instances.

Everything here favors the obvious implementation over the fast one and
is kept separate from the decomposition engines so the two sides can be
compared instance by instance.  Size guards on the exponential
enumerations are hard errors, not warnings.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator

from .cographs import Cotree, P4Witness, cotree
from .graphs import Graph
from .rows import iter_bits
from .lemmas import (
    endpoint_witness,
    is_nfree,
    join_witness,
    linear_split_witness,
    neighbor_split,
    non_neighbor_components,
    select_universal_neighbor,
)
from .posets import NWitness, Poset
from .spdecomp import sp_tree
from .trees import cotree_to_graph, sp_tree_to_poset

# perfbench/ reads the generators here, and changes only with the benchmark.
from .trees import SplitMix64, rand_cotree, rand_gnp, rand_poset, rand_sptree  # noqa: F401

MAX_ENUM_GRAPH = 6
MAX_ENUM_POSET = 5
MAX_ENUM_NATURAL = 7
MAX_DEF_CHECK = 12
MAX_MODULE_ENUM = 20

# The 12 orderings of a 4-set that name a path once reversals are merged.
_PATH_ORDERS = tuple(
    perm for perm in itertools.permutations(range(4)) if perm[0] < perm[3]
)


# === brute-force scans ===


def brute_p4(g: Graph) -> P4Witness | None:
    """Scan 4-subsets in lexicographic order, trying all 12 path labelings
    of each; return the first induced path found, or None."""
    adj = g.adj
    for quad in itertools.combinations(range(g.order), 4):
        for perm in _PATH_ORDERS:
            a, b, c, d = (quad[i] for i in perm)
            if (
                (adj[a] >> b) & 1
                and (adj[b] >> c) & 1
                and (adj[c] >> d) & 1
                and not (adj[a] >> c) & 1
                and not (adj[a] >> d) & 1
                and not (adj[b] >> d) & 1
            ):
                return P4Witness((a, b, c, d))
    return None


def brute_n(p: Poset) -> NWitness | None:
    """Scan element quadruples (a, b, c, d) in lexicographic order for the
    exact pattern a < b, c < b, c < d with the other three pairs
    incomparable; first witness or None.  Each loop level enforces one
    constraint, so candidate sets shrink instead of being rescanned."""
    dom = p.full_mask()
    below, above = p.below, p.above
    comp = [below[v] | above[v] for v in range(p.order)]
    for a in iter_bits(dom):
        inc_a = dom & ~comp[a] & ~(1 << a)
        for b in iter_bits(above[a]):
            for c in iter_bits(below[b] & inc_a):
                ds = above[c] & inc_a & ~comp[b] & ~(1 << b)
                if ds:
                    d = (ds & -ds).bit_length() - 1
                    return NWitness((a, b, c, d))
    return None


def _connected(rows: list[int], sub: int) -> bool:
    """Whether the vertices of the mask ``sub`` are connected by the
    neighbor masks ``rows``, by a plain search from its lowest vertex."""
    first = (sub & -sub).bit_length() - 1
    seen, stack = 1 << first, [first]
    while stack:
        new = rows[stack.pop()] & sub & ~seen
        seen |= new
        stack += [v for v in range(new.bit_length()) if new >> v & 1]
    return seen == sub


def brute_cograph_def(g: Graph) -> bool:
    """Evaluate the defining property directly: every induced subgraph on
    two or more vertices is disconnected or has a disconnected
    complement.  Exponential; guarded."""
    n = g.order
    if n > MAX_DEF_CHECK:
        raise ValueError(f"definition check limited to order {MAX_DEF_CHECK}, got {n}")
    co = [~row & ~(1 << v) for v, row in enumerate(g.adj)]
    for sub in range(1 << n):
        if sub.bit_count() >= 2 and _connected(g.adj, sub) and _connected(co, sub):
            return False
    return True


# === module enumeration ===


def _modules(n: int, relations: tuple[tuple[int, ...], ...]) -> list[tuple[int, ...]]:
    # Subsets that every outside element meets all or nothing of under
    # each relation (one mask per element).
    if n > MAX_MODULE_ENUM:
        raise ValueError(f"module enumeration limited to order {MAX_MODULE_ENUM}, got {n}")
    full = (1 << n) - 1
    out = []
    for a in range(1 << n):
        if all(
            rel[v] & a in (0, a) for v in iter_bits(full & ~a) for rel in relations
        ):
            out.append(tuple(iter_bits(a)))
    return out


def graph_modules(g: Graph) -> list[tuple[int, ...]]:
    """All modules of g, trivial ones included, by scanning every vertex
    subset.  Guarded."""
    return _modules(g.order, (g.adj,))


def poset_modules(p: Poset) -> list[tuple[int, ...]]:
    """All order modules: subsets every outside element relates to
    uniformly (below all, above all, or incomparable to all).  Guarded."""
    return _modules(p.order, (p.below, p.above))


def is_prime_graph(g: Graph) -> bool:
    """Prime means only trivial modules (empty, singletons, everything)."""
    return all(len(m) in (0, 1, g.order) for m in graph_modules(g))


def is_prime_poset(p: Poset) -> bool:
    return all(len(m) in (0, 1, p.order) for m in poset_modules(p))


# === exhaustive enumeration ===


def enumerate_graphs(n: int) -> Iterator[Graph]:
    """All labeled graphs on n vertices, one per edge-set bitmask in
    ascending order.  Guarded."""
    if n > MAX_ENUM_GRAPH:
        raise ValueError(f"graph enumeration limited to order {MAX_ENUM_GRAPH}, got {n}")
    if n < 0:
        raise ValueError("order must be non-negative")
    pairs = list(itertools.combinations(range(n), 2))
    for code in range(1 << len(pairs)):
        adj = [0] * n
        for i, (u, v) in enumerate(pairs):
            if (code >> i) & 1:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
        yield Graph(tuple(adj))


def enumerate_posets(n: int) -> Iterator[Poset]:
    """All labeled strict partial orders on n elements: every assignment of
    none / u<v / v<u to the unordered pairs, filtered by transitivity.
    Antisymmetry and irreflexivity hold by construction.  Guarded."""
    if n > MAX_ENUM_POSET:
        raise ValueError(f"poset enumeration limited to order {MAX_ENUM_POSET}, got {n}")
    if n < 0:
        raise ValueError("order must be non-negative")
    pairs = list(itertools.combinations(range(n), 2))
    for states in itertools.product((0, 1, 2), repeat=len(pairs)):
        below = [0] * n
        above = [0] * n
        for (u, v), state in zip(pairs, states):
            if state == 1:
                below[v] |= 1 << u
                above[u] |= 1 << v
            elif state == 2:
                below[u] |= 1 << v
                above[v] |= 1 << u
        transitive = True
        for v in range(n):
            for u in iter_bits(below[v]):
                if below[u] & ~below[v]:
                    transitive = False
                    break
            if not transitive:
                break
        if transitive:
            yield Poset(tuple(below), tuple(above))


def enumerate_natural_posets(n: int) -> Iterator[Poset]:
    """All naturally labeled strict partial orders on n elements, those in
    which u < v only when u < v as integers: each new element k is a top
    element whose down-set is an order ideal of the order on 0..k-1.
    Every order is isomorphic to one of them.  Guarded."""
    if n > MAX_ENUM_NATURAL:
        raise ValueError(f"natural order enumeration limited to order {MAX_ENUM_NATURAL}, got {n}")
    if n < 0:
        raise ValueError("order must be non-negative")
    orders: list[tuple[int, ...]] = [()]
    for k in range(n):
        orders = [
            below + (ideal,)
            for below in orders
            for ideal in range(1 << k)
            if all(below[v] & ~ideal == 0 for v in iter_bits(ideal))
        ]
    for below in orders:
        above = [0] * n
        for v in range(n):
            for u in iter_bits(below[v]):
                above[u] |= 1 << v
        yield Poset(below, tuple(above))


# === oracle comparison sweeps ===


def check_graph_instance(g: Graph) -> str | None:
    """Compare every decomposition claim against the oracles on one graph.
    Returns a failure tag or None."""
    p4 = brute_p4(g)
    tree = cotree(g) if g.order else None
    recognized = g.order == 0 or isinstance(tree, Cotree)
    if recognized != (p4 is None):
        return "recognition disagrees with the path scan"
    if g.order <= MAX_DEF_CHECK and brute_cograph_def(g) != recognized:
        return "recognition disagrees with the defining property"
    if isinstance(tree, P4Witness) and not tree.validate(g):
        return "path certificate does not validate"
    if isinstance(tree, Cotree) and cotree_to_graph(tree) != g:
        return "decomposition tree does not rebuild its graph"
    if g.order == 0 or not g.is_connected():
        return None
    w = join_witness(g)
    if (w is not None) != (len(g.co_components()) > 1):
        return "join witness existence disagrees with complement components"
    if w is not None and not w.validate(g):
        return "join witness does not validate"
    if recognized:
        for x in range(g.order):
            for block in non_neighbor_components(g, x):
                if not g.is_module(block):
                    return "a non-neighbor block is not a module"
                split = neighbor_split(g, x, block)
                if not split.validate(g, x):
                    return "a neighbor split does not validate"
            if g.neighbors(x):
                if select_universal_neighbor(g, x) not in g.universal_neighbors(x):
                    return "selected neighbor is not universal"
    if g.order >= 4 and is_prime_graph(g) and p4 is None:
        return "a prime graph of order four or more has no induced path"
    return None


def check_poset_instance(p: Poset) -> str | None:
    """Compare every order-side claim against the oracles on one poset."""
    nw = brute_n(p)
    free = nw is None
    if is_nfree(p) != free:
        return "module criterion disagrees with the quadruple scan"
    if p.order:
        tree = sp_tree(p)
        if isinstance(tree, NWitness):
            if free:
                return "decomposition found an N in an N-free order"
            if not tree.validate(p):
                return "N certificate does not validate"
        else:
            if not free:
                return "decomposition missed an N"
            if sp_tree_to_poset(tree) != p:
                return "decomposition tree does not rebuild its order"
    cg = p.comparability_graph()
    if p.order <= MAX_MODULE_ENUM:
        if is_prime_poset(p) != is_prime_graph(cg):
            return "order primality disagrees with comparability-graph primality"
    if free and p.order >= 1 and p.is_connected():
        w = linear_split_witness(p)
        inc_split = len(p.incomparability_graph().components()) > 1
        if (w is not None) != inc_split:
            return "linear split existence disagrees with incomparability components"
        if w is not None and not w.validate(p):
            return "linear split does not validate"
        for x in range(p.order):
            ew = endpoint_witness(p, x)
            cand = p.split_candidates(x)
            if ew.endpoint != x and ew.endpoint not in cand.lower + cand.upper:
                return "chain endpoint is not a split candidate"
    return None


def mismatch(obj: Graph | Poset, tag: str) -> dict:
    """The ``oracle-compare`` report of an instance that failed check ``tag``."""
    if isinstance(obj, Graph):
        kind, payload = "graph", {"n": obj.order, "edges": [list(e) for e in obj.edges()]}
    else:
        kind, payload = "poset", {"n": obj.order, "relations": [list(r) for r in obj.relations()]}
    return {"ok": False, "kind": kind, "check": tag, "payload": payload}
