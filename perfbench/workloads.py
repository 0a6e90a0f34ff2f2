"""Seeded inputs and request rounds of the three benchmark workloads.

A workload is a set of slots.  A slot fixes a family, a size stratum and
the commands a request on it may carry.  The seed draws one instance per
slot: its size (the stratum's geometric centre, jittered by up to 0.5%)
and its structure.  A round sends every instance once, in an order drawn
from the seed and the round, with the slot's commands taken in turn from
round to round; a run serves a fixed number of whole rounds, so every
run of a workload has the same mix.

Inputs come from the package's own generators and text writers, plus two
adversary constructions of this module.  Each instance carries the ground
truth the verifier needs: the verdict the generator built in, and for a
positive instance the generator's canonical tree, for a negative one its
masks, so printed witnesses can be re-checked.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path

from cosp import (
    Cotree,
    Graph,
    Poset,
    cotree_to_graph,
    format_graph,
    format_poset,
    orient_cotree,
    parity_split_graph,
    sp_tree_to_poset,
)
from cosp import oracles
from verify import flat_tree

WORKLOADS = ("trees-shallow", "trees-deep", "verdicts")

CHECK = ("check",)
COTREE = ("cotree",)
COTREE_DOT = ("cotree", "--dot")
SPTREE = ("sptree",)
SPTREE_DOT = ("sptree", "--dot")
NFREE = ("nfree",)


@dataclass(frozen=True)
class Slot:
    family: str
    lo: int
    hi: int
    strata: int
    commands: tuple[tuple[str, ...], ...]
    prob: float = 0.0


# Sizes are vertices or elements; for the clique-prefixed path, the clique.
# Each workload has nine or eleven slots and a 30-second run serves seven
# rounds, so each slot's requests form a block of seven in the sorted wall
# times, and the median and the tail percentile (ten samples above it)
# both fall on the middle request of a block, never between two blocks.
SLOTS = {
    # The largest cotree keeps its edge count, the size of the parser's
    # duplicate set, clear of a hash-table resize, which would make the
    # peak RSS jump between seeds.
    "trees-shallow": (
        Slot("cotree", 200, 1030, 6, (CHECK, COTREE, COTREE_DOT)),
        Slot("sptree", 500, 1600, 5, (SPTREE, SPTREE_DOT)),
    ),
    "trees-deep": (
        Slot("parity", 300, 950, 5, (CHECK, COTREE, COTREE_DOT)),
        Slot("orient", 500, 1200, 4, (SPTREE, SPTREE_DOT)),
    ),
    "verdicts": (
        Slot("clique-p4", 30, 72, 3, (CHECK,)),
        Slot("gnp", 50, 400, 1, (CHECK,), prob=0.5),
        Slot("small-cotree", 20, 200, 1, (CHECK,)),
        Slot("sp-nfree", 100, 240, 3, (NFREE,)),
        Slot("rand-poset", 50, 300, 1, (NFREE, SPTREE), prob=0.1),
        Slot("late-n", 100, 240, 2, (NFREE,)),
    ),
}

# A run of S seconds serves round(S / ROUND_S) whole rounds, at least
# one, so the number of rounds, and with it the mix and the percentile
# behind latency_tail_s, never depends on timing noise.  A round takes
# about 4 to 5 s on the machine the benchmark was defined on.
ROUND_S = {"trees-shallow": 30 / 7, "trees-deep": 30 / 7, "verdicts": 30 / 7}

# The self-test scale keeps the mix and divides the sizes.
SMALL_DIVISOR = 10
SMALL_MIN = {"clique-p4": 4, "late-n": 8}

# The adversaries add the path's b, c, d or the N's four elements.
EXTRA_VERTICES = {"clique-p4": 3, "late-n": 4}

GRAPH_FAMILIES = {"cotree", "parity", "clique-p4", "gnp", "small-cotree"}


@dataclass
class Instance:
    family: str
    stratum: int
    n: int
    path: Path
    units: int  # n + edges, or n + relation lines
    lines: int
    positive: bool
    tree: list | None = None  # expected flat tree (see verify.flat_tree)
    summary: tuple[int, int, int] | None = None  # series, parallel, depth
    masks: tuple[int, ...] | None = None  # adjacency or below masks of a negative

    @property
    def is_graph(self) -> bool:
        return self.family in GRAPH_FAMILIES


@dataclass
class Request:
    rid: int
    round: int
    inst: Instance
    command: tuple[str, ...]

    @property
    def label(self) -> str:
        return f"{self.inst.family} n={self.inst.n} {' '.join(self.command)}"

    def argv(self) -> list[str]:
        """CLI arguments after ``python -m cosp.cli``."""
        path = str(self.inst.path)
        if self.inst.is_graph:
            return [self.command[0], path, *self.command[1:]]
        return ["poset", path, *self.command]


def _size(rng: random.Random, slot: Slot, k: int, small: bool) -> int:
    ratio = slot.hi / slot.lo
    n = slot.lo * ratio ** ((k + 0.5) / slot.strata) * (1.0 + rng.uniform(-0.005, 0.005))
    if small:
        n = max(SMALL_MIN.get(slot.family, 6), n / SMALL_DIVISOR)
    return int(round(n))


# === adversaries and ground truth helpers ===


def clique_p4(k: int) -> Graph:
    """A path a-b-c-d whose end a is replaced by a clique on ids 0..k-1;
    b, c, d are k, k+1, k+2.  No split exists, so the decomposition must
    find the path, which sits at the end of the id order."""
    edges = [(i, j) for i in range(k) for j in range(i + 1, k)]
    edges += [(i, k) for i in range(k)]
    edges += [(k, k + 1), (k + 1, k + 2)]
    return Graph.from_edges(k + 3, edges)


def late_n(k: int, rng: random.Random) -> Poset:
    """A random series-parallel order on 0..k-1 beside an N on k..k+3:
    k < k+2, k+1 < k+2, k+1 < k+3.  Scans in id order meet the N last."""
    base = sp_tree_to_poset(_dense(lambda s: oracles.rand_sptree(k, s), k, rng))
    pairs = base.covers() + [(k, k + 2), (k + 1, k + 2), (k + 1, k + 3)]
    return Poset.from_relations(k + 4, pairs)


def parity_chain(n: int, offset: int) -> Cotree:
    """Canonical cotree of ``parity_split_graph(n, offset)``, built from
    its definition: vertex k is universal in the window k..n-1 when
    offset + k is even and isolated in it when odd."""
    node = Cotree.leaf(n - 1)
    for k in range(n - 2, -1, -1):
        kind = "series" if (offset + k) % 2 == 0 else "parallel"
        node = Cotree(kind, children=(Cotree.leaf(k), node))
    return node


def has_p4(adj) -> bool:
    """Whether some edge b-c extends to an induced path a-b-c-d."""
    for b, nb in enumerate(adj):
        for c in _bits(nb):
            ends_a = nb & ~adj[c] & ~(1 << c)
            ends_d = adj[c] & ~nb & ~(1 << b)
            for a in _bits(ends_a):
                if ends_d & ~adj[a]:
                    return True
    return False


def has_n(below, above) -> bool:
    """Whether some c < b extends to an N: a < b, c < d, the rest apart."""
    comp = [below[v] | above[v] for v in range(len(below))]
    for b in range(len(below)):
        for c in _bits(below[b]):
            ends_a = below[b] & ~comp[c] & ~(1 << c)
            ends_d = above[c] & ~comp[b] & ~(1 << b)
            for a in _bits(ends_a):
                if ends_d & ~comp[a]:
                    return True
    return False


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def tree_summary(root) -> tuple[int, int, int]:
    """Series (or linear), parallel (or disjoint) node counts and depth,
    with the root at depth 1."""
    series = parallel = depth = 0
    stack = [(root, 1)]
    while stack:
        node, d = stack.pop()
        depth = max(depth, d)
        if node.kind in ("series", "linear"):
            series += 1
        elif node.kind in ("parallel", "disjoint"):
            parallel += 1
        stack.extend((c, d + 1) for c in node.children)
    return series, parallel, depth


# === generation ===

# Random trees are drawn until the share of comparable pairs (edges of the
# graph, or pairs of the order's closure) lies in this window: parse and
# closure costs and the parser's memory grow with it, and over all draws
# it ranges from below 0.2 to above 0.8, in clusters.  The window is
# narrow, so the largest input's pair count, and with it the peak RSS,
# varies by under 2% between seeds.
DENSITY = (0.615, 0.635)
MAX_DRAWS = 1000


def comparable_pairs(root) -> int:
    """Edges of a cotree's graph, or comparable pairs of an sp-tree's
    order: the leaf pairs whose lowest common node is series or linear."""
    total = 0
    leaves: dict[int, int] = {}
    stack = [(root, False)]
    while stack:
        node, done = stack.pop()
        if not node.children:
            leaves[id(node)] = 1
        elif not done:
            stack.append((node, True))
            stack.extend((c, False) for c in node.children)
        else:
            sizes = [leaves.pop(id(c)) for c in node.children]
            count = leaves[id(node)] = sum(sizes)
            if node.kind in ("series", "linear"):
                total += (count * count - sum(k * k for k in sizes)) // 2
    return total


def _dense(draw, n: int, rng: random.Random):
    """The first tree ``draw(seed)`` whose density lies in DENSITY; after
    MAX_DRAWS tries, the closest one."""
    pairs = max(1, n * (n - 1) // 2)
    lo, hi = DENSITY
    best, best_gap = None, None
    for _ in range(MAX_DRAWS):
        tree = draw(rng.randrange(1 << 32))
        density = comparable_pairs(tree) / pairs
        gap = max(lo - density, density - hi, 0.0)
        if gap == 0.0:
            return tree
        if best_gap is None or gap < best_gap:
            best, best_gap = tree, gap
    return best


def _instance(slot: Slot, n: int, offset: int, rng: random.Random):
    """Build one instance.  Returns its text, its edge or relation-line
    count, whether it was built recognizable, the generating tree of a
    positive and the masks of a negative."""
    fam = slot.family
    if fam == "small-cotree":
        g = cotree_to_graph(t := oracles.rand_cotree(n, rng.randrange(1 << 32)))
        return format_graph(g), g.edge_count(), True, t, None
    if fam == "cotree":
        t = _dense(lambda seed: oracles.rand_cotree(n, seed), n, rng)
        g = cotree_to_graph(t)
        return format_graph(g), g.edge_count(), True, t, None
    if fam == "parity":
        g = parity_split_graph(n, offset)
        return format_graph(g), g.edge_count(), True, parity_chain(n, offset), None
    if fam == "clique-p4":
        g = clique_p4(n)
        return format_graph(g), g.edge_count(), False, None, g.adj
    if fam == "gnp":
        while True:
            g = oracles.rand_gnp(n, slot.prob, rng.randrange(1 << 32))
            if has_p4(g.adj):
                return format_graph(g), g.edge_count(), False, None, g.adj
    if fam in ("sptree", "sp-nfree"):
        t = _dense(lambda seed: oracles.rand_sptree(n, seed), n, rng)
        text = format_poset(sp_tree_to_poset(t))
        return text, text.count("\n") - 1, True, t, None
    if fam == "orient":
        chain = parity_chain(n, offset)
        text = format_poset(orient_cotree(chain))
        return text, text.count("\n") - 1, True, chain, None
    if fam == "rand-poset":
        while True:
            p = oracles.rand_poset(n, slot.prob, rng.randrange(1 << 32))
            if has_n(p.below, p.above):
                text = format_poset(p)
                return text, text.count("\n") - 1, False, None, p.below
    if fam == "late-n":
        p = late_n(n, rng)
        text = format_poset(p)
        return text, text.count("\n") - 1, False, None, p.below
    raise ValueError(f"unknown family {fam!r}")


class Workload:
    """The instances of one workload and seed, and its rounds."""

    def __init__(self, name: str, seed: int, work_dir: Path, small: bool = False):
        if name not in SLOTS:
            raise ValueError(f"unknown workload {name!r}")
        self.name = name
        self.seed = seed
        self.slots: list[tuple[Slot, Instance]] = []
        digest = hashlib.sha256()
        rng = random.Random(f"perfbench:{name}:{seed}")
        work_dir.mkdir(parents=True, exist_ok=True)
        for slot in SLOTS[name]:
            for k in range(slot.strata):
                inst = self._instance(slot, k, rng, work_dir, small)
                self.slots.append((slot, inst))
                digest.update(json.dumps([slot.family, k, inst.n]).encode())
                digest.update(inst.path.read_bytes())
        self.digest = digest.hexdigest()

    @staticmethod
    def _instance(slot: Slot, k: int, rng: random.Random, work_dir: Path, small: bool):
        n = _size(rng, slot, k, small)
        # Alternate the window parity by stratum so both root kinds occur.
        offset = 2 * rng.randrange(500) + k % 2
        text, m, positive, tree, masks = _instance(slot, n, offset, rng)
        path = work_dir / f"{slot.family}-{k}.txt"
        path.write_text(text, encoding="utf-8")
        order = n + EXTRA_VERTICES.get(slot.family, 0)
        inst = Instance(
            family=slot.family,
            stratum=k,
            n=order,
            path=path,
            units=order + m,
            lines=text.count("\n"),
            positive=positive,
            masks=masks,
        )
        if positive:
            inst.tree = flat_tree(tree, oriented=slot.family == "orient")
            inst.summary = tree_summary(tree)
        return inst

    def rounds(self, seconds: float) -> int:
        return max(1, round(seconds / ROUND_S[self.name]))

    def round(self, r: int) -> list[Request]:
        """Every instance once, the slot's commands taken in turn."""
        order = list(range(len(self.slots)))
        random.Random(f"perfbench:{self.name}:{self.seed}:{r}").shuffle(order)
        out = []
        for i in order:
            slot, inst = self.slots[i]
            command = slot.commands[(inst.stratum + r) % len(slot.commands)]
            out.append(Request(r * len(self.slots) + i, r, inst, command))
        return out
