"""Per-layer metrics from the spans of traced requests.

A span's self time is its duration minus the durations of its direct
children; spans of one request run on one thread, so children never
overlap.  Each ``_s`` metric is a sum over all traced requests.
"""

from __future__ import annotations

from collections import defaultdict

# name -> unit, in report order; names follow the package's modules.
METRICS = {
    "graphs.parse_s": "s",
    "graphs.from_edges_s": "s",
    "graphs.parse_lines_per_s": "1/s",
    "posets.parse_s": "s",
    "posets.closure_s": "s",
    "posets.closed_pairs": "count",
    "graphs.split_calls": "count",
    "graphs.split_s": "s",
    "graphs.split_bits": "count",
    "graphs.split_useful_ratio": "ratio",
    "cographs.cotree_s": "s",
    "cographs.cotree_self_s": "s",
    "cographs.certificate_s": "s",
    "spdecomp.sp_tree_s": "s",
    "spdecomp.sp_tree_self_s": "s",
    "spdecomp.certificate_s": "s",
    "spdecomp.is_nfree_s": "s",
    "oracles.request_path_s": "s",
    "oracles.request_path_calls": "count",
    "cographs.serialize_s": "s",
    "spdecomp.serialize_s": "s",
    "cli.emit_s": "s",
    "cli.self_s": "s",
    "cli.failed": "count",
    "cographs.tree_depth": "count",
    "cographs.tree_nodes": "count",
    "trace.overhead_frac": "ratio",
}

EMIT = ("cli.dumps", "cli.write", "cli.flush")


def _child_time(spans: list) -> dict[int, float]:
    out: dict[int, float] = defaultdict(float)
    for sid, parent, name, start, end, attrs in spans:
        if parent is not None:
            out[parent] += end - start
    return out


# Layers whose share of a request the report shows per family.
SHARES = ("parse", "graphs.split", "certificate", "spdecomp.is_nfree", "oracles.brute", "emit")


class LayerTotals:
    """Accumulates traced requests into the per-layer metrics."""

    def __init__(self):
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.graph_lines = 0
        self.trees: list[tuple[int, int]] = []  # (depth, nodes)
        # Per family: summed cli.main time and the time of each SHARES layer.
        self.by_family: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))

    def add(self, family: str, lines: int, spans: list) -> None:
        child_time = _child_time(spans)
        times: dict[str, float] = defaultdict(float)
        certificate = 0.0
        for sid, parent, name, start, end, attrs in spans:
            own = end - start - child_time[sid]
            times[name] += end - start
            self.total[name] += end - start
            self.self_time[name] += own
            attrs = attrs or {}
            if name == "graphs.split":
                self.counts["split_calls"] += 1
                self.counts["split_bits"] += attrs["bits"]
                self.counts["split_useful"] += attrs["parts"] > 1
            elif name == "posets.closure":
                self.counts["closed_pairs"] += attrs["closed"]
            elif name == "oracles.brute":
                self.counts["brute_calls"] += 1
            elif name in ("cographs.cotree", "spdecomp.sp_tree"):
                if attrs.get("witness"):
                    self.counts[name + ".certificate"] += own
                    certificate += own
                elif "depth" in attrs:
                    self.trees.append((attrs["depth"], attrs["nodes"]))
        if "graphs.parse" in times:
            self.graph_lines += lines
        fam = self.by_family[family]
        fam["requests"] += 1
        fam["cli.main"] += times["cli.main"]
        fam["parse"] += times["graphs.parse"] + times["posets.parse"]
        fam["certificate"] += certificate
        fam["emit"] += sum(times[name] for name in EMIT)
        for name in ("graphs.split", "spdecomp.is_nfree", "oracles.brute"):
            fam[name] += times[name]

    def share_table(self) -> list[str]:
        """One line per family: each SHARES layer as a share of cli.main."""
        out = [f"{'family':14s} {'reqs':>4s} {'main_s':>8s} " + " ".join(f"{k:>14s}" for k in SHARES)]
        for family, fam in sorted(self.by_family.items()):
            main = fam["cli.main"] or 1.0
            cells = " ".join(f"{fam[k] / main:14.1%}" for k in SHARES)
            out.append(f"{family:14s} {int(fam['requests']):4d} {fam['cli.main']:8.3f} {cells}")
        return out

    def metrics(self, failed: int, overhead: float) -> dict[str, float]:
        t, s, c = self.total, self.self_time, self.counts
        parse_graph = s["graphs.parse"] + t["graphs.from_edges"]
        calls = c["split_calls"]
        depths = [d for d, _ in self.trees]
        nodes = [n for _, n in self.trees]
        values = {
            "graphs.parse_s": s["graphs.parse"],
            "graphs.from_edges_s": t["graphs.from_edges"],
            "graphs.parse_lines_per_s": self.graph_lines / parse_graph if parse_graph else 0.0,
            "posets.parse_s": s["posets.parse"],
            "posets.closure_s": t["posets.closure"],
            "posets.closed_pairs": c["closed_pairs"],
            "graphs.split_calls": calls,
            "graphs.split_s": t["graphs.split"],
            "graphs.split_bits": c["split_bits"],
            "graphs.split_useful_ratio": c["split_useful"] / calls if calls else 0.0,
            "cographs.cotree_s": t["cographs.cotree"],
            "cographs.cotree_self_s": s["cographs.cotree"],
            "cographs.certificate_s": c["cographs.cotree.certificate"],
            "spdecomp.sp_tree_s": t["spdecomp.sp_tree"],
            "spdecomp.sp_tree_self_s": s["spdecomp.sp_tree"],
            "spdecomp.certificate_s": c["spdecomp.sp_tree.certificate"],
            "spdecomp.is_nfree_s": t["spdecomp.is_nfree"],
            "oracles.request_path_s": t["oracles.brute"],
            "oracles.request_path_calls": c["brute_calls"],
            "cographs.serialize_s": t["cographs.serialize"],
            "spdecomp.serialize_s": t["spdecomp.serialize"],
            "cli.emit_s": sum(t[name] for name in EMIT),
            "cli.self_s": s["cli.main"],
            "cli.failed": failed,
            "cographs.tree_depth": sum(depths) / len(depths) if depths else 0.0,
            "cographs.tree_nodes": sum(nodes) / len(nodes) if nodes else 0.0,
            "trace.overhead_frac": overhead,
        }
        return values
