"""Command line front end.

Exit protocol: 0 when the queried property holds; 1 when it fails, with
a certificate that passed its own ``validate`` (or a report of why none
applies: ``join``'s ``{"witness": null}``, ``{"linear_split": null}``,
an ``oracle-compare`` mismatch) on standard output; 2 on input or usage
errors and, with one ``internal error: ...`` line on standard error and
nothing on standard output, on any internal error.  Recognition is
decided by ``cotree`` and ``sp_tree``.  Machine output is JSON on
standard output, diagnostics go to standard error, and identical input
and flags produce byte-identical output.  A tree's JSON text is written
straight from the tree by the same walk as its ``repr``, so it works at
any depth; every other answer is small and flat enough for
``json.dumps``.

Every request is a fresh interpreter that compiles the modules it
imports, so each command imports only the modules it runs: ``check``
and ``cotree`` load ``graphs`` and ``cographs``; ``poset`` adds
``posets`` and ``spdecomp``, bound here on first use, and
``linear-split`` and ``endpoint`` also ``lemmas``; ``join`` adds
``lemmas`` once the complement splits.  The brute-force oracles (whose
module also holds the ``oracle-compare`` sweep, and imports every other
module but ``pairtext``) run only in ``check --property p4free``,
``gen`` and ``oracle-compare``; ``gen`` also loads the text writers.  A
text that is not plain loads the line reader.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Sequence

from .cographs import PARALLEL, SERIES, Cotree, P4Witness, _tree_json_text, cotree, cotree_to_dot
from .graphs import parse_graph

EXIT_OK = 0
EXIT_WITNESS = 1
EXIT_ERROR = 2

# The order side's entry points.  ``cmd_poset`` reads them as globals of
# this module, like the graph side's, so that a wrapper set on the module
# takes effect; they are bound on first use, by ``cmd_poset`` or by an
# attribute lookup, and a name already bound keeps its value.
_ORDER_SIDE = ("parse_poset", "sp_tree", "sp_tree_to_dot")


def _bind_order_side() -> None:
    from . import posets, spdecomp

    for name in _ORDER_SIDE:
        globals().setdefault(name, getattr(posets if name == "parse_poset" else spdecomp, name))


def __getattr__(name: str):
    if name not in _ORDER_SIDE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _bind_order_side()
    return globals()[name]


def _emit(obj: object) -> None:
    print(json.dumps(obj))


def _fail(message: str) -> int:
    print(message, file=sys.stderr)
    return EXIT_ERROR


def _read_file(path: str) -> str:
    with open(path, "r", encoding="utf-8-sig") as fh:
        return fh.read()


def _relabel(ids, labels) -> list[int]:
    return [labels[i] for i in ids]


def _certificate(w: P4Witness | NWitness, obj: Graph | Poset, labels) -> int:
    """Print a path or N certificate after checking it on its input."""
    if not w.validate(obj):
        raise RuntimeError(f"internal: {w} does not validate")
    kind, key = ("p4", "path") if isinstance(w, P4Witness) else ("n", "quad")
    _emit({"kind": kind, key: _relabel(getattr(w, key), labels)})
    return EXIT_WITNESS


def _tree_summary(t: Cotree) -> dict:
    series = parallel = 0
    depth = 0
    stack = [(t, 1)]
    while stack:
        node, d = stack.pop()
        depth = max(depth, d)
        if node.kind == SERIES:
            series += 1
        elif node.kind == PARALLEL:
            parallel += 1
        for child in node.children:
            stack.append((child, d + 1))
    return {"series": series, "parallel": parallel, "depth": depth}


def cmd_check(args) -> int:
    g, labels = parse_graph(_read_file(args.file))
    if g.order == 0:
        _emit({"cograph": True, "order": 0, "series": 0, "parallel": 0, "depth": 0})
        return EXIT_OK
    result = cotree(g)
    if args.property == "p4free":
        from . import oracles

        witness = oracles.brute_p4(g)
        if (witness is None) != isinstance(result, Cotree):
            raise RuntimeError("internal: path scan disagrees with the decomposition")
        result = witness or result
    if isinstance(result, P4Witness):
        return _certificate(result, g, labels)
    _emit({"cograph": True, "order": g.order, **_tree_summary(result)})
    return EXIT_OK


def cmd_cotree(args) -> int:
    g, labels = parse_graph(_read_file(args.file))
    result = cotree(g)
    if isinstance(result, P4Witness):
        return _certificate(result, g, labels)
    if args.dot:
        sys.stdout.write(cotree_to_dot(result, labels))
    else:
        print(_tree_json_text(result, labels))
    return EXIT_OK


def cmd_join(args) -> int:
    g, labels = parse_graph(_read_file(args.file))
    if not g.is_connected():
        return _fail("input graph is not connected")
    # Decide by the complement, not by the neighbor scan, so that a split
    # complement with no witness that passes validate is an internal error.
    if len(g.co_components()) == 1:
        _emit({"witness": None, "reason": "complement connected"})
        msg = "no witness: complement connected"
        if g.order >= 2:
            msg += "; a finite connected graph of order two or more with "
            msg += "connected complement contains an induced four-vertex path"
        print(msg, file=sys.stderr)
        return EXIT_WITNESS
    from .lemmas import join_witness

    w = join_witness(g)
    if w is None:
        raise RuntimeError("internal: split complement without a join witness")
    _emit(
        {
            "x": labels[w.x],
            "universal_neighbors": _relabel(w.universal_neighbors, labels),
            "split": [_relabel(side, labels) for side in w.split],
        }
    )
    return EXIT_OK


def cmd_poset(args) -> int:
    from .posets import NWitness

    _bind_order_side()
    mode = "full" if args.full else "covers"
    p, labels = parse_poset(_read_file(args.file), mode=mode)
    # linear-split and endpoint print their own witness if there is one;
    # every other answer, and the N behind a missing one, is the sp-tree's.
    if args.action == "linear-split":
        from .lemmas import linear_split_witness

        w = linear_split_witness(p)
        if w is not None:
            _emit(
                {
                    "x": labels[w.x],
                    "lower": _relabel(w.lower, labels),
                    "middle": _relabel(w.middle, labels),
                    "upper": _relabel(w.upper, labels),
                }
            )
            return EXIT_OK
    elif args.action == "endpoint":
        if args.x is None:
            return _fail("endpoint needs --x")
        try:
            x = labels.index(args.x)
        except ValueError:
            return _fail(f"element {args.x} does not occur in the input")
        from .lemmas import NoEndpointError, endpoint_witness

        try:
            w = endpoint_witness(p, x)
        except NoEndpointError as exc:
            no_endpoint = exc
        else:
            _emit({"x": labels[w.x], "endpoint": labels[w.endpoint], "side": w.side})
            return EXIT_OK
    # sp_tree needs an element; the empty order is N-free.
    result = sp_tree(p) if p.order or args.action != "nfree" else None
    if isinstance(result, NWitness):
        return _certificate(result, p, labels)
    if args.action == "nfree":
        _emit({"nfree": True})
        return EXIT_OK
    if args.action == "sptree":
        if args.dot:
            sys.stdout.write(sp_tree_to_dot(result, labels))
        else:
            print(_tree_json_text(result, labels))
        return EXIT_OK
    if args.action == "linear-split":
        _emit({"linear_split": None})
        print("no element qualifies: the order is not a linear sum", file=sys.stderr)
        return EXIT_WITNESS
    # endpoint: no chain end qualifies, yet the order holds no N.
    return _fail(f"{no_endpoint}; the order is not connected")


def cmd_gen(args) -> int:
    from . import oracles
    from .pairtext import format_graph, format_poset
    from .trees import cotree_to_graph, parity_split_graph, sp_tree_to_poset

    seed = args.seed
    kind = args.kind
    if args.offset and kind != "parity-split":
        return _fail("--offset only applies to parity-split")
    if kind in ("gnp", "poset"):
        if args.prob is None:
            return _fail(f"{kind} needs an edge probability argument")
        if not 0.0 <= args.prob <= 1.0:
            return _fail("edge probability must lie in [0, 1]")
    elif args.prob is not None:
        return _fail(f"{kind} takes no probability argument")
    if kind == "parity-split":
        sys.stdout.write(format_graph(parity_split_graph(args.size, args.offset)))
    elif kind == "cotree":
        sys.stdout.write(format_graph(cotree_to_graph(oracles.rand_cotree(args.size, seed))))
    elif kind == "sptree":
        sys.stdout.write(format_poset(sp_tree_to_poset(oracles.rand_sptree(args.size, seed))))
    elif kind == "gnp":
        sys.stdout.write(format_graph(oracles.rand_gnp(args.size, args.prob, seed)))
    elif kind == "poset":
        sys.stdout.write(format_poset(oracles.rand_poset(args.size, args.prob, seed)))
    else:
        raise AssertionError(f"unhandled kind {kind!r}")
    return EXIT_OK


def cmd_oracle_compare(args) -> int:
    from . import oracles

    if args.max_graph_n > oracles.MAX_ENUM_GRAPH:
        return _fail(f"graph enumeration limited to order {oracles.MAX_ENUM_GRAPH}")
    if args.max_poset_n > oracles.MAX_ENUM_POSET:
        return _fail(f"poset enumeration limited to order {oracles.MAX_ENUM_POSET}")
    if args.max_graph_n < 0 or args.max_poset_n < 0:
        return _fail("bounds must be non-negative")
    graphs_checked = 0
    for n in range(args.max_graph_n + 1):
        for g in oracles.enumerate_graphs(n):
            tag = oracles.check_graph_instance(g)
            graphs_checked += 1
            if tag is not None:
                _emit(oracles.mismatch(g, tag))
                return EXIT_WITNESS
        print(f"graphs on {n} vertices: ok", file=sys.stderr)
    posets_checked = 0
    for n in range(args.max_poset_n + 1):
        for p in oracles.enumerate_posets(n):
            tag = oracles.check_poset_instance(p)
            posets_checked += 1
            if tag is not None:
                _emit(oracles.mismatch(p, tag))
                return EXIT_WITNESS
        print(f"orders on {n} elements: ok", file=sys.stderr)
    _emit({"ok": True, "graphs_checked": graphs_checked, "posets_checked": posets_checked})
    return EXIT_OK


# === argument parsing ===


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cosp",
        description="Cograph and series-parallel order decomposition with certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="decide whether a graph file is a cograph")
    p.add_argument("file")
    p.add_argument(
        "--property",
        choices=("cograph", "p4free"),
        default="cograph",
        help="decision route: decomposition (cograph) or brute-force path scan (p4free)",
    )
    p.set_defaults(handler=cmd_check)

    p = sub.add_parser("cotree", help="print the decomposition tree of a graph file")
    p.add_argument("file")
    fmt = p.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true", help="JSON tree (default)")
    fmt.add_argument("--dot", action="store_true", help="DOT graph")
    p.set_defaults(handler=cmd_cotree)

    p = sub.add_parser("join", help="find a complement-split witness of a connected graph")
    p.add_argument("file")
    p.set_defaults(handler=cmd_join)

    p = sub.add_parser("poset", help="order-side checks on a relation file")
    p.add_argument("file")
    p.add_argument(
        "action",
        choices=("nfree", "sptree", "linear-split", "endpoint"),
    )
    mode = p.add_mutually_exclusive_group()
    mode.add_argument(
        "--covers", action="store_true", help="close the input transitively (default)"
    )
    mode.add_argument(
        "--full", action="store_true", help="require the input to be its own closure"
    )
    p.add_argument("--x", type=int, default=None, help="element for the endpoint action")
    p.add_argument("--dot", action="store_true", help="DOT output for the sptree action")
    p.set_defaults(handler=cmd_poset)

    p = sub.add_parser("gen", help="emit a generated instance in the text formats")
    p.add_argument("kind", choices=("parity-split", "cotree", "sptree", "gnp", "poset"))
    p.add_argument("size", type=int)
    p.add_argument("prob", type=float, nargs="?", default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--offset", type=int, default=0, help="window start for parity-split")
    p.set_defaults(handler=cmd_gen)

    p = sub.add_parser("oracle-compare", help="exhaustively compare engines against oracles")
    p.add_argument("--max-graph-n", type=int, default=5)
    p.add_argument("--max-poset-n", type=int, default=4)
    p.set_defaults(handler=cmd_oracle_compare)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (OSError, ValueError) as exc:  # parse, cycle and connectivity errors too
        return _fail(str(exc))
    except Exception as exc:
        return _fail(f"internal error: {exc!r}")


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
