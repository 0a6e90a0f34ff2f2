"""The command line's argparse parser and its tool commands.

:func:`cosp.cli.main` reads a recognition request (``check``, ``cotree``,
``poset``) from its table, ``cosp.cli._GRAMMAR``, and imports this module
only for any other argument list: help, a usage error, an abbreviation or
an ``=`` form, which argparse answers from the parser that
:func:`build_parser` builds from that same table, and the commands that
are not recognition: ``join``, ``gen`` and ``oracle-compare``, whose
grammar is stated here.  ``poset ... linear-split`` and ``endpoint`` also
come here (:func:`cmd_lemma`), and build the records they need.
"""

import argparse
import sys

from .cli import _GRAMMAR, EXIT_OK, EXIT_WITNESS, _certificate, _emit, _fail, _read_file, _relabel

# The help of each command, in the order that ``cosp -h`` lists them.
_COMMAND_HELP = {
    "check": "decide whether a graph file is a cograph",
    "cotree": "print the decomposition tree of a graph file",
    "join": "find a complement-split witness of a connected graph",
    "poset": "order-side checks on a relation file",
    "gen": "emit a generated instance in the text formats",
    "oracle-compare": "exhaustively compare engines against oracles",
}
# The help of each option of the recognition commands, by command and dest.
_OPTION_HELP = {
    ("check", "property"): (
        "property to decide: cograph, or p4free (no induced four-vertex path), "
        "which holds exactly when cograph does; both are decided by the decomposition"
    ),
    ("cotree", "json"): "JSON tree (default)",
    ("cotree", "dot"): "DOT graph",
    ("poset", "covers"): "close the input transitively (default)",
    ("poset", "full"): "require the input to be its own closure",
    ("poset", "x"): "element for the endpoint action",
    ("poset", "dot"): "DOT output for the sptree action",
}


def build_parser() -> argparse.ArgumentParser:
    """The parser of every command: the recognition commands' subparsers
    built from their table in :mod:`cosp.cli`, the others stated here."""
    parser = argparse.ArgumentParser(
        prog="cosp",
        description="Cograph and series-parallel order decomposition with certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    parsers = {name: sub.add_parser(name, help=text) for name, text in _COMMAND_HELP.items()}

    for name, (handler, positionals, options, exclusive) in _GRAMMAR.items():
        p = parsers[name]
        for dest, choices in positionals:
            p.add_argument(dest, choices=choices)
        group = p.add_mutually_exclusive_group() if exclusive else p
        for option, (dest, values, default) in options.items():
            if values is None:
                kind = {"action": "store_true"}
            else:
                kind = {"type": int} if values is int else {"choices": values}
            (group if dest in exclusive else p).add_argument(
                option, dest=dest, default=default, help=_OPTION_HELP[name, dest], **kind
            )
        p.set_defaults(handler=handler)

    p = parsers["join"]
    p.add_argument("file")
    p.set_defaults(handler=cmd_join)

    p = parsers["gen"]
    p.add_argument("kind", choices=("parity-split", "cotree", "sptree", "gnp", "poset"))
    p.add_argument("size", type=int)
    p.add_argument("prob", type=float, nargs="?", default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--offset", type=int, default=0, help="window start for parity-split")
    p.set_defaults(handler=cmd_gen)

    p = parsers["oracle-compare"]
    p.add_argument("--max-graph-n", type=int, default=5)
    p.add_argument("--max-poset-n", type=int, default=4)
    p.set_defaults(handler=cmd_oracle_compare)

    return parser


def cmd_join(args) -> int:
    from .graphs import parse_graph

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


def cmd_lemma(args, below, above, labels) -> int:
    """Answer ``poset ... linear-split`` or ``poset ... endpoint`` on the
    order with rows ``below`` and ``above``: by its own witness if there is
    one, else by the sp-tree's N, else by why the order has neither."""
    # Looked up in cosp.cli when called, as cmd_poset's own call is, so
    # that a wrapper of that name (a test's, a tracer's) sees every call.
    from .cli import sp_tree_signature
    from .lemmas import NoEndpointError, endpoint_witness, linear_split_witness
    from .posets import Poset

    p = Poset(below, above)
    if args.action == "linear-split":
        w = linear_split_witness(p)
        if w is not None:
            lower, middle, upper = (_relabel(side, labels) for side in (w.lower, w.middle, w.upper))
            _emit({"x": labels[w.x], "lower": lower, "middle": middle, "upper": upper})
            return EXIT_OK
    else:
        if args.x is None:
            return _fail("endpoint needs --x")
        try:
            x = labels.index(args.x)
        except ValueError:
            return _fail(f"element {args.x} does not occur in the input")
        try:
            w = endpoint_witness(p, x)
        except NoEndpointError as exc:
            message = f"{exc}; the order is not connected"
        else:
            _emit({"x": labels[w.x], "endpoint": labels[w.endpoint], "side": w.side})
            return EXIT_OK
    comp = list(map(int.__or__, below, above))
    n = sp_tree_signature(comp, below)
    if type(n) is tuple:
        return _certificate(n, labels, comp, below)
    # No witness, yet the order holds no N.
    if args.action == "endpoint":
        return _fail(message)
    _emit({"linear_split": None})
    print("no element qualifies: the order is not a linear sum", file=sys.stderr)
    return EXIT_WITNESS


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
