"""The command line's argparse parser and its tool commands.

:func:`cosp.cli.main` reads a recognition request (``check``, ``cotree``,
``poset``) from its table, ``cosp.cli._GRAMMAR``, and imports this module
only for any other argument list: help, a usage error, an abbreviation or
an ``=`` form, which argparse answers from the parser that
:func:`build_parser` builds from that same table, and the commands that
are not recognition: ``join``, ``gen`` and ``oracle-compare``, whose
grammar is stated here.  ``poset ... linear-split`` and ``endpoint`` also
come here (:func:`cmd_lemma`) with their text unread, and read it into a
``Poset`` as ``join`` reads a ``Graph``.
"""

import argparse
import sys

from .cli import _GRAMMAR, EXIT_OK, EXIT_WITNESS, _emit, _fail, _read_file, _relabel
from .cli import _certificate, cmd_recognize

# The help of each command, in the order that ``cosp -h`` lists them.
_COMMAND_HELP = {
    "check": "decide whether a graph file is a cograph",
    "cotree": "print the decomposition tree of a graph file",
    "join": "find a complement-split witness of a connected graph",
    "poset": "order-side checks on a relation file",
    "gen": "emit a generated instance in the text formats",
    "oracle-compare": "exhaustively compare engines against oracles",
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

    for name, (positionals, options, exclusive) in _GRAMMAR.items():
        p = parsers[name]
        for dest, choices in positionals:
            p.add_argument(dest, choices=choices)
        group = p.add_mutually_exclusive_group() if exclusive else p
        for option, (dest, values, default, help_) in options.items():
            if values is None:
                kind = {"action": "store_true"}
            else:
                kind = {"type": int} if values is int else {"choices": values}
            (group if dest in exclusive else p).add_argument(
                option, dest=dest, default=default, help=help_, **kind
            )
        p.set_defaults(handler=cmd_recognize)

    p = parsers["join"]
    p.add_argument("file")
    p.set_defaults(handler=cmd_join)

    p = parsers["gen"]
    p.add_argument("kind", choices=tuple(_GEN))
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


def cmd_lemma(args, text: str, mode: str) -> int:
    """Answer ``poset ... linear-split`` or ``poset ... endpoint`` on the
    order that ``text`` holds, read into a ``Poset`` with its closure
    ``mode``: by its own witness if there is one, which is printed only
    after it passes its ``validate``, else by the sp-tree's N, both found
    on the comparability graph, built once, else by why the order has
    neither."""
    # Looked up in cosp.cli when called, as cmd_recognize's own call is, so
    # that a test's wrapper of tree_signature there sees every call.
    from .cli import tree_signature
    from .lemmas import NoEndpointError, _linear_split, endpoint_witness
    from .posets import parse_poset

    p, labels = parse_poset(text, mode)
    g = p.comparability_graph()
    if args.action == "linear-split":
        w = _linear_split(p, g)
        if w is not None:
            sides = {k: _relabel(getattr(w, k), labels) for k in ("lower", "middle", "upper")}
            _emit({"x": labels[w.x], **sides})
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
            if not w.validate(p):
                raise RuntimeError(f"internal: endpoint witness {w} does not validate")
            _emit({"x": labels[w.x], "endpoint": labels[w.endpoint], "side": w.side})
            return EXIT_OK
    n = tree_signature(g.adj, p.below)
    if type(n) is tuple:
        return _certificate(n, labels, g.adj, p.below)
    # No witness, yet the order holds no N.
    if args.action == "endpoint":
        return _fail(message)
    _emit({"linear_split": None})
    print("no element qualifies: the order is not a linear sum", file=sys.stderr)
    return EXIT_WITNESS


# What ``gen`` writes of each kind, in the order of its help; its keys are
# the kind's choices.  Each entry reads the package ``c`` (:mod:`cosp`, with
# :mod:`cosp.trees`, the generators, imported) and the arguments ``a``.
_GEN = {
    "parity-split": lambda c, a: c.format_graph(c.parity_split_graph(a.size, a.offset)),
    "cotree": lambda c, a: c.format_graph(c.cotree_to_graph(c.trees.rand_cotree(a.size, a.seed))),
    "sptree": lambda c, a: c.format_poset(c.sp_tree_to_poset(c.trees.rand_sptree(a.size, a.seed))),
    "gnp": lambda c, a: c.format_graph(c.trees.rand_gnp(a.size, a.prob, a.seed)),
    "poset": lambda c, a: c.format_poset(c.trees.rand_poset(a.size, a.prob, a.seed)),
}


def cmd_gen(args) -> int:
    import cosp.trees

    kind = args.kind
    if args.offset and kind != "parity-split":
        return _fail("--offset only applies to parity-split")
    if kind in ("gnp", "poset"):
        if args.prob is None:
            return _fail(f"{kind} needs an edge probability argument")
    elif args.prob is not None:
        return _fail(f"{kind} takes no probability argument")
    sys.stdout.write(_GEN[kind](cosp, args))
    return EXIT_OK


def cmd_oracle_compare(args) -> int:
    from . import oracles

    if args.max_graph_n > oracles.MAX_ENUM_GRAPH:
        return _fail(f"graph enumeration limited to order {oracles.MAX_ENUM_GRAPH}")
    if args.max_poset_n > oracles.MAX_ENUM_POSET:
        return _fail(f"poset enumeration limited to order {oracles.MAX_ENUM_POSET}")
    if args.max_graph_n < 0 or args.max_poset_n < 0:
        return _fail("bounds must be non-negative")
    graphs = oracles.enumerate_graphs, oracles.check_graph_instance
    orders = oracles.enumerate_posets, oracles.check_poset_instance
    report = {"ok": True, "graphs_checked": 0, "posets_checked": 0}
    for key, high, (instances, check), done in (
        ("graphs_checked", args.max_graph_n, graphs, "graphs on {} vertices"),
        ("posets_checked", args.max_poset_n, orders, "orders on {} elements"),
    ):
        for n in range(high + 1):
            for obj in instances(n):
                tag = check(obj)
                report[key] += 1
                if tag is not None:
                    _emit(oracles.mismatch(obj, tag))
                    return EXIT_WITNESS
            print(f"{done.format(n)}: ok", file=sys.stderr)
    _emit(report)
    return EXIT_OK
