"""Command line front end.

Exit protocol: 0 when the queried property holds, with a tree, or its
summary, printed only after the one check of trees
(:func:`cosp.engine.tree_holds`) found that it rebuilds the input; 1
when it fails, with a certificate that passed the one check of
certificates (:func:`cosp.engine.witness_holds`, which the witnesses'
``validate`` run too) or a report of why none applies (``join``'s
``{"witness": null}``, ``{"linear_split": null}``, an
``oracle-compare`` mismatch) on standard output; 2 on input or usage
errors and, with one ``internal error: ...`` line on standard error and
nothing on standard output, on any internal error, a tree or certificate
that fails its check included.  Recognition is decided by the split
engine, ``check --property p4free`` too: a finite graph has no induced
four-vertex path exactly when it is a cograph.  Machine output is JSON
on standard output, diagnostics go to standard error, and identical
input and flags produce byte-identical output.  A tree's JSON text is
written straight from its signature, so it works at any depth; every
other answer is small and flat enough for ``json.dumps``.

Every request is a fresh interpreter that compiles the modules it
imports, so a recognition request (``check``, ``cotree``, ``poset ...
nfree|sptree``) imports only :mod:`cosp.rows` and :mod:`cosp.engine`:
it reads its text into rows, runs the engine on them and prints from
the tree's signature, without the ``Graph`` and ``Poset`` records.
``_GRAMMAR`` is the one statement of the recognition commands' grammar:
:func:`_read_args` reads their arguments from it, and
:func:`cosp.commands.build_parser` builds their argparse subparsers from
it.  Any other argument list (help, an error, an abbreviation, an ``=``
form, ``join``, ``gen`` or ``oracle-compare``) goes to argparse, in
:mod:`cosp.commands` with the tool commands; the table gives exactly
argparse's namespace or nothing.  ``poset ... linear-split`` and
``endpoint`` (through ``lemmas``) build the records they need, from
:mod:`cosp.commands`, and a text that is not plain loads the line
reader.
"""

import json
import sys
from collections.abc import Sequence
from types import SimpleNamespace

from .engine import (
    PARALLEL,
    SERIES,
    cotree_signature,
    dot_text,
    json_text,
    sp_tree_signature,
    tree_holds,
    witness_holds,
)
from .rows import _closure, _read_pairs

EXIT_OK = 0
EXIT_WITNESS = 1
EXIT_ERROR = 2


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


def _certificate(ids, labels, adj, below=None) -> int:
    """Print an induced path of the rows ``adj`` or, with ``below``, an N
    of the order whose comparability rows ``adj`` are, after checking it."""
    if not witness_holds(ids, adj, below):
        raise RuntimeError(f"internal: certificate {ids} does not validate")
    kind, key = ("p4", "path") if below is None else ("n", "quad")
    _emit({"kind": kind, key: _relabel(ids, labels)})
    return EXIT_WITNESS


def _check_tree(signature: list[tuple], rows, linear: bool = False) -> None:
    """Raise unless the tree rebuilds the rows it was decomposed from:
    a graph's ``adj``, or with ``linear`` an order's ``below``."""
    if not tree_holds(signature, rows, linear):
        raise RuntimeError("internal: tree does not rebuild its input")


def _tree_summary(signature: list[tuple]) -> dict:
    depth, depths = 0, [1]  # the deepest node met, and the depths of the nodes to come
    for _, _, count in signature:
        node = depths.pop()
        depths += [node + 1] * count
        depth = max(depth, node)
    kinds = [kind for kind, _, _ in signature]
    return {"series": kinds.count(SERIES), "parallel": kinds.count(PARALLEL), "depth": depth}


def _read_graph(path: str) -> tuple[tuple[int, ...], tuple[int, ...]]:
    return _read_pairs(_read_file(path), "vertex", False, tuple)


def cmd_check(args) -> int:
    adj, labels = _read_graph(args.file)
    if not adj:
        _emit({"cograph": True, "order": 0, "series": 0, "parallel": 0, "depth": 0})
        return EXIT_OK
    # --property p4free asks the same: a finite graph has no induced P4
    # exactly when it is a cograph.
    result = cotree_signature(adj)
    if type(result) is tuple:
        return _certificate(result, labels, adj)
    _check_tree(result, adj)
    _emit({"cograph": True, "order": len(adj), **_tree_summary(result)})
    return EXIT_OK


def cmd_cotree(args) -> int:
    adj, labels = _read_graph(args.file)
    result = cotree_signature(adj)
    if type(result) is tuple:
        return _certificate(result, labels, adj)
    _check_tree(result, adj)
    if args.dot:
        sys.stdout.write(dot_text("cotree", result, labels))
    else:
        print(json_text(result, "vertex", labels))
    return EXIT_OK


def cmd_poset(args) -> int:
    mode = "full" if args.full else "covers"
    text = _read_file(args.file)
    (below, above), labels = _read_pairs(text, "element", True, lambda rows: _closure(rows, mode))
    if args.action in ("linear-split", "endpoint"):
        from .commands import cmd_lemma

        return cmd_lemma(args, below, above, labels)
    comp = list(map(int.__or__, below, above))
    # The decomposition needs an element; the empty order is N-free.
    result = sp_tree_signature(comp, below) if comp or args.action != "nfree" else None
    if type(result) is tuple:
        return _certificate(result, labels, comp, below)
    if comp:
        _check_tree(result, below, linear=True)
    if args.action == "nfree":
        _emit({"nfree": True})
        return EXIT_OK
    if args.dot:
        sys.stdout.write(dot_text("sptree", result, labels))
    else:
        print(json_text(result, "element", labels))
    return EXIT_OK


# === argument reading ===

# The recognition commands, which :func:`cosp.commands.build_parser`
# builds its subparsers from: each command's handler, its positionals with
# their choices (None for any), its options in the order of their help,
# each with its dest, its values (choices, ``int``, or None for a flag,
# which stores True) and its default, and the dests of the flags of which
# it takes at most one (argparse's mutually exclusive group).
_GRAMMAR = {
    "check": (
        cmd_check,
        (("file", None),),
        {"--property": ("property", ("cograph", "p4free"), "cograph")},
        (),
    ),
    "cotree": (
        cmd_cotree,
        (("file", None),),
        {"--json": ("json", None, False), "--dot": ("dot", None, False)},
        ("json", "dot"),
    ),
    "poset": (
        cmd_poset,
        (("file", None), ("action", ("nfree", "sptree", "linear-split", "endpoint"))),
        {
            "--covers": ("covers", None, False),
            "--full": ("full", None, False),
            "--x": ("x", int, None),
            "--dot": ("dot", None, False),
        },
        ("covers", "full"),
    ),
}


def _read_args(argv: Sequence[str]) -> SimpleNamespace | None:
    """The namespace that argparse gives a recognition request, or None
    for any other argument list, which argparse then reads.

    Only plain forms are taken: every token is a positional, which does
    not start with ``-``, or an option of the command spelled in full,
    followed by its value if it takes one.  So help, ``--``, ``=`` forms,
    abbreviations, a value that starts with ``-`` but for a negative
    integer, a bad choice or integer, a missing or extra positional and
    both options of an exclusive pair all give None, and argparse writes
    their help or error.
    """
    if not argv or argv[0] not in _GRAMMAR:
        return None
    handler, positionals, options, exclusive = _GRAMMAR[argv[0]]
    args = {"command": argv[0], "handler": handler}
    for dest, _, default in options.values():
        args[dest] = default
    given = []
    tokens = iter(argv[1:])
    for token in tokens:
        if token[:1] != "-":
            given.append(token)
            continue
        if token not in options:
            return None
        dest, values, _ = options[token]
        if values is None:
            args[dest] = True
            continue
        value = next(tokens, "-")
        if value[:1] == "-" and not value[1:].isdigit():
            return None
        if values is int:
            try:
                value = int(value)
            except ValueError:
                return None
        elif value not in values:
            return None
        args[dest] = value
    if len(given) != len(positionals):
        return None
    for (name, choices), value in zip(positionals, given):
        if choices is not None and value not in choices:
            return None
        args[name] = value
    if sum(args[dest] for dest in exclusive) > 1:
        return None
    return SimpleNamespace(**args)


def main(argv: Sequence[str] | None = None) -> int:
    args = _read_args(sys.argv[1:] if argv is None else argv)
    if args is None:
        from .commands import build_parser

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
    # Modules that import this one (commands) then find it running, and
    # compile no second copy.
    sys.modules[__spec__.name] = sys.modules[__name__]
    run()
