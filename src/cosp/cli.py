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
four-vertex path exactly when it is a cograph.  One handler,
:func:`cmd_recognize`, answers ``check``, ``cotree`` and ``poset``: it
runs :func:`cosp.engine.tree_signature` on a graph's rows, or on an
order's comparability rows with the order's own rows to orient the
answer.  Machine output is JSON on standard output, diagnostics go to
standard error, and identical input and flags produce byte-identical
output: :func:`run` writes standard output in UTF-8 whatever the
locale, as :func:`_read_file` reads input, so a DOT tree's ``×``, ``∪``
and ``→`` print under any encoding.  A tree's JSON text is written
straight from its signature, so it works at any depth; every other
answer is small and flat enough for ``json.dumps``.

Every request is a fresh interpreter that compiles the modules it
imports, so a recognition request (``check``, ``cotree``, ``poset ...
nfree|sptree``) imports only :mod:`cosp.rows` and :mod:`cosp.engine`:
it reads its text into rows, runs the engine on them and prints from
the tree's signature, without the ``Graph`` and ``Poset`` records.
``_GRAMMAR`` is the one statement of the recognition commands' grammar:
:func:`_read_args` reads their arguments from it, and
:func:`cosp.commands.build_parser` builds their argparse subparsers from
it, each with :func:`cmd_recognize` as its handler.  Any other argument
list (help, an error, an abbreviation, an ``=`` form, an ``int`` value,
``join``, ``gen`` or ``oracle-compare``) goes to argparse, in
:mod:`cosp.commands` with the tool commands; the table gives exactly
argparse's namespace or nothing.  ``poset ... linear-split`` and
``endpoint`` hand their text to :mod:`cosp.commands` unread, which reads
it into a ``Poset`` as ``join`` reads a ``Graph``, and a text with a
piece that is not plain loads the reader's line checks.

A request ends as soon as its answer is out: :func:`run`, the entry of
``python -m cosp.cli`` and of the ``cosp`` script, runs the exit hooks
(:mod:`atexit`), flushes standard output and standard error and leaves
with ``os._exit``, so the interpreter's teardown (clearing modules, a
last collection, freeing every object) is skipped.  When a flush fails
(a reader closed the pipe) or under ``python -i``, it exits the normal
way, which reports the failure as always.  :func:`main` itself returns
the exit code to its callers, and argparse's help and usage errors
raise ``SystemExit`` from it.
"""

import atexit
import json
import os
import sys
from collections.abc import Sequence
from types import SimpleNamespace

from .engine import PARALLEL, SERIES, dot_text, json_text, tree_holds, tree_signature, witness_holds
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


def _cograph_summary(signature: list[tuple], order: int) -> dict:
    depth, depths = 0, [1]  # the deepest node met, and the depths of the nodes to come
    for _, _, count in signature:
        node = depths.pop()
        depths += [node + 1] * count
        depth = max(depth, node)
    kinds = [kind for kind, _, _ in signature]
    series, parallel = kinds.count(SERIES), kinds.count(PARALLEL)
    return {"cograph": True, "order": order, "series": series, "parallel": parallel, "depth": depth}


def cmd_recognize(args) -> int:
    """Answer ``check`` and ``cotree`` on a graph's rows, and ``poset`` on
    an order's: its comparability rows, with its own rows ``below`` to
    orient the answer.  ``linear-split`` and ``endpoint`` go to
    :func:`cosp.commands.cmd_lemma` with the text, unread."""
    text = _read_file(args.file)
    if args.command == "poset":
        mode = "full" if args.full else "covers"
        if args.action in ("linear-split", "endpoint"):
            from .commands import cmd_lemma

            return cmd_lemma(args, text, mode)
        (below, adj), labels = _read_pairs(text, True, lambda rows: _closure(rows, mode))
        # The comparability rows replace ``above`` one row at a time, so
        # that two row families are held, not three.
        adj = list(adj)
        for v, row in enumerate(below):
            adj[v] |= row
        name, key, summary = "sptree", "element", args.action == "nfree"
    else:
        adj, labels = _read_pairs(text, False, tuple)
        below = None
        name, key, summary = "cotree", "vertex", args.command == "check"
    # The decomposition needs a vertex or an element; the empty graph is a
    # cograph and the empty order is N-free.  --property p4free asks the
    # same as check: a finite graph has no induced P4 exactly when it is a
    # cograph.
    result = tree_signature(adj, below) if adj or not summary else []
    if type(result) is tuple:
        return _certificate(result, labels, adj, below)
    if adj and not tree_holds(result, adj, below):
        raise RuntimeError("internal: tree does not rebuild its input")
    if summary:
        _emit(_cograph_summary(result, len(adj)) if below is None else {"nfree": True})
    elif args.dot:
        sys.stdout.write(dot_text(name, result, labels))
    else:
        print(json_text(result, key, labels))
    return EXIT_OK


# === argument reading ===

# The recognition commands, which :func:`cmd_recognize` answers and
# :func:`cosp.commands.build_parser` builds its subparsers from: each
# command's positionals with their choices (None for any), its options in
# the order of their help, each with its dest, its values (choices,
# ``int``, or None for a flag, which stores True), its default and its
# help, and the dests of the flags of which it takes at most one
# (argparse's mutually exclusive group).
_GRAMMAR = {
    "check": (
        (("file", None),),
        {
            "--property": (
                "property",
                ("cograph", "p4free"),
                "cograph",
                "property to decide: cograph, or p4free (no induced four-vertex path), "
                "which holds exactly when cograph does; both are decided by the decomposition",
            )
        },
        (),
    ),
    "cotree": (
        (("file", None),),
        {
            "--json": ("json", None, False, "JSON tree (default)"),
            "--dot": ("dot", None, False, "DOT graph"),
        },
        ("json", "dot"),
    ),
    "poset": (
        (("file", None), ("action", ("nfree", "sptree", "linear-split", "endpoint"))),
        {
            "--covers": ("covers", None, False, "close the input transitively (default)"),
            "--full": ("full", None, False, "require the input to be its own closure"),
            "--x": ("x", int, None, "element for the endpoint action"),
            "--dot": ("dot", None, False, "DOT output for the sptree action"),
        },
        ("covers", "full"),
    ),
}


def _read_args(argv: Sequence[str]) -> SimpleNamespace | None:
    """The namespace that argparse gives a recognition request, or None
    for any other argument list, which argparse then reads.

    Only plain forms are taken: every token is a positional, which does
    not start with ``-``, or an option of the command spelled in full,
    followed by its value if it takes one, which must be among its
    choices.  So help, ``--``, ``=`` forms, abbreviations, an ``int``
    value (``--x``), a value that starts with ``-``, a bad choice, a
    missing or extra positional and both options of an exclusive pair all
    give None, and argparse reads them, or writes their help or error.
    """
    if not argv or argv[0] not in _GRAMMAR:
        return None
    positionals, options, exclusive = _GRAMMAR[argv[0]]
    args = {"command": argv[0], "handler": cmd_recognize}
    for dest, _, default, _ in options.values():
        args[dest] = default
    given = []
    tokens = iter(argv[1:])
    for token in tokens:
        if token[:1] != "-":
            given.append(token)
            continue
        if token not in options:
            return None
        dest, values, _, _ = options[token]
        if values is None:
            args[dest] = True
            continue
        value = next(tokens, "-")
        if values is int or value not in values:
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
    """Run :func:`main` and end the process with its exit code, without
    the interpreter's teardown (see the module's docstring).  Standard
    output, when there is one, is UTF-8 whatever the locale."""
    if sys.stdout is not None:
        sys.stdout.reconfigure(encoding="utf-8")
    code = main()
    if not sys.flags.inspect:
        atexit._run_exitfuncs()
        try:
            for stream in (sys.stdout, sys.stderr):
                if stream is not None:
                    stream.flush()
        except OSError:  # a reader closed the pipe: the normal exit reports it
            pass
        else:
            os._exit(code)
    sys.exit(code)


if __name__ == "__main__":
    # Modules that import this one (commands) then find it running, and
    # compile no second copy.
    sys.modules[__spec__.name] = sys.modules[__name__]
    run()
