"""Run one ``cosp`` CLI request with spans around the layers it calls.

    python perfbench/traced_cli.py SPANS_FILE REQUEST_ID -- ARG...

behaves as ``python -m cosp.cli ARG...``: the same standard output, the
same exit code.  It wraps the public functions where the program looks
them up (the names imported into ``cosp.cli``, ``cosp.cographs`` and
``cosp.spdecomp``, plus ``cosp.oracles``, ``Graph.from_edges``,
``Poset.from_relations``, ``json.dumps`` and standard output), calls
``cosp.cli.main`` unchanged, keeps the spans in memory and writes them to
SPANS_FILE as one JSON object when the process exits.
"""

from __future__ import annotations

import atexit
import json
import sys
import time

# Recursion headroom used by ``python -m cosp.cli`` up to and including
# ``cosp.cli.main``: runpy's frames, the module, ``run`` and ``main``.  The
# self-test pins it: plain and traced runs must fail at the same tree depth.
PLAIN_MAIN_DEPTH = 6

_dumps = json.dumps
_clock = time.perf_counter


class Tracer:
    def __init__(self, request_id: str):
        self.request_id = request_id
        self.spans: list[list] = []  # [id, parent, name, start, end, attrs]
        self.open: list[int] = []

    def start(self, name: str) -> list:
        span = [len(self.spans), self.open[-1] if self.open else None, name, _clock(), 0.0, None]
        self.spans.append(span)
        self.open.append(span[0])
        return span

    def finish(self, span: list) -> None:
        span[4] = _clock()
        self.open.pop()

    def wrap(self, fn, name: str, attrs=None):
        def traced(*args, **kwargs):
            span = self.start(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.finish(span)
                span[5] = {"error": type(exc).__name__}
                raise
            self.finish(span)
            if attrs is not None:
                span[5] = attrs(args, result)
            return result

        return traced

    def dump(self, path: str, error: list) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(_dumps({"request": self.request_id, "error": error[0], "spans": self.spans}))


class TracedStdout:
    """Standard output whose writes are spans; bytes pass through unchanged."""

    def __init__(self, tracer: Tracer, stream):
        self._stream = stream
        self.write = tracer.wrap(stream.write, "cli.write")
        self.flush = tracer.wrap(stream.flush, "cli.flush")

    def __getattr__(self, name):
        return getattr(self._stream, name)


def _split_attrs(args, parts):
    return {"bits": args[1].bit_count(), "parts": len(parts)}


def _closure_attrs(args, poset):
    return {"closed": sum(m.bit_count() for m in poset.below)}


def _tree_attrs(args, result):
    if not hasattr(result, "children"):
        return {"witness": True}
    nodes = depth = 0
    stack = [(result, 1)]
    while stack:
        node, d = stack.pop()
        nodes += 1
        depth = max(depth, d)
        stack.extend((c, d + 1) for c in node.children)
    return {"nodes": nodes, "depth": depth}


def install(tracer: Tracer) -> None:
    import cosp.cli
    import cosp.cographs
    import cosp.oracles
    import cosp.spdecomp
    from cosp.graphs import Graph
    from cosp.posets import Poset

    def patch(module, name, span_name, attrs=None):
        if hasattr(module, name):
            setattr(module, name, tracer.wrap(getattr(module, name), span_name, attrs))

    cli = cosp.cli
    patch(cli, "parse_graph", "graphs.parse")
    patch(cli, "parse_poset", "posets.parse")
    patch(cli, "cotree", "cographs.cotree", _tree_attrs)
    patch(cli, "sp_tree", "spdecomp.sp_tree", _tree_attrs)
    patch(cli, "is_nfree", "spdecomp.is_nfree")
    for name in ("cotree_to_json", "cotree_to_dot"):
        patch(cli, name, "cographs.serialize")
    for name in ("sp_tree_to_json", "sp_tree_to_dot"):
        patch(cli, name, "spdecomp.serialize")
    for module in (cosp.cographs, cosp.spdecomp):
        for name in ("mask_components", "mask_co_components"):
            patch(module, name, "graphs.split", _split_attrs)
    for name in ("brute_n", "brute_p4"):
        patch(cosp.oracles, name, "oracles.brute")
    Graph.from_edges = classmethod(tracer.wrap(Graph.from_edges.__func__, "graphs.from_edges"))
    Poset.from_relations = classmethod(
        tracer.wrap(Poset.from_relations.__func__, "posets.closure", _closure_attrs)
    )
    json.dumps = tracer.wrap(_dumps, "cli.dumps")
    sys.stdout = TracedStdout(tracer, sys.stdout)


def _depth() -> int:
    frame, depth = sys._getframe(1), 0
    while frame is not None:
        depth += 1
        frame = frame.f_back
    return depth


def main() -> int:
    if len(sys.argv) < 4 or sys.argv[3] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    spans_path, request_id, argv = sys.argv[1], sys.argv[2], sys.argv[4:]
    import cosp.cli

    tracer = Tracer(request_id)
    error = [None]
    atexit.register(tracer.dump, spans_path, error)
    install(tracer)
    # Give the program the recursion headroom it has without the tracer:
    # ``cosp.cli.main`` starts at depth _depth() + 1 here, and the wrapper
    # around json.dumps adds one frame under the encoder.
    sys.setrecursionlimit(sys.getrecursionlimit() + _depth() + 1 - PLAIN_MAIN_DEPTH + 1)
    span = tracer.start("cli.main")
    try:
        return cosp.cli.main(argv)
    except BaseException as exc:
        error[0] = type(exc).__name__
        raise
    finally:
        tracer.finish(span)
        sys.stdout.flush()


if __name__ == "__main__":
    sys.exit(main())
