"""Size of the package: lines, code lines and syntax-tree nodes.

Usage: ``python tools/loc.py [package directory]`` (default ``src/cosp``).

For each module, and in total, it prints the lines and the code lines:
lines that hold a token other than a comment, and are not part of a
module, class or function docstring.  It then prints the syntax-tree
nodes (``ast.walk`` over each module) that each request compiles: the
modules that a fresh ``python -X importtime -m cosp.cli`` request imports
from the package, read from the report on standard error, and ``cli``,
which runs as ``__main__`` and counts twice if the report shows
``cosp.cli`` imported as well.  The requests are the recognition requests
on a small plain file, whose graph side is ``check`` and ``cotree`` and
whose order side is ``poset ... nfree`` and ``poset ... sptree``, and
three that argparse reads: ``check -h``, ``gen parity-split 3`` and
``join``.  It only reports: the exit status is 0 whatever the counts are,
and also when the reader of its output stops early.
"""

from __future__ import annotations

import ast
import io
import os
import subprocess
import sys
import tempfile
import tokenize
from pathlib import Path

GRAPH = "n 4\n0 1\n0 2\n1 2\n1 3\n2 3\n"
ORDER = "n 4\n0 1\n0 2\n1 3\n2 3\n"
# Each request, with the text it reads (None for none) and its side.
REQUESTS = (
    (("check",), GRAPH, "graph"),
    (("cotree",), GRAPH, "graph"),
    (("cotree", "--dot"), GRAPH, "graph"),
    (("poset", "nfree"), ORDER, "order"),
    (("poset", "sptree"), ORDER, "order"),
    (("poset", "sptree", "--dot"), ORDER, "order"),
    (("check", "-h"), None, "argparse"),
    (("gen", "parity-split", "3"), None, "argparse"),
    (("join",), GRAPH, "argparse"),
)
_SKIP = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def measure(source: str) -> tuple[int, int, int]:
    """The lines, code lines and syntax-tree nodes of one module's source."""
    tree = ast.parse(source)
    docstrings = set()
    for node in ast.walk(tree):
        if isinstance(node, _SCOPES) and node.body:
            first = node.body[0]
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _SKIP:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(source.splitlines()), len(code - docstrings), sum(1 for _ in ast.walk(tree))


def request_modules(package: Path, argv: list[str]) -> list[str]:
    """The modules of ``package``, by file stem, that a fresh
    ``python -X importtime -m <package>.cli *argv`` request compiles: the
    ones it imports, and ``cli`` once more for ``__main__``.  -S keeps the
    interpreter's site hooks from importing modules of their own."""
    name = package.name
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-S", "-m", f"{name}.cli", *argv],
        capture_output=True,
        text=True,
        cwd=package.parent,
    )
    imported = {
        line.rsplit("|", 1)[1].strip()
        for line in proc.stderr.splitlines()
        if line.startswith("import time:")
    }
    stems = ["cli"]
    for module in imported:
        if module == name:
            stems.append("__init__")
        elif module.startswith(name + "."):
            stems.append(module[len(name) + 1 :])
    return sorted(stems)


def main(argv: list[str]) -> None:
    package = Path(argv[1]) if len(argv) > 1 else Path(__file__).parents[1] / "src" / "cosp"
    package = package.resolve()
    sizes = {
        path.stem: measure(path.read_text(encoding="utf-8"))
        for path in sorted(package.glob("*.py"))
    }
    print(f"{'module':<16}{'lines':>8}{'code':>8}{'nodes':>8}")
    for name, (lines, code, nodes) in sizes.items():
        print(f"{name + '.py':<16}{lines:>8,}{code:>8,}{nodes:>8,}")
    total = [sum(column) for column in zip(*sizes.values())]
    print(f"{'total':<16}{total[0]:>8,}{total[1]:>8,}{total[2]:>8,}")
    sides: dict[str, int] = {}
    with tempfile.TemporaryDirectory() as tmp:
        for command, text, side in REQUESTS:
            argv = list(command)
            if text is not None:
                path = Path(tmp) / f"{side}.txt"
                path.write_text(text, encoding="utf-8")
                argv.insert(1, str(path))
            modules = request_modules(package, argv)
            nodes = sum(sizes[name][2] for name in modules)
            sides[side] = max(sides.get(side, 0), nodes)
            print(f"{' '.join(command) + ':':<22}{nodes:>6,} nodes ({', '.join(modules)})")
    for side, nodes in sides.items():
        print(f"{side}-side request: {nodes:,} nodes at most")


if __name__ == "__main__":
    try:
        main(sys.argv)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed the pipe, as ``| head`` does: stop quietly, with
        # standard output sent to devnull so that the flush at exit cannot
        # fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
