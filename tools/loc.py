"""Size of the package: lines, code lines and syntax-tree nodes.

Usage: ``python tools/loc.py [package directory]`` (default ``src/cosp``).

For each module, and in total, it prints the lines and the code lines:
lines that hold a token other than a comment, and are not part of a
module, class or function docstring.  It then prints the syntax-tree
nodes (``ast.walk`` over each module) that one CLI request compiles: a
graph-side request (``check``, ``cotree``) runs ``__init__``, ``cli``,
``graphs`` and ``cographs``, an order-side one (``poset ... nfree``,
``poset ... sptree``) also ``posets`` and ``spdecomp``.  It only
reports: the exit status is 0 whatever the counts are.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

REQUESTS = {
    "graph-side request": ("__init__", "cli", "graphs", "cographs"),
    "order-side request": ("__init__", "cli", "graphs", "cographs", "posets", "spdecomp"),
}
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


def main(argv: list[str]) -> None:
    package = Path(argv[1]) if len(argv) > 1 else Path(__file__).parents[1] / "src" / "cosp"
    sizes = {
        path.stem: measure(path.read_text(encoding="utf-8"))
        for path in sorted(package.glob("*.py"))
    }
    print(f"{'module':<16}{'lines':>8}{'code':>8}{'nodes':>8}")
    for name, (lines, code, nodes) in sizes.items():
        print(f"{name + '.py':<16}{lines:>8,}{code:>8,}{nodes:>8,}")
    total = [sum(column) for column in zip(*sizes.values())]
    print(f"{'total':<16}{total[0]:>8,}{total[1]:>8,}{total[2]:>8,}")
    for request, modules in REQUESTS.items():
        print(f"{request}: {sum(sizes[name][2] for name in modules):,} nodes ({', '.join(modules)})")


if __name__ == "__main__":
    main(sys.argv)
