"""One-node mutants of a module, and the ones that a kill suite leaves alive.

Usage::

    python tools/mutants.py MODULE --suite TEST [TEST ...]

MODULE is the module's path in the checkout that holds this tool (the
directory above ``tools``), such as ``src/cosp/engine.py``, and each TEST
a pytest path in it.  Each mutant changes one node of the module's syntax tree:

- ``&`` and ``|``, ``+`` and ``-``, ``<<`` and ``>>`` swapped, in
  expressions and augmented assignments;
- each comparison to its neighbor: ``<`` and ``<=``, ``>`` and ``>=``,
  ``==`` and ``!=``, ``is`` and ``is not``, ``in`` and ``not in``;
- an int constant plus one, and minus one;
- a boolean constant flipped;
- ``~`` and ``not`` dropped.

Annotations are left alone.  Each mutant is written with
:func:`ast.unparse` into a scratch copy of the checkout's top directories
that the module and the suite live in, and of ``tools``, whose scripts
some tests run (``__pycache__`` left out), and the suite runs there as
``python -m pytest -x -m "not memory"``, two mutants at a time (tests
marked ``memory`` measure memory or run out of it in processes of their
own, which is slow, so no kill suite runs them), with the module's top
directory (``src``) on ``PYTHONPATH``, no bytecode
written, no Hypothesis database kept between mutants, and 1 GiB of
address space.  A mutant is killed when the suite fails, and counted as
hung, which is killed too, when it runs past the time cap, five times
the unmutated suite's time plus 5 s; its process group is then ended.
The unmutated module, written the same way, must pass first.

A mutant is named ``function: before -> after``: its enclosing function
(or ``<module>``), and the text of the mutated expression before and
after (a constant's with its parent expression), with `` (k)`` added for
the k-th repeat of a name.  ``tools/mutants_equivalent.json`` maps a
module's path to the mutants that cannot change its behaviour, each with
a one-line reason.  The tool prints each survivor that the file does not
list, with its line, and each listed mutant that no longer exists or was
killed.
It exits 0 when there are none of either, 1 otherwise, and 2 when the
unmutated suite fails.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
EQUIVALENT = ROOT / "tools" / "mutants_equivalent.json"
WORKERS = 2
MEMORY = 1 << 30  # bytes of address space per run of the suite

_SWAP = {
    ast.BitAnd: ast.BitOr,
    ast.BitOr: ast.BitAnd,
    ast.Add: ast.Sub,
    ast.Sub: ast.Add,
    ast.LShift: ast.RShift,
    ast.RShift: ast.LShift,
}
_NEIGHBOR = {
    ast.Lt: ast.LtE,
    ast.LtE: ast.Lt,
    ast.Gt: ast.GtE,
    ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq,
    ast.NotEq: ast.Eq,
    ast.Is: ast.IsNot,
    ast.IsNot: ast.Is,
    ast.In: ast.NotIn,
    ast.NotIn: ast.In,
}

# Runs ``python ARGS...`` under an address-space limit of LIMIT bytes:
# ``python -c _LIMITED LIMIT ARGS...``.  (A ``preexec_fn`` is not safe in a
# process with threads.)
_LIMITED = (
    "import os, resource, sys; limit = int(sys.argv[1]);"
    " resource.setrlimit(resource.RLIMIT_AS, (limit, limit));"
    " os.execv(sys.executable, [sys.executable, *sys.argv[2:]])"
)


class Mutant:
    """One mutant: its name, its line in the module and its source."""

    def __init__(self, name: str, line: int, source: str):
        self.name, self.line, self.source = name, line, source


def _changes(node: ast.AST, parent: ast.AST) -> list[tuple]:
    """The one-node changes of ``node``, each as ``(shown, owner, field,
    value, shown after)``: setting ``owner.field`` to ``value`` makes the
    mutant, and the two shown nodes, unparsed before and after, name it."""
    out = []
    if isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in _SWAP:
        out.append((node, node, "op", _SWAP[type(node.op)](), node))
    elif isinstance(node, ast.Compare):
        for i, op in enumerate(node.ops):
            ops = list(node.ops)
            ops[i] = _NEIGHBOR[type(op)]()
            out.append((node, node, "ops", ops, node))
    elif isinstance(node, ast.Constant) and type(node.value) in (int, bool):
        shown = parent if isinstance(parent, ast.expr) else node
        if type(node.value) is bool:
            out.append((shown, node, "value", not node.value, shown))
        else:
            out += [(shown, node, "value", node.value + step, shown) for step in (1, -1)]
    elif isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.Invert, ast.Not)):
        # Dropping the operator: the operand takes the node's place.
        for field, value in ast.iter_fields(parent):
            if value is node:
                out.append((node, parent, field, node.operand, node.operand))
            elif isinstance(value, list) and any(item is node for item in value):
                items = [node.operand if item is node else item for item in value]
                out.append((node, parent, field, items, node.operand))
    return out


def mutants(source: str) -> list[Mutant]:
    """Every one-node mutant of a module's source, in source order."""
    tree = ast.parse(source)
    skip = set()  # annotations
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            every = args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]
            notes = [arg.annotation for arg in every if arg is not None] + [node.returns]
        elif isinstance(node, ast.AnnAssign):
            notes = [node.annotation]
        else:
            continue
        for note in notes:
            if note is not None:
                skip.update(map(id, ast.walk(note)))
    found = []
    seen: dict[str, int] = {}

    def visit(node: ast.AST, parent: ast.AST, scope: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = node.name if scope == "<module>" else f"{scope}.{node.name}"
        if id(node) not in skip:
            for shown, owner, field, value, shown_after in _changes(node, parent):
                before = ast.unparse(shown)
                old = getattr(owner, field)
                setattr(owner, field, value)
                after, mutated = ast.unparse(shown_after), ast.unparse(tree)
                setattr(owner, field, old)
                name = f"{scope}: {before} -> {after}"
                seen[name] = seen.get(name, 0) + 1
                if seen[name] > 1:
                    name += f" ({seen[name]})"
                found.append(Mutant(name, node.lineno, mutated + "\n"))
        for child in ast.iter_child_nodes(node):
            visit(child, node, scope)

    visit(tree, tree, "<module>")
    return found


class Runner:
    """Runs the kill suite on scratch copies of the checkout, one per worker."""

    def __init__(self, args: argparse.Namespace, work: Path):
        self.args, self.work = args, work
        self.tops = sorted({"tools", *(Path(p).parts[0] for p in (args.module, *args.suite))})
        self.copies: dict[int, Path] = {}
        self.lock = threading.Lock()

    def _copy(self) -> Path:
        thread = threading.get_ident()
        with self.lock:
            if thread not in self.copies:
                copy = self.work / f"copy{len(self.copies)}"
                for top in self.tops:
                    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
                    shutil.copytree(ROOT / top, copy / top, ignore=ignore)
                self.copies[thread] = copy
            return self.copies[thread]

    def run(self, source: str, timeout: float | None) -> tuple[str, float]:
        """``"survived"``, ``"killed"`` or ``"hung"``, and the seconds it took."""
        copy = self._copy()
        (copy / self.args.module).write_text(source, encoding="utf-8")
        shutil.rmtree(copy / ".hypothesis", ignore_errors=True)
        top = copy / Path(self.args.module).parts[0]
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=str(top))
        command = [sys.executable, "-c", _LIMITED, str(MEMORY), "-m", "pytest", "-x", "-q"]
        command += ["-m", "not memory"]
        start = time.perf_counter()
        proc = subprocess.Popen(
            [*command, "-p", "no:cacheprovider", *self.args.suite],
            cwd=copy,
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            start_new_session=True,
        )
        try:
            code = proc.wait(timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)  # the suite and any process it started
            proc.wait()
            return "hung", time.perf_counter() - start
        return ("survived" if code == 0 else "killed"), time.perf_counter() - start


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("module", help="the module's path in the checkout")
    parser.add_argument("--suite", nargs="+", required=True, help="pytest paths in the checkout")
    args = parser.parse_args(argv)
    source = (ROOT / args.module).read_text(encoding="utf-8")
    listed = json.loads(EQUIVALENT.read_text(encoding="utf-8")).get(args.module, {})
    every = mutants(source)
    names = {m.name for m in every}
    lines = source.splitlines()
    with tempfile.TemporaryDirectory(prefix="mutants-") as work:
        runner = Runner(args, Path(work))
        outcome, seconds = runner.run(ast.unparse(ast.parse(source)) + "\n", None)
        if outcome != "survived":
            print(f"the suite fails on the unmutated {args.module}", file=sys.stderr)
            return 2
        timeout = 5 * seconds + 5
        with ThreadPoolExecutor(WORKERS) as pool:
            outcomes = list(pool.map(lambda m: runner.run(m.source, timeout)[0], every))
    counts = {kind: outcomes.count(kind) for kind in ("killed", "hung", "survived")}
    survivors = [m for m, kind in zip(every, outcomes) if kind == "survived"]
    unlisted = [m for m in survivors if m.name not in listed]
    killed = [m.name for m, kind in zip(every, outcomes) if kind != "survived"]
    stale = sorted(name for name in listed if name not in names)
    stale += [name for name in killed if name in listed]
    print(
        f"{args.module}: {len(every)} mutants: {counts['killed']} killed, {counts['hung']} hung,"
        f" {len(survivors) - len(unlisted)} listed as equivalent, {len(unlisted)} survived"
        f" (cap {timeout:.0f} s per mutant)"
    )
    for m in unlisted:
        print(f"survived: {args.module}:{m.line}: {lines[m.line - 1].strip()}")
        print(f"    {m.name}")
    for name in stale:
        print(f"listed as equivalent, but absent or killed: {name}")
    return 1 if unlisted or stale else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
