"""The package namespace: lazy (PEP 562), with the same public names."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

import cosp


def test_public_names_are_their_modules_objects():
    assert len(cosp.__all__) == 42
    for name in cosp.__all__:
        obj = getattr(cosp, name)
        assert obj.__module__.startswith("cosp.")
        assert getattr(sys.modules[obj.__module__], name) is obj


def test_dir_and_star_import_cover_the_public_names():
    assert set(cosp.__all__) <= set(dir(cosp))
    namespace = {}
    exec("from cosp import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(cosp.__all__)


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError) as info:
        cosp.no_such_name
    assert str(info.value) == "module 'cosp' has no attribute 'no_such_name'"
    assert not hasattr(cosp, "brute_p4")


def test_import_cosp_imports_no_submodule():
    # -S keeps the interpreter's site hooks from importing modules of their
    # own; a submodule that is no public name still imports by name.
    code = (
        "import cosp, sys\n"
        "print(sorted(name for name in sys.modules if name.startswith('cosp.')))\n"
        "from cosp import oracles\n"
        "print(oracles.__name__)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code],
        capture_output=True,
        text=True,
        cwd=Path(cosp.__file__).parents[1],
        check=True,
    )
    assert proc.stdout == "[]\ncosp.oracles\n"


def test_loc_counts_code_lines_and_nodes(tmp_path):
    # tools/loc.py's code lines leave out blank, comment and docstring lines.
    path = Path(__file__).parents[1] / "tools" / "loc.py"
    spec = importlib.util.spec_from_file_location("loc", path)
    loc = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(loc)
    source = (
        '"""Module\ndocstring."""\n\n# comment\nx = (\n    1)  # trailing\n\n\n'
        'def f():\n    """Doc."""\n    return x\n'
    )
    # Code lines: "x = (", "1)", "def f():" and "return x".
    assert loc.measure(source) == (11, 4, 14)
    # A request's nodes are counted over the modules it imports, and cli.
    package = Path(cosp.__file__).parent
    graph = tmp_path / "graph.txt"
    graph.write_text(loc.GRAPH)
    request = loc.request_modules(package, ["check", str(graph)])
    assert request == ["__init__", "cli", "engine", "rows"]
    tool = loc.request_modules(package, ["join", str(graph)])
    assert {"commands", "graphs", "cographs"} <= set(tool)
    # cli counts once more only if commands compiled a second copy of it.
    assert tool.count("cli") == 1
