"""The package namespace: lazy (PEP 562), with the same public names."""

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
