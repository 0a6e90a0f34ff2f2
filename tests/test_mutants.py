"""``tools/mutants.py`` finds the mutant that a planted kill suite misses.

The test runs a copy of the tool in a planted checkout, whose module,
kill suite and ``tools/mutants_equivalent.json`` sit beside the copy.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).parents[1] / "tools" / "mutants.py"

MODULE = '''def add(a, b):
    return a + b


def small(x):
    return x < 3
'''
# Kills a - b, x < 4 and x < 2, but not x <= 3, which no int tells apart
# from x < 3 and no test here gives anything else.
SUITE = '''from toy import add, small


def test_toy():
    assert add(2, 3) == 5
    assert small(2.5) and not small(3.5) and small(1)
'''


def run_tool(root: Path) -> subprocess.CompletedProcess:
    command = [sys.executable, str(root / "tools" / "mutants.py"), "src/toy.py"]
    return subprocess.run(
        [*command, "--suite", "tests/test_toy.py"], capture_output=True, text=True, timeout=60
    )


def test_the_tool_reports_exactly_the_planted_survivor(tmp_path):
    for top in ("src", "tests", "tools"):
        (tmp_path / top).mkdir()
    shutil.copy(TOOL, tmp_path / "tools")
    (tmp_path / "src" / "toy.py").write_text(MODULE, encoding="utf-8")
    (tmp_path / "tests" / "test_toy.py").write_text(SUITE, encoding="utf-8")
    listed = tmp_path / "tools" / "mutants_equivalent.json"
    listed.write_text("{}", encoding="utf-8")
    proc = run_tool(tmp_path)
    assert (proc.returncode, proc.stderr) == (1, "")
    summary, *survivors = proc.stdout.splitlines()
    assert summary.startswith(
        "src/toy.py: 4 mutants: 3 killed, 0 hung, 0 listed as equivalent, 1 survived"
    )
    assert survivors == ["survived: src/toy.py:6: return x < 3", "    small: x < 3 -> x <= 3"]
    # Listed with a reason, the survivor is no longer reported; a listed
    # mutant that was killed, or that does not exist, is.
    reasons = {
        "small: x < 3 -> x <= 3": "x is an int",
        "add: a + b -> a - b": "not so",
        "add: a * b -> a / b": "no such mutant",
    }
    listed.write_text(json.dumps({"src/toy.py": reasons}), encoding="utf-8")
    proc = run_tool(tmp_path)
    summary, *stale = proc.stdout.splitlines()
    assert proc.returncode == 1
    assert "3 killed, 0 hung, 1 listed as equivalent, 0 survived" in summary
    assert stale == [
        "listed as equivalent, but absent or killed: add: a * b -> a / b",
        "listed as equivalent, but absent or killed: add: a + b -> a - b",
    ]
