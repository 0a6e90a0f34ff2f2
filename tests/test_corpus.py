"""The command line's output bytes, pinned on a fixed corpus of inputs.

``tests/corpus`` holds fixed input texts: generator output, parity-split
windows of both parities and orientations of cotrees, the CLI tests'
fixtures, and adversarial texts (an N and an induced path on the highest
ids, ``n 0``, header-less labels, ``u < v`` lines, a self-loop, CRLF, a
byte-order mark, and cyclic relations, whose error names one pair of the
cycle).  ``tests/corpus/digests.json`` records, for every
recognition and lemma command of :data:`COMMANDS` on each input, the exit
code and the sha256 of standard output and of standard error.  The test
runs them in process through :func:`cosp.cli.main`.

Run as a script, it works on fresh processes and on the record:

- ``python tests/test_corpus.py --fresh`` replays every entry as a fresh
  ``python -m cosp.cli`` process without bytecode caching, in the
  caller's locale, which also reaches :func:`cosp.cli.run`'s flush and
  exit, and exits 1 on any difference;
- ``python tests/test_corpus.py --write`` rewrites the digests from the
  in-process answers.  Do this only when output changes on purpose: the
  diff of ``digests.json`` then names each answer that changed.
"""

import hashlib
import io
import json
import os
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

CORPUS = Path(__file__).parent / "corpus"
DIGESTS = CORPUS / "digests.json"
SRC = Path(__file__).parents[1] / "src"

# Each command's words; the input's path goes after the first, and None
# stands for the last label of the input's text (0 when it has none).
COMMANDS = (
    ("check",),
    ("check", "--property", "p4free"),
    ("cotree",),
    ("cotree", "--dot"),
    ("poset", "nfree"),
    ("poset", "sptree"),
    ("poset", "sptree", "--dot"),
    ("poset", "--full", "sptree"),
    ("poset", "linear-split"),
    ("poset", "endpoint", "--x", None),
    ("join",),
)


def requests(path: Path) -> dict[str, list[str]]:
    """The argument list of every command on one input, by its key: the
    command's words without the path."""
    labels = re.findall(rb"\d+", path.read_bytes())
    last = labels[-1].decode() if labels else "0"
    out = {}
    for words in COMMANDS:
        words = [last if word is None else word for word in words]
        out[" ".join(words)] = [words[0], str(path), *words[1:]]
    return out


def digest(code: int, stdout: bytes, stderr: bytes) -> dict:
    return {
        "exit": code,
        "stdout": hashlib.sha256(stdout).hexdigest(),
        "stderr": hashlib.sha256(stderr).hexdigest(),
    }


def in_process(argv: list[str]) -> dict:
    from cosp.cli import main

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return digest(code, out.getvalue().encode(), err.getvalue().encode())


def fresh_process(argv: list[str], **variables: str) -> dict:
    """The digest of a fresh ``python -m cosp.cli`` process, whose output
    is UTF-8 whatever the locale; ``variables`` go to its environment."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", **variables)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-m", "cosp.cli", *argv], capture_output=True, env=env)
    return digest(proc.returncode, proc.stdout, proc.stderr)


def answers(name: str, run) -> dict:
    return {key: run(argv) for key, argv in requests(CORPUS / name).items()}


def inputs() -> list[str]:
    return sorted(path.name for path in CORPUS.glob("*.txt"))


def recorded() -> dict:
    return json.loads(DIGESTS.read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(set(inputs()) | set(recorded())))
def test_every_command_prints_its_recorded_bytes(name):
    assert answers(name, in_process) == recorded().get(name)


@pytest.mark.parametrize("encoding", ["ascii", "latin-1"])
def test_dot_answers_are_utf_8_under_any_locale(encoding):
    # The DOT labels ×, ∪ and → are not all in these encodings; a request
    # writes standard output in UTF-8 anyway, so each answer keeps the
    # bytes of its digest.
    table = recorded()
    for name in ("diamond.txt", "orient-window-11-offset-1-full.txt"):
        for key in ("cotree --dot", "poset sptree --dot"):
            argv = requests(CORPUS / name)[key]
            answer = fresh_process(argv, PYTHONIOENCODING=encoding)
            assert answer == table[name][key] and answer["exit"] == 0, (name, key)


def main(argv: list[str]) -> int:
    if argv == ["--write"]:
        table = {name: answers(name, in_process) for name in inputs()}
        DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote the digests of {sum(map(len, table.values()))} answers to {DIGESTS}")
        return 0
    if argv != ["--fresh"]:
        print(__doc__, file=sys.stderr)
        return 2
    table = recorded()
    checked = [
        (f"{name}: {key}", answer == table.get(name, {}).get(key))
        for name in sorted(set(inputs()) | set(table))
        for key, answer in answers(name, fresh_process).items()
    ]
    wrong = [request for request, same in checked if not same]
    for request in wrong:
        print("differs:", request)
    matched = len(checked) - len(wrong)
    print(f"{matched} of {len(checked)} answers match their digests in fresh processes")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.path.insert(0, str(SRC))
    sys.exit(main(sys.argv[1:]))
