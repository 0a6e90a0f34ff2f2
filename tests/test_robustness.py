"""Legal texts of extreme shape, run through the CLI as fresh processes
under the 500 MiB address-space limit of :func:`test_parse.run_limited`.

Every request must answer (exit 0 or 1, one JSON line on stdout) or
refuse with a documented message (exit 2: a ``line N: ...`` parse error,
or a decomposition of an empty input); none may end in ``internal
error:``.
"""

import json
import re

import pytest

from test_parse import run_limited

TEXTS = {
    "crlf": "n 4\r\n0 1\r\n1 2\r\n2 3\r\n",
    "bom-comments-blanks": "\ufeff# a comment\n\nn 3\n0 1\n\n# another\n1 2\n",
    "labels-1e20": "".join(f"{10**20 + i} {10**20 + i + 1}\n" for i in range(3)),
    "n-0": "n 0\n",
    "n-50000-no-pairs": "n 50000\n",
    "less-than-lines": "0 < 1\n2 < 1\n2 < 3\n",
    "label-4301-digits": "0 1" + "0" * 4300 + "\n",
}
COMMANDS = {
    "check": ["check"],
    "cotree": ["cotree"],
    "nfree": ["poset", "nfree"],
    "sptree": ["poset", "sptree"],
}
DOCUMENTED = re.compile(r"line \d+: .+|the decomposition needs at least one (vertex|element)")


def run_cli(tmp_path, command, text):
    path = tmp_path / "input.txt"
    path.write_bytes(text.encode("utf-8"))
    return run_limited(["-m", "cosp.cli", command[0], str(path), *command[1:]], timeout=60)


def assert_answers_or_refuses(proc):
    assert "internal error:" not in proc.stderr
    if proc.returncode in (0, 1):
        assert proc.stderr == ""
        json.loads(proc.stdout)
    else:
        assert (proc.returncode, proc.stdout) == (2, "")
        assert DOCUMENTED.fullmatch(proc.stderr.rstrip("\n")), proc.stderr


@pytest.mark.parametrize("command", COMMANDS.values(), ids=list(COMMANDS))
@pytest.mark.parametrize("text", TEXTS.values(), ids=list(TEXTS))
def test_extreme_text_answers_or_refuses(tmp_path, command, text):
    assert_answers_or_refuses(run_cli(tmp_path, command, text))


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 2: one mask per singleton part, n*n/16 bytes, "
    "ends in internal error: MemoryError()",
)
@pytest.mark.parametrize("command", [COMMANDS["check"], COMMANDS["nfree"]], ids=["check", "nfree"])
def test_many_isolated_ids_answer(tmp_path, command):
    assert_answers_or_refuses(run_cli(tmp_path, command, "n 200000\n0 1\n2 3\n1 3\n"))
