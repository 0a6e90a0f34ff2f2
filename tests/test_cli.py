"""Command line surface: exit codes, JSON output, and byte stability."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import cosp
from cosp.cli import main

P4_TEXT = "n 4\n0 1\n1 2\n2 3\n"
K3_TEXT = "0 1\n0 2\n1 2\n"
DIAMOND_TEXT = "0 1\n0 2\n1 2\n1 3\n2 3\n"
N_TEXT = "0 1\n2 1\n2 3\n"
CHAIN3_TEXT = "0 1\n1 2\n"
DIAMOND_POSET_TEXT = "0 1\n0 2\n1 3\n2 3\n"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write(tmp_path, name, text):
    f = tmp_path / name
    f.write_text(text)
    return str(f)


def test_check_p4(tmp_path, capsys):
    f = write(tmp_path, "p4.txt", P4_TEXT)
    code, out, err = run(capsys, "check", f)
    assert code == 1
    assert json.loads(out) == {"kind": "p4", "path": [0, 1, 2, 3]}


def test_check_k3(tmp_path, capsys):
    f = write(tmp_path, "k3.txt", K3_TEXT)
    code, out, err = run(capsys, "check", f)
    assert code == 0
    rec = json.loads(out)
    assert rec["cograph"] is True
    assert rec["order"] == 3
    assert rec["series"] == 1
    assert rec["parallel"] == 0


def test_check_self_loop_rejected(tmp_path, capsys):
    f = write(tmp_path, "loop.txt", "0 1\n2 2\n")
    code, out, err = run(capsys, "check", f)
    assert code == 2
    assert out == ""
    assert "line 2" in err


def test_byte_order_mark_is_ignored(tmp_path, capsys):
    # Both files hold the same text, one behind a UTF-8 byte-order mark;
    # the plain P4 file is read in bulk, the header-less N line by line.
    for name, text, args in (("p4", P4_TEXT, ["check"]), ("n", N_TEXT, ["poset", "nfree"])):
        plain, marked = tmp_path / f"{name}.txt", tmp_path / f"{name}-bom.txt"
        plain.write_bytes(text.encode())
        marked.write_bytes(b"\xef\xbb\xbf" + text.encode())
        expected = run(capsys, args[0], str(plain), *args[1:])
        assert expected[0] == 1
        assert run(capsys, args[0], str(marked), *args[1:]) == expected


def test_check_missing_file(capsys):
    code, out, err = run(capsys, "check", "/nonexistent/g.txt")
    assert code == 2
    assert err != ""


def test_check_p4free_route(tmp_path, capsys):
    f = write(tmp_path, "p4.txt", P4_TEXT)
    code, out, _ = run(capsys, "check", f, "--property", "p4free")
    assert code == 1
    assert json.loads(out)["path"] == [0, 1, 2, 3]
    f = write(tmp_path, "k3.txt", K3_TEXT)
    code, out, _ = run(capsys, "check", f, "--property", "p4free")
    assert code == 0


def test_check_preserves_input_labels(tmp_path, capsys):
    f = write(tmp_path, "sparse.txt", "10 20\n20 30\n30 40\n")
    code, out, _ = run(capsys, "check", f)
    assert code == 1
    assert json.loads(out)["path"] == [10, 20, 30, 40]


def test_cotree_single_vertex(tmp_path, capsys):
    f = write(tmp_path, "k1.txt", "n 1\n")
    code, out, _ = run(capsys, "cotree", f)
    assert code == 0
    assert json.loads(out) == {"kind": "leaf", "vertex": 0}


def test_cotree_diamond_json(tmp_path, capsys):
    f = write(tmp_path, "d.txt", DIAMOND_TEXT)
    code, out, _ = run(capsys, "cotree", f)
    assert code == 0
    assert json.loads(out) == {
        "kind": "series",
        "children": [
            {
                "kind": "parallel",
                "children": [
                    {"kind": "leaf", "vertex": 0},
                    {"kind": "leaf", "vertex": 3},
                ],
            },
            {"kind": "leaf", "vertex": 1},
            {"kind": "leaf", "vertex": 2},
        ],
    }


def window_tree_json(n, offset, key, kinds):
    """JSON line of the tree of parity_split_graph(n, offset) or of its
    orientation: vertex i splits off the rest under kinds[0] when
    offset + i is even, else under kinds[1], so the tree is n deep."""
    opens = [
        f'{{"kind": "{kinds[(offset + i) % 2]}", "children": [{{"kind": "leaf", "{key}": {i}}}, '
        for i in range(n - 1)
    ]
    last = f'{{"kind": "leaf", "{key}": {n - 1}}}'
    return "".join(opens) + last + "]}" * (n - 1) + "\n"


def test_cotree_deep_window(tmp_path, capsys):
    # Depth 1000, twice the depth at which the recursive encoder failed;
    # a window n deep has n * n / 4 edges, so parsing bounds the size here.
    from cosp import format_graph, parity_split_graph

    n = 1000
    f = write(tmp_path, "w.txt", format_graph(parity_split_graph(n, 1)))
    code, out, err = run(capsys, "cotree", f)
    assert (code, err) == (0, "")
    assert out == window_tree_json(n, 1, "vertex", ("series", "parallel"))
    # The writer alone, at depth 6000
    from cosp import cotree
    from cosp.engine import json_text

    t = cotree(parity_split_graph(6000, 1))
    assert json_text(t._signature(), "vertex") + "\n" == window_tree_json(
        6000, 1, "vertex", ("series", "parallel")
    )


def test_poset_sptree_deep_orientation(tmp_path, capsys):
    # The orientation of parity_split_graph(n): each even i is covered by
    # i + 1 and i + 2.  Its sp-tree is n = 5000 deep.
    from cosp import format_poset, parse_poset

    n = 5000
    covers = [f"{i} {j}" for i in range(0, n, 2) for j in (i + 1, i + 2) if j < n]
    text = f"n {n}\n" + "\n".join(covers) + "\n"
    f = write(tmp_path, "o.txt", text)
    code, out, err = run(capsys, "poset", f, "sptree")
    assert (code, err) == (0, "")
    assert out == window_tree_json(n, 0, "element", ("linear", "disjoint"))
    # The closure and the cover reduction, both ways
    p, labels = parse_poset(text)
    assert format_poset(p) == text
    assert parse_poset(format_poset(p)) == (p, labels)


def test_cotree_p4_witness(tmp_path, capsys):
    f = write(tmp_path, "p4.txt", P4_TEXT)
    code, out, _ = run(capsys, "cotree", f)
    assert code == 1
    assert json.loads(out)["kind"] == "p4"


def test_cotree_dot(tmp_path, capsys):
    f = write(tmp_path, "d.txt", DIAMOND_TEXT)
    code, out, _ = run(capsys, "cotree", f, "--dot")
    assert code == 0
    assert out.startswith("graph cotree {")


def test_join_diamond(tmp_path, capsys):
    f = write(tmp_path, "d.txt", DIAMOND_TEXT)
    code, out, _ = run(capsys, "join", f)
    assert code == 0
    assert json.loads(out) == {
        "x": 0,
        "universal_neighbors": [1, 2],
        "split": [[0, 3], [1, 2]],
    }


def test_join_p4_no_witness(tmp_path, capsys):
    f = write(tmp_path, "p4.txt", P4_TEXT)
    code, out, err = run(capsys, "join", f)
    assert code == 1
    assert json.loads(out) == {"witness": None, "reason": "complement connected"}
    assert "no witness" in err


def test_join_disconnected(tmp_path, capsys):
    f = write(tmp_path, "2k1.txt", "n 2\n")
    code, out, err = run(capsys, "join", f)
    assert code == 2
    assert "connected" in err


def test_join_skips_a_vertex_whose_split_fails(tmp_path, capsys):
    # The complement splits off vertex 1, and the graph has the induced
    # path 3-2-0-4.  Vertex 0's universal neighbors are 1 and 2, but 2 and
    # 4 are not adjacent, so the witness is vertex 1's.
    text = "n 5\n0 1\n0 2\n0 4\n1 2\n1 3\n1 4\n2 3\n"
    f = write(tmp_path, "split.txt", text)
    code, out, _ = run(capsys, "join", f)
    assert code == 0
    assert json.loads(out) == {
        "x": 1,
        "universal_neighbors": [0, 2, 3, 4],
        "split": [[1], [0, 2, 3, 4]],
    }
    g, _ = cosp.parse_graph(text)
    w = cosp.JoinWitness(**json.loads(out))
    assert w.validate(g)


def test_poset_nfree(tmp_path, capsys):
    f = write(tmp_path, "n.txt", N_TEXT)
    code, out, _ = run(capsys, "poset", f, "nfree")
    assert code == 1
    assert json.loads(out) == {"kind": "n", "quad": [0, 1, 2, 3]}
    f = write(tmp_path, "c.txt", CHAIN3_TEXT)
    code, out, _ = run(capsys, "poset", f, "nfree")
    assert code == 0
    assert json.loads(out) == {"nfree": True}


def test_poset_sptree_chain(tmp_path, capsys):
    f = write(tmp_path, "c.txt", CHAIN3_TEXT)
    code, out, _ = run(capsys, "poset", f, "sptree")
    assert code == 0
    assert json.loads(out) == {
        "kind": "linear",
        "children": [
            {"kind": "leaf", "element": 0},
            {"kind": "leaf", "element": 1},
            {"kind": "leaf", "element": 2},
        ],
    }


def test_poset_sptree_n_witness(tmp_path, capsys):
    f = write(tmp_path, "n.txt", N_TEXT)
    code, out, _ = run(capsys, "poset", f, "sptree")
    assert code == 1
    assert json.loads(out)["quad"] == [0, 1, 2, 3]


def test_poset_sptree_full_mode(tmp_path, capsys):
    f = write(tmp_path, "c.txt", "0 1\n0 2\n1 2\n")
    code, out, _ = run(capsys, "poset", f, "sptree", "--full")
    assert code == 0
    f = write(tmp_path, "open.txt", CHAIN3_TEXT)
    code, out, err = run(capsys, "poset", f, "sptree", "--full")
    assert code == 2
    assert "closed" in err


def test_poset_linear_split(tmp_path, capsys):
    f = write(tmp_path, "d.txt", DIAMOND_POSET_TEXT)
    code, out, _ = run(capsys, "poset", f, "linear-split")
    assert code == 0
    assert json.loads(out) == {"x": 0, "lower": [], "middle": [0], "upper": [1, 2, 3]}


def test_poset_linear_split_absent_on_n(tmp_path, capsys):
    # the N order is connected but no element yields a valid split;
    # the N of the decomposition then explains the failure
    f = write(tmp_path, "n.txt", N_TEXT)
    code, out, _ = run(capsys, "poset", f, "linear-split")
    assert code == 1
    assert json.loads(out)["kind"] == "n"


def test_poset_endpoint(tmp_path, capsys):
    f = write(tmp_path, "d.txt", DIAMOND_POSET_TEXT)
    code, out, _ = run(capsys, "poset", f, "endpoint", "--x", "1")
    assert code == 0
    assert json.loads(out) == {"x": 1, "endpoint": 3, "side": "up"}


def test_poset_endpoint_needs_x(tmp_path, capsys):
    f = write(tmp_path, "d.txt", DIAMOND_POSET_TEXT)
    code, out, err = run(capsys, "poset", f, "endpoint")
    assert code == 2
    assert "--x" in err


def test_poset_endpoint_unknown_element(tmp_path, capsys):
    f = write(tmp_path, "d.txt", DIAMOND_POSET_TEXT)
    code, out, err = run(capsys, "poset", f, "endpoint", "--x", "9")
    assert code == 2


def test_poset_cycle(tmp_path, capsys):
    f = write(tmp_path, "cyc.txt", "0 1\n1 2\n2 0\n")
    code, out, err = run(capsys, "poset", f, "nfree")
    assert code == 2
    assert "cycle" in err


def test_poset_labels_in_witness(tmp_path, capsys):
    f = write(tmp_path, "n.txt", "10 11\n12 11\n12 13\n")
    code, out, _ = run(capsys, "poset", f, "nfree")
    assert code == 1
    assert json.loads(out)["quad"] == [10, 11, 12, 13]


ORDER_ACTIONS = (("nfree",), ("sptree",), ("linear-split",), ("endpoint", "--x", "1"))


def test_request_paths_avoid_the_oracles(tmp_path, capsys, monkeypatch):
    import cosp.lemmas
    from cosp import oracles

    graphs = {"p4": P4_TEXT, "k3": K3_TEXT, "diamond": DIAMOND_TEXT}
    orders = {"n": N_TEXT, "chain": CHAIN3_TEXT, "diamond-order": DIAMOND_POSET_TEXT}
    files = {name: write(tmp_path, name, text) for name, text in {**graphs, **orders}.items()}
    requests = [(cmd, name) for cmd in ("check", "cotree", "join") for name in graphs]
    requests += [("check", name, "--property", "p4free") for name in graphs]
    requests += [("poset", name, *action) for action in ORDER_ACTIONS for name in orders]

    def answer(request):
        return run(capsys, request[0], files[request[1]], *request[2:])

    answers = {request: answer(request) for request in requests}

    def forbidden(*args, **kwargs):
        raise AssertionError("an oracle ran on a request path")

    for name in ("brute_n", "brute_p4"):
        monkeypatch.setattr(oracles, name, forbidden)
    monkeypatch.setattr(cosp.lemmas, "is_nfree", forbidden)
    assert {request: answer(request) for request in requests} == answers
    # Each command fails on the P4 or the N and holds on the other two.
    assert [code for code, _, _ in answers.values()] == [1, 0, 0] * 8
    assert json.loads(answers["check", "p4"][1]) == {"kind": "p4", "path": [0, 1, 2, 3]}
    assert json.loads(answers["poset", "n", "nfree"][1]) == {"kind": "n", "quad": [0, 1, 2, 3]}
    assert json.loads(answers["poset", "chain", "nfree"][1]) == {"nfree": True}
    endpoint = answers["poset", "diamond-order", "endpoint", "--x", "1"]
    assert json.loads(endpoint[1]) == {"x": 1, "endpoint": 3, "side": "up"}


def test_empty_order_is_nfree(tmp_path, capsys):
    f = write(tmp_path, "empty.txt", "")
    assert run(capsys, "poset", f, "nfree") == (0, '{"nfree": true}\n', "")


def test_empty_input_errors(tmp_path, capsys):
    # The library's ValueError reaches stderr through main, with exit 2.
    requests = {
        ("cotree",): "the decomposition needs at least one vertex",
        ("join",): "the witness search needs at least one vertex",
        ("poset", "sptree"): "the decomposition needs at least one element",
        ("poset", "linear-split"): "the split search needs at least one element",
    }
    for text in ("", "n 0\n"):
        f = write(tmp_path, "empty.txt", text)
        for (command, *action), message in requests.items():
            assert run(capsys, command, f, *action) == (2, "", message + "\n")


def test_internal_errors_exit_2(tmp_path, capsys, monkeypatch):
    # The engine as the CLI calls it, on rows: an N that fails the check of
    # certificates, and a crash.
    import cosp.cli

    n_file = write(tmp_path, "n.txt", N_TEXT)
    monkeypatch.setattr(cosp.cli, "sp_tree_signature", lambda comp, below: (0, 1, 2, 2))
    for action in ORDER_ACTIONS:
        code, out, err = run(capsys, "poset", n_file, *action)
        assert (code, out) == (2, "")
        assert err.startswith("internal error: RuntimeError(") and err.count("\n") == 1

    def broken(adj):
        raise RuntimeError("broken engine")

    monkeypatch.setattr(cosp.cli, "cotree_signature", broken)
    g_file = write(tmp_path, "k3.txt", K3_TEXT)
    for cmd in ("check", "cotree"):
        code, out, err = run(capsys, cmd, g_file)
        assert (code, out) == (2, "")
        assert err == "internal error: RuntimeError('broken engine')\n"


def swap_leaves(signature):
    # The ids of the first two leaves in the signature trade places.
    i, j = [k for k, (kind, _, _) in enumerate(signature) if kind == "leaf"][:2]
    out = list(signature)
    out[i], out[j] = ("leaf", signature[j][1], 0), ("leaf", signature[i][1], 0)
    return out


def flip_root(signature):
    flipped = {"series": "parallel", "parallel": "series", "linear": "disjoint", "disjoint": "linear"}
    kind, leaf, count = signature[0]
    return [(flipped[kind], leaf, count), *signature[1:]]


def swap_linear_children(signature):
    from cosp.cographs import _from_signature
    from cosp.spdecomp import SPTree

    t = _from_signature(SPTree, signature)
    first, second, *rest = t.children
    return SPTree(t.kind, None, (second, first, *rest))._signature()


@pytest.mark.parametrize("fault", [swap_leaves, flip_root, swap_linear_children])
def test_a_wrong_tree_is_an_internal_error(tmp_path, capsys, monkeypatch, fault):
    # The engine's own tree with one fault, on the path 0-1-2 and the chain
    # 0 < 1 < 2: every request checks a tree against its input before it
    # prints the tree or its summary.  Only the flipped path's root breaks
    # canonical form; each other fault gives a canonical tree of other rows.
    import cosp.cli
    from cosp.engine import cotree_signature, sp_tree_signature

    f = write(tmp_path, "three.txt", CHAIN3_TEXT)
    requests = [("poset", f, "nfree"), ("poset", f, "sptree"), ("poset", f, "sptree", "--dot")]
    monkeypatch.setattr(cosp.cli, "sp_tree_signature", lambda *rows: fault(sp_tree_signature(*rows)))
    if fault is not swap_linear_children:
        requests += [("check", f), ("cotree", f), ("cotree", f, "--dot")]
        monkeypatch.setattr(cosp.cli, "cotree_signature", lambda adj: fault(cotree_signature(adj)))
    for request in requests:
        code, out, err = run(capsys, *request)
        assert (code, out) == (2, ""), request
        assert err.startswith("internal error: RuntimeError(") and err.count("\n") == 1, request


def test_gen_parity_split(capsys):
    code, out, _ = run(capsys, "gen", "parity-split", "4")
    assert code == 0
    assert out == "n 4\n0 1\n0 2\n0 3\n2 3\n"


def test_gen_parity_split_offset(capsys):
    code, out, _ = run(capsys, "gen", "parity-split", "3", "--offset", "1")
    assert code == 0
    # window 1..3: only even integer is 2, at position 1
    assert out == "n 3\n1 2\n"


def test_gen_cotree_single_leaf(capsys):
    code, out, _ = run(capsys, "gen", "cotree", "1", "--seed", "7")
    assert code == 0
    assert out == "n 1\n"


def test_gen_gnp_complete(capsys):
    code, out, _ = run(capsys, "gen", "gnp", "5", "1.0", "--seed", "1")
    assert code == 0
    g_lines = out.strip().split("\n")
    assert g_lines[0] == "n 5"
    assert len(g_lines) == 11


def test_gen_poset_parses_back(tmp_path, capsys):
    code, out, _ = run(capsys, "gen", "poset", "6", "0.5", "--seed", "3")
    assert code == 0
    f = write(tmp_path, "gen.txt", out)
    code2, out2, _ = run(capsys, "poset", f, "nfree")
    assert code2 in (0, 1)


def test_gen_rejects_bad_flags(capsys):
    code, _, err = run(capsys, "gen", "cotree", "4", "--offset", "2")
    assert code == 2
    code, _, err = run(capsys, "gen", "gnp", "4")
    assert code == 2
    code, _, err = run(capsys, "gen", "gnp", "4", "1.5")
    assert code == 2
    code, _, err = run(capsys, "gen", "cotree", "4", "0.5")
    assert code == 2
    code, _, err = run(capsys, "gen", "cotree", "0")
    assert code == 2


def test_gen_deterministic(capsys):
    code, out1, _ = run(capsys, "gen", "sptree", "12", "--seed", "5")
    code, out2, _ = run(capsys, "gen", "sptree", "12", "--seed", "5")
    assert out1 == out2
    code, out3, _ = run(capsys, "gen", "sptree", "12", "--seed", "6")
    assert out1 != out3


def test_output_byte_stability(tmp_path, capsys):
    f = write(tmp_path, "d.txt", DIAMOND_TEXT)
    results = [run(capsys, "cotree", f) for _ in range(2)]
    assert results[0] == results[1]
    g = write(tmp_path, "n.txt", N_TEXT)
    results = [run(capsys, "poset", g, "sptree") for _ in range(2)]
    assert results[0] == results[1]


def test_witnesses_revalidate(tmp_path, capsys):
    from cosp import P4Witness, parse_graph

    f = write(tmp_path, "p4.txt", P4_TEXT)
    code, out, _ = run(capsys, "check", f)
    assert code == 1
    g, labels = parse_graph(P4_TEXT)
    path = json.loads(out)["path"]
    internal = tuple(labels.index(v) for v in path)
    assert P4Witness(internal).validate(g)


def test_import_leaves_out_dataclasses_typing_and_the_oracles():
    # -S keeps the interpreter's site hooks from importing modules of their own.
    code = "import cosp.cli, sys; print(sorted(set(sys.argv[1:]) & set(sys.modules)))"
    unwanted = ["dataclasses", "inspect", "typing", "cosp.oracles"]
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code, *unwanted],
        capture_output=True,
        text=True,
        cwd=Path(cosp.__file__).parents[1],
        check=True,
    )
    assert proc.stdout == "[]\n"


def cli_process(*args):
    """Run ``python *args`` from the source tree in a fresh interpreter."""
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        cwd=Path(cosp.__file__).parents[1],
    )


def imported_modules(*argv):
    """The modules that ``python -S -m cosp.cli *argv`` imports, read from
    the ``-X importtime`` report on standard error; -S keeps the
    interpreter's site hooks from importing modules of their own."""
    stderr = cli_process("-X", "importtime", "-S", "-m", "cosp.cli", *argv).stderr
    lines = [line for line in stderr.splitlines() if line.startswith("import time:")]
    return {line.rsplit("|", 1)[1].strip() for line in lines}


def test_requests_import_only_the_modules_they_run(tmp_path):
    # On plain files every recognition request reads rows and runs the split
    # engine on them: it loads neither argparse (nor its gettext and locale)
    # nor the modules of the Graph and Poset records, and no request loads
    # the oracles, the lemmas, the tree converters or the line reader.
    from cosp.rows import _read_plain

    assert _read_plain(DIAMOND_TEXT, False) and _read_plain(DIAMOND_POSET_TEXT, True)
    graph = write(tmp_path, "diamond.txt", DIAMOND_TEXT)
    order = write(tmp_path, "diamond-order.txt", DIAMOND_POSET_TEXT)
    requests = [
        ("check", graph),
        ("check", graph, "--property", "p4free"),
        ("cotree", graph),
        ("cotree", graph, "--dot"),
        ("poset", order, "nfree"),
        ("poset", order, "sptree"),
        ("poset", order, "sptree", "--dot"),
    ]
    for argv in requests:
        names = imported_modules(*argv)
        cosp_names = sorted(name for name in names if name.split(".")[0] == "cosp")
        assert cosp_names == ["cosp", "cosp.engine", "cosp.rows"], argv
        assert not names & {"argparse", "gettext", "locale", "__future__"}, argv
    # Help and the tool commands go to argparse.  Their commands module binds
    # to the cli running as __main__, so cosp.cli is not compiled again.
    for argv in (("check", "-h"), ("gen", "parity-split", "3")):
        names = imported_modules(*argv)
        assert {"argparse", "cosp.commands"} <= names, argv
        assert "cosp.cli" not in names, argv


def test_read_args_agrees_with_argparse():
    # Every list of up to four tokens after each command, over a vocabulary of
    # a file name, the actions, every option with and without its value,
    # ``=`` forms, abbreviations, -h and --.  Where the table reader returns a
    # namespace, argparse must accept the list and return the same one; a None
    # is always safe, since argparse then reads the list.
    import itertools

    from cosp.cli import _read_args
    from cosp.commands import build_parser

    parser = build_parser()
    vocabulary = [
        "F",
        "",
        *("nfree", "sptree", "linear-split", "endpoint", "bogus"),
        *("--property", "cograph", "p4free", "--json", "--dot"),
        *("--covers", "--full", "--x", "7", "-1", "x"),
        *("--property=p4free", "--x=2", "--prop", "--d", "--f", "-h", "--"),
    ]
    accepted = 0
    for command in ("check", "cotree", "poset"):
        for size in range(5):
            for tokens in itertools.product(vocabulary, repeat=size):
                argv = [command, *tokens]
                args = _read_args(argv)
                if args is None:
                    continue
                accepted += 1
                try:
                    expected = parser.parse_args(argv)
                except SystemExit:
                    raise AssertionError(f"argparse refuses {argv}") from None
                assert vars(args) == vars(expected), argv
    assert accepted > 1000
    for argv in ([], ["join", "F"], ["gen", "cotree", "4"], ["oracle-compare"], ["nope"]):
        assert _read_args(argv) is None


def test_help_lists_every_command_and_option():
    # What holds of argparse's help on every supported Python: the commands in
    # order, each option's help (rewrapped to one line) and the exclusive
    # groups in the usage lines.
    import os

    from cosp.commands import _COMMAND_HELP, _OPTION_HELP

    def help_text(*argv):
        proc = subprocess.run(
            [sys.executable, "-m", "cosp.cli", *argv, "-h"],
            capture_output=True,
            text=True,
            cwd=Path(cosp.__file__).parents[1],
            env={**os.environ, "COLUMNS": "80"},
        )
        assert (proc.returncode, proc.stderr) == (0, ""), argv
        return proc.stdout

    top = help_text()
    assert "{check,cotree,join,poset,gen,oracle-compare}" in top
    assert all(text in top for text in _COMMAND_HELP.values())
    usages = {}
    for command in ("check", "cotree", "poset"):
        text = help_text(command)
        usages[command] = text.split("\n\n")[0]
        flat = " ".join(text.split())
        for (name, _), help_ in _OPTION_HELP.items():
            if name == command:
                assert help_ in flat, (command, help_)
    assert "[--json | --dot]" in usages["cotree"]
    assert "[--covers | --full]" in usages["poset"]
    assert "--property {cograph,p4free}" in usages["check"]


def test_every_command_answers_alike_in_a_fresh_process(tmp_path, capsys):
    # A fresh interpreter holds no module that an earlier request or test
    # imported, so only there does a missing lazy import show.
    graph = write(tmp_path, "diamond.txt", DIAMOND_TEXT)
    commented = write(tmp_path, "p4-lines.txt", "# read line by line\n" + P4_TEXT)
    order = write(tmp_path, "diamond-order.txt", DIAMOND_POSET_TEXT)
    n_order = write(tmp_path, "n-lines.txt", "0 < 1\n2 < 1\n2 < 3\n")
    requests = [
        ("check", graph),
        ("check", commented),
        ("cotree", graph),
        ("cotree", graph, "--dot"),
        ("join", graph),
        *(("poset", path, *action) for path in (order, n_order) for action in ORDER_ACTIONS),
        ("gen", "parity-split", "6"),
        ("gen", "cotree", "8", "--seed", "1"),
        ("gen", "sptree", "8", "--seed", "1"),
        ("gen", "gnp", "8", "0.5", "--seed", "1"),
        ("gen", "poset", "8", "0.5", "--seed", "1"),
        ("oracle-compare", "--max-graph-n", "3", "--max-poset-n", "2"),
    ]
    for argv in requests:
        proc = cli_process("-m", "cosp.cli", *argv)
        assert (proc.returncode, proc.stdout, proc.stderr) == run(capsys, *argv), argv


def test_oracle_compare_tiny(capsys):
    code, out, err = run(capsys, "oracle-compare", "--max-graph-n", "3", "--max-poset-n", "2")
    assert code == 0
    rec = json.loads(out)
    assert rec["ok"] is True
    assert rec["graphs_checked"] == 12
    assert rec["posets_checked"] == 5


def test_oracle_compare_guard(capsys):
    code, _, err = run(capsys, "oracle-compare", "--max-graph-n", "7")
    assert code == 2
    code, _, err = run(capsys, "oracle-compare", "--max-poset-n", "5")
    assert code == 2


def test_oracle_compare_vacuous_poset_bound(capsys):
    code, out, _ = run(capsys, "oracle-compare", "--max-graph-n", "0", "--max-poset-n", "1")
    assert code == 0


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["not-a-command"])
    assert exc.value.code == 2
