"""Answer checks that do not call the engines or their validators.

Trees are compared in a flat preorder form: a leaf is its id, an internal
node is ``(kind, child count)``.  Printed JSON is read by an iterative
reader, so trees of any depth can be read back.  Witnesses are re-checked
with the six pair tests of their pattern against the generated instance.
"""

from __future__ import annotations

import json
import re

# Internal node kinds of the oriented (order-side) tree, by cotree kind.
ORIENTED = {"series": "linear", "parallel": "disjoint"}
DOT_KINDS = {
    "vertex": {"×": "series", "∪": "parallel"},
    "element": {"→": "linear", "∪": "disjoint"},
}


def flat_tree(root, oriented: bool = False) -> list:
    """Flat preorder form of a ``Cotree`` or ``SPTree``; ``oriented``
    renames cotree kinds to their order-side names."""
    out = []
    stack = [root]
    while stack:
        node = stack.pop()
        if node.kind == "leaf":
            out.append(node.vertex if hasattr(node, "vertex") else node.element)
        else:
            kind = ORIENTED[node.kind] if oriented else node.kind
            out.append((kind, len(node.children)))
            stack.extend(reversed(node.children))
    return out


_TOKEN = re.compile(
    r'\s*(?:([\[\]{}:,])|("(?:[^"\\\x00-\x1f]|\\.)*")'
    r"|(-?(?:0|[1-9]\d*)(?:\.\d+)?(?:[eE][-+]?\d+)?)|(true|false|null))"
)
_LITERALS = {"true": True, "false": False, "null": None}


def read_json(text: str):
    """Parse one JSON value without recursion; raises ValueError."""
    stack: list[list] = []  # open containers: [list] or [dict, pending key]
    state = "value"
    root = None
    pos = 0
    end = len(text.rstrip())

    def close(value):
        nonlocal state, root
        if not stack:
            root = value
            state = "end"
            return
        top = stack[-1]
        if isinstance(top[0], list):
            top[0].append(value)
        else:
            top[0][top[1]] = value
        state = "sep"

    while pos < end:
        m = _TOKEN.match(text, pos)
        if m is None or state == "end":
            raise ValueError(f"malformed JSON at offset {pos}")
        pos = m.end()
        punct, string, number, literal = m.groups()
        in_list = bool(stack) and isinstance(stack[-1][0], list)
        if state in ("key", "key_or_close"):
            if punct == "}" and state == "key_or_close":
                close(stack.pop()[0])
            elif string is not None:
                stack[-1][1] = json.loads(string)
                state = "colon"
            else:
                raise ValueError(f"expected an object key at offset {m.start()}")
        elif state == "colon":
            if punct != ":":
                raise ValueError(f"expected ':' at offset {m.start()}")
            state = "value"
        elif state == "sep":
            if punct == ",":
                state = "value" if in_list else "key"
            elif punct == ("]" if in_list else "}"):
                close(stack.pop()[0])
            else:
                raise ValueError(f"expected ',' or a closing bracket at offset {m.start()}")
        else:  # "value" or "value_or_close"
            if punct == "]" and state == "value_or_close":
                close(stack.pop()[0])
            elif punct == "[":
                stack.append([[]])
                state = "value_or_close"
            elif punct == "{":
                stack.append([{}, None])
                state = "key_or_close"
            elif string is not None:
                close(json.loads(string))
            elif number is not None:
                close(json.loads(number))
            elif literal is not None:
                close(_LITERALS[literal])
            else:
                raise ValueError(f"expected a value at offset {m.start()}")
    if state != "end":
        raise ValueError("truncated JSON")
    return root


def flat_from_json(obj, leaf_key: str) -> list:
    """Flat form of a printed JSON tree; raises ValueError on shape errors."""
    out = []
    stack = [obj]
    while stack:
        node = stack.pop()
        if not isinstance(node, dict):
            raise ValueError("tree node is not an object")
        if node.get("kind") == "leaf":
            if set(node) != {"kind", leaf_key} or type(node[leaf_key]) is not int:
                raise ValueError(f"malformed leaf {node!r}")
            out.append(node[leaf_key])
        else:
            children = node.get("children")
            if set(node) != {"kind", "children"} or not isinstance(children, list):
                raise ValueError("malformed internal node")
            out.append((node["kind"], len(children)))
            stack.extend(reversed(children))
    return out


_DOT_NODE = re.compile(r'  n(\d+) \[label="([^"]*)"\];')
_DOT_EDGE = re.compile(r"  n(\d+) -- n(\d+);")


def flat_from_dot(text: str, leaf_key: str) -> list:
    """Flat form of a printed DOT tree; children in edge order."""
    kinds = DOT_KINDS[leaf_key]
    name = "cotree" if leaf_key == "vertex" else "sptree"
    lines = text.split("\n")
    if lines[0] != f"graph {name} {{" or lines[-2:] != ["}", ""]:
        raise ValueError("malformed DOT frame")
    labels: dict[int, str] = {}
    children: dict[int, list[int]] = {}
    has_parent: set[int] = set()
    for line in lines[1:-2]:
        m = _DOT_NODE.fullmatch(line)
        if m:
            labels[int(m.group(1))] = m.group(2)
            continue
        m = _DOT_EDGE.fullmatch(line)
        if not m:
            raise ValueError(f"malformed DOT line {line!r}")
        parent, child = int(m.group(1)), int(m.group(2))
        if child in has_parent or parent not in labels or child not in labels:
            raise ValueError(f"bad DOT edge {line!r}")
        has_parent.add(child)
        children.setdefault(parent, []).append(child)
    roots = [v for v in labels if v not in has_parent]
    if len(roots) != 1:
        raise ValueError("DOT tree without a single root")
    out = []
    stack = [roots[0]]
    while stack:
        v = stack.pop()
        kids = children.get(v, [])
        lab = labels[v]
        if lab in kinds:
            out.append((kinds[lab], len(kids)))
            stack.extend(reversed(kids))
        elif lab.isdigit() and not kids:
            out.append(int(lab))
        else:
            raise ValueError(f"bad DOT node label {lab!r}")
    return out


def p4_holds(adj, path) -> bool:
    """Six pair test: edges ab, bc, cd; non-edges ac, ad, bd."""
    if not _four_ids(path, len(adj)):
        return False
    a, b, c, d = path

    def edge(u, v):
        return (adj[u] >> v) & 1 == 1

    return (
        edge(a, b) and edge(b, c) and edge(c, d)
        and not edge(a, c) and not edge(a, d) and not edge(b, d)
    )


def n_holds(below, quad) -> bool:
    """Six pair test: a < b, c < b, c < d; a, c and a, d and b, d apart."""
    if not _four_ids(quad, len(below)):
        return False
    a, b, c, d = quad

    def less(u, v):
        return (below[v] >> u) & 1 == 1

    def apart(u, v):
        return not less(u, v) and not less(v, u)

    return (
        less(a, b) and less(c, b) and less(c, d)
        and apart(a, c) and apart(a, d) and apart(b, d)
    )


def _four_ids(ids, order: int) -> bool:
    return (
        isinstance(ids, list)
        and len(ids) == 4
        and all(type(v) is int and 0 <= v < order for v in ids)
        and len(set(ids)) == 4
    )


def check_answer(req, exit_code: int, stdout: bytes) -> str | None:
    """Return why the answer to ``req`` is wrong, or None when it is right.

    Input files carry an ``n`` header, so printed labels are dense ids."""
    inst, command = req.inst, req.command
    try:
        text = stdout.decode("utf-8")
        leaf_key = "vertex" if inst.is_graph else "element"
        if not inst.positive:
            obj = read_json(text)
            kind, key, holds = ("p4", "path", p4_holds) if inst.is_graph else ("n", "quad", n_holds)
            if not isinstance(obj, dict) or set(obj) != {"kind", key} or obj["kind"] != kind:
                return f"expected a {kind} witness, got {text[:80]!r}"
            return _expect(inst, exit_code, holds(inst.masks, obj[key]), f"{obj[key]} fails the pair tests")
        if "--dot" in command:
            got = flat_from_dot(text, leaf_key)
            return _expect(inst, exit_code, got == inst.tree, "DOT tree differs from the generator's")
        obj = read_json(text)
        if command[0] in ("cotree", "sptree"):
            got = flat_from_json(obj, leaf_key)
            return _expect(inst, exit_code, got == inst.tree, "JSON tree differs from the generator's")
        if command[0] == "check":
            series, parallel, depth = inst.summary
            want = {"cograph": True, "order": inst.n, "series": series,
                    "parallel": parallel, "depth": depth}
            return _expect(inst, exit_code, _same(obj, want), f"summary {obj!r}, expected {want!r}")
        return _expect(inst, exit_code, _same(obj, {"nfree": True}), f"verdict {obj!r}")
    except (ValueError, UnicodeDecodeError) as exc:
        return f"unreadable answer: {exc}"


def _same(a, b) -> bool:
    # Equality that tells true from 1.
    return json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def _expect(inst, exit_code: int, ok: bool, why: str) -> str | None:
    want_code = 0 if inst.positive else 1
    if not ok:
        return why
    if exit_code != want_code:
        return f"exit code {exit_code}, expected {want_code}"
    return None
