"""The value classes as records: construction by position and keyword,
equality, hash, repr, immutability, pickling and ``match``."""

import copy
import inspect
import pickle

import pytest

from cosp import (
    Cotree,
    EndpointWitness,
    Graph,
    JoinWitness,
    LinearSplit,
    MaximalChain,
    NeighborSplit,
    NWitness,
    P4Witness,
    Poset,
    SPTree,
    SplitCandidates,
)

LEAVES = (Cotree("leaf", 0), Cotree("leaf", 1))
SP_LEAVES = (SPTree("leaf", 0), SPTree("leaf", 1))

# (class, fields by keyword in positional order, other field values, repr)
RECORDS = [
    (Graph, {"adj": (6, 5, 3)}, ((2, 1),), "Graph(adj=(6, 5, 3))"),
    (P4Witness, {"path": (0, 1, 2, 3)}, ((3, 2, 1, 0),), "P4Witness(path=(0, 1, 2, 3))"),
    (
        JoinWitness,
        {"x": 0, "universal_neighbors": (1, 2), "split": ((0,), (1, 2))},
        (1, (1, 2), ((0,), (1, 2))),
        "JoinWitness(x=0, universal_neighbors=(1, 2), split=((0,), (1, 2)))",
    ),
    (
        NeighborSplit,
        {"component": (3,), "adjacent_all": (1,), "adjacent_none": (2,)},
        ((3,), (2,), (1,)),
        "NeighborSplit(component=(3,), adjacent_all=(1,), adjacent_none=(2,))",
    ),
    (
        Cotree,
        {"kind": "series", "vertex": None, "children": LEAVES},
        ("parallel", None, LEAVES),
        "Cotree(kind='series', vertex=None, children=(Cotree(kind='leaf', vertex=0, "
        "children=()), Cotree(kind='leaf', vertex=1, children=())))",
    ),
    (NWitness, {"quad": (0, 1, 2, 3)}, ((0, 1, 3, 2),), "NWitness(quad=(0, 1, 2, 3))"),
    (
        SplitCandidates,
        {"lower": (0,), "upper": (2, 3)},
        ((0,), (2,)),
        "SplitCandidates(lower=(0,), upper=(2, 3))",
    ),
    (MaximalChain, {"elements": (0, 1, 2)}, ((0, 2),), "MaximalChain(elements=(0, 1, 2))"),
    (Poset, {"below": (0, 1), "above": (2, 0)}, ((0, 0), (0, 0)), "Poset(below=(0, 1), above=(2, 0))"),
    (
        SPTree,
        {"kind": "linear", "element": None, "children": SP_LEAVES},
        ("linear", None, SP_LEAVES[::-1]),
        "SPTree(kind='linear', element=None, children=(SPTree(kind='leaf', element=0, "
        "children=()), SPTree(kind='leaf', element=1, children=())))",
    ),
    (
        LinearSplit,
        {"x": 1, "lower": (0,), "middle": (1,), "upper": (2,)},
        (1, (), (0, 1), (2,)),
        "LinearSplit(x=1, lower=(0,), middle=(1,), upper=(2,))",
    ),
    (
        EndpointWitness,
        {"x": 1, "endpoint": 2, "side": "up"},
        (1, 0, "down"),
        "EndpointWitness(x=1, endpoint=2, side='up')",
    ),
]
IDS = [row[0].__name__ for row in RECORDS]

# (class, constructor signature, the TypeError of a call with no fields):
# those of the hand-written constructors that the declared fields replaced.
SIGNATURES = [
    (Graph, "(adj: 'tuple[int, ...]')", "1 required positional argument: 'adj'"),
    (P4Witness, "(path: 'tuple[int, int, int, int]')", "1 required positional argument: 'path'"),
    (
        JoinWitness,
        "(x: 'int', universal_neighbors: 'tuple[int, ...]', "
        "split: 'tuple[tuple[int, ...], tuple[int, ...]]')",
        "3 required positional arguments: 'x', 'universal_neighbors', and 'split'",
    ),
    (
        NeighborSplit,
        "(component: 'tuple[int, ...]', adjacent_all: 'tuple[int, ...]', "
        "adjacent_none: 'tuple[int, ...]')",
        "3 required positional arguments: 'component', 'adjacent_all', and 'adjacent_none'",
    ),
    (
        Cotree,
        "(kind: 'str', vertex: 'int | None' = None, children: 'tuple[Cotree, ...]' = ())",
        "1 required positional argument: 'kind'",
    ),
    (NWitness, "(quad: 'tuple[int, int, int, int]')", "1 required positional argument: 'quad'"),
    (
        SplitCandidates,
        "(lower: 'tuple[int, ...]', upper: 'tuple[int, ...]')",
        "2 required positional arguments: 'lower' and 'upper'",
    ),
    (MaximalChain, "(elements: 'tuple[int, ...]')", "1 required positional argument: 'elements'"),
    (
        Poset,
        "(below: 'tuple[int, ...]', above: 'tuple[int, ...]')",
        "2 required positional arguments: 'below' and 'above'",
    ),
    (
        SPTree,
        "(kind: 'str', element: 'int | None' = None, children: 'tuple[SPTree, ...]' = ())",
        "1 required positional argument: 'kind'",
    ),
    (
        LinearSplit,
        "(x: 'int', lower: 'tuple[int, ...]', middle: 'tuple[int, ...]', upper: 'tuple[int, ...]')",
        "4 required positional arguments: 'x', 'lower', 'middle', and 'upper'",
    ),
    (
        EndpointWitness,
        "(x: 'int', endpoint: 'int', side: 'str')",
        "3 required positional arguments: 'x', 'endpoint', and 'side'",
    ),
]


@pytest.mark.parametrize("cls, fields, other, text", RECORDS, ids=IDS)
def test_construction_equality_and_repr(cls, fields, other, text):
    obj = cls(*fields.values())
    assert cls(**fields) == obj
    assert [getattr(obj, name) for name in fields] == list(fields.values())
    assert cls.__match_args__ == tuple(fields)
    twin = cls(*fields.values())
    assert twin is not obj and twin == obj and not twin != obj
    assert hash(twin) == hash(obj)
    assert cls(*other) != obj
    assert obj != fields and obj != tuple(fields.values())
    assert repr(obj) == text


@pytest.mark.parametrize("cls, signature, missing", SIGNATURES, ids=IDS)
def test_constructor_signature_and_errors(cls, signature, missing):
    assert str(inspect.signature(cls)) == signature
    assert cls.__init__.__qualname__ == f"{cls.__name__}.__init__"
    assert cls.__init__.__module__ == cls.__module__
    with pytest.raises(TypeError) as exc:
        cls()
    assert str(exc.value) == f"{cls.__name__}.__init__() missing {missing}"
    fields = {name: None for name in cls._fields}
    with pytest.raises(TypeError) as exc:
        cls(*fields.values(), None)
    assert str(exc.value).startswith(f"{cls.__name__}.__init__() takes ")
    with pytest.raises(TypeError) as exc:
        cls(**fields, extra=None)
    assert str(exc.value) == (
        f"{cls.__name__}.__init__() got an unexpected keyword argument 'extra'"
    )


def test_fields_are_the_public_annotations_in_order():
    from cosp.graphs import _Record

    class Pair(_Record):
        first: int
        _note: str  # private: not a field
        second: tuple = ()

    class Named(Pair):
        _label = "named"

    assert Pair._fields == Pair.__match_args__ == ("first", "second")
    assert Pair(1) == Pair(first=1, second=()) != Pair(1, (2,))
    assert repr(Named(1, (2,))) == f"{Named.__qualname__}(first=1, second=(2,))"
    assert Named.__init__ is Pair.__init__
    with pytest.raises(SyntaxError):

        class Unordered(_Record):
            first: int = 0
            second: int


def test_tree_defaults_make_leaves():
    assert Cotree("leaf", 4) == Cotree(kind="leaf", vertex=4, children=()) == Cotree.leaf(4)
    assert SPTree("leaf", element=4) == SPTree("leaf", 4, ()) == SPTree.leaf(4)
    assert repr(Cotree("series")) == "Cotree(kind='series', vertex=None, children=())"


def test_records_of_different_classes_differ():
    assert P4Witness((0, 1, 2, 3)) != NWitness((0, 1, 2, 3))
    assert Cotree("leaf", 0) != SPTree("leaf", 0)


@pytest.mark.parametrize("cls, fields, other, text", RECORDS, ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(cls, fields, other, text):
    obj = cls(*fields.values())
    name = next(iter(fields))
    for action in (
        lambda: setattr(obj, name, None),
        lambda: setattr(obj, "extra", 1),
        lambda: delattr(obj, name),
    ):
        with pytest.raises(AttributeError) as exc:
            action()
        assert type(exc.value) is AttributeError
    assert repr(obj) == text


@pytest.mark.parametrize("cls, fields, other, text", RECORDS, ids=IDS)
def test_pickle_and_deepcopy_round_trip(cls, fields, other, text):
    obj = cls(*fields.values())
    for back in (pickle.loads(pickle.dumps(obj)), copy.deepcopy(obj), copy.copy(obj)):
        assert type(back) is cls
        assert back == obj and hash(back) == hash(obj)
        assert repr(back) == text


def positional_fields(obj):
    match obj:
        case Graph(adj):
            return (adj,)
        case P4Witness(path):
            return (path,)
        case JoinWitness(x, universal_neighbors, split):
            return (x, universal_neighbors, split)
        case NeighborSplit(component, adjacent_all, adjacent_none):
            return (component, adjacent_all, adjacent_none)
        case Cotree(kind, vertex, children):
            return (kind, vertex, children)
        case NWitness(quad):
            return (quad,)
        case SplitCandidates(lower, upper):
            return (lower, upper)
        case MaximalChain(elements):
            return (elements,)
        case Poset(below, above):
            return (below, above)
        case SPTree(kind, element, children):
            return (kind, element, children)
        case LinearSplit(x, lower, middle, upper):
            return (x, lower, middle, upper)
        case EndpointWitness(x, endpoint, side):
            return (x, endpoint, side)
    return None


@pytest.mark.parametrize("cls, fields, other, text", RECORDS, ids=IDS)
def test_match_on_positional_fields(cls, fields, other, text):
    assert positional_fields(cls(*fields.values())) == tuple(fields.values())
    match cls(*fields.values()):
        case cls(first) if first == next(iter(fields.values())):
            pass
        case _:
            pytest.fail("the first positional field did not match")
