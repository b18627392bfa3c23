"""The record contract: equality, hash, repr, _asdict, immutability,
pickling.

Every qnet record is a collections.namedtuple, or a subclass of one that
adds no slot, so its _fields are its whole value, in the order its
constructor, __new__, takes them.  A record equals the plain tuple of its
fields and can be indexed and unpacked; it hashes by its fields, prints as
``Name(field=value, ...)``, lists them by name in ``_asdict()``, refuses
assignment and deletion, accepts its fields by position or keyword and
refuses missing, extra, unknown or repeated ones, and survives a pickle or
copy round trip.  Four records validate: CostVector, OperationCosts,
GridSpec and RouteRequest define a __new__ that checks and normalises
their fields, and route namedtuple's _make, and so _replace, through it.
Swap and Purify walk trees of any depth without recursion to compare, hash
and print, and never equal each other.  Code that checks the fields itself
builds rows by the thousand with tuple.__new__: the parser a graph's
Channel rows, the reduction engine its ReductionStep rows and strategy
nodes.
"""
import copy
import importlib
import pickle
import pkgutil

import pytest

import qnet
from _generators import series_chain
from qnet import (
    AlgebraDomainError,
    Channel,
    CostVector,
    GridSpec,
    GridStrategy,
    Leaf,
    NetworkGraph,
    Node,
    NodeRole,
    OperationCosts,
    Purify,
    ReductionResult,
    RouteRequest,
    RouteResult,
    SearchKind,
    Swap,
)
from _reference import swap_inverse
from qnet.algebra import swap_value
from qnet.montecarlo import McEstimate
from qnet.reduction import ReductionStep, ReductionTrace, StepKind
from qnet.routing import RouteDiagnostics

CV = CostVector(0.9, 0.8)
CV_REPR = "CostVector(fidelity=0.9, success=0.8)"
STEP = ReductionStep(StepKind.SERIES, ("c1", "c2"), "m", "r0", 0.9, 0.8)
STEP_REPR = (
    "ReductionStep(kind=<StepKind.SERIES: 'series'>, consumed=('c1', 'c2'), "
    "eliminated='m', produced='r0', fidelity=0.9, success=0.8)"
)
TRACE = ReductionTrace((STEP,))
TRACE_REPR = f"ReductionTrace(steps=({STEP_REPR},))"
DIAG = RouteDiagnostics(2, 3)
DIAG_REPR = "RouteDiagnostics(candidates_evaluated=2, reduction_steps=3)"


def _graph(fidelity=0.9):
    return NetworkGraph(
        [Node("A", NodeRole.ENDPOINT), Node("B", NodeRole.ENDPOINT)],
        [("c1", Channel("A", "B", fidelity, 0.8))],
    )


# name: (fields by keyword, a change to one field, repr of the first)
CASES = {
    "CostVector": (
        CostVector, dict(fidelity=0.9, success=0.8), dict(success=0.7), CV_REPR,
    ),
    "OperationCosts": (
        OperationCosts,
        dict(swap_success=0.5, purify_success=0.25, physical_acceptance=False),
        dict(physical_acceptance=True),
        "OperationCosts(swap_success=0.5, purify_success=0.25, "
        "physical_acceptance=False)",
    ),
    "GridSpec": (
        GridSpec,
        dict(
            breadth=2, depth=3, channel_fidelity=0.9, channel_success=0.8,
            strategy=GridStrategy.SWAP_THEN_PURIFY,
        ),
        dict(strategy=GridStrategy.PURIFY_THEN_SWAP),
        "GridSpec(breadth=2, depth=3, channel_fidelity=0.9, channel_success=0.8, "
        "strategy=<GridStrategy.SWAP_THEN_PURIFY: 'swap-then-purify'>)",
    ),
    "Node": (
        Node, dict(id="A", role=NodeRole.ENDPOINT), dict(role=NodeRole.ROUTER),
        "Node(id='A', role=<NodeRole.ENDPOINT: 'endpoint'>)",
    ),
    "Leaf": (Leaf, dict(channel="c1"), dict(channel="c2"), "Leaf(channel='c1')"),
    "Swap": (
        Swap, dict(left=Leaf("c1"), right=Leaf("c2")), dict(right=Leaf("c3")),
        "Swap(left=Leaf(channel='c1'), right=Leaf(channel='c2'))",
    ),
    "Purify": (
        Purify, dict(left=Leaf("c1"), right=Swap(Leaf("c2"), Leaf("c3"))),
        dict(left=Leaf("c4")),
        "Purify(left=Leaf(channel='c1'), "
        "right=Swap(left=Leaf(channel='c2'), right=Leaf(channel='c3')))",
    ),
    "ReductionStep": (
        ReductionStep,
        dict(kind=StepKind.SERIES, consumed=("c1", "c2"), eliminated="m",
             produced="r0", fidelity=0.9, success=0.8),
        dict(eliminated=None),
        STEP_REPR,
    ),
    "Channel": (
        Channel, dict(a="A", b="B", fidelity=0.9, success=0.8), dict(b="C"),
        "Channel(a='A', b='B', fidelity=0.9, success=0.8)",
    ),
    "ReductionTrace": (
        ReductionTrace,
        dict(steps=(STEP,)),
        dict(steps=()),
        TRACE_REPR,
    ),
    "ReductionResult": (
        ReductionResult,
        dict(graph=_graph(), trace=TRACE, strategies={"c1": Leaf("c1")}),
        dict(strategies={"c1": Leaf("c2")}),
        "ReductionResult(graph=NetworkGraph(2 nodes, 1 channels), "
        f"trace={TRACE_REPR}, strategies={{'c1': Leaf(channel='c1')}})",
    ),
    "RouteRequest": (
        RouteRequest,
        dict(source="A", target="B", min_success=0.5, max_bruteforce_edges=4),
        dict(max_bruteforce_edges=5),
        "RouteRequest(source='A', target='B', min_success=0.5, "
        "max_bruteforce_edges=4)",
    ),
    "RouteDiagnostics": (
        RouteDiagnostics,
        dict(candidates_evaluated=2, reduction_steps=3),
        dict(reduction_steps=4),
        DIAG_REPR,
    ),
    "RouteResult": (
        RouteResult,
        dict(subgraph=_graph(), strategy=Leaf("c1"), cost=CV,
             search=SearchKind.FULLY_REDUCED, diagnostics=DIAG),
        dict(subgraph=_graph(0.5)),
        "RouteResult(subgraph=NetworkGraph(2 nodes, 1 channels), "
        f"strategy=Leaf(channel='c1'), cost={CV_REPR}, "
        f"search=<SearchKind.FULLY_REDUCED: 'FullyReduced'>, diagnostics={DIAG_REPR})",
    ),
    "McEstimate": (
        McEstimate,
        dict(fidelity_hat=0.9, success_hat=0.5, std_error_fidelity=0.01,
             std_error_success=0.02, samples=100, seed=7),
        dict(fidelity_hat=None),
        "McEstimate(fidelity_hat=0.9, success_hat=0.5, std_error_fidelity=0.01, "
        "std_error_success=0.02, samples=100, seed=7)",
    ),
}
# hold a NetworkGraph, or a dict, so hashing raises TypeError
UNHASHABLE = {"ReductionResult", "RouteResult"}


@pytest.fixture(params=sorted(CASES))
def case(request):
    cls, fields, change, text = CASES[request.param]
    return request.param, cls, fields, change, text


def test_positional_and_keyword_construction_agree(case):
    _, cls, fields, _, _ = case
    by_keyword = cls(**fields)
    by_position = cls(*fields.values())
    assert by_keyword == by_position
    assert type(by_keyword) is cls
    for name, value in fields.items():
        assert getattr(by_keyword, name) == value


def test_extra_unknown_and_repeated_arguments_raise(case):
    name, cls, fields, _, _ = case
    values = list(fields.values())
    for call, message in [
        (lambda: cls(*values, values[0]),
         r"takes .*positional arguments but \d+ were given"),
        (lambda: cls(**fields, no_such_field=None),
         "got an unexpected keyword argument 'no_such_field'"),
        (lambda: cls(values[0], **fields),
         f"got multiple values for argument '{next(iter(fields))}'"),
    ]:
        with pytest.raises(TypeError, match=rf"^{name}\.__new__\(\) {message}$"):
            call()


def test_missing_arguments_raise(case):
    name, cls, fields, _, _ = case
    required = len(fields) - len(cls.__new__.__defaults__ or ())
    for field in list(fields)[:required]:
        message = rf"missing 1 required positional argument: '{field}'"
        with pytest.raises(TypeError, match=rf"^{name}\.__new__\(\) {message}$"):
            cls(**{key: value for key, value in fields.items() if key != field})


def _value_classes() -> list[type]:
    """Every record, all qnet modules imported: each tuple subclass with
    _fields defined in a qnet module, less the named tuples that another
    such class subclasses."""
    for module in pkgutil.iter_modules(qnet.__path__, "qnet."):
        if module.name != "qnet.__main__":
            importlib.import_module(module.name)
    classes, todo = [], [tuple]
    while todo:
        subclasses = todo.pop().__subclasses__()
        classes += subclasses
        todo += subclasses
    return [
        cls for cls in classes
        if cls.__module__.startswith("qnet.") and hasattr(cls, "_fields")
        and not cls.__subclasses__()
    ]


def test_only_validating_classes_define_new():
    # A record defines __new__ over its named tuple's only to validate or
    # normalise a field.
    own = {
        cls.__name__ for cls in _value_classes()
        if cls.__bases__ != (tuple,) and "__new__" in vars(cls)
    }
    assert own == {"CostVector", "OperationCosts", "GridSpec", "RouteRequest"}


def test_value_classes_store_only_their_fields():
    # Every class between a record and tuple declares no slot, so no
    # instance has a __dict__: equality, hashing, printing and pickling
    # read the tuple's items only, so any other state would be missed.
    classes = _value_classes()
    assert set(CASES) == {cls.__name__ for cls in classes}
    for cls in classes:
        between = cls.__mro__[: cls.__mro__.index(tuple)]
        assert [vars(k).get("__slots__") for k in between] == [()] * len(between)
        _, fields, _, _ = CASES[cls.__name__]
        assert not hasattr(cls(**fields), "__dict__"), cls.__name__


def test_equality_and_hash(case):
    name, cls, fields, change, _ = case
    a, b = cls(**fields), cls(**fields)
    other = cls(**{**fields, **change})
    assert a == b and not a != b
    assert a != other and not a == other
    assert a != object()
    assert a == tuple(fields.values())
    if name in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
        assert len({a, b, other}) == 2


def test_repr(case):
    _, cls, fields, _, text = case
    assert repr(cls(**fields)) == text


def test_asdict(case):
    _, cls, fields, _, _ = case
    # in _fields order, which CASES follows
    assert list(cls(**fields)._asdict().items()) == list(fields.items())


def test_assignment_and_deletion_raise(case):
    _, cls, fields, _, _ = case
    value = cls(**fields)
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert cls(**fields) == value


def test_pickle_and_copy_round_trip(case):
    _, cls, fields, _, text = case
    value = cls(**fields)
    for twin in (
        pickle.loads(pickle.dumps(value)),
        copy.copy(value),
        copy.deepcopy(value),
    ):
        assert type(twin) is cls
        assert twin == value
        assert repr(twin) == text


def test_defaults():
    ops = OperationCosts()
    assert (ops.swap_success, ops.purify_success, ops.physical_acceptance) == (
        1.0, 1.0, True,
    )
    assert OperationCosts(0.5) == OperationCosts(0.5, 1.0, True)
    spec = GridSpec(2, 3, 0.9, 0.8)
    assert spec.strategy is GridStrategy.PURIFY_THEN_SWAP
    request = RouteRequest("A", "B", 0.5)
    assert request.max_bruteforce_edges == 12


def test_values_are_normalised_to_float():
    cost = CostVector(1, 0)
    assert (type(cost.fidelity), type(cost.success)) == (float, float)
    assert repr(cost) == "CostVector(fidelity=1.0, success=0.0)"
    assert CostVector(True, 1) == CostVector(1.0, 1.0)
    ops = OperationCosts(1, 0)
    assert repr(ops) == (
        "OperationCosts(swap_success=1.0, purify_success=0.0, "
        "physical_acceptance=True)"
    )
    spec = GridSpec(1, 1, 1, 0)
    assert (spec.channel_fidelity, spec.channel_success) == (1.0, 0.0)
    assert type(spec.channel_fidelity) is float
    # _replace builds through the checking constructor too
    cost = CostVector(0.9, 0.8)._replace(fidelity=1)
    assert cost == (1.0, 0.8) and type(cost.fidelity) is float


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: CostVector(1.5, 0.5), AlgebraDomainError,
         r"^fidelity 1\.5 outside \[0, 1\]$"),
        (lambda: CostVector(-0.25, 0.5), AlgebraDomainError,
         r"^fidelity -0\.25 outside \[0, 1\]$"),
        (lambda: CostVector(0.5, 2), AlgebraDomainError,
         r"^success probability 2\.0 outside \[0, 1\]$"),
        (lambda: OperationCosts(swap_success=-1), AlgebraDomainError,
         r"^success probability -1\.0 outside \[0, 1\]$"),
        (lambda: OperationCosts(purify_success=1.5), AlgebraDomainError,
         r"^success probability 1\.5 outside \[0, 1\]$"),
        (lambda: OperationCosts(1, 1, 0), AlgebraDomainError,
         r"^physical_acceptance must be a boolean$"),
        (lambda: GridSpec(0, 1, 0.9, 0.8), AlgebraDomainError,
         r"^grid breadth and depth must be >= 1$"),
        (lambda: GridSpec(1, 0, 0.9, 0.8), AlgebraDomainError,
         r"^grid breadth and depth must be >= 1$"),
        (lambda: GridSpec(10**6 + 1, 1, 0.9, 0.8), AlgebraDomainError,
         r"^grid breadth and depth must be <= 1000000$"),
        (lambda: GridSpec(1, 10**6 + 1, 0.9, 0.8), AlgebraDomainError,
         r"^grid breadth and depth must be <= 1000000$"),
        (lambda: GridSpec(2**63, 2**63, 0.9, 0.8), AlgebraDomainError,
         r"^grid breadth and depth must be <= 1000000$"),
        (lambda: GridSpec(1, 1, 1.5, 0.8), AlgebraDomainError,
         r"^fidelity 1\.5 outside \[0, 1\]$"),
        (lambda: GridSpec(1, 1, 0.9, 1.5), AlgebraDomainError,
         r"^success probability 1\.5 outside \[0, 1\]$"),
        (lambda: RouteRequest("A", "B", 0.0), ValueError,
         r"^min_success 0\.0 outside \(0, 1\]$"),
        (lambda: RouteRequest("A", "B", 1.5), ValueError,
         r"^min_success 1\.5 outside \(0, 1\]$"),
        (lambda: RouteRequest("A", "B", 0.5, max_bruteforce_edges=0), ValueError,
         r"^max_bruteforce_edges must be >= 1$"),
        (lambda: RouteRequest("A", "B", 0.5, max_bruteforce_edges=21), ValueError,
         r"^max_bruteforce_edges must be <= 20$"),
    ],
)
def test_validation_messages(build, error, message):
    with pytest.raises(error, match=message):
        build()


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: CostVector(0.9, 0.8)._replace(fidelity=1.5), AlgebraDomainError,
         r"^fidelity 1\.5 outside \[0, 1\]$"),
        (lambda: OperationCosts._make([1.0, 2.0, True]), AlgebraDomainError,
         r"^success probability 2\.0 outside \[0, 1\]$"),
        (lambda: GridSpec(2, 3, 0.9, 0.8)._replace(breadth=0), AlgebraDomainError,
         r"^grid breadth and depth must be >= 1$"),
        (lambda: RouteRequest("A", "B", 0.5)._replace(min_success=0.0), ValueError,
         r"^min_success 0\.0 outside \(0, 1\]$"),
    ],
)
def test_make_and_replace_validate(build, error, message):
    # namedtuple's own _make builds with tuple.__new__, past __new__'s checks
    with pytest.raises(error, match=message):
        build()


def test_size_bounds_admit_their_limit():
    # constructing a spec allocates nothing, so the bounds can be met here
    assert GridSpec(10**6, 10**6, 0.9, 0.8).breadth == 10**6
    assert RouteRequest("A", "B", 0.5, max_bruteforce_edges=20).max_bruteforce_edges == 20
    assert RouteRequest("A", "B", 1.0).min_success == 1.0


def test_formal_fidelity_skips_the_range_check():
    # swap_inverse returns a formal value outside [0, 1] without raising,
    # and the raw swap formula takes it unchecked.
    formal = swap_inverse(0.75)
    assert type(formal) is float and formal == 1.5
    assert swap_value(0.75, formal) == 1.0


def test_swap_and_purify_never_compare_equal():
    left, right = Leaf("c1"), Leaf("c2")
    assert Swap(left, right) != Purify(left, right)
    assert not Swap(left, right) == Purify(left, right)
    assert Swap(left, right) == Swap(Leaf("c1"), Leaf("c2"))


def test_channel_stores_exactly_its_four_fields():
    # No endpoint pair is derived, and the row adds no slot to its tuple.
    # test_graph.py checks that NetworkGraph sorts the ends.
    row = Channel("A", "B", 0.9, 0.8)
    assert Channel.__slots__ == ()
    assert Channel._fields == ("a", "b", "fidelity", "success")
    assert row == ("A", "B", 0.9, 0.8) and len(row) == 4
    assert repr(row) == "Channel(a='A', b='B', fidelity=0.9, success=0.8)"
    twin = pickle.loads(pickle.dumps(row))
    assert type(twin) is Channel and (twin.a, twin.b) == ("A", "B")


def test_channel_has_no_slot_for_a_pair():
    # A Channel has no slot for a pair, so not even object.__setattr__ can
    # store one, and assignment is refused.
    plain = Channel("A", "B", 0.9, 0.8)
    twin = Channel("A", "B", 0.9, 0.8)
    with pytest.raises(AttributeError):
        object.__setattr__(twin, "pair", frozenset())
    assert twin == plain and hash(twin) == hash(plain)
    with pytest.raises(AttributeError):
        plain.pair = frozenset()


@pytest.mark.parametrize("shape", ["left", "right"])
def test_deep_trees_compare_hash_and_print(shape):
    # 20,000 levels deep: far past the interpreter's recursion limit
    _, tree = series_chain(20001, shape=shape)
    _, twin = series_chain(20001, shape=shape)
    _, other = series_chain(20001, shape="right" if shape == "left" else "left")
    assert tree == twin and not tree != twin and hash(tree) == hash(twin)
    assert tree != other
    assert Purify(tree.left, tree.right) != tree
    text = repr(tree)
    assert text.count("Swap(left=") == 20000
    assert text.count("Leaf(channel=") == 20001
    inner = tree.left if shape == "left" else tree.right
    if shape == "left":
        assert text == f"Swap(left={inner!r}, right=Leaf(channel='c20000'))"
    else:
        assert text == f"Swap(left=Leaf(channel='c0'), right={inner!r})"
