"""Canonical emission against the reference emitter, values and templates."""
import collections
import enum
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _generators import random_sp_graph
from _reference import (
    graph_to_obj,
    reference_canonical_dumps,
    reference_step_obj,
)
from qnet import (
    Channel,
    NetworkGraph,
    Node,
    NodeRole,
    OperationCosts,
    reduce_to_fixpoint,
    serialize_graph,
)
from qnet.cli import _write_trace
from qnet.graph import write_graph
from qnet.jsonutil import RawJSON, canonical_dumps

# Characters whose JSON form is an escape: quote, backslash, controls,
# DEL, non-ASCII, a line separator, an astral character, a lone surrogate.
_AWKWARD = '"\\\x00\x01\x08\x1f\x7f/<>é \U0001F600\ud800'

texts = st.text(st.characters() | st.sampled_from(_AWKWARD), max_size=12)
floats = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [-0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308]
)


class _Float(float):
    pass


class _Int(int):
    pass


class _Str(str):
    pass


class _Level(enum.IntEnum):
    LOW = 1


scalars = st.one_of(
    texts,
    floats,
    st.integers() | st.sampled_from([2**64, -(2**100), 10**40]),
    st.booleans(),
    st.none(),
    texts.map(RawJSON),
    texts.map(_Str),
    floats.map(_Float),
    st.integers().map(_Int),
    st.just(_Level.LOW),
)
values = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(texts, children, max_size=5),
        st.dictionaries(texts, children, max_size=5).map(collections.OrderedDict),
    ),
    max_leaves=30,
)


@given(values)
@settings(max_examples=200)
def test_emitter_matches_reference(value):
    assert canonical_dumps(value) == reference_canonical_dumps(value)


def _outcome(dumps, value):
    try:
        return dumps(value)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize(
    "value",
    [
        float("nan"),
        float("inf"),
        -float("inf"),
        _Float("nan"),
        [1.0, float("inf")],
        {"a": {"b": (float("nan"),)}},
        {1: "x"},
        {"a": 1, 2: "x"},
        {(1,): 2},
        {"a": float("nan"), 1: 2},
        object(),
        {"a": {1, 2}},
    ],
)
def test_emitter_raises_what_reference_raises(value):
    expected = _outcome(reference_canonical_dumps, value)
    assert expected[0] in (TypeError, ValueError)
    assert _outcome(canonical_dumps, value) == expected


def test_raw_json_is_embedded_in_place():
    doc = {"b": RawJSON('[1,{"x":"y"}]'), "a": 0.5}
    assert canonical_dumps(doc) == '{"a":0.5,"b":[1,{"x":"y"}]}'


# Ids need escaping but hold no whitespace, so NetworkGraph accepts them.
ids = st.text(
    st.characters(blacklist_categories=("Zs", "Zl", "Zp", "Cs"))
    | st.sampled_from(_AWKWARD.replace("\ud800", "")),
    min_size=1,
    max_size=6,
).filter(lambda s: not any(ch.isspace() for ch in s))
costs = st.floats(0.0, 1.0) | st.sampled_from([-0.0, 5e-324, 1.0, 0.1])
# A fidelity may be given as an int or a bool.
fidelities = costs | st.sampled_from([1, True, 0])


@st.composite
def graphs(draw):
    names = draw(st.lists(ids, min_size=2, max_size=6, unique=True))
    roles = draw(st.lists(st.sampled_from(NodeRole), min_size=len(names), max_size=len(names)))
    channel_ids = draw(st.lists(ids, max_size=10, unique=True))
    channels = []
    for cid in channel_ids:
        a, b = draw(st.lists(st.sampled_from(names), min_size=2, max_size=2, unique=True))
        channels.append((cid, Channel(a, b, draw(fidelities), draw(costs))))
    ops = OperationCosts(draw(costs), draw(costs), draw(st.booleans()))
    return NetworkGraph([Node(n, r) for n, r in zip(names, roles)], channels, ops)


@given(graphs())
@settings(max_examples=100)
def test_graph_template_matches_reference(g):
    text = reference_canonical_dumps(graph_to_obj(g))
    assert write_graph(g) == text
    assert serialize_graph(g) == text.encode("utf-8")


def _relabelled(g, node_tag, channel_tag):
    """g with every node and channel id prefixed by a tag that needs escaping."""
    nodes = [Node(node_tag + n.id, n.role) for n in g.nodes.values()]
    channels = [
        (channel_tag + cid, c._replace(a=node_tag + c.a, b=node_tag + c.b))
        for cid, c in g.channels.items()
    ]
    return NetworkGraph(nodes, channels, g.op_costs)


@given(st.integers(0, 10**6), ids, ids)
@settings(max_examples=150)
def test_trace_template_matches_step_dicts(seed, node_tag, channel_tag):
    g = _relabelled(random_sp_graph(random.Random(seed), max_edges=25), node_tag, channel_tag)
    steps = reduce_to_fixpoint(g).trace.steps
    assert _write_trace(steps) == reference_canonical_dumps([reference_step_obj(s) for s in steps])
