"""Graph model, document parsing, and canonical serialization."""
import gc
import json
import math
import tracemalloc

import pytest

from _generators import (
    bridge_graph,
    build_graph,
    random_connected_graph,
    random_sp_graph,
    seeded,
    two_path_graph,
    uniform_grid,
)
from qnet import (
    AlgebraDomainError,
    Channel,
    GraphFormatError,
    NetworkGraph,
    Node,
    NodeRole,
    OperationCosts,
    RouteRequest,
    parse_graph,
    reduce_to_fixpoint,
    route,
    serialize_graph,
)


def doc(**overrides):
    base = {
        "version": 1,
        "op_costs": {"swap_success": 0.9, "purify_success": 0.8, "physical_acceptance": True},
        "nodes": [
            {"id": "A", "role": "endpoint"},
            {"id": "B", "role": "endpoint"},
            {"id": "mid", "role": "router"},
        ],
        "edges": [
            {"id": "c1", "a": "A", "b": "mid", "fidelity": 0.9, "success": 0.8},
            {"id": "c2", "a": "mid", "b": "B", "fidelity": 0.85, "success": 0.7},
        ],
    }
    base.update(overrides)
    return json.dumps(base)


def test_parse_basic_document():
    g = parse_graph(doc())
    assert set(g.nodes) == {"A", "B", "mid"}
    assert g.node("mid").role is NodeRole.ROUTER
    assert g.channel("c1") == Channel("A", "mid", 0.9, 0.8)
    assert g.op_costs == OperationCosts(0.9, 0.8, True)


def test_parse_defaults_op_costs():
    raw = json.loads(doc())
    del raw["op_costs"]
    g = parse_graph(json.dumps(raw))
    assert g.op_costs == OperationCosts(1.0, 1.0, True)


def test_round_trip_is_byte_identical():
    g = parse_graph(doc())
    blob = serialize_graph(g)
    again = parse_graph(blob)
    assert again == g
    assert serialize_graph(again) == blob


def test_round_trip_random_graphs():
    for seed in range(50):
        g = random_connected_graph(seeded(seed))
        assert parse_graph(serialize_graph(g)) == g


def test_round_trip_keeps_operation_costs():
    # every OperationCosts that can be built serializes to a document that
    # parses back to it; a non-bool acceptance flag is refused up front
    nodes = [Node("A", NodeRole.ENDPOINT), Node("B", NodeRole.ENDPOINT)]
    channels = [("c1", Channel("A", "B", 0.9, 0.8))]
    for acceptance in (True, False):
        g = NetworkGraph(nodes, channels, OperationCosts(1, 1, acceptance))
        assert parse_graph(serialize_graph(g)) == g
    for flag in (0, 1, None, "yes"):
        with pytest.raises(
            AlgebraDomainError, match="^physical_acceptance must be a boolean$"
        ):
            OperationCosts(1, 1, flag)


def test_serialization_is_canonical():
    # same graph, differently ordered input document
    raw = json.loads(doc())
    raw["nodes"].reverse()
    raw["edges"].reverse()
    assert serialize_graph(parse_graph(json.dumps(raw))) == serialize_graph(
        parse_graph(doc())
    )


def test_parse_rejects_bad_json():
    with pytest.raises(GraphFormatError):
        parse_graph("{not json")
    with pytest.raises(GraphFormatError):
        parse_graph(b"\xff\xfe")
    with pytest.raises(GraphFormatError):
        parse_graph("[1, 2]")
    with pytest.raises(GraphFormatError):
        parse_graph('{"version": 1, "edges": [], "nodes": ' + "[" * 100000 + "]" * 100000 + "}")


def test_parse_rejects_unknown_and_missing_fields():
    with pytest.raises(GraphFormatError):
        parse_graph(doc(extra=1))
    raw = json.loads(doc())
    del raw["nodes"]
    with pytest.raises(GraphFormatError):
        parse_graph(json.dumps(raw))
    raw = json.loads(doc())
    raw["edges"][0]["weight"] = 3
    with pytest.raises(GraphFormatError):
        parse_graph(json.dumps(raw))
    raw = json.loads(doc())
    raw["op_costs"]["latency"] = 1
    with pytest.raises(GraphFormatError):
        parse_graph(json.dumps(raw))


def test_parse_rejects_wrong_version():
    with pytest.raises(GraphFormatError):
        parse_graph(doc(version=2))
    with pytest.raises(GraphFormatError):
        parse_graph(doc(version="1"))
    with pytest.raises(GraphFormatError, match="unsupported version True"):
        parse_graph(doc(version=True))
    # JSON has one number type: 1.0 is version 1
    assert parse_graph(doc(version=1.0)) == parse_graph(doc())


@pytest.mark.parametrize(
    "field,message",
    [
        ('"fidelity": 0.9', "field 'fidelity' in edges[0] is too large for a float"),
        ('"success": 0.7', "field 'success' in edges[1] is too large for a float"),
        ('"swap_success": 0.9', "field 'swap_success' in op_costs is too large for a float"),
        ('"version": 1', "unsupported version {sign}9999"),
    ],
    ids=["fidelity", "success", "swap_success", "version"],
)
@pytest.mark.parametrize("sign", ["", "-"], ids=["positive", "negative"])
def test_parse_refuses_integers_past_the_digit_limit(field, message, sign):
    # json.loads's int() refuses over 4,300 digits, as json.dumps's str()
    # does, so the document is written by hand
    text = doc().replace(field, field.split()[0] + " " + sign + "9" * 5000)
    with pytest.raises(GraphFormatError) as info:
        parse_graph(text)
    assert str(info.value).startswith(message.format(sign=sign))
    assert "set_int_max_str_digits" not in str(info.value)


def test_parse_rejects_bad_roles_and_ids():
    raw = json.loads(doc())
    raw["nodes"][0]["role"] = "client"
    with pytest.raises(GraphFormatError):
        parse_graph(json.dumps(raw))
    raw = json.loads(doc())
    raw["nodes"][0]["id"] = 7
    with pytest.raises(GraphFormatError):
        parse_graph(json.dumps(raw))


def _reparses_to_same_bytes(g):
    blob = serialize_graph(g)
    assert serialize_graph(parse_graph(blob)) == blob


def test_graphs_qnet_writes_parse_again():
    """reduce's terminal and route's subgraph re-parse to the same bytes.

    A terminal holds the channels that reduction named r<n>.  The graphs:
    the README document, the Wheatstone bridge (no step applies, so route
    searches it) and random series-parallel graphs.
    """
    graphs = [two_path_graph(), bridge_graph()]
    graphs += [random_sp_graph(seeded(seed), max_edges=20) for seed in range(30)]
    for g in graphs:
        terminal = reduce_to_fixpoint(g).graph
        _reparses_to_same_bytes(terminal)
        _reparses_to_same_bytes(route(g, RouteRequest("A", "B", 1e-9)).subgraph)
    assert set(reduce_to_fixpoint(two_path_graph()).graph.channels) == {"r2"}


def test_parse_rejects_duplicates_and_dangling_edges():
    raw = json.loads(doc())
    raw["nodes"].append({"id": "A", "role": "router"})
    with pytest.raises(GraphFormatError):
        parse_graph(json.dumps(raw))
    raw = json.loads(doc())
    raw["edges"].append(dict(raw["edges"][0]))
    with pytest.raises(GraphFormatError):
        parse_graph(json.dumps(raw))
    raw = json.loads(doc())
    raw["edges"][0]["b"] = "ghost"
    with pytest.raises(GraphFormatError):
        parse_graph(json.dumps(raw))


def test_parse_rejects_self_loops():
    raw = json.loads(doc())
    raw["edges"][0]["b"] = "A"
    with pytest.raises(GraphFormatError):
        parse_graph(json.dumps(raw))


def test_parse_rejects_non_numeric_costs():
    raw = json.loads(doc())
    raw["edges"][0]["fidelity"] = True
    with pytest.raises(GraphFormatError):
        parse_graph(json.dumps(raw))
    raw = json.loads(doc())
    raw["edges"][0]["success"] = "0.8"
    with pytest.raises(GraphFormatError):
        parse_graph(json.dumps(raw))
    raw = json.loads(doc())
    raw["edges"][0]["fidelity"] = 1.5
    with pytest.raises(GraphFormatError):
        parse_graph(json.dumps(raw))
    raw = json.loads(doc())
    raw["op_costs"]["physical_acceptance"] = 1
    with pytest.raises(GraphFormatError):
        parse_graph(json.dumps(raw))


def test_channel_normalizes_endpoint_order():
    # The constructor sorts a row's ends, and keeps a plain tuple as a Channel.
    nodes = [Node("A", NodeRole.ENDPOINT), Node("B", NodeRole.ENDPOINT)]
    rows = [Channel("B", "A", 0.9, 0.9), ("B", "A", 0.9, 0.9), ("A", "B", 0.9, 0.9)]
    for row in rows:
        c = NetworkGraph(nodes, [("c9", row)]).channel("c9")
        assert (c.a, c.b) == ("A", "B")
        assert c == Channel("A", "B", 0.9, 0.9)
        assert type(c) is Channel
    # costs are stored as floats, as CostVector stores them
    c = NetworkGraph(nodes, [("c9", Channel("A", "B", True, 0))]).channel("c9")
    assert c == ("A", "B", 1.0, 0.0)
    assert (type(c.fidelity), type(c.success)) == (float, float)


def test_graph_accessors():
    g = build_graph(
        [
            ("c1", "A", "x", 0.9, 0.9),
            ("c2", "x", "B", 0.9, 0.9),
            ("c3", "A", "x", 0.8, 0.7),
        ]
    )
    with pytest.raises(GraphFormatError):
        g.node("y")
    with pytest.raises(GraphFormatError):
        g.channel("nope")


def test_graph_views_are_read_only():
    g = build_graph([("c1", "A", "B", 0.9, 0.9)])
    with pytest.raises(TypeError):
        g.nodes["A"] = Node("A", NodeRole.ROUTER)
    with pytest.raises(TypeError):
        g.channels["c1"] = Channel("A", "B", 0.5, 0.5)
    assert g.node("A").role is NodeRole.ENDPOINT
    assert g.channel("c1") == Channel("A", "B", 0.9, 0.9)


def test_constructor_validation():
    # The constructor checks its rows as input from outside, with
    # parse_graph's messages; a cost names the channel, not edges[i].
    nodes = [Node("A", NodeRole.ENDPOINT), Node("B", NodeRole.ENDPOINT)]
    good = ("c0", Channel("A", "B", 0.9, 0.9))
    with pytest.raises(GraphFormatError, match="^duplicate node id 'A'$"):
        NetworkGraph(nodes + [Node("A", NodeRole.ROUTER)], [])
    for channel, message in [
        (("c", Channel("A", "C", 0.9, 0.9)), "channel 'c' references unknown node"),
        (("c", Channel("C", "B", 0.9, 0.9)), "channel 'c' references unknown node"),
        (("c", Channel("A", "A", 0.9, 0.9)), "channel 'c' is a self-loop"),
        (("c0", Channel("B", "A", 0.5, 0.5)), "duplicate channel id 'c0'"),
        (("bad id", Channel("A", "B", 0.9, 0.9)),
         "channel id 'bad id' must be 1-64 non-whitespace characters"),
        (("", Channel("A", "B", 0.9, 0.9)),
         "channel id '' must be 1-64 non-whitespace characters"),
        ((7, Channel("A", "B", 0.9, 0.9)),
         "channel id 7 must be 1-64 non-whitespace characters"),
        (("c", Channel("A", "B", 1.5, 0.9)),
         "channel 'c': fidelity 1.5 outside [0, 1]"),
        (("c", Channel("A", "B", 0.9, -0.25)),
         "channel 'c': success probability -0.25 outside [0, 1]"),
        (("c", Channel("A", "B", math.nan, 0.9)),
         "channel 'c': fidelity nan outside [0, 1]"),
    ]:
        with pytest.raises(GraphFormatError) as info:
            NetworkGraph(nodes, [good, channel])
        assert str(info.value) == message


def test_graphs_share_their_rows():
    """A graph hands out the Channel rows it holds, read-only: a parsed
    graph, a reduction's terminal (rows the engine made) and a route's
    subgraph."""
    # two A-B paths and a router x hanging off m1, outside the route's block
    edges = [(f"c{i}", a, b, 0.9, 0.9) for i, (a, b) in enumerate(
        [("A", "m1"), ("m1", "B"), ("A", "m2"), ("m2", "B"), ("m1", "x")], 1
    )]
    g = parse_graph(serialize_graph(build_graph(edges)))
    graphs = [
        g,
        reduce_to_fixpoint(g).graph,
        route(g, RouteRequest("A", "B", 0.3)).subgraph,
    ]
    assert set(graphs[1].channels) == {"c1", "c2", "c5", "r0"}
    assert set(graphs[2].channels) == {"c1", "c2", "c3", "c4"}
    for graph in graphs:
        for cid in graph.channels:
            assert graph.channel(cid) is graph.channels[cid]
            assert type(graph.channel(cid)) is Channel
            with pytest.raises(TypeError):
                graph.channels[cid] = Channel("A", "B", 0.5, 0.5)


def test_graph_equality_tracks_costs():
    g1 = build_graph([("c1", "A", "B", 0.9, 0.9)])
    g2 = build_graph([("c1", "A", "B", 0.9, 0.9)])
    g3 = build_graph([("c1", "A", "B", 0.9, 0.8)])
    assert g1 == g2
    assert g1 != g3
    assert g1 != build_graph(
        [("c1", "A", "B", 0.9, 0.9)], ops=OperationCosts(swap_success=0.5)
    )


_DROP = object()

# (path into the doc() object, new value or _DROP, exact error message)
_MALFORMED = [
    (("extra",), 1, "unknown field 'extra' in document"),
    (("nodes",), _DROP, "missing field 'nodes' in document"),
    (("op_costs",), 0.5, "op_costs must be an object"),
    (("op_costs", "latency"), 1, "unknown field 'latency' in op_costs"),
    (("op_costs", "swap_success"), "0.9", "field 'swap_success' in op_costs must be a number"),
    (("op_costs", "physical_acceptance"), 1, "physical_acceptance must be a boolean"),
    (("version",), 2, "unsupported version 2"),
    (("nodes",), {}, "nodes must be an array"),
    (("nodes", 0, "x"), 1, "unknown field 'x' in nodes[0]"),
    (("nodes", 1, "role"), _DROP, "missing field 'role' in nodes[1]"),
    (("edges", 1, "weight"), 3, "unknown field 'weight' in edges[1]"),
    (("edges", 0, "success"), _DROP, "missing field 'success' in edges[0]"),
    (("nodes", 2), "mid", "nodes[2] must be an object"),
    (("edges", 0), [1], "edges[0] must be an object"),
    (("nodes", 0, "id"), 7, "nodes[0]: id must be a string"),
    (("edges", 1, "id"), None, "edges[1]: id must be a string"),
    (("edges", 0, "a"), 1, "edges[0]: a must be a string"),
    (("edges", 1, "b"), ["B"], "edges[1]: b must be a string"),
    (("edges", 0, "fidelity"), True, "field 'fidelity' in edges[0] must be a number"),
    (("edges", 1, "success"), "0.8", "field 'success' in edges[1] must be a number"),
    (("edges", 0, "fidelity"), 1.5, "edges[0]: fidelity 1.5 outside [0, 1]"),
    (("edges", 1, "success"), -0.25,
     "edges[1]: success probability -0.25 outside [0, 1]"),
    (("edges",), {}, "edges must be an array"),
    (("op_costs", "purify_success"), False,
     "field 'purify_success' in op_costs must be a number"),
    (("nodes", 0, "role"), "client", "nodes[0]: role 'client' must be 'endpoint' or 'router'"),
    (("nodes", 1, "role"), [], "nodes[1]: role [] must be 'endpoint' or 'router'"),
    (("nodes", 1, "id"), "A", "duplicate node id 'A'"),
    (("edges", 1, "id"), "c1", "duplicate channel id 'c1'"),
    (("edges", 0, "b"), "A", "channel 'c1' is a self-loop"),
    (("edges", 1, "a"), "ghost", "channel 'c2' references unknown node"),
    (("nodes", 2, "id"), "m d", "node id 'm d' must be 1-64 non-whitespace characters"),
    (("nodes", 0, "id"), "A\n", "node id 'A\\n' must be 1-64 non-whitespace characters"),
    (("edges", 0, "id"), "A\n", "channel id 'A\\n' must be 1-64 non-whitespace characters"),
    # a 401-digit integer; the explicit ids keep it out of the test names
    pytest.param(("edges", 0, "fidelity"), 10**400,
                 "field 'fidelity' in edges[0] is too large for a float",
                 id="fidelity-beyond-float"),
    pytest.param(("op_costs", "swap_success"), 10**400,
                 "field 'swap_success' in op_costs is too large for a float",
                 id="swap_success-beyond-float"),
    (("op_costs", "swap_success"), 1.5,
     "op_costs: success probability 1.5 outside [0, 1]"),
    (("op_costs", "purify_success"), math.nan,
     "op_costs: success probability nan outside [0, 1]"),
    # json.loads reads NaN, Infinity and -Infinity
    (("edges", 0, "fidelity"), math.nan, "edges[0]: fidelity nan outside [0, 1]"),
    (("edges", 1, "success"), math.inf,
     "edges[1]: success probability inf outside [0, 1]"),
    (("edges", 0, "fidelity"), -math.inf, "edges[0]: fidelity -inf outside [0, 1]"),
]


@pytest.mark.parametrize("path,value,message", _MALFORMED)
def test_parse_error_messages_are_pinned(path, value, message):
    raw = json.loads(doc())
    *head, last = path
    target = raw
    for key in head:
        target = target[key]
    if value is _DROP:
        del target[last]
    else:
        target[last] = value
    with pytest.raises(GraphFormatError) as info:
        parse_graph(json.dumps(raw))
    assert str(info.value) == message


# Two defects in one document: the checks of each entry's fields run over
# every entry before the checks of ids, duplicates and ends, and nodes
# are checked before channels.
_TWO_DEFECTS = [
    ((("edges", 0, "id"), "c 1"), (("edges", 1, "fidelity"), 1.5),
     "edges[1]: fidelity 1.5 outside [0, 1]"),
    ((("edges", 1, "id"), "c1"), (("edges", 1, "fidelity"), 1.5),
     "edges[1]: fidelity 1.5 outside [0, 1]"),
    ((("nodes", 2, "id"), "m d"), (("edges", 1, "a"), 3),
     "edges[1]: a must be a string"),
    ((("nodes", 1, "id"), "A"), (("edges", 0, "b"), "A"),
     "duplicate node id 'A'"),
]


@pytest.mark.parametrize("first,second,message", _TWO_DEFECTS)
def test_parse_error_precedence_is_pinned(first, second, message):
    raw = json.loads(doc())
    for (*head, last), value in (first, second):
        target = raw
        for key in head:
            target = target[key]
        target[last] = value
    with pytest.raises(GraphFormatError) as info:
        parse_graph(json.dumps(raw))
    assert str(info.value) == message


def test_node_and_channel_refuse_new_attributes():
    node = Node("A", NodeRole.ENDPOINT)
    channel = Channel("A", "B", 0.9, 0.8)
    for value in (node, channel):
        with pytest.raises(AttributeError):
            value.extra = 1


def test_parsed_graph_memory_per_channel():
    """A parsed graph holds at most 400 bytes per channel under tracemalloc.

    The document is a 40 x 50 grid, 2,000 channels.  A graph that kept a
    Channel and a CostVector record per channel held 474.4 B a channel on
    Python 3.11, 496-498 on 3.10 and 443 on 3.12 and 3.13; as plain (a, b,
    fidelity, success) tuples that share their nodes' id strings it held
    327, 349-352 and 312.  As Channel rows it held 335 on 3.11: a tuple
    subclass is allocated with one more item slot, 80 B where a 4-tuple
    asks 72, though both take the same 80 B block of the allocator.  With
    each of the 1,962 nodes a Node named tuple, not a two-slot object, it
    holds 351.  Rows holding their own copies of the id strings would hold
    about 110 B more.  A full collection before each reading empties the
    interpreter's free lists, so their cached objects count in neither
    reading.
    """
    text = serialize_graph(uniform_grid(40, 50))
    tracemalloc.start()
    try:
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        g = parse_graph(text)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(g.channels) == 2000
    assert held / 2000 <= 400, held / 2000
