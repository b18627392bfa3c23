"""Network graph model and its JSON document format.

Multigraph of endpoint/repeater nodes joined by channels.  A graph keeps
each channel as one Channel row, id -> (a, b, fidelity, success) with
a <= b, and hands out the rows it holds, from the document to the report.
Documents are versioned and strict: unknown fields are rejected,
serialization is canonical, and parse(serialize(g)) reproduces g exactly.
"""
from __future__ import annotations

import json
import re
from collections import namedtuple
from collections.abc import Iterable, Mapping
from enum import Enum
from types import MappingProxyType

from .algebra import OperationCosts, check_cost
from .jsonutil import canonical_dumps, quote

__all__ = [
    "Channel",
    "GraphFormatError",
    "NetworkGraph",
    "Node",
    "NodeRole",
    "parse_graph",
    "serialize_graph",
]

_ID_RE = re.compile(r"\S{1,64}")


class GraphFormatError(ValueError):
    """Raised for malformed documents or invalid graph structure."""


class NodeRole(Enum):
    ENDPOINT = "endpoint"
    ROUTER = "router"


Node = namedtuple("Node", "id role")
Channel = namedtuple("Channel", "a b fidelity success")
Channel.__doc__ = """A channel as a graph keeps it under its id: ends a <= b, and cost.

    A named tuple that checks nothing, as ReductionStep is.  NetworkGraph
    checks rows as input; the parser and the reduction engine build theirs
    with tuple.__new__.
    """


def _check_id(kind: str, value: str) -> str:
    if not isinstance(value, str) or not _ID_RE.fullmatch(value):
        raise GraphFormatError(
            f"{kind} id {value!r} must be 1-64 non-whitespace characters"
        )
    return value


class NetworkGraph:
    """Immutable multigraph with per-operation cost factors.

    nodes and channels are read-only views of the dicts _nodes and
    _channels; treat the instance as frozen once constructed.
    """

    def __init__(
        self,
        nodes: Iterable[Node],
        channels: Iterable[tuple[str, Channel]],
        op_costs: OperationCosts | None = None,
    ) -> None:
        """The graph of nodes and (id, row) channels, checked as input with
        parse_graph's messages: node ids, then each channel's id, ends and
        costs.  A row is kept as it is if it is a Channel of sorted ends and
        float costs, and rebuilt as one otherwise."""
        self._nodes: dict[str, Node] = {}
        self._channels: dict[str, Channel] = {}
        known, joined = self._nodes, self._channels
        for n in nodes:
            nid = _check_id("node", n.id)
            if nid in known:
                raise GraphFormatError(f"duplicate node id {nid!r}")
            known[nid] = n
        for cid, row in channels:
            _check_id("channel", cid)
            if cid in joined:
                raise GraphFormatError(f"duplicate channel id {cid!r}")
            a, b, fidelity, success = row
            if a not in known or b not in known:
                raise GraphFormatError(f"channel {cid!r} references unknown node")
            if a == b:
                raise GraphFormatError(f"channel {cid!r} is a self-loop")
            try:
                check_cost(fidelity, success)
            except ValueError as exc:
                raise GraphFormatError(f"channel {cid!r}: {exc}") from None
            if b < a or type(row) is not Channel or not (
                type(fidelity) is type(success) is float
            ):
                row = Channel(*sorted((a, b)), float(fidelity), float(success))
            joined[cid] = row
        self.op_costs = op_costs if op_costs is not None else OperationCosts()

    @property
    def nodes(self) -> Mapping[str, Node]:
        return MappingProxyType(self._nodes)

    @property
    def channels(self) -> Mapping[str, Channel]:
        return MappingProxyType(self._channels)

    def node(self, node_id: str) -> Node:
        try:
            return self._nodes[node_id]
        except KeyError:
            raise GraphFormatError(f"unknown node {node_id!r}") from None

    def channel(self, channel_id: str) -> Channel:
        try:
            return self._channels[channel_id]
        except KeyError:
            raise GraphFormatError(f"unknown channel {channel_id!r}") from None

    def __eq__(self, other) -> bool:
        if not isinstance(other, NetworkGraph):
            return NotImplemented
        return (
            self._nodes == other._nodes
            and self._channels == other._channels
            and self.op_costs == other.op_costs
        )

    def __repr__(self) -> str:
        return (
            f"NetworkGraph({len(self._nodes)} nodes, "
            f"{len(self._channels)} channels)"
        )


_ROLES = {role.value: role for role in NodeRole}
_ROLE_TEXT = {role: quote(role.value) for role in NodeRole}
_NODE_FIELDS = {"id": True, "role": True}
_EDGE_FIELDS = dict.fromkeys(("id", "a", "b", "fidelity", "success"), True)
_OP_COSTS_FIELDS = dict.fromkeys(OperationCosts._fields, False)


def _require_keys(obj: dict, allowed: dict[str, bool], where: str) -> None:
    for key in obj:
        if key not in allowed:
            raise GraphFormatError(f"unknown field {key!r} in {where}")
    for key, required in allowed.items():
        if required and key not in obj:
            raise GraphFormatError(f"missing field {key!r} in {where}")


def _number(obj: dict, key: str, where: str) -> float:
    v = obj[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise GraphFormatError(f"field {key!r} in {where} must be a number")
    try:
        return float(v)
    except OverflowError:  # an integer beyond the float range
        raise GraphFormatError(
            f"field {key!r} in {where} is too large for a float"
        ) from None


def _json_int(text: str) -> int:
    """json.loads's parse_int: an integer literal, or its first 400 digits.

    int() refuses a literal of over 4,300 digits with advice about
    sys.set_int_max_str_digits.  Any 400 digits already lie past the float
    range, so the field holding a longer literal is refused as too large.
    """
    return int(text[:400])


def parse_graph(document: bytes | str) -> NetworkGraph:
    """Parse a version-1 graph document.

    Any id of 1-64 non-whitespace characters is accepted, 'r<n>' included,
    so every graph qnet writes parses again; reduction numbers the channels
    it creates past any such id already in the graph.

    Each edge becomes a Channel row, its fields checked here (the costs by
    check_cost) and its ends sorted.  NetworkGraph then checks the ids, the
    ends and the costs, so every entry's fields are checked before any id.
    """
    if isinstance(document, bytes):
        try:
            document = document.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise GraphFormatError(f"document is not valid UTF-8: {exc}") from None
    try:
        doc = json.loads(document, parse_int=_json_int)
    except (json.JSONDecodeError, RecursionError) as exc:
        # RecursionError: nested deeper than the JSON parser allows
        raise GraphFormatError(f"document is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise GraphFormatError("top-level document must be an object")
    _require_keys(
        doc,
        {"version": True, "op_costs": False, "nodes": True, "edges": True},
        "document",
    )
    # True == 1 in Python, but a boolean is no version; 1.0 is the number 1
    if isinstance(doc["version"], bool) or doc["version"] != 1:
        raise GraphFormatError(f"unsupported version {doc['version']!r}")

    ops = OperationCosts()
    if "op_costs" in doc:
        oc = doc["op_costs"]
        if not isinstance(oc, dict):
            raise GraphFormatError("op_costs must be an object")
        _require_keys(oc, _OP_COSTS_FIELDS, "op_costs")
        acceptance = oc.get("physical_acceptance", True)
        if not isinstance(acceptance, bool):
            raise GraphFormatError("physical_acceptance must be a boolean")
        swap, purify = [
            _number(oc, key, "op_costs") if key in oc else 1.0
            for key in ("swap_success", "purify_success")
        ]
        try:
            ops = OperationCosts(swap, purify, acceptance)
        except ValueError as exc:
            raise GraphFormatError(f"op_costs: {exc}") from None

    if not isinstance(doc["nodes"], list):
        raise GraphFormatError("nodes must be an array")
    nodes = []
    names: dict[str, str] = {}
    for i, entry in enumerate(doc["nodes"]):
        if not isinstance(entry, dict):
            raise GraphFormatError(f"nodes[{i}] must be an object")
        if entry.keys() != _NODE_FIELDS.keys():
            _require_keys(entry, _NODE_FIELDS, f"nodes[{i}]")
        nid = entry["id"]
        if not isinstance(nid, str):
            raise GraphFormatError(f"nodes[{i}]: id must be a string")
        try:
            role = _ROLES[entry["role"]]
        except (KeyError, TypeError):  # TypeError: an unhashable role
            raise GraphFormatError(
                f"nodes[{i}]: role {entry['role']!r} must be 'endpoint' or 'router'"
            ) from None
        nodes.append(Node(nid, role))
        names[nid] = nid

    if not isinstance(doc["edges"], list):
        raise GraphFormatError("edges must be an array")
    channels = []
    tuple_new = tuple.__new__
    for i, entry in enumerate(doc["edges"]):
        if not isinstance(entry, dict):
            raise GraphFormatError(f"edges[{i}] must be an object")
        if entry.keys() != _EDGE_FIELDS.keys():
            _require_keys(entry, _EDGE_FIELDS, f"edges[{i}]")
        cid, a, b = entry["id"], entry["a"], entry["b"]
        if not isinstance(cid, str):
            raise GraphFormatError(f"edges[{i}]: id must be a string")
        if not isinstance(a, str):
            raise GraphFormatError(f"edges[{i}]: a must be a string")
        if not isinstance(b, str):
            raise GraphFormatError(f"edges[{i}]: b must be a string")
        fidelity, success = entry["fidelity"], entry["success"]
        if type(fidelity) is not float or type(success) is not float:
            fidelity = _number(entry, "fidelity", f"edges[{i}]")
            success = _number(entry, "success", f"edges[{i}]")
        try:
            check_cost(fidelity, success)
        except ValueError as exc:
            raise GraphFormatError(f"edges[{i}]: {exc}") from None
        # rows share the nodes' id strings; copies would add about 110 B each
        a, b = names.get(a, a), names.get(b, b)
        if b < a:
            a, b = b, a
        channels.append((cid, tuple_new(Channel, (a, b, fidelity, success))))

    return NetworkGraph(nodes, channels, ops)


def write_graph(g: NetworkGraph) -> str:
    """g's canonical version-1 document as text.

    The document holds edges (a, b, fidelity, id, success) and nodes (id,
    role), each sorted by id, op_costs and "version": 1, with the sorted
    keys and float text of canonical_dumps; one template per row or node.
    A row's floats lie in [0, 1], so the edge template writes them with
    '%.17g' itself, as float_text would.
    """
    edges = ",".join([
        '{"a":%s,"b":%s,"fidelity":%.17g,"id":%s,"success":%.17g}' % (
            quote(a), quote(b), fidelity + 0.0, quote(cid), success + 0.0
        )
        for cid, (a, b, fidelity, success) in sorted(g._channels.items())
    ])
    nodes = ",".join([
        '{"id":%s,"role":%s}' % (quote(nid), _ROLE_TEXT[n.role])
        for nid, n in sorted(g._nodes.items())
    ])
    return '{"edges":[%s],"nodes":[%s],"op_costs":%s,"version":1}' % (
        edges, nodes, canonical_dumps(g.op_costs._asdict())
    )


def serialize_graph(g: NetworkGraph) -> bytes:
    """Canonical UTF-8 document; parse_graph(serialize_graph(g)) == g."""
    return write_graph(g).encode("utf-8")
