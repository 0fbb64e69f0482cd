"""Data flow graph core: representation, validation, interpretation, hashing.

The DFG is the unit of offload: an acyclic graph of 32-bit integer
operations extracted from a loop body.  ``interpret_dfg`` is the reference
evaluator that every other execution path is checked against.
"""

from __future__ import annotations

import hashlib
import heapq
import re
import struct
from dataclasses import dataclass, field
from enum import Enum, IntEnum
from operator import attrgetter
from typing import Container, Iterable, Optional

INT32_MIN = -(1 << 31)
INT32_MAX = (1 << 31) - 1


def wrap32(value: int) -> int:
    """Reduce an integer to signed 32-bit two's complement."""
    return ((value + (1 << 31)) & 0xFFFFFFFF) - (1 << 31)


class OpCode(IntEnum):
    """Operations the overlay's functional units can perform.

    Integer division and remainder are deliberately absent.
    """

    ADD = 0
    SUB = 1
    MUL = 2
    EQ = 3
    NE = 4
    LT = 5
    LE = 6
    GT = 7
    GE = 8
    MUX = 9
    PASS = 10


# Number of input ports per op code.  MUX ports are (select, a, b).
OP_ARITY = {
    OpCode.ADD: 2,
    OpCode.SUB: 2,
    OpCode.MUL: 2,
    OpCode.EQ: 2,
    OpCode.NE: 2,
    OpCode.LT: 2,
    OpCode.LE: 2,
    OpCode.GT: 2,
    OpCode.GE: 2,
    OpCode.MUX: 3,
    OpCode.PASS: 1,
}

def apply_op(code: OpCode, args: list[int]) -> int:
    """Evaluate one op on ints, wrapping to 32 bits.  Comparisons yield 1/0."""
    if code == OpCode.ADD:
        return wrap32(args[0] + args[1])
    if code == OpCode.SUB:
        return wrap32(args[0] - args[1])
    if code == OpCode.MUL:
        return wrap32(args[0] * args[1])
    if code == OpCode.EQ:
        return 1 if args[0] == args[1] else 0
    if code == OpCode.NE:
        return 1 if args[0] != args[1] else 0
    if code == OpCode.LT:
        return 1 if args[0] < args[1] else 0
    if code == OpCode.LE:
        return 1 if args[0] <= args[1] else 0
    if code == OpCode.GT:
        return 1 if args[0] > args[1] else 0
    if code == OpCode.GE:
        return 1 if args[0] >= args[1] else 0
    if code == OpCode.MUX:
        return args[1] if args[0] != 0 else args[2]
    if code == OpCode.PASS:
        return args[0]
    raise ValueError(f"unknown op code {code!r}")


class NodeKind(Enum):
    INPUT = "input"
    OUTPUT = "output"
    CONST = "const"
    OP = "op"


@dataclass(frozen=True)
class Node:
    id: int
    kind: NodeKind
    code: Optional[OpCode] = None  # set iff kind is OP
    value: Optional[int] = None  # set iff kind is CONST

    def arity(self) -> int:
        if self.kind == NodeKind.OP:
            return OP_ARITY[self.code]
        if self.kind == NodeKind.OUTPUT:
            return 1
        return 0

    def label(self) -> str:
        if self.kind == NodeKind.OP:
            return self.code.name
        if self.kind == NodeKind.CONST:
            return str(self.value)
        return self.kind.value


@dataclass(frozen=True)
class AffineExpr:
    """Linear expression sum(coeff * var) + const over loop variables/params.

    ``of``, ``parse`` and the operators ``+``, ``-`` and ``*`` (by an int)
    all give the normal form, through ``_normal``: like terms merged, zero
    coefficients dropped, terms sorted by name.  So equal expressions compare
    equal, and ``parse(str(a)) == a``.
    """

    terms: tuple[tuple[str, int], ...] = ()
    const: int = 0

    @staticmethod
    def _normal(pairs: Iterable[tuple[str, int]], const: int = 0) -> "AffineExpr":
        """The normal form of sum(coeff * var for var, coeff in pairs) + const."""
        coeffs: dict[str, int] = {}
        for var, coeff in pairs:
            coeffs[var] = coeffs.get(var, 0) + coeff
        return AffineExpr(tuple(sorted((v, c) for v, c in coeffs.items() if c)), const)

    @staticmethod
    def of(const: int = 0, **coeffs: int) -> "AffineExpr":
        return AffineExpr._normal(coeffs.items(), const)

    def __add__(self, other: "AffineExpr") -> "AffineExpr":
        return AffineExpr._normal(self.terms + other.terms, self.const + other.const)

    def __sub__(self, other: "AffineExpr") -> "AffineExpr":
        return AffineExpr._normal(self.terms + tuple((v, -c) for v, c in other.terms),
                                 self.const - other.const)

    def __mul__(self, scale: int) -> "AffineExpr":
        return AffineExpr._normal([(v, c * scale) for v, c in self.terms], self.const * scale)

    def evaluate(self, env: dict[str, int]) -> int:
        total = self.const
        for var, coeff in self.terms:
            total += coeff * env[var]
        return total

    def shift_var(self, var: str, scale: int, offset: int) -> "AffineExpr":
        """Substitute var := scale*var + offset (used by loop unrolling)."""
        coeff = dict(self.terms).get(var)
        if coeff is None:
            return self
        return self + AffineExpr(((var, coeff * (scale - 1)),), coeff * offset)

    def __str__(self) -> str:
        parts = []
        for var, coeff in self.terms:
            if coeff == 1:
                parts.append(f"+{var}")
            elif coeff == -1:
                parts.append(f"-{var}")
            else:
                parts.append(f"{coeff:+d}*{var}")
        if self.const or not parts:
            parts.append(f"{self.const:+d}")
        text = "".join(parts)
        return text[1:] if text.startswith("+") else text

    @staticmethod
    def parse(text: str, names: Optional[Container[str]] = None) -> "AffineExpr":
        """Read the form ``__str__`` writes, with terms in any order.

        That form is ``["-"] term { ("+" | "-") term }``, where a term is an
        INT or ``[INT "*"] NAME`` and a name is not all digits.  Raises
        ValueError on any other text.  With ``names`` given, raises KeyError
        on the first name, left to right, that is not in it.
        """
        parts = re.split(r"([+-])", text)
        parts = parts[1:] if text.startswith("-") else ["+", *parts]
        pairs = []
        const = 0
        for op, term in zip(parts[::2], parts[1::2]):
            sign = -1 if op == "-" else 1
            if term.isdigit():
                const += sign * int(term)
                continue
            coeff, star, var = term.rpartition("*")
            if (star and not coeff.isdigit()) or not var or var.isdigit():
                raise ValueError(f"bad affine expression {text!r}")
            if names is not None and var not in names:
                raise KeyError(var)
            pairs.append((var, sign * int(coeff or 1)))
        return AffineExpr._normal(pairs, const)


@dataclass(frozen=True)
class IoBinding:
    """Ties an Input/Output node to an array access over the iteration domain.

    ``access`` holds one affine index expression per array dimension.  The
    lane partition (offset, stride) selects iterations of the innermost loop
    handled by this node's datapath copy.
    """

    array: str
    access: tuple[AffineExpr, ...]
    lane_offset: int = 0
    lane_stride: int = 1


@dataclass(frozen=True)
class Remainder:
    """Unrolled-loop annotation: iterations of ``var`` not covered by lanes."""

    var: str
    factor: int


@dataclass
class DfgStats:
    inputs: int
    outputs: int
    calc_nodes: int
    consts: int


@dataclass(frozen=True)
class Edge:
    src: int
    sport: int
    dst: int
    dport: int


_DPORT = attrgetter("dport")


class Violation:
    """One broken graph invariant; kept as data rather than raised."""

    def __init__(self, kind: str, detail: str):
        self.kind = kind
        self.detail = detail

    def __repr__(self) -> str:
        return f"Violation({self.kind}: {self.detail})"


class LengthMismatch(ValueError):
    pass


class UnknownInput(KeyError):
    pass


@dataclass
class DataFlowGraph:
    nodes: dict[int, Node] = field(default_factory=dict)
    edges: list[Edge] = field(default_factory=list)
    io_bindings: dict[int, IoBinding] = field(default_factory=dict)
    remainder: Optional[Remainder] = None

    # -- construction helpers -------------------------------------------------

    def add_node(self, kind: NodeKind, code: Optional[OpCode] = None,
                 value: Optional[int] = None) -> int:
        nid = max(self.nodes, default=-1) + 1
        self.nodes[nid] = Node(nid, kind, code, value)
        return nid

    def add_edge(self, src: int, dst: int, dport: int, sport: int = 0) -> None:
        self.edges.append(Edge(src, sport, dst, dport))

    # -- views -----------------------------------------------------------------

    def inputs(self) -> list[int]:
        return sorted(n.id for n in self.nodes.values() if n.kind == NodeKind.INPUT)

    def outputs(self) -> list[int]:
        return sorted(n.id for n in self.nodes.values() if n.kind == NodeKind.OUTPUT)

    def op_nodes(self) -> list[int]:
        return sorted(n.id for n in self.nodes.values() if n.kind == NodeKind.OP)

    def in_edges(self, nid: int) -> list[Edge]:
        return sorted((e for e in self.edges if e.dst == nid), key=_DPORT)

    def in_edge_map(self) -> dict[int, list[Edge]]:
        """``in_edges`` of every node, from one pass over the edges."""
        ins: dict[int, list[Edge]] = {nid: [] for nid in self.nodes}
        for e in self.edges:
            ins.setdefault(e.dst, []).append(e)
        for edges in ins.values():
            edges.sort(key=_DPORT)
        return ins

    def topo_order(self) -> list[int]:
        """Node ids in dependency order; ValueError on a cycle or a dangling edge.

        Kahn's order: of the nodes whose producers are all placed, the
        smallest id comes next.  One pass over the edges and a heap, so it
        costs O(E + N log N).
        """
        return _kahn(self.nodes, self.edges)


def _kahn(nodes: Iterable[int], edges: Iterable[Edge]) -> list[int]:
    """``topo_order`` over ``nodes``."""
    indeg = dict.fromkeys(nodes, 0)
    succ: dict[int, list[int]] = {nid: [] for nid in indeg}
    for e in edges:
        if e.src not in indeg or e.dst not in indeg:
            raise ValueError(f"dangling edge {e.src}->{e.dst} references a missing node")
        indeg[e.dst] += 1
        succ[e.src].append(e.dst)
    ready = [nid for nid, d in indeg.items() if d == 0]
    heapq.heapify(ready)
    order: list[int] = []
    while ready:
        nid = heapq.heappop(ready)
        order.append(nid)
        for dst in succ[nid]:
            indeg[dst] -= 1
            if indeg[dst] == 0:
                heapq.heappush(ready, dst)
    if len(order) != len(indeg):
        raise ValueError("graph has a cycle")
    return order


def validate_dfg(g: DataFlowGraph) -> list[Violation]:
    """Check all structural invariants; an empty list means the graph is valid.

    An edge that names a missing node is a ``dangling-edge``; the arity and
    cycle checks read only the edges between nodes, so it is none of those.
    Each check makes one pass over the edges.
    """
    out: list[Violation] = []
    ports: dict[int, list[int]] = {nid: [] for nid in g.nodes}
    sources: set[int] = set()
    joined: list[Edge] = []
    for e in g.edges:
        sources.add(e.src)
        if e.src not in g.nodes or e.dst not in g.nodes:
            out.append(Violation("dangling-edge", f"{e.src}->{e.dst} references a missing node"))
            continue
        ports[e.dst].append(e.dport)
        joined.append(e)
    for nid, node in sorted(g.nodes.items()):
        if node.kind == NodeKind.OP:
            if node.code is None or node.code not in OP_ARITY:
                out.append(Violation("unsupported-code", f"node {nid}"))
                continue
        if node.kind == NodeKind.CONST:
            if node.value is None or not (INT32_MIN <= node.value <= INT32_MAX):
                out.append(Violation("const-range", f"node {nid} value {node.value!r}"))
        arity = node.arity()
        got = sorted(ports[nid])
        if got != list(range(arity)):
            out.append(Violation(
                "arity", f"node {nid} ({node.label()}) expects ports {list(range(arity))},"
                         f" has {got}"))
        if node.kind == NodeKind.OUTPUT and nid in sources:
            out.append(Violation("output-fanout", f"output node {nid} has outgoing edges"))
    for nid, binding in g.io_bindings.items():
        if nid not in g.nodes:
            out.append(Violation("binding", f"binding for missing node {nid}"))
            continue
        if g.nodes[nid].kind not in (NodeKind.INPUT, NodeKind.OUTPUT):
            out.append(Violation("binding", f"node {nid} is not an IO node"))
        if binding.lane_stride < 1 or binding.lane_offset < 0:
            out.append(Violation("binding", f"node {nid} lane {binding.lane_offset}/{binding.lane_stride}"))
    try:
        _kahn(g.nodes, joined)
    except ValueError:
        out.append(Violation("cycle", "graph is not acyclic"))
    return out


def interpret_dfg(g: DataFlowGraph,
                  inputs: dict[int, list[int]]) -> dict[int, list[int]]:
    """Evaluate the graph over value streams, one position at a time.

    ``inputs`` maps Input node id to its stream; all streams must share one
    length.  Returns one stream per Output node id.  Arithmetic wraps to
    32-bit two's complement; comparisons yield 1/0; MUX selects its first
    data input when the select value is nonzero.
    """
    ids = g.inputs()
    missing = [i for i in ids if i not in inputs]
    if missing:
        raise UnknownInput(f"no stream for input nodes {missing}")
    lengths = {len(inputs[i]) for i in ids}
    if len(lengths) > 1:
        raise LengthMismatch(f"input stream lengths differ: {sorted(lengths)}")
    length = lengths.pop() if lengths else 0

    order = g.topo_order()
    in_edges = g.in_edge_map()
    results: dict[int, list[int]] = {oid: [] for oid in g.outputs()}
    values: dict[int, int] = {}
    for pos in range(length):
        for nid in order:
            node = g.nodes[nid]
            if node.kind == NodeKind.INPUT:
                values[nid] = wrap32(inputs[nid][pos])
            elif node.kind == NodeKind.CONST:
                values[nid] = wrap32(node.value)
            elif node.kind == NodeKind.OP:
                args = [values[e.src] for e in in_edges[nid]]
                values[nid] = apply_op(node.code, args)
            else:  # OUTPUT
                results[nid].append(values[in_edges[nid][0].src])
    return results


def dfg_stats(g: DataFlowGraph) -> DfgStats:
    inputs = outputs = calc = consts = 0
    for node in g.nodes.values():
        if node.kind == NodeKind.INPUT:
            inputs += 1
        elif node.kind == NodeKind.OUTPUT:
            outputs += 1
        elif node.kind == NodeKind.CONST:
            consts += 1
        else:
            calc += 1
    return DfgStats(inputs, outputs, calc, consts)


def _node_digests(g: DataFlowGraph) -> dict[int, bytes]:
    """Per-node digest independent of node ids (children hashed in port order)."""
    digests: dict[int, bytes] = {}
    in_edges = g.in_edge_map()
    for nid in g.topo_order():
        node = g.nodes[nid]
        h = hashlib.blake2b(digest_size=8)
        h.update(node.kind.value.encode())
        if node.kind == NodeKind.OP:
            h.update(node.code.name.encode())
        elif node.kind == NodeKind.CONST:
            h.update(struct.pack("<i", node.value))
        binding = g.io_bindings.get(nid)
        if binding is not None:
            access = ",".join(str(a) for a in binding.access)
            h.update(f"{binding.array}[{access}]{binding.lane_offset}/{binding.lane_stride}".encode())
        for e in in_edges[nid]:
            h.update(struct.pack("<H", e.dport))
            h.update(digests[e.src])
        digests[nid] = h.digest()
    return digests


def dfg_hash(g: DataFlowGraph) -> int:
    """64-bit digest, invariant under node-id relabeling.

    Combines the multiset of per-node digests with the multiset of edge
    digests, so any change to an op code, constant, edge, or io binding
    changes the result while a pure relabeling does not.
    """
    digests = _node_digests(g)
    h = hashlib.blake2b(digest_size=8)
    for d in sorted(digests.values()):
        h.update(d)
    edge_sigs = sorted(
        digests[e.src] + struct.pack("<HH", e.sport, e.dport) + digests[e.dst]
        for e in g.edges
    )
    for sig in edge_sigs:
        h.update(sig)
    if g.remainder is not None:
        h.update(f"rem:{g.remainder.var}/{g.remainder.factor}".encode())
    return int.from_bytes(h.digest(), "little")


# -- serialization --------------------------------------------------------------


def dfg_to_text(g: DataFlowGraph) -> str:
    """Line-oriented dump: one node, edge, or binding per line."""
    lines = []
    if g.remainder is not None:
        lines.append(f"meta remainder {g.remainder.var} {g.remainder.factor}")
    for nid in sorted(g.nodes):
        node = g.nodes[nid]
        if node.kind == NodeKind.OP:
            lines.append(f"node {nid} op {node.code.name}")
        elif node.kind == NodeKind.CONST:
            lines.append(f"node {nid} const {node.value}")
        else:
            lines.append(f"node {nid} {node.kind.value}")
    for e in sorted(g.edges, key=lambda e: (e.dst, e.dport)):
        lines.append(f"edge {e.src}:{e.sport} -> {e.dst}:{e.dport}")
    for nid in sorted(g.io_bindings):
        b = g.io_bindings[nid]
        access = ",".join(str(a) for a in b.access)
        lines.append(f"bind {nid} {b.array} {access} {b.lane_offset}/{b.lane_stride}")
    return "\n".join(lines) + "\n"


def dfg_from_text(text: str) -> DataFlowGraph:
    g = DataFlowGraph()
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] == "meta" and parts[1] == "remainder":
            g.remainder = Remainder(parts[2], int(parts[3]))
        elif parts[0] == "node":
            nid = int(parts[1])
            kind = parts[2]
            if kind == "op":
                g.nodes[nid] = Node(nid, NodeKind.OP, code=OpCode[parts[3]])
            elif kind == "const":
                g.nodes[nid] = Node(nid, NodeKind.CONST, value=int(parts[3]))
            else:
                g.nodes[nid] = Node(nid, NodeKind(kind))
        elif parts[0] == "edge":
            src, sport = parts[1].split(":")
            dst, dport = parts[3].split(":")
            g.edges.append(Edge(int(src), int(sport), int(dst), int(dport)))
        elif parts[0] == "bind":
            nid = int(parts[1])
            access = tuple(AffineExpr.parse(a) for a in parts[3].split(","))
            offset, stride = parts[4].split("/")
            g.io_bindings[nid] = IoBinding(parts[2], access, int(offset), int(stride))
        else:
            raise ValueError(f"unrecognized line: {raw!r}")
    return g


def dfg_to_dot(g: DataFlowGraph, name: str = "dfg") -> str:
    """Graphviz rendering; inputs/outputs boxed, constants filled green."""
    lines = [f"digraph {name} {{", "  rankdir=TB;"]
    for nid in sorted(g.nodes):
        node = g.nodes[nid]
        label = node.label()
        if nid in g.io_bindings:
            b = g.io_bindings[nid]
            access = "][".join(str(a) for a in b.access)
            label = f"{b.array}[{access}]"
            if b.lane_stride > 1:
                label += f" {{{b.lane_offset},{b.lane_offset + b.lane_stride},...}}"
        shape = "ellipse"
        style = ""
        if node.kind in (NodeKind.INPUT, NodeKind.OUTPUT):
            shape = "box"
        elif node.kind == NodeKind.CONST:
            shape = "box"
            style = ', style=filled, fillcolor="palegreen"'
        lines.append(f'  n{nid} [label="{label}", shape={shape}{style}];')
    for e in g.edges:
        lines.append(f"  n{e.src} -> n{e.dst} [headlabel=\"{e.dport}\"];")
    lines.append("}")
    return "\n".join(lines) + "\n"
