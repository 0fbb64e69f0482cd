"""Data flow graph core: representation, validation, interpretation, hashing.

The DFG is the unit of offload: an acyclic graph of 32-bit integer
operations extracted from a loop body.  ``interpret_dfg`` is the reference
evaluator that every other execution path is checked against.

A node holds its operands: ``Node.srcs`` are the ids that feed its input
ports, in port order, and an edge is one of those operands.  Node ids are the
dependency order: every operand is a smaller node id than the node it feeds.
``validate_dfg`` checks this rule, and ``topo_order`` is id order once the
rule holds, so no pass sorts a graph's dependencies or regroups its edges.
"""

from __future__ import annotations

import hashlib
import re
import struct
from dataclasses import dataclass, field, replace
from enum import Enum, IntEnum
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
    srcs: tuple[int, ...] = ()  # the ids that feed its ports, in port order

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

    ``access`` holds one affine index expression per array dimension.  In
    an unrolled graph it is also the lane: ``unroll_dfg`` rewrote it so that
    the innermost variable counts blocks of lanes.
    """

    array: str
    access: tuple[AffineExpr, ...]


@dataclass
class DfgStats:
    inputs: int
    outputs: int
    calc_nodes: int
    consts: int


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
    """Nodes by id, each with its operands, the array access of each Input
    and Output, and ``unroll``, the lanes per innermost block: the innermost
    loop runs in blocks of that many iterations, one per lane, and leaves
    the iterations past its last full block to the caller.

    The rule: every operand is a smaller node id than the node it feeds, so
    id order is a dependency order.  A graph built node by node, each made
    from nodes made before it with the next id, keeps it.
    """

    nodes: dict[int, Node] = field(default_factory=dict)
    io_bindings: dict[int, IoBinding] = field(default_factory=dict)
    unroll: int = 1

    def inputs(self) -> list[int]:
        return sorted(n.id for n in self.nodes.values() if n.kind == NodeKind.INPUT)

    def outputs(self) -> list[int]:
        return sorted(n.id for n in self.nodes.values() if n.kind == NodeKind.OUTPUT)

    def op_nodes(self) -> list[int]:
        return sorted(n.id for n in self.nodes.values() if n.kind == NodeKind.OP)

    def topo_order(self) -> list[int]:
        """Node ids in dependency order, which is id order; ValueError on an
        operand that names a missing node or breaks the id rule."""
        for nid, node in self.nodes.items():
            for src in node.srcs:
                if src not in self.nodes:
                    raise ValueError(f"dangling edge {src}->{nid} references a missing node")
                if src >= nid:
                    raise ValueError(f"edge {src}->{nid} does not run to a larger id")
        return sorted(self.nodes)


def validate_dfg(g: DataFlowGraph) -> list[Violation]:
    """Check all structural invariants; an empty list means the graph is valid.

    Per node in id order: an operand that names a missing node is a
    ``dangling-edge``, and one that is not a smaller id an ``edge-order``
    (every cycle has one); an operand count other than the op's arity is an
    ``arity``.  Each operand is read once.  An ``unroll`` below 1 is an
    ``unroll``.
    """
    out: list[Violation] = []
    sources = {src for node in g.nodes.values() for src in node.srcs}
    for nid, node in sorted(g.nodes.items()):
        for src in node.srcs:
            if src not in g.nodes:
                out.append(Violation("dangling-edge", f"{src}->{nid} references a missing node"))
            elif src >= nid:
                out.append(Violation("edge-order", f"{src}->{nid} does not run to a larger id"))
        if node.kind == NodeKind.OP:
            if node.code is None or node.code not in OP_ARITY:
                out.append(Violation("unsupported-code", f"node {nid}"))
                continue
        if node.kind == NodeKind.CONST:
            if node.value is None or not (INT32_MIN <= node.value <= INT32_MAX):
                out.append(Violation("const-range", f"node {nid} value {node.value!r}"))
        if len(node.srcs) != node.arity():
            out.append(Violation("arity", f"node {nid} ({node.label()}) expects"
                                          f" {node.arity()} operands, has {len(node.srcs)}"))
        if node.kind == NodeKind.OUTPUT and nid in sources:
            out.append(Violation("output-fanout", f"output node {nid} has outgoing edges"))
    for nid, binding in g.io_bindings.items():
        if nid not in g.nodes:
            out.append(Violation("binding", f"binding for missing node {nid}"))
            continue
        if g.nodes[nid].kind not in (NodeKind.INPUT, NodeKind.OUTPUT):
            out.append(Violation("binding", f"node {nid} is not an IO node"))
    if g.unroll < 1:
        out.append(Violation("unroll", f"unroll factor {g.unroll} is below 1"))
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
                values[nid] = apply_op(node.code, [values[src] for src in node.srcs])
            else:  # OUTPUT
                results[nid].append(values[node.srcs[0]])
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
            h.update(f"{binding.array}[{access}]".encode())
        for port, src in enumerate(node.srcs):
            h.update(struct.pack("<H", port))
            h.update(digests[src])
        digests[nid] = h.digest()
    return digests


def dfg_hash(g: DataFlowGraph) -> int:
    """64-bit digest, invariant under node-id relabeling.

    Hashes the multiset of per-node digests, and ``unroll`` when it is not
    1.  A node's digest covers its operands' digests in port order, so any
    change to an op code, constant, operand, or io binding changes the
    result while a pure relabeling does not.
    """
    h = hashlib.blake2b(digest_size=8)
    for d in sorted(_node_digests(g).values()):
        h.update(d)
    if g.unroll != 1:
        h.update(f"unroll:{g.unroll}".encode())
    return int.from_bytes(h.digest(), "little")


# -- serialization --------------------------------------------------------------


def dfg_to_text(g: DataFlowGraph) -> str:
    """Line-oriented dump: one node, edge, or binding per line.

    An edge line ``edge src:0 -> dst:port`` is one operand; they come in
    (dst, port) order, after every node line.  A graph whose ``unroll`` is
    not 1 starts with ``meta unroll <u>``.
    """
    lines = [f"meta unroll {g.unroll}"] if g.unroll != 1 else []
    for nid in sorted(g.nodes):
        node = g.nodes[nid]
        if node.kind == NodeKind.OP:
            lines.append(f"node {nid} op {node.code.name}")
        elif node.kind == NodeKind.CONST:
            lines.append(f"node {nid} const {node.value}")
        else:
            lines.append(f"node {nid} {node.kind.value}")
    for nid in sorted(g.nodes):
        lines += [f"edge {src}:0 -> {nid}:{port}" for port, src in enumerate(g.nodes[nid].srcs)]
    for nid in sorted(g.io_bindings):
        b = g.io_bindings[nid]
        access = ",".join(str(a) for a in b.access)
        lines.append(f"bind {nid} {b.array} {access}")
    return "\n".join(lines) + "\n"


def _read_line(raw: str) -> tuple:
    """The kind of one line ``dfg_to_text`` writes and the values it holds;
    ValueError naming the line on any other."""
    head, *args = raw.split()
    try:
        if head == "meta" and len(args) == 2 and args[0] == "unroll":
            return head, int(args[1])
        if head == "node" and len(args) == 2 and args[1] in ("input", "output"):
            return head, Node(int(args[0]), NodeKind(args[1]))
        if head == "node" and len(args) == 3 and args[1] == "op":
            return head, Node(int(args[0]), NodeKind.OP, code=OpCode[args[2]])
        if head == "node" and len(args) == 3 and args[1] == "const":
            return head, Node(int(args[0]), NodeKind.CONST, value=int(args[2]))
        if head == "edge" and len(args) == 3 and args[1] == "->":
            (src, sport), (dst, dport) = (map(int, a.split(":")) for a in args[::2])
            return head, src, sport, dst, dport
        if head == "bind" and len(args) == 3:
            access = tuple(AffineExpr.parse(a) for a in args[2].split(","))
            return head, int(args[0]), IoBinding(args[1], access)
    except (KeyError, ValueError):
        pass
    raise ValueError(f"malformed line: {raw!r}")


def dfg_from_text(text: str) -> DataFlowGraph:
    """Read what ``dfg_to_text`` writes, with lines in any order.

    Raises ValueError naming the line on a line of any other form, and
    ValueError on text no graph holds: a source port other than 0, a port
    fed twice, a node whose ports skip one, or an edge into a node no line
    declares.
    """
    g = DataFlowGraph()
    ins: dict[int, dict[int, int]] = {}  # node id -> port -> operand
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        head, *values = _read_line(raw)
        if head == "meta":
            (g.unroll,) = values
        elif head == "node":
            (node,) = values
            g.nodes[node.id] = node
        elif head == "edge":
            src, sport, dst, dport = values
            if sport != 0:
                raise ValueError(f"source port {sport} is not 0: {raw!r}")
            ports = ins.setdefault(dst, {})
            if dport in ports:
                raise ValueError(f"port {dport} of node {dst} is fed twice: {raw!r}")
            ports[dport] = src
        else:
            nid, binding = values
            g.io_bindings[nid] = binding
    for nid, ports in ins.items():
        if nid not in g.nodes:
            raise ValueError(f"edge into undeclared node {nid}")
        if sorted(ports) != list(range(len(ports))):
            raise ValueError(f"node {nid} has ports {sorted(ports)}, which skip one")
        g.nodes[nid] = replace(g.nodes[nid], srcs=tuple(src for _, src in sorted(ports.items())))
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
        shape = "ellipse"
        style = ""
        if node.kind in (NodeKind.INPUT, NodeKind.OUTPUT):
            shape = "box"
        elif node.kind == NodeKind.CONST:
            shape = "box"
            style = ', style=filled, fillcolor="palegreen"'
        lines.append(f'  n{nid} [label="{label}", shape={shape}{style}];')
    for nid in sorted(g.nodes):
        lines += [f"  n{src} -> n{nid} [headlabel=\"{port}\"];"
                  for port, src in enumerate(g.nodes[nid].srcs)]
    lines.append("}")
    return "\n".join(lines) + "\n"
