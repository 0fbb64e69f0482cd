"""Offload eligibility analysis and data-flow-graph extraction.

A kernel is eligible when it is an affine loop nest over int32 arrays using
only supported operations, and its extracted graph lands between the
configured node-count thresholds.  Rejection checks run in a fixed order so
a kernel with several problems always reports the same reason:
float data, then division, then non-affine structure, then unsupported
constructs, then the size thresholds.

Each check lives in one place and runs once per extraction.  The structure
scan (``_check_structure``) owns float data, division, the perfect nest,
affine subscripts, the shape of every write and the variables of every
read.  The graph builder (``_LaneBuilder``) owns the remaining unsupported
constructs, which it meets while building: a scalar used as a value, a
loop-carried read, an element assigned twice and asymmetric if/else
branches.  Last, ``extract_dfg`` refuses a graph that reads nothing, since
no stream would drive it.  ``check_eligibility`` is ``extract_dfg`` at
unroll 1, with its IneligibleKernel turned into a verdict, followed by the
size thresholds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

from . import kernels as kl
from .dfg import (AffineExpr, DataFlowGraph, DfgStats, Edge, IoBinding, Node,
                  NodeKind, OpCode, Remainder, apply_op, dfg_stats,
                  validate_dfg)

_BINOP_CODE = {
    "+": OpCode.ADD, "-": OpCode.SUB, "*": OpCode.MUL,
    "==": OpCode.EQ, "!=": OpCode.NE, "<": OpCode.LT,
    "<=": OpCode.LE, ">": OpCode.GT, ">=": OpCode.GE,
}


class Verdict(Enum):
    ACCEPTED = "Accepted"
    REJECTED = "Rejected"


class Reason(Enum):
    NONE = "none"
    DIVISION = "divisions"
    FLOATING_POINT = "fp data"
    TOO_SMALL = "too small"
    TOO_LARGE = "too large"
    NON_AFFINE = "non-affine"
    UNSUPPORTED_OP = "unsupported op"


@dataclass(frozen=True)
class Thresholds:
    """Node-count gates of the eligibility verdict; both are policy knobs.

    They gate the unroll-1 graph only: ``max_nodes`` gives the verdict
    "No, too large".  Whether an unrolled graph fits the grid is decided
    where it is mapped, by the placer.
    """

    min_nodes: int = 8
    max_nodes: Optional[int] = None


@dataclass
class EligibilityReport:
    """The verdict on one kernel, held as its ``reason`` alone.

    The kernel is accepted exactly when ``reason`` is Reason.NONE; the
    verdict, ``accepted()`` and the table label are all read from it.
    """

    reason: Reason
    dfg_stats: Optional[DfgStats] = None
    detail: str = ""
    # the unroll-1 graph the verdict was taken on, kept for accepted kernels
    dfg: Optional[DataFlowGraph] = field(default=None, repr=False, compare=False)

    @property
    def verdict(self) -> Verdict:
        return Verdict.ACCEPTED if self.accepted() else Verdict.REJECTED

    def accepted(self) -> bool:
        return self.reason is Reason.NONE

    def table_label(self) -> str:
        """Classification label in benchmark-table style ('Yes' / 'No, ...')."""
        return "Yes" if self.accepted() else f"No, {self.reason.value}"


class IneligibleKernel(ValueError):
    """Raised by extract_dfg when a structural precondition does not hold."""

    def __init__(self, reason: Reason, detail: str):
        super().__init__(f"{reason.value}: {detail}")
        self.reason = reason
        self.detail = detail

    def report(self) -> EligibilityReport:
        """The rejection verdict this failure stands for."""
        return EligibilityReport(self.reason, None, self.detail)


# -- structure scan ---------------------------------------------------------------

_WRITE, _VALUE, _INDEX = "write", "value", "index"


def _walk(stmts):
    """Yield (expr, role) for every expression under ``stmts``, pre-order.

    The role is _WRITE for an assignment target, _INDEX for anything inside
    an array subscript, and _VALUE for everything else (values, conditions).
    """

    def expr(e, role):
        yield e, role
        if isinstance(e, kl.ArrayRef):
            for i in e.indices:
                yield from expr(i, _INDEX)
        elif isinstance(e, kl.BinOp):
            yield from expr(e.lhs, role)
            yield from expr(e.rhs, role)
        elif isinstance(e, kl.Ternary):
            yield from expr(e.cond, role)
            yield from expr(e.then, role)
            yield from expr(e.orelse, role)

    for s in stmts:
        if isinstance(s, kl.Assign):
            yield from expr(s.target, _WRITE)
            yield from expr(s.value, _VALUE)
        elif isinstance(s, kl.IfElse):
            yield from expr(s.cond, _VALUE)
            yield from _walk(s.then)
            yield from _walk(s.orelse)
        else:
            yield from _walk(s.body)


def to_affine(e: kl.Expr) -> Optional[AffineExpr]:
    """Affine view of an index expression, or None when it is not affine."""
    if isinstance(e, kl.IntLit):
        return AffineExpr((), e.value)
    if isinstance(e, kl.Var):
        return AffineExpr(((e.name, 1),), 0)
    if not isinstance(e, kl.BinOp) or e.op not in ("+", "-", "*"):
        return None
    a = to_affine(e.lhs)
    b = to_affine(e.rhs)
    if a is None or b is None:
        return None
    if e.op == "+":
        return a + b
    if e.op == "-":
        return a - b
    if a.terms and b.terms:
        return None  # variable * variable
    return b * a.const if b.terms else a * b.const


def _access_tuple(ref: kl.ArrayRef) -> tuple[AffineExpr, ...]:
    return tuple(to_affine(idx) for idx in ref.indices)


def _check_structure(k: kl.Kernel) -> dict[str, tuple[AffineExpr, ...]]:
    """Raise IneligibleKernel for the first structural problem, in reason order.

    Float data, then division, then a non-perfect nest or a non-affine
    subscript, then writes the overlay cannot stream: each array must be
    written through one access whose subscripts are distinct loop variables
    plus constants covering the whole nest, so every element is written at
    most once per call.  Last, a read subscript may name only loop
    variables, since the gather lays out every stream over the loop domain.
    Returns array name -> its write access.
    """
    for decl in k.arrays:
        if decl.dtype == "float32":
            raise IneligibleKernel(Reason.FLOATING_POINT, f"array {decl.name} is float32")
    exprs = list(_walk([k.nest]))
    for e, _ in exprs:
        if isinstance(e, kl.FloatLit):
            raise IneligibleKernel(Reason.FLOATING_POINT, f"float literal {e.value}")
    for e, _ in exprs:
        if isinstance(e, kl.BinOp) and e.op in ("/", "%"):
            raise IneligibleKernel(Reason.DIVISION, f"operator {e.op!r}")
    canon = k.canonical_nest()
    if canon is None:
        raise IneligibleKernel(Reason.NON_AFFINE, "not a perfect loop nest")
    for e, _ in exprs:
        if isinstance(e, kl.ArrayRef) and any(to_affine(i) is None for i in e.indices):
            raise IneligibleKernel(Reason.NON_AFFINE, f"non-affine subscript on {e.name}")

    loop_vars = {f.var for f in canon[0]}
    writes: dict[str, set] = {}
    for e, role in exprs:
        if role == _WRITE:
            writes.setdefault(e.name, set()).add(_access_tuple(e))
    written = {}
    for name, accesses in writes.items():
        if len(accesses) > 1:
            raise IneligibleKernel(Reason.UNSUPPORTED_OP,
                                   f"array {name} written through multiple access functions")
        (access,) = accesses
        used = []
        for dim in access:
            if len(dim.terms) != 1 or dim.terms[0][1] != 1:
                raise IneligibleKernel(Reason.UNSUPPORTED_OP,
                                       f"write to {name} is not var+const per dimension")
            used.append(dim.terms[0][0])
        if len(set(used)) != len(used) or set(used) - loop_vars:
            raise IneligibleKernel(Reason.UNSUPPORTED_OP,
                                   f"write subscripts of {name} reuse a variable")
        if set(used) != loop_vars:
            raise IneligibleKernel(Reason.UNSUPPORTED_OP,
                                   f"write to {name} does not cover the full iteration space")
        written[name] = access
    for e, role in exprs:
        if isinstance(e, kl.ArrayRef) and role != _WRITE:
            params = {v for dim in _access_tuple(e) for v, _ in dim.terms} - loop_vars
            if params:
                raise IneligibleKernel(Reason.UNSUPPORTED_OP,
                                       f"read of {e.name} indexed by parameter {min(params)!r}")
    return written


# -- extraction ---------------------------------------------------------------------


class _LaneBuilder:
    """Builds one unroll lane's worth of nodes into a shared graph.

    It runs after _check_structure and raises the UNSUPPORTED_OP problems
    found while building: a scalar used as a value, a loop-carried read, an
    element assigned twice, and if/else branches that assign different
    elements.
    """

    def __init__(self, g: DataFlowGraph, inner_var: str, lane: int, stride: int,
                 written: dict[str, tuple]):
        self.g = g
        self.inner_var = inner_var
        self.lane = lane
        self.stride = stride
        self.written = written  # array -> write access tuple
        self.reads: dict[tuple, int] = {}
        self.defs: dict[tuple, int] = {}

    def _lane_access(self, access: tuple[AffineExpr, ...]) -> tuple[AffineExpr, ...]:
        if self.stride == 1:
            return access
        return tuple(a.shift_var(self.inner_var, self.stride, self.lane)
                     for a in access)

    def read(self, ref: kl.ArrayRef) -> int:
        access = _access_tuple(ref)
        key = (ref.name, access)
        if key in self.defs:
            return self.defs[key]
        if ref.name in self.written and access != self.written[ref.name]:
            raise IneligibleKernel(Reason.UNSUPPORTED_OP,
                                   f"array {ref.name} is read at a different element than "
                                   f"it is written (loop-carried dependence)")
        if key not in self.reads:
            nid = self.g.add_node(NodeKind.INPUT)
            self.g.io_bindings[nid] = IoBinding(
                ref.name, self._lane_access(access), self.lane, self.stride)
            self.reads[key] = nid
        return self.reads[key]

    def expr(self, e: kl.Expr) -> int:
        if isinstance(e, kl.IntLit):
            return self.g.add_node(NodeKind.CONST, value=e.value)
        if isinstance(e, kl.Var):
            raise IneligibleKernel(Reason.UNSUPPORTED_OP,
                                   f"scalar {e.name!r} used as a value")
        if isinstance(e, kl.ArrayRef):
            return self.read(e)
        if isinstance(e, kl.Ternary):
            sel = self.expr(e.cond)
            a = self.expr(e.then)
            b = self.expr(e.orelse)
            nid = self.g.add_node(NodeKind.OP, code=OpCode.MUX)
            self.g.add_edge(sel, nid, 0)
            self.g.add_edge(a, nid, 1)
            self.g.add_edge(b, nid, 2)
            return nid
        lhs = self.expr(e.lhs)
        rhs = self.expr(e.rhs)
        nid = self.g.add_node(NodeKind.OP, code=_BINOP_CODE[e.op])
        self.g.add_edge(lhs, nid, 0)
        self.g.add_edge(rhs, nid, 1)
        return nid

    def block(self, stmts, defs: dict) -> list[tuple]:
        """Evaluate statements into defs; returns keys assigned by this block."""
        assigned: list[tuple] = []
        for s in stmts:
            if isinstance(s, kl.Assign):
                key = (s.target.name, _access_tuple(s.target))
                if key in defs:
                    raise IneligibleKernel(Reason.UNSUPPORTED_OP,
                                           f"element {s.target.name} assigned twice")
                self.defs = defs
                defs[key] = self.expr(s.value)
                assigned.append(key)
            else:  # IfElse: the structure scan admits no loop here
                self.defs = defs
                sel = self.expr(s.cond)
                d_then = dict(defs)
                d_else = dict(defs)
                keys_t = self.block(s.then, d_then)
                keys_e = self.block(s.orelse, d_else)
                if set(keys_t) != set(keys_e):
                    raise IneligibleKernel(Reason.UNSUPPORTED_OP,
                                           "if/else branches assign different elements")
                # each branch started from a copy of defs, so a key assigned
                # before this if was already refused inside the branch
                for key in keys_t:
                    mux = self.g.add_node(NodeKind.OP, code=OpCode.MUX)
                    self.g.add_edge(sel, mux, 0)
                    self.g.add_edge(d_then[key], mux, 1)
                    self.g.add_edge(d_else[key], mux, 2)
                    defs[key] = mux
                    assigned.append(key)
        self.defs = defs
        return assigned


def _fold_constants(g: DataFlowGraph) -> None:
    """Collapse op nodes whose inputs are all constants, then drop dead nodes.

    Folding a node drops only the edges into it, and a node's in-edges are
    read only when the topological order reaches it, before it can fold, so
    one in-edge map taken up front serves the whole pass.
    """
    const_val: dict[int, int] = {
        nid: n.value for nid, n in g.nodes.items() if n.kind == NodeKind.CONST}
    in_edges = g.in_edge_map()
    folded: set[int] = set()
    for nid in g.topo_order():
        node = g.nodes[nid]
        if node.kind != NodeKind.OP:
            continue
        if all(e.src in const_val for e in in_edges[nid]):
            value = apply_op(node.code, [const_val[e.src] for e in in_edges[nid]])
            g.nodes[nid] = Node(nid, NodeKind.CONST, value=value)
            folded.add(nid)
            const_val[nid] = value
    g.edges = [e for e in g.edges if e.dst not in folded]
    # prune anything no longer feeding an output
    producers: dict[int, list[int]] = {}
    for e in g.edges:
        producers.setdefault(e.dst, []).append(e.src)
    live = set(g.outputs())
    frontier = list(live)
    while frontier:
        for src in producers.get(frontier.pop(), ()):
            if src not in live:
                live.add(src)
                frontier.append(src)
    g.nodes = {nid: n for nid, n in g.nodes.items() if nid in live}
    g.edges = [e for e in g.edges if e.src in live and e.dst in live]
    g.io_bindings = {nid: b for nid, b in g.io_bindings.items() if nid in live}


def _insert_pass_nodes(g: DataFlowGraph) -> None:
    """Keep at most one constant-fed pin per op (a cell masks one signal),
    and never feed an output interface straight from a constant.

    A rewrite moves only edges into the node it rewrites, so one in-edge
    map, taken before the first, serves every node.
    """
    const_ids = {nid for nid, n in g.nodes.items() if n.kind == NodeKind.CONST}
    in_edges = g.in_edge_map()
    moved: set[Edge] = set()
    added: list[Edge] = []
    for nid in list(g.nodes):
        node = g.nodes[nid]
        if node.kind == NodeKind.OP:
            extra = [e for e in in_edges[nid] if e.src in const_ids][1:]
        elif node.kind == NodeKind.OUTPUT:
            extra = [e for e in in_edges[nid] if e.src in const_ids]
        else:
            continue
        for e in extra:
            pid = g.add_node(NodeKind.OP, code=OpCode.PASS)
            moved.add(e)
            added += (Edge(e.src, 0, pid, 0), Edge(pid, 0, e.dst, e.dport))
    if moved:
        g.edges = [e for e in g.edges if e not in moved] + added


def check_unroll(unroll: int) -> None:
    """Raise ValueError unless ``unroll`` is an unroll factor, 1 or more."""
    if unroll < 1:
        raise ValueError("unroll factor must be >= 1")


def extract_dfg(k: kl.Kernel, unroll: int = 1) -> DataFlowGraph:
    """Extract the innermost loop body as a data flow graph.

    With ``unroll`` = u the datapath is replicated u times; lane L handles
    iterations {L, L+u, L+2u, ...} of the innermost loop, recorded in each
    io binding as (offset, stride).  Iterations beyond the last full block
    of u are flagged via the graph's ``remainder`` annotation and are the
    caller's job (the runtime runs them as the unroll-1 graph on the host).
    """
    check_unroll(unroll)
    written = _check_structure(k)
    loops, body = k.canonical_nest()
    inner_var = loops[-1].var

    g = DataFlowGraph()
    for lane in range(unroll):
        builder = _LaneBuilder(g, inner_var, lane, unroll, written)
        defs: dict[tuple, int] = {}
        keys = builder.block(list(body), defs)
        for key in keys:
            name, access = key
            out = g.add_node(NodeKind.OUTPUT)
            g.add_edge(defs[key], out, 0)
            g.io_bindings[out] = IoBinding(
                name, builder._lane_access(access), lane, unroll)

    _fold_constants(g)
    if not g.inputs():  # the overlay fires on arriving tokens, and none would
        raise IneligibleKernel(Reason.UNSUPPORTED_OP, "no array element is read")
    _insert_pass_nodes(g)
    if unroll > 1:
        g.remainder = Remainder(inner_var, unroll)
    violations = validate_dfg(g)
    if violations:  # internal error, not an input condition
        raise AssertionError(f"extraction produced an invalid graph: {violations}")
    return g


def check_eligibility(k: kl.Kernel,
                      thresholds: Thresholds = Thresholds()) -> EligibilityReport:
    """Classify a kernel for offload; all failures are verdicts, not errors."""
    try:
        g = extract_dfg(k)
    except IneligibleKernel as exc:
        return exc.report()
    stats = dfg_stats(g)
    if stats.calc_nodes < thresholds.min_nodes:
        return EligibilityReport(Reason.TOO_SMALL, stats,
                                 f"{stats.calc_nodes} calc nodes < {thresholds.min_nodes}")
    if thresholds.max_nodes is not None and stats.calc_nodes > thresholds.max_nodes:
        return EligibilityReport(Reason.TOO_LARGE, stats,
                                 f"{stats.calc_nodes} calc nodes > {thresholds.max_nodes}")
    return EligibilityReport(Reason.NONE, stats, dfg=g)
