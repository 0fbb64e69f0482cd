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
read.  The graph builder (``_BodyBuilder``) owns the remaining unsupported
constructs, which it meets while building: a scalar used as a value, a
loop-carried read, an element assigned twice, asymmetric if/else
branches and a literal outside int32 that would become a CONST node.  It
also folds constants and places PASS nodes as it walks, so its graph is
final.  Last, ``extract_dfg`` refuses a graph that reads nothing, since no
stream would drive it.  ``check_eligibility`` is ``extract_dfg`` at unroll
1, with its IneligibleKernel turned into a verdict, followed by the size
thresholds.  The body is walked once at any unroll factor: an unrolled
graph is the unroll-1 graph copied into lanes by ``unroll_dfg``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

from . import kernels as kl
from .dfg import (INT32_MAX, INT32_MIN, AffineExpr, DataFlowGraph, DfgStats, IoBinding,
                  Node, NodeKind, OpCode, apply_op, dfg_stats, validate_dfg)

_BINOP_CODE = {
    "+": OpCode.ADD, "-": OpCode.SUB, "*": OpCode.MUL,
    "==": OpCode.EQ, "!=": OpCode.NE, "<": OpCode.LT,
    "<=": OpCode.LE, ">": OpCode.GT, ">=": OpCode.GE,
}


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

    The kernel is accepted exactly when ``reason`` is Reason.NONE;
    ``accepted()`` and the table label are both read from it.
    """

    reason: Reason
    dfg_stats: Optional[DfgStats] = None
    detail: str = ""
    # the unroll-1 graph the verdict was taken on, kept for accepted kernels
    dfg: Optional[DataFlowGraph] = field(default=None, repr=False, compare=False)

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


@dataclass(frozen=True)
class _Const:
    """A constant met in the walk, with the id reserved for its node."""

    value: int
    id: int


class _BodyBuilder:
    """Builds the loop body, in one walk, into the final unroll-1 graph.

    It runs after _check_structure and raises the UNSUPPORTED_OP problems
    found while building: a scalar used as a value, a loop-carried read, an
    element assigned twice, if/else branches that assign different
    elements, and a literal outside int32 that would become a CONST node.

    Ids come from one counter in walk order.  Constants fold as they are
    met: a literal, and an op whose operands are all constants, is a _Const
    whose node is made only when a non-constant op or an Output reads it.
    A cell masks one signal, so an op wires its first constant operand
    directly and each later one through a PASS node made right there, as
    does an Output written a constant.  A node is made after the nodes it
    reads, so the graph keeps the id rule of ``DataFlowGraph``: every
    operand is a smaller id than the node it feeds.  So ``graph`` drops
    what feeds no Output in one sweep down the ids.
    """

    def __init__(self, written: dict[str, tuple]):
        self.g = DataFlowGraph()
        self.written = written  # array -> write access tuple
        self.reads: dict[tuple, int] = {}
        self.defs: dict[tuple, int | _Const] = {}
        self.next_id = 0

    def reserve(self) -> int:
        self.next_id += 1
        return self.next_id - 1

    def node(self, kind: NodeKind, code: Optional[OpCode] = None, srcs=(),
             direct: int = 0) -> int:
        """A new node fed by ``srcs`` in port order; past the first ``direct``
        constants, each constant feeds it through a new PASS node.  A
        constant outside int32 is refused: the software path compares it
        unwrapped, and a CONST node holds an int32."""
        ports = []
        for src in srcs:
            if isinstance(src, _Const):
                if not INT32_MIN <= src.value <= INT32_MAX:
                    raise IneligibleKernel(Reason.UNSUPPORTED_OP,
                                           f"literal {src.value} is outside int32")
                self.g.nodes.setdefault(src.id, Node(src.id, NodeKind.CONST, value=src.value))
                if direct:
                    direct -= 1
                    src = src.id
                else:
                    src = self.node(NodeKind.OP, OpCode.PASS, [src.id])
            ports.append(src)
        nid = self.reserve()
        self.g.nodes[nid] = Node(nid, kind, code, srcs=tuple(ports))
        return nid

    def op(self, code: OpCode, *srcs) -> int | _Const:
        if all(isinstance(s, _Const) for s in srcs):
            return _Const(apply_op(code, [s.value for s in srcs]), self.reserve())
        return self.node(NodeKind.OP, code, srcs, direct=1)

    def read(self, ref: kl.ArrayRef) -> int | _Const:
        access = _access_tuple(ref)
        key = (ref.name, access)
        if key in self.defs:
            return self.defs[key]
        if ref.name in self.written and access != self.written[ref.name]:
            raise IneligibleKernel(Reason.UNSUPPORTED_OP,
                                   f"array {ref.name} is read at a different element than "
                                   f"it is written (loop-carried dependence)")
        if key not in self.reads:
            nid = self.node(NodeKind.INPUT)
            self.g.io_bindings[nid] = IoBinding(ref.name, access)
            self.reads[key] = nid
        return self.reads[key]

    def expr(self, e: kl.Expr) -> int | _Const:
        if isinstance(e, kl.IntLit):
            return _Const(e.value, self.reserve())
        if isinstance(e, kl.Var):
            raise IneligibleKernel(Reason.UNSUPPORTED_OP,
                                   f"scalar {e.name!r} used as a value")
        if isinstance(e, kl.ArrayRef):
            return self.read(e)
        if isinstance(e, kl.Ternary):
            return self.op(OpCode.MUX, self.expr(e.cond), self.expr(e.then),
                           self.expr(e.orelse))
        return self.op(_BINOP_CODE[e.op], self.expr(e.lhs), self.expr(e.rhs))

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
                    defs[key] = self.op(OpCode.MUX, sel, d_then[key], d_else[key])
                    assigned.append(key)
        self.defs = defs
        return assigned

    def graph(self, body) -> DataFlowGraph:
        """The graph of ``body``: an Output per element it assigns, and only
        the nodes that feed one, in id order."""
        defs: dict[tuple, int | _Const] = {}
        for key in self.block(body, defs):
            out = self.node(NodeKind.OUTPUT, srcs=[defs[key]])
            self.g.io_bindings[out] = IoBinding(*key)
        g = self.g
        live = set(g.outputs())
        for nid in sorted(g.nodes, reverse=True):
            if nid in live:
                live.update(g.nodes[nid].srcs)
        g.nodes = {nid: g.nodes[nid] for nid in sorted(live)}
        g.io_bindings = {nid: b for nid, b in g.io_bindings.items() if nid in live}
        return g


def check_unroll(unroll: int) -> None:
    """Raise ValueError unless ``unroll`` is an unroll factor, 1 or more."""
    if unroll < 1:
        raise ValueError("unroll factor must be >= 1")


def unroll_dfg(g: DataFlowGraph, inner_var: str, unroll: int) -> DataFlowGraph:
    """The extracted unroll-1 graph ``g`` copied into ``unroll`` = u lanes.

    Lane L handles iterations {L, L+u, L+2u, ...} of the innermost loop
    ``inner_var``: its accesses are ``g``'s with ``inner_var`` := u *
    ``inner_var`` + L, so that ``inner_var`` counts blocks of u, and the
    copy's ``unroll`` is u.  Iterations past the last full block are the
    caller's job.  Ids and orders are those of the body built lane by lane,
    since the placer reads them: with b the largest id plus one, lane L's
    node n becomes L*b + n.  Nodes come lane by lane, then bindings.  Every
    operand stays in its lane and moves by the lane's shift, so the copy
    keeps ``g``'s id rule.
    """
    if unroll == 1:
        return g
    b = max(g.nodes) + 1
    shifts = range(0, unroll * b, b)  # lane L's is L*b
    out = DataFlowGraph(unroll=unroll)
    for off in shifts:
        out.nodes.update((off + n.id, Node(off + n.id, n.kind, n.code, n.value,
                                           tuple(off + src for src in n.srcs)))
                         for n in g.nodes.values())
    for lane, off in enumerate(shifts):
        for nid, io in g.io_bindings.items():
            out.io_bindings[off + nid] = IoBinding(
                io.array, tuple(a.shift_var(inner_var, unroll, lane) for a in io.access))
    return out


def extract_dfg(k: kl.Kernel, unroll: int = 1) -> DataFlowGraph:
    """Extract the innermost loop body as a data flow graph.

    The body is walked once into the final unroll-1 graph, its constants
    folded and its PASS nodes placed on the way, and checked once; with
    ``unroll`` = u that graph is then copied into u lanes by ``unroll_dfg``.
    """
    check_unroll(unroll)
    written = _check_structure(k)
    loops, body = k.canonical_nest()
    g = _BodyBuilder(written).graph(body)
    if not g.inputs():  # the overlay fires on arriving tokens, and none would
        raise IneligibleKernel(Reason.UNSUPPORTED_OP, "no array element is read")
    violations = validate_dfg(g)
    if violations:  # internal error, not an input condition
        raise AssertionError(f"extraction produced an invalid graph: {violations}")
    return unroll_dfg(g, loops[-1].var, unroll)


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
