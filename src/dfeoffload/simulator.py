"""Functional simulation of a configured overlay over tagged value streams.

The configuration is lowered once into a flat instruction program (one
instruction per active functional unit, pass-through routing collapsed by
origin tracing), then executed position-synchronously by the stream engine.
Wire traffic is accounted in 128-bit tagged frames carrying one 32-bit value
each, so every transferred word costs 16 bytes on the wire: 4x the payload.

The host side of a run copies each stream about once and interprets
nothing per element.  A gather or scatter goes through a strided view of the
array (one per access, bounds checked at the access's affine extremes), never
through index arrays.  What it needs of the graph (``GraphIo``: the streamed
Inputs, the Outputs and the written arrays) is listed once per graph, so a
call on a cached mapping does not rescan it.  The engine runs the program over
fixed-width column blocks of the streams, so its scratch stays small
whatever the stream length.  ``lower_dfg`` lowers a graph for the host
without placement, and ``run_epilogue`` runs the unroll-1 graph so lowered
over the leftover innermost iterations of an unrolled call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import engine
from .dfg import DataFlowGraph, IoBinding, LengthMismatch, NodeKind, OpCode
from .overlay import (FU, BorderOrigin, CellOrigin, Direction, Origin,
                      OverlayConfig, Pin, fu_order, trace_port, validate_config)

FRAME_SIZE = 16  # bytes: tag(4) + value(4) + reserved zeros(8)


class InvalidConfig(ValueError):
    pass


class UnconfiguredTag(KeyError):
    pass


class OutOfBounds(IndexError):
    pass


# One wire frame: 32-bit stream tag + 32-bit value + 64 zero bits.
_FRAME = np.dtype([("tag", "<u4"), ("value", "<i4"), ("pad", "V8")])
_INT32 = np.iinfo(np.int32)


def dump_frames(streams: dict[int, np.ndarray]) -> bytes:
    """Serialize streams as interleaved frames: position-major, tag ascending.

    Raises OverflowError when a value does not fit in 32 signed bits.
    """
    tags = sorted(streams)
    lengths = {len(streams[t]) for t in tags}
    if len(lengths) > 1:
        raise LengthMismatch(f"stream lengths differ: {sorted(lengths)}")
    if not tags:
        return b""
    values = np.stack([np.asarray(streams[t]) for t in tags], axis=1)
    if values.dtype != np.int32 and values.size and (
            values.min() < _INT32.min or values.max() > _INT32.max):
        raise OverflowError("stream value outside the int32 range")
    frames = np.zeros(values.shape, dtype=_FRAME)
    frames["tag"] = tags
    frames["value"] = values
    return frames.tobytes()


def load_frames(data: bytes) -> dict[int, np.ndarray]:
    """Streams from a frame stream, keyed by tag in order of first appearance."""
    if len(data) % FRAME_SIZE:
        raise ValueError("truncated frame stream")
    frames = np.frombuffer(data, dtype=_FRAME)
    tags, first = np.unique(frames["tag"], return_index=True)
    return {int(tag): frames["value"][frames["tag"] == tag].astype(np.int32)
            for tag in tags[np.argsort(first)]}


@dataclass
class RunReport:
    outputs: dict[int, np.ndarray]
    frames_in: int
    frames_out: int
    cycles: int
    bytes_on_wire: int


@dataclass
class Program:
    """Lowered overlay: instruction rows (op, dst, x, y, z) over value slots."""

    n_slots: int
    instrs: np.ndarray
    const_fill: list[tuple[int, int]]
    input_slots: dict[int, int]  # stream tag -> slot
    output_slots: dict[int, int]
    depth: int


def compile_config(cfg: OverlayConfig) -> Program:
    """Validate and lower a configuration to a flat execution program.

    The one place a config is validated: every path that runs or writes a
    config lowers it here first.  Raises InvalidConfig on any violation.
    """
    violations = validate_config(cfg)
    if violations:
        raise InvalidConfig("; ".join(map(repr, violations)))

    slot_count = 0

    def new_slot() -> int:
        nonlocal slot_count
        slot_count += 1
        return slot_count - 1

    input_slots: dict[int, int] = {}
    border_slot: dict[tuple[int, int, Direction], int] = {}
    for (r, c, d), tag in sorted(cfg.io_in.items()):
        slot = new_slot()
        input_slots[tag] = slot
        border_slot[(r, c, d)] = slot

    used = [(rc, cell) for rc, cell in sorted(cfg.cells.items())
            if cell.fu_op is not None]
    fu_slot = {rc: new_slot() for rc, _ in used}

    const_fill: list[tuple[int, int]] = []
    const_slot: dict[tuple[tuple[int, int], Pin], int] = {}
    for rc, cell in used:
        if cell.mask is not None:
            pin, value = cell.mask
            slot = new_slot()
            const_slot[(rc, pin)] = slot
            const_fill.append((slot, value))

    # resolve each wired pin to (origin slot, hop count)
    resolved: dict[tuple[tuple[int, int], Pin], tuple[int, int, Origin]] = {}
    for rc, cell in used:
        for pin in Pin:
            d = cell.pin_select(pin)
            if d is None:
                continue
            origin, hops = trace_port(cfg, rc, d)
            if isinstance(origin, BorderOrigin):
                slot = border_slot[(origin.r, origin.c, origin.side)]
            else:
                slot = fu_slot[(origin.r, origin.c)]
            resolved[(rc, pin)] = (slot, hops, origin)

    # order functional units by data dependency; validation excluded a cycle
    deps: dict[tuple[int, int], set] = {rc: set() for rc, _ in used}
    for (rc, pin), (_, _, origin) in resolved.items():
        if isinstance(origin, CellOrigin):
            deps[rc].add((origin.r, origin.c))

    depth_fu: dict[tuple[int, int], int] = {}
    rows = []
    cells = dict(cfg.cells)
    for rc in fu_order(deps):
        cell = cells[rc]
        operands = []
        pin_depth = 0
        for pin in Pin:
            if (rc, pin) in const_slot:
                operands.append(const_slot[(rc, pin)])
            elif (rc, pin) in resolved:
                slot, hops, origin = resolved[(rc, pin)]
                operands.append(slot)
                base = depth_fu[(origin.r, origin.c)] if isinstance(origin, CellOrigin) else 0
                pin_depth = max(pin_depth, base + hops)
            else:
                operands.append(0)  # unused by this op code
        depth_fu[rc] = pin_depth + 1
        rows.append((int(cell.fu_op), fu_slot[rc], *operands))

    output_slots: dict[int, int] = {}
    depth = 0
    for (r, c, d), tag in sorted(cfg.io_out.items()):
        sel = cfg.cell(r, c).out_sel[d]
        if sel == FU:
            output_slots[tag] = fu_slot[(r, c)]
            depth = max(depth, depth_fu[(r, c)] + 1)
        else:
            origin, hops = trace_port(cfg, (r, c), sel)
            if isinstance(origin, BorderOrigin):
                output_slots[tag] = border_slot[(origin.r, origin.c, origin.side)]
                depth = max(depth, hops + 1)
            else:
                output_slots[tag] = fu_slot[(origin.r, origin.c)]
                depth = max(depth, depth_fu[(origin.r, origin.c)] + hops + 1)

    instrs = np.array(rows, dtype=np.int32).reshape(len(rows), 5)
    return Program(slot_count, instrs, const_fill, input_slots, output_slots, depth)


def lower_dfg(g: DataFlowGraph) -> Program:
    """Lower a graph to a host program, without placement or routing.

    One slot per node in topological order; an Output reads its source's
    slot.  MUX operands go from the graph's (select, a, b) to the engine's
    (x, y, z) = (a, b, select).  Inputs that nothing reads get no slot, as
    ``build_streams`` streams none for them.  The program has no depth: it
    models no overlay.
    """
    read = {e.src for e in g.edges}
    slot: dict[int, int] = {}
    rows = []
    const_fill: list[tuple[int, int]] = []
    input_slots: dict[int, int] = {}
    output_slots: dict[int, int] = {}
    for nid in g.topo_order():
        node = g.nodes[nid]
        srcs = [slot[e.src] for e in g.in_edges(nid)]
        if node.kind == NodeKind.OUTPUT:
            output_slots[nid] = srcs[0]
            continue
        if node.kind == NodeKind.INPUT and nid not in read:
            continue
        slot[nid] = len(slot)
        if node.kind == NodeKind.INPUT:
            input_slots[nid] = slot[nid]
        elif node.kind == NodeKind.CONST:
            const_fill.append((slot[nid], node.value))
        else:
            if node.code == OpCode.MUX:
                srcs = srcs[1:] + srcs[:1]
            rows.append((int(node.code), slot[nid], *srcs, *[0] * (3 - len(srcs))))
    instrs = np.array(rows, dtype=np.int32).reshape(len(rows), 5)
    return Program(len(slot), instrs, const_fill, input_slots, output_slots, 0)


# Positions per engine call.  The engine's scratch is n_slots x _BLOCK int32,
# about 2.6 MB for 40 slots, whatever the stream length.
_BLOCK = 1 << 14


def _run_blocked(program: Program, streams: dict[int, np.ndarray],
                 length: int) -> dict[int, np.ndarray]:
    """Run ``program`` over ``length`` positions, one column block at a time.

    Each block's inputs are copied into an (n_slots, block) scratch array,
    the engine runs on it, and its output slots are copied out.
    """
    values = np.zeros((program.n_slots, min(length, _BLOCK)), dtype=np.int32)
    for slot, value in program.const_fill:
        values[slot] = value
    inputs = [(slot, np.asarray(streams[tag]))
              for tag, slot in program.input_slots.items()]
    outputs = {tag: np.empty(length, dtype=np.int32) for tag in program.output_slots}
    for lo in range(0, length, _BLOCK):
        hi = min(lo + _BLOCK, length)
        block = values[:, :hi - lo]
        for slot, stream in inputs:
            block[slot] = stream[lo:hi]
        if len(program.instrs):
            engine.get_runner()(program.instrs, block)
        for tag, slot in program.output_slots.items():
            outputs[tag][lo:hi] = block[slot]
    return outputs


def run_compiled(program: Program, streams: dict[int, np.ndarray]) -> RunReport:
    """Execute a lowered program over input streams keyed by tag."""
    missing = set(program.input_slots) - set(streams)
    extra = set(streams) - set(program.input_slots)
    if missing or extra:
        raise UnconfiguredTag(f"missing input tags {sorted(missing)}, "
                              f"unexpected {sorted(extra)}")
    lengths = {len(v) for v in streams.values()}
    if len(lengths) > 1:
        raise LengthMismatch(f"input stream lengths differ: {sorted(lengths)}")
    length = lengths.pop() if lengths else 0

    outputs = _run_blocked(program, streams, length)
    frames_in = len(program.input_slots) * length
    frames_out = len(program.output_slots) * length
    return RunReport(
        outputs=outputs,
        frames_in=frames_in,
        frames_out=frames_out,
        cycles=program.depth + length,
        bytes_on_wire=FRAME_SIZE * (frames_in + frames_out),
    )


# -- stream gather / scatter ---------------------------------------------------------
#
# An iteration box is a start and a count per loop, outer to inner.  A gather
# or scatter reads or writes a strided view of the array over the box, and
# its positions are the box's points in row-major order.


@dataclass(frozen=True)
class GraphIo:
    """What a gather or scatter derives from its graph alone.

    ``reads`` are the Inputs that some edge reads and ``writes`` the
    Outputs, each with its binding, in node id order; ``written`` is the
    sorted names of the arrays the Outputs write.  Built once per graph by
    ``graph_io``, so that a call on a cached mapping does not rescan the
    graph.
    """

    reads: tuple[tuple[int, IoBinding], ...]
    writes: tuple[tuple[int, IoBinding], ...]
    written: tuple[str, ...]


def graph_io(g: DataFlowGraph) -> GraphIo:
    read = {e.src for e in g.edges}
    reads = tuple((nid, g.io_bindings[nid]) for nid in g.inputs() if nid in read)
    writes = tuple((nid, g.io_bindings[nid]) for nid in g.outputs())
    return GraphIo(reads, writes, tuple(sorted({b.array for _, b in writes})))


def _steady_box(g: DataFlowGraph, trips: list[tuple[str, int]]
                ) -> tuple[list[int], list[int]]:
    """(counts, starts) of the unrolled steady state.

    Every loop starts at 0.  The innermost count is divided by the lane
    stride: extraction rewrote the lanes' accesses so that the innermost
    variable indexes blocks.  A negative count runs its loop zero times, as
    in software.
    """
    if not trips:
        raise ValueError("at least one loop required")
    stride = g.remainder.factor if g.remainder is not None else 1
    counts = [max(n, 0) for _, n in trips]
    counts[-1] //= stride
    return counts, [0] * len(counts)


def _supplied(arrays: dict[str, np.ndarray], name: str) -> np.ndarray:
    if name not in arrays:
        raise OutOfBounds(f"array {name!r} not supplied")
    return arrays[name]


def _view(arr: np.ndarray, binding: IoBinding, loop: dict[str, int],
          counts: list[int], starts: list[int]) -> np.ndarray:
    """The elements ``binding`` accesses over a box, as a view of ``arr``.

    ``loop`` maps each loop variable to its position in ``counts``.  The
    view's shape is ``counts``; its element at n is the one accessed when
    each loop variable is its start plus n.  A loop variable's byte stride
    is the sum over dimensions of its coefficient times the array's stride
    there, which covers lane strides, swapped and multi-variable subscripts,
    negative coefficients and (stride 0) reads the variable does not index.
    Raises OutOfBounds when the access leaves the array anywhere in the box:
    each dimension is checked at its affine extremes.

    Over an array that is one C- or Fortran-ordered block, the view is made
    by the ``np.ndarray`` constructor on the array's memory, at the origin
    element's byte offset.  That constructor takes only a contiguous buffer,
    so a sliced or reversed array goes through ``as_strided`` from the
    origin element instead, which costs several times as much per view.
    """
    if arr.ndim != len(binding.access):
        raise OutOfBounds(f"array {binding.array} has rank {arr.ndim}, "
                          f"access has {len(binding.access)} dims")
    shape, steps = arr.shape, arr.strides
    empty = 0 in counts
    origin = []
    offset = 0  # of the origin element, in bytes
    strides = [0] * len(counts)
    for dim, expr in enumerate(binding.access):
        first, down, up = expr.const, 0, 0
        for var, coeff in expr.terms:
            i = loop.get(var)
            if i is None:
                raise OutOfBounds(f"access uses unknown loop variable {var!r}")
            first += coeff * starts[i]
            span = coeff * (counts[i] - 1)
            if span < 0:
                down += span
            else:
                up += span
            strides[i] += coeff * steps[dim]
        if not empty and (first + down < 0 or first + up >= shape[dim]):
            raise OutOfBounds(
                f"{binding.array} dim {dim}: index range "
                f"[{first + down},{first + up}] outside extent {shape[dim]}")
        origin.append(first)
        offset += first * steps[dim]
    if empty:
        return np.empty(counts, dtype=arr.dtype)
    if arr.flags.forc:
        return np.ndarray(counts, arr.dtype, arr, offset, strides)
    at_origin = arr[tuple(slice(o, o + 1) for o in origin)]
    return np.lib.stride_tricks.as_strided(at_origin, counts, strides)


def _loop_positions(trips: list[tuple[str, int]]) -> dict[str, int]:
    return {var: i for i, (var, _) in enumerate(trips)}


def _gather(reads: tuple[tuple[int, IoBinding], ...],
            arrays: dict[str, np.ndarray], trips: list[tuple[str, int]],
            counts: list[int], starts: list[int]) -> dict[int, np.ndarray]:
    loop = _loop_positions(trips)
    streams: dict[int, np.ndarray] = {}
    for nid, binding in reads:
        view = _view(_supplied(arrays, binding.array), binding, loop, counts, starts)
        streams[nid] = np.array(view, dtype=np.int32, order="C").reshape(-1)
    return streams


def _scatter(writes: tuple[tuple[int, IoBinding], ...],
             outputs: dict[int, np.ndarray], arrays: dict[str, np.ndarray],
             trips: list[tuple[str, int]], counts: list[int],
             starts: list[int]) -> None:
    """Write each Output node's stream into ``arrays`` in place.

    Extraction makes every write subscript a distinct loop variable plus a
    constant, so no two positions of one output share an element.
    """
    loop = _loop_positions(trips)
    length = math.prod(counts)
    for nid, binding in writes:
        if nid not in outputs:
            raise UnconfiguredTag(f"report carries no stream for output {nid}")
        stream = np.asarray(outputs[nid])
        if len(stream) != length:
            raise LengthMismatch(
                f"output {nid}: stream length {len(stream)} != domain {length}")
        view = _view(_supplied(arrays, binding.array), binding, loop, counts, starts)
        view[...] = stream.astype(np.int32, copy=False).reshape(counts)


def build_streams(g: DataFlowGraph, arrays: dict[str, np.ndarray],
                  trips: list[tuple[str, int]],
                  io: Optional[GraphIo] = None) -> dict[int, np.ndarray]:
    """Gather one tagged input stream per Input node over the iteration domain.

    ``trips`` lists (loop var, trip count) outer to inner.  Streams cover the
    unrolled steady state only; leftover innermost iterations (the graph's
    remainder annotation) are the epilogue's job.  Constants folded into the
    configuration are not streamed, nor are Inputs that nothing reads: the
    placer binds no port for them.  Each stream is a fresh 1-D int32 array,
    one position per point of the domain in row-major order.  ``io`` is
    ``graph_io(g)``, built here when not given.
    """
    reads = (io or graph_io(g)).reads
    return _gather(reads, arrays, trips, *_steady_box(g, trips))


def write_back(g: DataFlowGraph, report: RunReport,
               arrays: dict[str, np.ndarray], trips: list[tuple[str, int]],
               io: Optional[GraphIo] = None) -> dict[str, np.ndarray]:
    """Scatter output streams through each Output node's access function.

    Returns a new mapping; written arrays are fresh copies, others pass
    through.  Epilogue iterations (remainder) are left untouched.  ``io`` is
    ``graph_io(g)``, built here when not given.
    """
    io = io or graph_io(g)
    out = dict(arrays)
    for name in io.written:
        out[name] = np.array(_supplied(out, name), copy=True)
    _scatter(io.writes, report.outputs, out, trips, *_steady_box(g, trips))
    return out


def run_epilogue(g: DataFlowGraph, program: Program,
                 arrays: dict[str, np.ndarray], trips: list[tuple[str, int]],
                 leftover: int, io: Optional[GraphIo] = None) -> None:
    """Run the last ``leftover`` iterations of the innermost loop on the host.

    ``g`` is the kernel's unroll-1 graph, ``program`` is ``lower_dfg(g)``
    and ``io`` is ``graph_io(g)``, built here when not given.  Every outer
    iteration is covered: the box is the leftover columns, which are
    gathered, run through the blocked loop and scattered.  Results are
    written into ``arrays`` in place, so its written arrays must be the
    call's own copies, as ``write_back`` returns them.  Nothing crosses the
    modelled wire, and no RunReport is made.  Raises OutOfBounds as a
    gather does.
    """
    io = io or graph_io(g)
    counts = [n for _, n in trips]
    starts = [0] * len(trips)
    counts[-1], starts[-1] = leftover, trips[-1][1] - leftover
    streams = _gather(io.reads, arrays, trips, counts, starts)
    outputs = _run_blocked(program, streams, math.prod(counts))
    _scatter(io.writes, outputs, arrays, trips, counts, starts)
