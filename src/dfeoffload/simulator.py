"""Functional simulation of a configured overlay over tagged value streams.

The configuration is lowered once into a flat instruction program (one
instruction per active functional unit, pass-through routing collapsed by
origin tracing), then executed position-synchronously by the stream engine.
Wire traffic is accounted in 128-bit tagged frames carrying one 32-bit value
each, so every transferred word costs 16 bytes on the wire: 4x the payload.

The host side of a run interprets nothing per element and builds no
full-length input stream.  A gather or scatter goes through a strided view of
the array (one per access, bounds checked at the access's affine extremes),
never through index arrays.  The run copies each block of positions straight
from the gather's views into the engine's scratch, so each input value is
copied once, and a read that a loop does not index (a stride-0 view) is read
in place rather than expanded.  What a gather or scatter needs of the graph
(``GraphIo``: the streamed Inputs, the Outputs and the written arrays) is
listed once per graph, so a call on a cached mapping does not rescan it.  The
engine runs over blocks of at most ``_BLOCK`` positions, so its scratch stays
small whatever the stream length.  ``lower_dfg`` lowers a graph for the host
without placement, and ``run_epilogue`` runs the unroll-1 graph so lowered
over the leftover innermost iterations of an unrolled call.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import engine
from .dfg import DataFlowGraph, IoBinding, LengthMismatch, NodeKind, OpCode
from .overlay import Origin, OverlayConfig, Pin, trace_config

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
    config lowers it here first.  One ``trace_config`` pass both checks the
    config and resolves each wired pin and output to its origin, and the
    program is built from that pass.  Raises InvalidConfig on any violation.
    Slots go to the border inputs by port, then to the FU results and then
    to the masks, each by cell.
    """
    trace = trace_config(cfg)
    if trace.violations:
        raise InvalidConfig("; ".join(map(repr, trace.violations)))

    slot: dict[Origin, int] = {}  # a border input port or an FU cell -> its slot
    input_slots: dict[int, int] = {}
    for port, tag in sorted(cfg.io_in.items()):
        input_slots[tag] = slot[port] = len(slot)
    fus = sorted(trace.order)
    for rc in fus:
        slot[rc] = len(slot)
    operand = {key: slot[origin] for key, (origin, _) in trace.pins.items()}
    n_slots = len(slot)
    const_fill: list[tuple[int, int]] = []
    for rc in fus:
        if cfg.cells[rc].mask is not None:
            pin, value = cfg.cells[rc].mask
            operand[(rc, pin)] = n_slots
            const_fill.append((n_slots, value))
            n_slots += 1

    # a border input arrives at depth 0, and an FU result one step after
    # its latest operand; each output a value passes adds its hop
    depth_fu: dict[Origin, int] = {}
    rows = []
    for rc in trace.order:
        pin_depth = 0
        for pin in Pin:
            if (rc, pin) in trace.pins:
                origin, hops = trace.pins[(rc, pin)]
                pin_depth = max(pin_depth, depth_fu.get(origin, 0) + hops)
        depth_fu[rc] = pin_depth + 1
        # operand 0 stands for a pin the op code does not use
        rows.append((int(cfg.cells[rc].fu_op), slot[rc],
                     *(operand.get((rc, pin), 0) for pin in Pin)))

    output_slots: dict[int, int] = {}
    depth = 0
    for port, tag in sorted(cfg.io_out.items()):
        origin, hops = trace.outputs[port]
        output_slots[tag] = slot[origin]
        depth = max(depth, depth_fu.get(origin, 0) + hops + 1)

    instrs = np.array(rows, dtype=np.int32).reshape(len(rows), 5)
    return Program(n_slots, instrs, const_fill, input_slots, output_slots, depth)


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


def _pieces(shape: tuple[int, ...]):
    """Tile a box of ``shape`` into pieces of at most _BLOCK positions.

    Yields (index, piece shape) in row-major order.  An index is leading
    integers plus a slice of the next axis, which takes whole rows of the
    axes after it: the axis sliced is the outermost whose rows fit in
    _BLOCK, and an innermost row wider than _BLOCK is itself sliced.  A 1-D
    box is cut every _BLOCK positions.
    """
    if 0 in shape:
        return
    axis, row = len(shape) - 1, 1
    while axis > 0 and row * shape[axis] <= _BLOCK:
        row *= shape[axis]
        axis -= 1
    step, rest = _BLOCK // row, shape[axis + 1:]
    for lead in itertools.product(*map(range, shape[:axis])):
        for lo in range(0, shape[axis], step):
            hi = min(lo + step, shape[axis])
            yield (*lead, slice(lo, hi)), (hi - lo, *rest)


def _run_blocked(program: Program, streams: dict[int, np.ndarray],
                 shape: tuple[int, ...]) -> dict[int, np.ndarray]:
    """Run ``program`` over a box of ``shape``, one piece at a time.

    Every stream has ``shape``: a 1-D stream or a strided view of an array.
    Each piece's inputs are copied straight from the streams into rows of an
    (n_slots, _BLOCK) scratch array, cast to int32 on the way, the engine
    runs on it, and its output slots are copied out.  Outputs are fresh 1-D
    int32 streams, one position per point of the box in row-major order.
    """
    length = math.prod(shape)
    values = np.zeros((program.n_slots, min(length, _BLOCK)), dtype=np.int32)
    for slot, value in program.const_fill:
        values[slot] = value
    inputs = [(slot, streams[tag]) for tag, slot in program.input_slots.items()]
    outputs = {tag: np.empty(length, dtype=np.int32) for tag in program.output_slots}
    lo = 0
    for index, piece in _pieces(shape):
        hi = lo + math.prod(piece)
        block = values[:, :hi - lo]
        for slot, stream in inputs:
            block[slot].reshape(piece)[...] = stream[index]
        if len(program.instrs):
            engine.get_runner()(program.instrs, block)
        for tag, slot in program.output_slots.items():
            outputs[tag][lo:hi] = block[slot]
        lo = hi
    return outputs


def run_compiled(program: Program, streams: dict[int, np.ndarray]) -> RunReport:
    """Execute a lowered program over input streams keyed by tag.

    The streams share one shape: 1-D streams as ``build_streams`` makes
    them, or the N-D views ``stream_views`` makes, read in row-major order
    without a full-length copy.  A run covers ``prod(shape)`` positions, and
    its output streams are fresh 1-D int32 arrays of that length.
    """
    missing = set(program.input_slots) - set(streams)
    extra = set(streams) - set(program.input_slots)
    if missing or extra:
        raise UnconfiguredTag(f"missing input tags {sorted(missing)}, "
                              f"unexpected {sorted(extra)}")
    streams = {tag: np.asarray(s) for tag, s in streams.items()}
    shapes = {s.shape for s in streams.values()}
    if len(shapes) > 1:
        raise LengthMismatch(f"input stream shapes differ: {sorted(shapes)}")
    shape = shapes.pop() if shapes else (0,)

    outputs = _run_blocked(program, streams, shape)
    length = math.prod(shape)
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


def stream_length(g: DataFlowGraph, trips: list[tuple[str, int]]) -> int:
    """Stream positions per run: the size of the unrolled steady-state box."""
    return math.prod(_steady_box(g, trips)[0])


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
    """Each read's view over the box, keyed by node id; every view is built
    and bounds checked before this returns."""
    loop = _loop_positions(trips)
    return {nid: _view(_supplied(arrays, binding.array), binding, loop, counts, starts)
            for nid, binding in reads}


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


def stream_views(g: DataFlowGraph, arrays: dict[str, np.ndarray],
                 trips: list[tuple[str, int]],
                 io: Optional[GraphIo] = None) -> dict[int, np.ndarray]:
    """One input stream per Input node over the iteration domain, as a view.

    ``trips`` lists (loop var, trip count) outer to inner.  Streams cover the
    unrolled steady state only; leftover innermost iterations (the graph's
    remainder annotation) are the epilogue's job.  Constants folded into the
    configuration are not streamed, nor are Inputs that nothing reads: the
    placer binds no port for them.  Each stream is a strided view of its
    array (or an empty array) of the domain's shape, one loop per axis, in
    the array's dtype; nothing is copied, and a read that does not use a
    loop variable has stride 0 along it.  ``run_compiled`` takes the views
    as they are.  Raises OutOfBounds, before any view is returned, when an
    access leaves its array.  ``io`` is ``graph_io(g)``, built here when not
    given.
    """
    reads = (io or graph_io(g)).reads
    return _gather(reads, arrays, trips, *_steady_box(g, trips))


def build_streams(g: DataFlowGraph, arrays: dict[str, np.ndarray],
                  trips: list[tuple[str, int]],
                  io: Optional[GraphIo] = None) -> dict[int, np.ndarray]:
    """``stream_views`` copied out: each stream a fresh 1-D int32 array, one
    position per point of the domain in row-major order, as the frames dump
    writes them.
    """
    return {nid: np.array(view, dtype=np.int32, order="C").reshape(-1)
            for nid, view in stream_views(g, arrays, trips, io).items()}


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
    iteration is covered: the box is the leftover columns.  Their views are
    built and bounds checked first, the blocked run copies from them, and
    the outputs are scattered once the whole run is done, so no read sees a
    write.  Results are written into ``arrays`` in place, so its written
    arrays must be the call's own copies, as ``write_back`` returns them.
    Nothing crosses the modelled wire, and no RunReport is made.  Raises
    OutOfBounds as a gather does, before anything is written.
    """
    io = io or graph_io(g)
    counts = [n for _, n in trips]
    starts = [0] * len(trips)
    counts[-1], starts[-1] = leftover, trips[-1][1] - leftover
    views = _gather(io.reads, arrays, trips, counts, starts)
    outputs = _run_blocked(program, views, tuple(counts))
    _scatter(io.writes, outputs, arrays, trips, counts, starts)
