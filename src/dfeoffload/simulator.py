"""Functional simulation of a configured overlay over tagged value streams.

The configuration is lowered once into a flat instruction program (one
instruction per active functional unit, pass-through routing collapsed by
origin tracing), then executed position-synchronously by the stream engine.
Wire traffic is accounted in 128-bit tagged frames carrying one 32-bit value
each, so every transferred word costs 16 bytes on the wire: 4x the payload.

The host side of a run interprets nothing per element and builds no
full-length input stream.  A gather or scatter goes through a strided view of
the array (one per access, bounds checked at the access's affine extremes),
never through index arrays.  The stream layer reads nothing of a graph but
its ``GraphIo``: the streamed Inputs, the Outputs, the arrays they access and
the lane stride, listed once per graph, so a call on a cached mapping does
not rescan it.  The engine runs over blocks of at most ``_BLOCK`` positions,
so its scratch stays small whatever the stream length; a larger box is cut
into pieces.  Each block of positions is copied straight from the gather's
views into the engine's scratch, a stride-0 view broadcast on the way.

As the overlay holds no more than the values in flight, the scratch holds
only the live values: a ``RowPlan``, derived from the program and memoized
on it, gives each value a row only from its load or its instruction to its
last reader, and then hands the row on (``_row_plan``).  Constants and the
pinned inputs keep rows of their own and are filled once per run.  An input
is pinned when its view has stride 0 along every axis the pieces step
through (such as gemm's ``B[k][j]``, cut along ``i``), so that every piece
reads the same rows; on a box of one piece, every input is, so its inputs
are all copied up front and its outputs are the scratch's rows.  Every
other input is loaded from its piece's slice just before its first reader.
``lower_dfg`` lowers a graph for the host without placement, and
``run_epilogue`` runs the unroll-1 graph so lowered over the ``leftover``
innermost iterations of an unrolled call.

Each ``GraphIo`` memoizes its views' layouts (byte offset and strides, bounds
already checked) per call signature: the trip counts, the box, and the
shape, strides and dtype of each array accessed.  It keeps the
``CACHE_CAPACITY`` most recently used signatures, so a call that repeats one
builds each view with one ``np.ndarray`` call and redoes no per-dimension
sums.  Arrays that are not one C- or Fortran-ordered block, and accesses that
fail their bounds check, bypass the memo: they are computed on every call,
and an out-of-range access raises the same OutOfBounds each time.
"""

from __future__ import annotations

import itertools
import math
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Hashable, Optional

import numpy as np

from . import engine
from .dfg import (OP_ARITY, DataFlowGraph, IoBinding, LengthMismatch, NodeKind,
                  OpCode)
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


@dataclass
class Program:
    """Lowered overlay: instruction rows (op, dst, x, y, z) over value slots.

    No instruction's ``dst`` is an input slot or a constant slot, and no two
    instructions write one slot: each slot names one value.  The engine
    does not run the slots themselves but a ``RowPlan`` derived from them,
    which keeps only the live values in rows; ``plans`` memoizes the plans
    per set of pinned inputs (``_row_plan``).
    """

    n_slots: int
    instrs: np.ndarray
    const_fill: list[tuple[int, int]]
    input_slots: dict[int, int]  # stream tag -> slot
    output_slots: dict[int, int]
    depth: int
    plans: Lru = field(default_factory=lambda: Lru(CACHE_CAPACITY),
                       compare=False, repr=False)


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


# Positions per engine call.  The engine's scratch is n_rows x _BLOCK int32,
# 64 KB per row, whatever the stream length.
_BLOCK = 1 << 14


def _pieces(shape: tuple[int, ...]):
    """Tile a box of ``shape`` into pieces of at most _BLOCK positions.

    Yields (index, piece shape) in row-major order.  A box of at most
    _BLOCK positions is one piece, indexed by ``()``.  Otherwise an index is
    leading integers plus a slice of the next axis, which takes whole rows
    of the axes after it: the axis sliced is the outermost whose rows fit
    in _BLOCK, and an innermost row wider than _BLOCK is itself sliced.  A
    1-D box is cut every _BLOCK positions.
    """
    if 0 in shape:
        return
    if math.prod(shape) <= _BLOCK:
        yield (), shape
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


@dataclass(frozen=True)
class RowPlan:
    """A ``Program`` over the rows of the engine's scratch, which hold only
    the values still live.

    ``const_fill`` is (row, value) and ``pinned`` (row, input tag): rows
    filled once per run and never reused.  ``steps`` are the engine's
    (op, dst, x, y, z) over rows: the program's instructions in order, with
    a LOAD step before the first reader of each input in ``loaded``, whose
    x indexes ``loaded``.  ``outputs`` maps each output tag to the
    row that holds it once the steps are done.
    """

    n_rows: int
    const_fill: tuple[tuple[int, int], ...]
    pinned: tuple[tuple[int, int], ...]
    loaded: tuple[int, ...]
    steps: tuple[tuple[int, int, int, int, int], ...]
    outputs: dict[int, int]


def _row_plan(program: Program, pinned: tuple[int, ...]) -> RowPlan:
    """Assign rows to the live values of ``program`` by a linear scan in
    instruction order, as a register allocator assigns registers.

    Constants and the ``pinned`` inputs (tags) get rows of their own.  Every
    other input is loaded into a free row just before the first instruction
    that reads it.  A row is freed after the last instruction that reads its
    value, once that instruction's result has a row: no instruction writes
    over its own operands, as a ufunc writing into an operand measured
    about 0.2 us slower on a short piece.  A value no instruction reads is
    freed as soon as it is written, and an output stays live to the end.
    An input that nothing reads and no output names gets no row.  The most
    recently freed row is taken first.
    """
    instrs = program.instrs.tolist()
    end = len(instrs)  # the outputs' reader: the copy out after the last step
    reads = [(x, y, z)[:OP_ARITY[op]] for op, _, x, y, z in instrs]
    reads.append(tuple(program.output_slots.values()))
    last = {slot: i for i, slots in enumerate(reads) for slot in slots}
    row: dict[int, int] = {}  # slot -> the row that holds its value
    free: list[int] = []
    n_rows = 0

    def take(slot: int) -> int:
        nonlocal n_rows
        if free:
            row[slot] = free.pop()
        else:
            row[slot], n_rows = n_rows, n_rows + 1
        return row[slot]

    const_fill = tuple((take(slot), value) for slot, value in program.const_fill)
    pinned_rows = tuple((take(program.input_slots[tag]), tag) for tag in pinned
                        if program.input_slots[tag] in last)
    fixed = set(row)
    streamed = {slot: tag for tag, slot in program.input_slots.items()
                if slot in last and slot not in fixed}
    loaded: list[int] = []
    steps = []
    for i, slots in enumerate(reads):
        for slot in slots:
            if slot in streamed and slot not in row:
                steps.append((engine.LOAD, take(slot), len(loaded), 0, 0))
                loaded.append(streamed[slot])
        if i == end:
            break
        op, dst = instrs[i][:2]
        operands = [row[slot] for slot in slots]
        steps.append((op, take(dst), *operands, *[0] * (3 - len(operands))))
        for slot in dict.fromkeys(slots):
            if last[slot] == i and slot not in fixed:
                free.append(row[slot])
        if dst not in last:
            free.append(row[dst])
    return RowPlan(n_rows, const_fill, pinned_rows, tuple(loaded),
                   tuple(steps), {tag: row[slot] for tag, slot in program.output_slots.items()})


def _run_blocked(program: Program, streams: dict[int, np.ndarray],
                 shape: tuple[int, ...]) -> dict[int, np.ndarray]:
    """Run ``program`` over a box of ``shape``, one piece at a time, through
    its row plan.

    Every stream has ``shape``: a 1-D stream or a strided view of an array.
    An input is pinned when its stride is 0 along every axis the piece
    index covers, so that every piece reads the same values: on a box of
    one piece, whose index covers no axis, every input.  The plan for the
    program and its pinned inputs is memoized on ``program.plans``, and the
    scratch is (n_rows, _BLOCK) int32.  The constants are filled and the
    pinned inputs copied once per run, cast to int32 on the way.  The first
    piece is a full one, and every later piece, the last and shorter one
    too, reads a prefix of the same rows, which nothing else is given.  The
    engine runs once per piece and loads every other input from the
    piece's slice of its stream just before its first reader.  Outputs are
    1-D int32 streams, one position per point of the box in row-major
    order.  A box of one piece runs in a scratch of its own width, and its
    outputs are the scratch's rows; otherwise each piece's output rows are
    copied into fresh streams.
    """
    length = math.prod(shape)
    one_piece = length <= _BLOCK
    if one_piece:
        pinned = tuple(program.input_slots)
    else:
        cut = len(next(_pieces(shape))[0])  # the axes a piece index covers
        pinned = tuple(tag for tag in program.input_slots
                       if not any(streams[tag].strides[:cut]))
    plan = program.plans.get(pinned)
    if plan is None:
        plan = _row_plan(program, pinned)
        program.plans.put(pinned, plan)
    values = np.zeros((plan.n_rows, min(length, _BLOCK)), dtype=np.int32)
    for row, value in plan.const_fill:
        values[row] = value
    outputs = {tag: values[row] if one_piece else np.empty(length, dtype=np.int32)
               for tag, row in plan.outputs.items()}
    loaded = [streams[tag] for tag in plan.loaded]
    lo = 0
    for index, piece in _pieces(shape):
        hi = lo + math.prod(piece)
        block = values if one_piece else values[:, :hi - lo]
        if not lo:
            rows = block.reshape(-1, *piece)
            for row, tag in plan.pinned:
                rows[row] = streams[tag][index] if index else streams[tag]
        if plan.steps:
            engine.get_runner()(plan.steps, block, [stream[index] for stream in loaded])
        if not one_piece:
            for tag, row in plan.outputs.items():
                outputs[tag][lo:hi] = block[row]
        lo = hi
    return outputs


def run_compiled(program: Program, streams: dict[int, np.ndarray]) -> RunReport:
    """Execute a lowered program over input streams keyed by tag.

    The streams share one shape: 1-D streams as ``build_streams`` makes
    them, or the N-D views ``stream_views`` makes, read in row-major order
    without a full-length copy.  A run covers ``prod(shape)`` positions, and
    its output streams are 1-D int32 arrays of that length, owned by the
    report.
    """
    if streams.keys() != program.input_slots.keys():
        missing = program.input_slots.keys() - streams.keys()
        extra = streams.keys() - program.input_slots.keys()
        raise UnconfiguredTag(f"missing input tags {sorted(missing)}, "
                              f"unexpected {sorted(extra)}")
    streams = {tag: np.asarray(s) for tag, s in streams.items()}
    shapes = {s.shape for s in streams.values()}
    if len(shapes) > 1:
        raise LengthMismatch(f"input stream shapes differ: {sorted(shapes)}")
    shape = shapes.pop() if shapes else (0,)

    outputs = _run_blocked(program, streams, shape)
    length = math.prod(shape)
    return RunReport(outputs, frames_in=len(program.input_slots) * length,
                     frames_out=len(program.output_slots) * length,
                     cycles=program.depth + length)


# -- stream gather / scatter ---------------------------------------------------------
#
# An iteration box is a start and a count per loop, outer to inner.  A gather
# or scatter reads or writes a strided view of the array over the box, and
# its positions are the box's points in row-major order.


# Entries an LRU keeps: a runtime's mappings, analyses and routing failures,
# a GraphIo's view plans and a Program's row plans.
CACHE_CAPACITY = 32


class Lru:
    """A map of at most ``capacity`` keys that drops the least recently used.

    Every use holds its lock, so concurrent callers may share one.
    """

    def __init__(self, capacity: int):
        self._entries: OrderedDict = OrderedDict()
        self._capacity = capacity
        self._lock = threading.Lock()

    def get(self, key: Hashable):
        with self._lock:
            value = self._entries.get(key)
            if value is not None:
                self._entries.move_to_end(key)
            return value

    def put(self, key: Hashable, value) -> None:
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self._capacity:
                self._entries.popitem(last=False)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


@dataclass(frozen=True)
class GraphIo:
    """All that the stream layer reads of a graph.

    ``reads`` are the Inputs that some edge reads and ``writes`` the
    Outputs, each with its binding, in node id order; ``read`` and
    ``written`` are the sorted names of the arrays they access; ``factor``
    is the graph's unroll factor (its lane stride), or 1.  Built once per
    graph by ``graph_io``, so that a call on a cached mapping does not
    rescan the graph.  ``plans`` memoizes the views' layouts per call
    signature (``_views``).
    """

    reads: tuple[tuple[int, IoBinding], ...]
    writes: tuple[tuple[int, IoBinding], ...]
    read: tuple[str, ...]
    written: tuple[str, ...]
    factor: int
    plans: Lru = field(default_factory=lambda: Lru(CACHE_CAPACITY),
                       compare=False, repr=False)


def graph_io(g: DataFlowGraph) -> GraphIo:
    read = {e.src for e in g.edges}
    reads = tuple((nid, g.io_bindings[nid]) for nid in g.inputs() if nid in read)
    writes = tuple((nid, g.io_bindings[nid]) for nid in g.outputs())
    factor = g.remainder.factor if g.remainder is not None else 1
    return GraphIo(reads, writes, tuple(sorted({b.array for _, b in reads})),
                   tuple(sorted({b.array for _, b in writes})), factor)


def _box(io: GraphIo, trips: list[tuple[str, int]],
         leftover: Optional[int] = None) -> tuple[list[int], list[int]]:
    """(counts, starts) of the unrolled steady state, or with ``leftover``
    of the last ``leftover`` innermost iterations of every outer iteration.

    Every loop of the steady state starts at 0.  Its innermost count is
    divided by the lane stride: extraction rewrote the lanes' accesses so
    that the innermost variable indexes blocks.  A negative count runs its
    loop zero times, as in software.
    """
    if not trips:
        raise ValueError("at least one loop required")
    counts = [max(n, 0) for _, n in trips]
    starts = [0] * len(counts)
    if leftover is None:
        counts[-1] //= io.factor
    else:
        counts[-1], starts[-1] = leftover, counts[-1] - leftover
    return counts, starts


def stream_length(io: GraphIo, trips: list[tuple[str, int]]) -> int:
    """Stream positions per run: the size of the unrolled steady-state box."""
    return math.prod(_box(io, trips)[0])


def leftover(io: GraphIo, trips: list[tuple[str, int]]) -> int:
    """Innermost iterations the unrolled steady state leaves to the epilogue."""
    return trips[-1][1] % io.factor


def _supplied(arrays: dict[str, np.ndarray], name: str) -> np.ndarray:
    if name not in arrays:
        raise OutOfBounds(f"array {name!r} not supplied")
    return arrays[name]


def _layout(arr: np.ndarray, binding: IoBinding, loop: dict[str, int],
            counts: list[int], starts: list[int]
            ) -> tuple[int, tuple[int, ...], list[int]]:
    """Where ``binding`` accesses ``arr`` over a box: (byte offset, byte
    strides, index) of the view whose element at n is the one accessed when
    each loop variable is its start plus n.

    ``loop`` maps each loop variable to its position in ``counts``.  A loop
    variable's byte stride is the sum over dimensions of its coefficient
    times the array's stride there, which covers lane strides, swapped and
    multi-variable subscripts, negative coefficients and (stride 0) reads
    the variable does not index.  The offset and index are those of the
    origin element, the one accessed at the box's start; an empty box
    accesses nothing and has offset 0.  Raises OutOfBounds when the access
    leaves the array anywhere in the box: each dimension is checked at its
    affine extremes.
    """
    if arr.ndim != len(binding.access):
        raise OutOfBounds(f"array {binding.array} has rank {arr.ndim}, "
                          f"access has {len(binding.access)} dims")
    shape, steps = arr.shape, arr.strides
    empty = 0 in counts
    origin = []
    offset = 0
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
    return (0 if empty else offset), tuple(strides), origin


def _strided(arr: np.ndarray, counts: tuple[int, ...], strides: tuple[int, ...],
             origin: list[int]) -> np.ndarray:
    """A view of ``arr``, which is not one contiguous block, from its origin
    element: ``as_strided`` takes any array, at several times the cost of
    the ``np.ndarray`` constructor, which takes only a contiguous buffer."""
    if 0 in counts:
        return np.empty(counts, dtype=arr.dtype)
    at_origin = arr[tuple(slice(o, o + 1) for o in origin)]
    return np.lib.stride_tricks.as_strided(at_origin, counts, strides)


def _loop_positions(trips: list[tuple[str, int]]) -> dict[str, int]:
    return {var: i for i, (var, _) in enumerate(trips)}


def _views(io: GraphIo, writes: bool, arrays: dict[str, np.ndarray],
           trips: list[tuple[str, int]], leftover: Optional[int] = None
           ) -> tuple[tuple[int, ...], dict[int, np.ndarray]]:
    """The shape of the box ``_box(io, trips, leftover)`` and the view over
    it of each read (``writes`` false) or each write of ``io``, keyed by
    node id; every view is built and bounds checked before this returns.

    The layouts are memoized in ``io.plans``, keyed on the trips, the
    leftover and each named array's shape, strides and dtype: all that the
    box and every ``_layout`` depend on.  A hit builds each view with one
    ``np.ndarray`` call over the array's memory.  A miss computes the
    layouts, and stores them only when every named array is one C- or
    Fortran-ordered block, so a failed bounds check is never stored and
    raises the same OutOfBounds on every call.
    """
    bindings, names = (io.writes, io.written) if writes else (io.reads, io.read)
    try:
        key = (writes, leftover, tuple(trips),
               tuple([(a.shape, a.strides, a.dtype) for a in map(arrays.__getitem__, names)]))
    except KeyError:  # _supplied names the array
        key = None
    plan = io.plans.get(key)
    if plan is None:
        counts, starts = _box(io, trips, leftover)
        loop = _loop_positions(trips)
        layouts = [(nid, binding.array,
                    *_layout(_supplied(arrays, binding.array), binding, loop, counts, starts))
                   for nid, binding in bindings]
        shape = tuple(counts)
        if not all(arrays[name].flags.forc for name in names):
            return shape, {nid: _strided(arrays[name], shape, strides, origin)
                           for nid, name, _, strides, origin in layouts}
        plan = shape, tuple((nid, name, arrays[name].dtype, offset, strides)
                            for nid, name, offset, strides, _ in layouts)
        io.plans.put(key, plan)
    shape, entries = plan
    return shape, {nid: np.ndarray(shape, dtype, arrays[name], offset, strides)
                   for nid, name, dtype, offset, strides in entries}


def _scatter(io: GraphIo, outputs: dict[int, np.ndarray],
             arrays: dict[str, np.ndarray], trips: list[tuple[str, int]],
             leftover: Optional[int] = None) -> None:
    """Write each Output node's stream into ``arrays`` in place, over the
    box of ``_views``, once every write view is bounds checked.

    Extraction makes every write subscript a distinct loop variable plus a
    constant, so no two positions of one output share an element.
    """
    for nid, view in _views(io, True, arrays, trips, leftover)[1].items():
        if nid not in outputs:
            raise UnconfiguredTag(f"report carries no stream for output {nid}")
        stream = np.asarray(outputs[nid])
        if len(stream) != view.size:
            raise LengthMismatch(
                f"output {nid}: stream length {len(stream)} != domain {view.size}")
        view[...] = stream.astype(np.int32, copy=False).reshape(view.shape)


def stream_views(io: GraphIo, arrays: dict[str, np.ndarray],
                 trips: list[tuple[str, int]]) -> dict[int, np.ndarray]:
    """One input stream per read of ``io`` over the iteration domain, as a view.

    ``trips`` lists (loop var, trip count) outer to inner.  Streams cover the
    unrolled steady state only; the ``leftover`` innermost iterations are
    the epilogue's job.  Constants folded into the configuration are not
    streamed, nor are Inputs that nothing reads: the placer binds no port
    for them.  Each stream is a strided view of its array (or an empty
    array) of the domain's shape, one loop per axis, in the array's dtype;
    nothing is copied, and a read that does not use a loop variable has
    stride 0 along it.  ``run_compiled`` takes the views as they are.
    Raises OutOfBounds, before any view is returned, when an access leaves
    its array.  The layouts are memoized per call signature on ``io``.
    """
    return _views(io, False, arrays, trips)[1]


def build_streams(io: GraphIo, arrays: dict[str, np.ndarray],
                  trips: list[tuple[str, int]]) -> dict[int, np.ndarray]:
    """``stream_views`` copied out: each stream a fresh 1-D int32 array, one
    position per point of the domain in row-major order, as the frames dump
    writes them.
    """
    return {nid: np.array(view, dtype=np.int32, order="C").reshape(-1)
            for nid, view in stream_views(io, arrays, trips).items()}


def write_back(io: GraphIo, outputs: dict[int, np.ndarray],
               arrays: dict[str, np.ndarray], trips: list[tuple[str, int]]
               ) -> dict[str, np.ndarray]:
    """Scatter each Output's stream in ``outputs``, keyed by node id, through
    the access of its ``io`` write.

    Returns a new mapping; written arrays are fresh copies, others pass
    through.  The ``leftover`` iterations are left untouched.  The write
    views' layouts over the copies are memoized per call signature on ``io``.
    """
    out = dict(arrays)
    for name in io.written:
        out[name] = np.array(_supplied(out, name), copy=True)
    _scatter(io, outputs, out, trips)
    return out


def run_epilogue(io: GraphIo, program: Program,
                 arrays: dict[str, np.ndarray], trips: list[tuple[str, int]],
                 leftover: int) -> None:
    """Run the last ``leftover`` iterations of the innermost loop on the host.

    ``io`` is ``graph_io(g)`` and ``program`` is ``lower_dfg(g)`` of the
    kernel's unroll-1 graph ``g``.  Every outer iteration is covered: the
    box is the leftover columns.  Their views are built and bounds checked
    first (memoized on ``io`` as the gather's are), the blocked run copies
    from them, and the outputs are scattered once the whole run is done, so
    no read sees a write.  Results are written into ``arrays`` in place, so
    its written arrays must be the call's own copies, as ``write_back``
    returns them.  Nothing crosses the modelled wire, and no RunReport is
    made.  Raises OutOfBounds as a gather does, before anything is written.
    """
    shape, views = _views(io, False, arrays, trips, leftover)
    outputs = _run_blocked(program, views, shape)
    _scatter(io, outputs, arrays, trips, leftover)
