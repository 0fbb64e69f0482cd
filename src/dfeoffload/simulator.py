"""Functional simulation of a configured overlay over tagged value streams.

The configuration is lowered once into a flat instruction program (one
instruction per active functional unit, pass-through routing collapsed by
origin tracing), then executed position-synchronously by the stream engine.
Wire traffic is accounted in 128-bit tagged frames carrying one 32-bit value
each, so every transferred word costs 16 bytes on the wire: 4x the payload.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import engine
from .dfg import AffineExpr, DataFlowGraph, LengthMismatch
from .overlay import (FU, BorderOrigin, CellOrigin, Direction, Origin,
                      OverlayConfig, Pin, trace_port, validate_config)

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
    """Validate and lower a configuration to a flat execution program."""
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
                key = (origin.r, origin.c, origin.side)
                if key not in border_slot:
                    raise InvalidConfig(f"border input {key} carries no tag")
                slot = border_slot[key]
            else:
                slot = fu_slot[(origin.r, origin.c)]
            resolved[(rc, pin)] = (slot, hops, origin)

    # order functional units by data dependency
    deps: dict[tuple[int, int], set] = {rc: set() for rc, _ in used}
    for (rc, pin), (_, _, origin) in resolved.items():
        if isinstance(origin, CellOrigin):
            deps[rc].add((origin.r, origin.c))
    order: list[tuple[int, int]] = []
    remaining = dict(deps)
    while remaining:
        ready = sorted(rc for rc, ds in remaining.items() if not ds)
        if not ready:
            raise InvalidConfig("functional units form a cycle")
        for rc in ready:
            order.append(rc)
            del remaining[rc]
        for ds in remaining.values():
            ds.difference_update(ready)

    depth_fu: dict[tuple[int, int], int] = {}
    rows = []
    cells = dict(cfg.cells)
    for rc in order:
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
                key = (origin.r, origin.c, origin.side)
                if key not in border_slot:
                    raise InvalidConfig(f"border input {key} carries no tag")
                output_slots[tag] = border_slot[key]
                depth = max(depth, hops + 1)
            else:
                output_slots[tag] = fu_slot[(origin.r, origin.c)]
                depth = max(depth, depth_fu[(origin.r, origin.c)] + hops + 1)

    instrs = np.array(rows, dtype=np.int32).reshape(len(rows), 5)
    return Program(slot_count, instrs, const_fill, input_slots, output_slots, depth)


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

    values = np.zeros((program.n_slots, length), dtype=np.int32)
    for slot, value in program.const_fill:
        values[slot, :] = value
    for tag, slot in program.input_slots.items():
        values[slot, :] = np.asarray(streams[tag], dtype=np.int32)
    if length and len(program.instrs):
        engine.get_runner()(program.instrs, values)

    outputs = {tag: values[slot].copy()
               for tag, slot in program.output_slots.items()}
    frames_in = len(program.input_slots) * length
    frames_out = len(program.output_slots) * length
    return RunReport(
        outputs=outputs,
        frames_in=frames_in,
        frames_out=frames_out,
        cycles=program.depth + length,
        bytes_on_wire=FRAME_SIZE * (frames_in + frames_out),
    )


def run(cfg: OverlayConfig, streams: dict[int, np.ndarray]) -> RunReport:
    return run_compiled(compile_config(cfg), streams)


# -- stream gather / scatter ---------------------------------------------------------


def _domain(trips: list[tuple[str, int]], stride: int):
    """Vectorized loop-variable environment for the unrolled steady state.

    The innermost count is divided by the lane stride; lane access functions
    were rewritten at extraction so the innermost variable indexes blocks.
    A negative count runs its loop zero times, as in software.
    """
    if not trips:
        raise ValueError("at least one loop required")
    counts = [max(n, 0) for _, n in trips]
    counts[-1] //= stride
    grids = np.indices(counts).reshape(len(counts), -1)
    env = {var: grids[i] for i, (var, _) in enumerate(trips)}
    return env, int(grids.shape[1])


def _eval_affine_vec(expr: AffineExpr, env: dict[str, np.ndarray],
                     length: int) -> np.ndarray:
    total = np.full(length, expr.const, dtype=np.int64)
    for var, coeff in expr.terms:
        if var not in env:
            raise OutOfBounds(f"access uses unknown loop variable {var!r}")
        total = total + coeff * env[var]
    return total


def _gather_indices(binding, env, length, arrays):
    if binding.array not in arrays:
        raise OutOfBounds(f"array {binding.array!r} not supplied")
    arr = arrays[binding.array]
    if arr.ndim != len(binding.access):
        raise OutOfBounds(f"array {binding.array} has rank {arr.ndim}, "
                          f"access has {len(binding.access)} dims")
    idxs = []
    for dim, expr in enumerate(binding.access):
        idx = _eval_affine_vec(expr, env, length)
        if length and (idx.min() < 0 or idx.max() >= arr.shape[dim]):
            raise OutOfBounds(
                f"{binding.array} dim {dim}: index range "
                f"[{idx.min()},{idx.max()}] outside extent {arr.shape[dim]}")
        idxs.append(idx)
    return arr, tuple(idxs)


def build_streams(g: DataFlowGraph, arrays: dict[str, np.ndarray],
                  trips: list[tuple[str, int]]) -> dict[int, np.ndarray]:
    """Gather one tagged input stream per Input node over the iteration domain.

    ``trips`` lists (loop var, trip count) outer to inner.  Streams cover the
    unrolled steady state only; leftover innermost iterations (the graph's
    remainder annotation) are the software epilogue's job.  Constants folded
    into the configuration are not streamed, nor are Inputs that nothing
    reads: the placer binds no port for them.
    """
    stride = g.remainder.factor if g.remainder is not None else 1
    env, length = _domain(trips, stride)
    read = {e.src for e in g.edges}
    streams: dict[int, np.ndarray] = {}
    for nid in g.inputs():
        if nid not in read:
            continue
        binding = g.io_bindings[nid]
        arr, idxs = _gather_indices(binding, env, length, arrays)
        streams[nid] = arr[idxs].astype(np.int32)
    return streams


def write_back(g: DataFlowGraph, report: RunReport,
               arrays: dict[str, np.ndarray],
               trips: list[tuple[str, int]]) -> dict[str, np.ndarray]:
    """Scatter output streams through each Output node's access function.

    Returns a new mapping; written arrays are fresh copies, others pass
    through.  Extraction guarantees each element is written at most once.
    Epilogue iterations (remainder) are left untouched.
    """
    stride = g.remainder.factor if g.remainder is not None else 1
    env, length = _domain(trips, stride)
    out = dict(arrays)
    copied: set[str] = set()
    for nid in g.outputs():
        binding = g.io_bindings[nid]
        if nid not in report.outputs:
            raise UnconfiguredTag(f"report carries no stream for output {nid}")
        stream = np.asarray(report.outputs[nid])
        if len(stream) != length:
            raise LengthMismatch(
                f"output {nid}: stream length {len(stream)} != domain {length}")
        if binding.array not in copied:
            if binding.array not in out:
                raise OutOfBounds(f"array {binding.array!r} not supplied")
            out[binding.array] = np.array(out[binding.array], copy=True)
            copied.add(binding.array)
        arr = out[binding.array]
        _, idxs = _gather_indices(binding, env, length, {binding.array: arr})
        arr[idxs] = stream.astype(np.int32)
    return out
