"""Parametric R x C dataflow-overlay model: cells, routing, configuration.

Cells sit on a Manhattan grid.  Each cell has four directional inputs, four
directional outputs, and one functional unit (FU).  Every output can forward
one of the other three inputs or the FU result; every FU pin can tap any
input or be masked with a stored constant (at most one mask per cell).  The
outward-facing sides of border cells are the only stream interfaces, so a
grid offers exactly 2*(R+C) input and 2*(R+C) output interfaces.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from enum import IntEnum
from typing import Iterator, NamedTuple, Optional, Union

from .dfg import INT32_MAX, INT32_MIN, OP_ARITY, OpCode, Violation


class Direction(IntEnum):
    N = 0
    E = 1
    S = 2
    W = 3


# (row step, column step) and the opposite side, per side
_DELTA = ((-1, 0), (0, 1), (1, 0), (0, -1))
_OPPOSITE = (Direction.S, Direction.W, Direction.N, Direction.E)


def opposite(d: Direction) -> Direction:
    return _OPPOSITE[d]


class Pin(IntEnum):
    IN1 = 0
    IN2 = 1
    SEL = 2


FU = "FU"  # out_sel source meaning "this cell's functional-unit output"

OutSel = Union[None, Direction, str]


_PINS = tuple(Pin)
_DIRECTIONS = tuple(Direction)
_UNWIRED = (None,) * len(_PINS)
_DISABLED = (None,) * len(_DIRECTIONS)
_UNSEEN = object()
# op code -> the FU pins it reads
_NEEDED = {code: _PINS[:arity] for code, arity in OP_ARITY.items()}


def _where(rc: tuple[int, int]) -> str:
    return f"cell ({rc[0]},{rc[1]})"


class UnroutedPort(LookupError):
    pass


@dataclass(frozen=True)
class OverlayShape:
    rows: int
    cols: int

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise ValueError("overlay must be at least 1x1")

    def cells(self) -> Iterator[tuple[int, int]]:
        for r in range(self.rows):
            for c in range(self.cols):
                yield (r, c)

    def in_bounds(self, r: int, c: int) -> bool:
        return 0 <= r < self.rows and 0 <= c < self.cols

    def neighbor(self, r: int, c: int, d: Direction) -> Optional[tuple[int, int]]:
        dr, dc = _DELTA[d]
        nr, nc = r + dr, c + dc
        return (nr, nc) if self.in_bounds(nr, nc) else None

    def io_capacity(self) -> tuple[int, int]:
        """(input interfaces, output interfaces): one per outward cell side."""
        n = 2 * (self.rows + self.cols)
        return n, n

    def border_ports(self) -> list[tuple[int, int, Direction]]:
        """All outward sides in a fixed order: N row, E col, S row, W col."""
        ports = []
        for c in range(self.cols):
            ports.append((0, c, Direction.N))
        for r in range(self.rows):
            ports.append((r, self.cols - 1, Direction.E))
        for c in range(self.cols):
            ports.append((self.rows - 1, c, Direction.S))
        for r in range(self.rows):
            ports.append((r, 0, Direction.W))
        return ports


def _fresh_out_sel() -> dict[Direction, OutSel]:
    return {d: None for d in Direction}


@dataclass
class CellConfig:
    fu_op: Optional[OpCode] = None
    fu_in1: Optional[Direction] = None
    fu_in2: Optional[Direction] = None
    fu_sel: Optional[Direction] = None
    mask: Optional[tuple[Pin, int]] = None  # one const-masked FU pin
    out_sel: dict[Direction, OutSel] = field(default_factory=_fresh_out_sel)

    def is_empty(self) -> bool:
        return (self.fu_op is None and self.mask is None
                and all(v is None for v in self.out_sel.values()))

    def pin_select(self, pin: Pin) -> Optional[Direction]:
        return (self.fu_in1, self.fu_in2, self.fu_sel)[pin]


@dataclass
class OverlayConfig:
    """A full overlay "bitstream": per-cell settings plus stream-tag bindings.

    Treat as immutable once built; all queries here are read-only.
    """

    shape: OverlayShape
    cells: dict[tuple[int, int], CellConfig]
    io_in: dict[tuple[int, int, Direction], int] = field(default_factory=dict)
    io_out: dict[tuple[int, int, Direction], int] = field(default_factory=dict)

    def cell(self, r: int, c: int) -> CellConfig:
        return self.cells[(r, c)]


def new_overlay(rows: int, cols: int) -> OverlayConfig:
    shape = OverlayShape(rows, cols)
    return OverlayConfig(shape, {rc: CellConfig() for rc in shape.cells()})


# Where a traced value comes from: a border input port (r, c, side), keyed as
# in ``OverlayConfig.io_in``, or the cell (r, c) whose FU produces it.
Origin = Union[tuple[int, int, Direction], tuple[int, int]]


def trace_port(cfg: OverlayConfig, cell: tuple[int, int],
               port: Direction) -> tuple[Origin, int]:
    """Walk an input pin backwards through pass-through outputs to its source.

    Returns the value's origin, a border input port or an FU cell, and the
    number of cell outputs the value passes on the way; raises UnroutedPort
    when the chain hits a disabled output or comes back to a port it passed
    (a loop of pass-through outputs).
    """
    r, c = cell
    d = port
    seen = set()
    while True:
        if (r, c, d) in seen:
            raise UnroutedPort(f"routing cycle at cell ({r},{c}) port {d.name}")
        seen.add((r, c, d))
        nb = cfg.shape.neighbor(r, c, d)
        if nb is None:
            return (r, c, d), len(seen) - 1
        sel = cfg.cell(*nb).out_sel[opposite(d)]
        if sel is None:
            raise UnroutedPort(f"cell ({nb[0]},{nb[1]}) output "
                               f"{opposite(d).name} is disabled")
        if sel == FU:
            return nb, len(seen)
        r, c = nb
        d = sel


def _fu_order(deps: dict[tuple[int, int], set[Origin]]
              ) -> Optional[list[tuple[int, int]]]:
    """The FU cells of ``deps`` in data-dependency order, or None on a cycle.

    ``deps`` maps each FU cell to the origins its pins read; origins that
    are not keys are ignored.  Each round takes every cell whose reads are
    all ordered, in cell order.
    """
    remaining = {rc: ds & deps.keys() for rc, ds in deps.items()}
    order: list[tuple[int, int]] = []
    while remaining:
        ready = sorted(rc for rc, ds in remaining.items() if not ds)
        if not ready:
            return None
        order.extend(ready)
        for rc in ready:
            del remaining[rc]
        for ds in remaining.values():
            ds.difference_update(ready)
    return order


class ConfigTrace(NamedTuple):
    """What one pass over a config finds.

    ``pins`` maps each wired FU pin, as (cell, Pin), and ``outputs`` each
    enabled cell output, as (r, c, side), to the (origin, hops) of its
    value, as ``trace_port`` gives them; an output of the FU result is its
    own cell at 0 hops.  A route that does not trace is a violation and has
    no entry.  ``order`` is the FU cells in data-dependency order, or None
    on a cycle or when cells are missing.
    """

    violations: list[Violation]
    pins: dict[tuple[tuple[int, int], Pin], tuple[Origin, int]]
    outputs: dict[tuple[int, int, Direction], tuple[Origin, int]]
    order: Optional[list[tuple[int, int]]]


def trace_config(cfg: OverlayConfig) -> ConfigTrace:
    """Check every invariant of ``cfg`` and trace each route once.

    Every wired FU pin and every forwarding output is traced to its source,
    so a loop of pass-through outputs shows as ``unrouted`` ("routing cycle
    at ..."); FUs that read one another's results in a loop are a ``cycle``.
    A hop, a cell's input side, is resolved at most once per config: one
    memo serves the pins and the outputs, so a chain of pass-through
    outputs is walked once however many outputs forward it.  A route that
    does not trace is walked again by ``trace_port``, for its message.
    ``simulator.compile_config`` lowers a config from this one pass.
    """
    out: list[Violation] = []
    shape = cfg.shape
    cells = cfg.cells
    for rc in shape.cells():
        if rc not in cells:
            out.append(Violation("missing-cell", f"{rc}"))
    if len(cells) != shape.rows * shape.cols:
        extra = set(cells) - set(shape.cells())
        if extra:
            out.append(Violation("extra-cell", f"{sorted(extra)}"))
    if out:
        # the checks below look up cells by grid position
        return ConfigTrace(out, {}, {}, None)

    rows, cols = shape.rows, shape.cols
    # hop id (r*C + c)*4 + input side -> (origin, hops), or None when it does
    # not trace; a hop on the walk in progress is None until the walk ends
    memo: dict[int, Optional[tuple[Origin, int]]] = {}

    def resolve(r: int, c: int, d: Direction) -> Optional[tuple[Origin, int]]:
        hop = first = (r * cols + c) * 4 + d
        found = memo.get(hop, _UNSEEN)
        if found is not _UNSEEN:
            return found
        walk = []
        while True:
            memo[hop] = None
            walk.append(hop)
            dr, dc = _DELTA[d]
            nr, nc = r + dr, c + dc
            if not (0 <= nr < rows and 0 <= nc < cols):
                found = (r, c, d), 0
                break
            sel = cells[(nr, nc)].out_sel[_OPPOSITE[d]]
            if sel is None:
                return None
            if sel == FU:
                found = (nr, nc), 1
                break
            r, c, d = nr, nc, sel
            hop = (r * cols + c) * 4 + d
            found = memo.get(hop, _UNSEEN)
            if found is None:  # a dead end, or a loop back into this walk
                return None
            if found is not _UNSEEN:
                found = found[0], found[1] + 1
                break
        origin, hops = found
        for hop in reversed(walk):
            memo[hop] = origin, hops
            hops += 1
        return memo[first]

    pins: dict[tuple[tuple[int, int], Pin], tuple[Origin, int]] = {}
    outputs: dict[tuple[int, int, Direction], tuple[Origin, int]] = {}
    used_border: set[Origin] = set()
    deps: dict[tuple[int, int], set[Origin]] = {}
    unrouted: list[Violation] = []  # reported after the io checks

    def unroutable(rc: tuple[int, int], d: Direction, what: str) -> None:
        try:
            trace_port(cfg, rc, d)
        except UnroutedPort as exc:
            unrouted.append(Violation("unrouted", f"cell ({rc[0]},{rc[1]}) {what}: {exc}"))

    north, east, south, west = _DIRECTIONS
    for rc in shape.cells():  # in sorted order, as every cell is there
        cell = cells[rc]
        op, mask, out_sel = cell.fu_op, cell.mask, cell.out_sel
        selects = (cell.fu_in1, cell.fu_in2, cell.fu_sel)
        sels = (out_sel[north], out_sel[east], out_sel[south], out_sel[west])
        if op is None and mask is None and selects == _UNWIRED and sels == _DISABLED:
            continue

        # pins fed, in the order they are reported: the wired ones, then a
        # masked one that is not wired
        fed = [pin for pin, d in zip(_PINS, selects) if d is not None]
        if mask is not None:
            if mask[0] in fed:
                out.append(Violation("pin-conflict", f"{_where(rc)}: pin both wired and masked"))
            else:
                fed.append(mask[0])
            if op is None:
                out.append(Violation("mask-without-fu", _where(rc)))
            if not (INT32_MIN <= mask[1] <= INT32_MAX):
                out.append(Violation("mask-range", f"{_where(rc)}: {mask[1]}"))
        if op is None:
            if fed and mask is None:
                out.append(Violation("pins-without-fu", _where(rc)))
        else:
            needed = _NEEDED[op]
            for pin in needed:
                if pin not in fed:
                    out.append(Violation("unfed-pin", f"{_where(rc)}: {pin.name}"))
            for pin in fed:
                if pin not in needed:
                    out.append(Violation("extra-pin", f"{_where(rc)}: {pin.name}"))
        for d, sel in zip(_DIRECTIONS, sels):
            if sel is None:
                continue
            if sel == d:
                out.append(Violation("reflection", f"{_where(rc)}: out {d.name} from in {d.name}"))
            if sel == FU and op is None:
                out.append(Violation("dangling-fu", f"{_where(rc)}: out {d.name}"))

        # every consumer must resolve to a border input or an FU
        reads = set()
        for pin, d in zip(_PINS, selects):
            if d is None:
                continue
            route = resolve(*rc, d)
            if route is None:
                unroutable(rc, d, pin.name)
                continue
            pins[(rc, pin)] = route
            reads.add(route[0])
            if len(route[0]) == 3:
                used_border.add(route[0])
        if op is not None:
            deps[rc] = reads
        for d, sel in zip(_DIRECTIONS, sels):
            if sel == FU:
                outputs[(*rc, d)] = rc, 0
            elif sel is not None:
                route = resolve(*rc, sel)
                if route is None:
                    unroutable(rc, sel, f"out {d.name}")
                    continue
                outputs[(*rc, d)] = route
                if len(route[0]) == 3:
                    used_border.add(route[0])

    # io map sanity
    for label, table in (("in", cfg.io_in), ("out", cfg.io_out)):
        tags = list(table.values())
        if len(tags) != len(set(tags)):
            out.append(Violation("tag-clash", f"duplicate {label} tags"))
        for (r, c, d) in table:
            if not shape.in_bounds(r, c) or shape.neighbor(r, c, d) is not None:
                out.append(Violation("not-border", f"io_{label} ({r},{c}) {d.name}"))
    for (r, c, d) in cfg.io_out:
        if shape.in_bounds(r, c) and cfg.cell(r, c).out_sel[d] is None:
            out.append(Violation("silent-output", f"io_out ({r},{c}) {d.name} is disabled"))

    # consumed border inputs must carry a stream tag, and the FUs must have
    # an order
    out += unrouted
    for port in used_border:
        if port not in cfg.io_in:
            r, c, d = port
            out.append(Violation("untagged-input", f"({r},{c}) {d.name}"))
    order = _fu_order(deps)
    if order is None:
        out.append(Violation("cycle", "functional units form a cycle"))
    return ConfigTrace(out, pins, outputs, order)


def validate_config(cfg: OverlayConfig) -> list[Violation]:
    """All invariant violations, each naming the offending cell and port.

    These are ``trace_config``'s violations, without its route tables.
    ``simulator.compile_config`` runs ``trace_config`` itself, so a config
    it lowers is traced once and not validated here first.
    """
    return trace_config(cfg).violations


# -- serialization -----------------------------------------------------------------

_MAGIC = b"DFE1"
_NONE = 0xFF
_OUT_FU = 4


def serialize_config(cfg: OverlayConfig) -> bytes:
    """Little-endian binary form: header, R*C 13-byte cell records, io map."""
    buf = bytearray()
    buf += _MAGIC
    buf += struct.pack("<HH", cfg.shape.rows, cfg.shape.cols)
    for rc in cfg.shape.cells():
        cell = cfg.cells[rc]
        buf.append(_NONE if cell.fu_op is None else int(cell.fu_op))
        for pin_sel in (cell.fu_in1, cell.fu_in2, cell.fu_sel):
            buf.append(_NONE if pin_sel is None else int(pin_sel))
        if cell.mask is None:
            buf.append(_NONE)
            buf += struct.pack("<i", 0)
        else:
            buf.append(int(cell.mask[0]))
            buf += struct.pack("<i", cell.mask[1])
        for d in Direction:
            sel = cell.out_sel[d]
            if sel is None:
                buf.append(_NONE)
            elif sel == FU:
                buf.append(_OUT_FU)
            else:
                buf.append(int(sel))
    for table in (cfg.io_in, cfg.io_out):
        entries = sorted(table.items())
        buf += struct.pack("<I", len(entries))
        for (r, c, d), tag in entries:
            buf += struct.pack("<BHHI", int(d), r, c, tag)
    return bytes(buf)


def _need(data: bytes, off: int, size: int) -> None:
    if len(data) < off + size:
        raise ValueError("truncated overlay config")


def deserialize_config(data: bytes) -> OverlayConfig:
    if data[:4] != _MAGIC:
        raise ValueError("not an overlay config file")
    _need(data, 4, 4)
    rows, cols = struct.unpack_from("<HH", data, 4)
    _need(data, 8, 13 * rows * cols)  # before building a grid the file may lack
    cfg = new_overlay(rows, cols)
    off = 8
    for rc in cfg.shape.cells():
        cell = cfg.cells[rc]
        fu_op = data[off]
        cell.fu_op = None if fu_op == _NONE else OpCode(fu_op)
        sels = []
        for i in range(3):
            raw = data[off + 1 + i]
            sels.append(None if raw == _NONE else Direction(raw))
        cell.fu_in1, cell.fu_in2, cell.fu_sel = sels
        mask_pin = data[off + 4]
        (mask_val,) = struct.unpack_from("<i", data, off + 5)
        if mask_pin != _NONE:
            cell.mask = (Pin(mask_pin), mask_val)
        for i, d in enumerate(Direction):
            raw = data[off + 9 + i]
            if raw == _NONE:
                cell.out_sel[d] = None
            elif raw == _OUT_FU:
                cell.out_sel[d] = FU
            else:
                cell.out_sel[d] = Direction(raw)
        off += 13
    for table in (cfg.io_in, cfg.io_out):
        _need(data, off, 4)
        (count,) = struct.unpack_from("<I", data, off)
        off += 4
        _need(data, off, 9 * count)
        for _ in range(count):
            d, r, c, tag = struct.unpack_from("<BHHI", data, off)
            table[(r, c, Direction(d))] = tag
            off += 9
    if off != len(data):
        raise ValueError("trailing bytes in overlay config")
    return cfg


def config_to_text(cfg: OverlayConfig) -> str:
    """Human-readable dump of the non-empty cells and io bindings."""
    lines = [f"overlay {cfg.shape.rows}x{cfg.shape.cols}"]
    for (r, c), cell in sorted(cfg.cells.items()):
        if cell.is_empty():
            continue
        parts = [f"cell ({r},{c})"]
        if cell.fu_op is not None:
            pins = []
            for pin, sel in ((Pin.IN1, cell.fu_in1), (Pin.IN2, cell.fu_in2),
                             (Pin.SEL, cell.fu_sel)):
                if cell.mask is not None and cell.mask[0] == pin:
                    pins.append(f"{pin.name.lower()}=const:{cell.mask[1]}")
                elif sel is not None:
                    pins.append(f"{pin.name.lower()}={sel.name}")
            parts.append(f"op={cell.fu_op.name} " + " ".join(pins))
        outs = [f"{d.name}<-{sel.name if isinstance(sel, Direction) else sel}"
                for d, sel in cell.out_sel.items() if sel is not None]
        if outs:
            parts.append("out " + " ".join(outs))
        lines.append("  " + " | ".join(parts))
    for label, table in (("in", cfg.io_in), ("out", cfg.io_out)):
        for (r, c, d), tag in sorted(table.items()):
            lines.append(f"  io_{label} ({r},{c}) {d.name} tag={tag}")
    return "\n".join(lines) + "\n"


def config_to_dot(cfg: OverlayConfig) -> str:
    """Graphviz view: configured cells, routed connections, masked constants."""
    lines = ["digraph overlay {", "  rankdir=LR;"]
    for (r, c), cell in sorted(cfg.cells.items()):
        if cell.fu_op is None:
            continue
        lines.append(f'  c{r}_{c} [label="({r},{c})\\n{cell.fu_op.name}", shape=ellipse];')
        if cell.mask is not None:
            pin, value = cell.mask
            lines.append(f'  k{r}_{c} [label="{value}", shape=box, '
                         f'style=filled, fillcolor="palegreen"];')
            lines.append(f'  k{r}_{c} -> c{r}_{c} [label="{pin.name}"];')
    for (r, c, d), tag in sorted(cfg.io_in.items()):
        lines.append(f'  i{tag} [label="in {tag}", shape=box];')
    for (r, c, d), tag in sorted(cfg.io_out.items()):
        lines.append(f'  o{tag} [label="out {tag}", shape=box];')

    def origin_name(origin: Origin) -> str:
        if len(origin) == 3:
            return f"i{cfg.io_in.get(origin)}"
        return f"c{origin[0]}_{origin[1]}"

    for (r, c), cell in sorted(cfg.cells.items()):
        for pin in Pin:
            d = cell.pin_select(pin)
            if d is None:
                continue
            src = origin_name(trace_port(cfg, (r, c), d)[0])
            lines.append(f'  {src} -> c{r}_{c} [label="{pin.name}"];')
    for (r, c, d), tag in sorted(cfg.io_out.items()):
        sel = cfg.cell(r, c).out_sel[d]
        if sel == FU:
            lines.append(f"  c{r}_{c} -> o{tag};")
        elif isinstance(sel, Direction):
            src = origin_name(trace_port(cfg, (r, c), sel)[0])
            lines.append(f"  {src} -> o{tag};")
    lines.append("}")
    return "\n".join(lines) + "\n"
