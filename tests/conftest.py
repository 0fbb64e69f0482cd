"""Shared test helpers: a graph builder, random graph generation and corpus shortcuts."""

from __future__ import annotations

import random
from typing import Optional

import numpy as np
import pytest
from hypothesis import settings

from dfeoffload import corpus
from dfeoffload.dfg import (INT32_MAX, INT32_MIN, OP_ARITY, DataFlowGraph, Node, NodeKind,
                            OpCode, Violation)
from dfeoffload.overlay import FU, Direction, OverlayConfig, Pin, UnroutedPort, trace_port

BINARY_CODES = [OpCode.ADD, OpCode.SUB, OpCode.MUL, OpCode.EQ, OpCode.NE,
                OpCode.LT, OpCode.LE, OpCode.GT, OpCode.GE]

YES_KERNELS = ["2mm", "3mm", "atax", "bicg", "gemm", "gemver", "gesummv",
               "heat-3d", "mvt", "symm", "syr2k", "syrk", "trmm"]
DIV_KERNELS = ["adi", "lu", "ludcmp", "seidel", "trisolv"]
FP_KERNELS = ["fdtd-2d", "jacobi-1d", "jacobi-2d"]

# Every property test runs under one profile: no deadline per example, as a
# shared host's speed drifts, and no example database, so no run saves or
# replays failing examples.  A test's @settings sets max_examples.
settings.register_profile("tier1", deadline=None, database=None)
settings.load_profile("tier1")


def add_node(g: DataFlowGraph, kind: NodeKind, *srcs: int, code: Optional[OpCode] = None,
             value: Optional[int] = None) -> int:
    """Add a node fed by ``srcs`` in port order, with the next id (the
    largest plus one), and return that id."""
    nid = max(g.nodes, default=-1) + 1
    g.nodes[nid] = Node(nid, kind, code, value, srcs)
    return nid


def random_dfg(rng: random.Random, n_ops: int, n_inputs: int = 2,
               n_outputs: int = 1, p_const: float = 0.25,
               p_mux: float = 0.15) -> DataFlowGraph:
    """A random valid graph fit for the placer: every operand a smaller id
    than its node, correct arities, at most one constant operand per op, no
    constant feeding an output."""
    g = DataFlowGraph()
    inputs = [add_node(g, NodeKind.INPUT) for _ in range(max(1, n_inputs))]
    pool = list(inputs)
    ops = []
    for _ in range(n_ops):
        code = OpCode.MUX if rng.random() < p_mux else rng.choice(BINARY_CODES)
        const = None  # the constant's node is made before its op's
        srcs = []
        for _ in range(OP_ARITY[code]):
            if const is None and rng.random() < p_const:
                const = rng.randint(-100, 100)
                srcs.append(None)
            else:
                srcs.append(rng.choice(pool))
        if const is not None:
            c = add_node(g, NodeKind.CONST, value=const)
            srcs = [c if src is None else src for src in srcs]
        nid = add_node(g, NodeKind.OP, *srcs, code=code)
        pool.append(nid)
        ops.append(nid)
    sinks = ops if ops else inputs
    for _ in range(max(1, n_outputs)):
        add_node(g, NodeKind.OUTPUT, rng.choice(sinks))
    return g


def assert_id_rule(g: DataFlowGraph) -> None:
    """``g`` keeps the id rule: nodes in ascending id order, and every
    operand a smaller id than its node."""
    assert list(g.nodes) == sorted(g.nodes)
    assert [(src, nid) for nid, n in g.nodes.items() for src in n.srcs if src >= nid] == []


def random_input_streams(g: DataFlowGraph, rng: np.random.Generator,
                         length: int, low: int = -1000, high: int = 1000
                         ) -> dict[int, np.ndarray]:
    return {nid: rng.integers(low, high + 1, length).astype(np.int32)
            for nid in g.inputs()}


def reference_trace(cfg: OverlayConfig) -> tuple:
    """What ``overlay.trace_config`` finds, computed the plain way: every
    invariant checked cell by cell, and every wired pin and forwarding
    output traced from scratch with ``trace_port``.

    Returns (violations as (kind, detail), pins items, outputs items,
    order), as ``trace_fields`` gives them for a ``ConfigTrace``.
    """
    out: list[Violation] = []
    shape = cfg.shape
    for rc in shape.cells():
        if rc not in cfg.cells:
            out.append(Violation("missing-cell", f"{rc}"))
    extra = set(cfg.cells) - set(shape.cells())
    if extra and len(cfg.cells) != shape.rows * shape.cols:
        out.append(Violation("extra-cell", f"{sorted(extra)}"))
    if out:
        return _fields(out, {}, {}, None)

    for (r, c), cell in sorted(cfg.cells.items()):
        where = f"cell ({r},{c})"
        fed = {pin: "wire" for pin in Pin if cell.pin_select(pin) is not None}
        if cell.mask is not None:
            fed[cell.mask[0]] = "both" if cell.mask[0] in fed else "mask"
        if "both" in fed.values():
            out.append(Violation("pin-conflict", f"{where}: pin both wired and masked"))
        if cell.mask is not None:
            if cell.fu_op is None:
                out.append(Violation("mask-without-fu", where))
            if not (INT32_MIN <= cell.mask[1] <= INT32_MAX):
                out.append(Violation("mask-range", f"{where}: {cell.mask[1]}"))
        if cell.fu_op is None:
            if fed and cell.mask is None:
                out.append(Violation("pins-without-fu", where))
        else:
            needed = list(Pin)[:OP_ARITY[cell.fu_op]]
            out += [Violation("unfed-pin", f"{where}: {pin.name}")
                    for pin in needed if pin not in fed]
            out += [Violation("extra-pin", f"{where}: {pin.name}")
                    for pin in fed if pin not in needed]
        for d in Direction:
            sel = cell.out_sel[d]
            if sel is not None and sel == d:
                out.append(Violation("reflection", f"{where}: out {d.name} from in {d.name}"))
            if sel == FU and cell.fu_op is None:
                out.append(Violation("dangling-fu", f"{where}: out {d.name}"))
    for label, table in (("in", cfg.io_in), ("out", cfg.io_out)):
        if len(table) != len(set(table.values())):
            out.append(Violation("tag-clash", f"duplicate {label} tags"))
        for (r, c, d) in table:
            if not shape.in_bounds(r, c) or shape.neighbor(r, c, d) is not None:
                out.append(Violation("not-border", f"io_{label} ({r},{c}) {d.name}"))
    for (r, c, d) in cfg.io_out:
        if shape.in_bounds(r, c) and cfg.cell(r, c).out_sel[d] is None:
            out.append(Violation("silent-output", f"io_out ({r},{c}) {d.name} is disabled"))

    pins, outputs, used_border, deps = {}, {}, set(), {}

    def trace(table, key, rc, d, what):
        try:
            table[key] = trace_port(cfg, rc, d)
        except UnroutedPort as exc:
            out.append(Violation("unrouted", f"{what}: {exc}"))
            return
        if len(table[key][0]) == 3:
            used_border.add(table[key][0])

    for (r, c), cell in sorted(cfg.cells.items()):
        for pin in Pin:
            if cell.pin_select(pin) is not None:
                trace(pins, ((r, c), pin), (r, c), cell.pin_select(pin),
                      f"cell ({r},{c}) {pin.name}")
        if cell.fu_op is not None:
            deps[(r, c)] = {pins[((r, c), pin)][0] for pin in Pin if ((r, c), pin) in pins}
        for d in Direction:
            sel = cell.out_sel[d]
            if sel == FU:
                outputs[(r, c, d)] = (r, c), 0
            elif sel is not None:
                trace(outputs, (r, c, d), (r, c), sel, f"cell ({r},{c}) out {d.name}")
    for port in used_border:
        if port not in cfg.io_in:
            out.append(Violation("untagged-input", f"({port[0]},{port[1]}) {port[2].name}"))
    # FU cells in rounds: each round every cell whose reads are all ordered
    order, remaining = [], {rc: ds & deps.keys() for rc, ds in deps.items()}
    while remaining:
        ready = sorted(rc for rc, ds in remaining.items() if not ds)
        if not ready:
            out.append(Violation("cycle", "functional units form a cycle"))
            order = None
            break
        order += ready
        remaining = {rc: ds - set(ready) for rc, ds in remaining.items() if rc not in ready}
    return _fields(out, pins, outputs, order)


def _fields(violations, pins, outputs, order) -> tuple:
    return ([(v.kind, v.detail) for v in violations], list(pins.items()),
            list(outputs.items()), order)


def trace_fields(trace) -> tuple:
    """A ``ConfigTrace`` as ``reference_trace`` gives it: lists in order."""
    return _fields(trace.violations, trace.pins, trace.outputs, trace.order)


@pytest.fixture
def corpus_kernels():
    return {name: corpus.load(name) for name in corpus.kernel_names()}
