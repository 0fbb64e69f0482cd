"""Las Vegas place & route: stochastic placement with Dijkstra grid routing.

The overlay has no dedicated routing fabric (cell outputs forward cell
inputs on a Manhattan grid), so mapping a graph onto it is NP-complete and
is attacked with a randomized search: nodes are drawn with a bias toward
io-adjacent ones (border interfaces are the scarce resource), positions are
sampled from a border-favoring distribution sharpened by affinity to
related nodes, every tentative placement immediately routes its satisfiable
edges over free resources with Dijkstra (shortest path from wherever the
value is already replicated), and exhaustion triggers node switches and
random-depth backtracking.  The algorithm only ever returns correct
answers; only its running time is random.

The search writes straight into the ``OverlayConfig`` it returns: each claim
sets one field of a cell or one io binding and journals the old value, so a
backtrack restores the fields it journaled.  The result is not validated
here; ``simulator.compile_config`` validates a config once, where it is used.

Inside the search, cells are numbered ``i = r*C + c`` and input pins (or
border sides) ``p = side*R*C + i``; the config itself keeps its
``(r, c)`` and ``Direction`` keys.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import cached_property
from operator import attrgetter
from typing import Optional, Union

from .dfg import DataFlowGraph, Edge, NodeKind, OpCode, validate_dfg
from .overlay import FU, Direction, OverlayConfig, OverlayShape, Pin, new_overlay, opposite

Cell = tuple[int, int]


@dataclass(frozen=True)
class PlacerParams:
    """Search knobs; defaults follow the shipped tuning, all overridable."""

    sigma: Optional[float] = None  # Gaussian width; default min(R,C)/4
    io_weight: float = 4.0  # selection bias for io-adjacent nodes
    affinity_bonus: float = 3.0
    max_position_attempts: int = 10
    max_node_restarts: int = 5
    backtrack_max_depth: Optional[int] = None  # default: placed/4, at least 1
    global_budget: int = 100_000  # total position attempts before giving up


@dataclass
class PlacerCounters:
    position_attempts: int = 0
    node_restarts: int = 0
    backtracks: int = 0


class Unroutable(RuntimeError):
    """The search budget ran out without a complete mapping."""

    def __init__(self, message: str, counters: Optional[PlacerCounters] = None):
        super().__init__(message)
        self.counters = counters or PlacerCounters()


class PreconditionViolated(Unroutable):
    """Rejected by pigeonhole before any search (capacity exceeded)."""


class NoPath(RuntimeError):
    pass


RNG_ALGORITHM = "python-mt19937"


@dataclass
class Placement:
    """A complete mapping of one graph onto one overlay shape.

    ``config`` is the overlay configuration the search built, not yet
    validated; ``node_cells`` says which cell's FU computes each op node.
    Stream tags are node ids: an Input's on ``config.io_in``, an Output's on
    ``config.io_out``.
    """

    shape: OverlayShape
    config: OverlayConfig
    node_cells: dict[int, Cell]
    rng_seed: int
    counters: PlacerCounters
    rng_algorithm: str = RNG_ALGORITHM

    def apply(self) -> OverlayConfig:
        return self.config


# -- search state ---------------------------------------------------------------------


_ABSENT = object()  # journaled old value of a key that was not there
_PIN_FIELD = ("fu_in1", "fu_in2", "fu_sel")  # CellConfig field per Pin
_DIRS = tuple(Direction)
_FU_SIDE = 4  # pin side that stands for a cell's FU output
# (out side, the neighbour's facing side, row step, column step)
_STEPS = tuple((d, opposite(d), dr, dc)
               for d, (dr, dc) in zip(_DIRS, ((-1, 0), (0, 1), (1, 0), (0, -1))))
_SEED, _BIND = -1, -2  # route_edge parents of a start state


class _State:
    """The config under construction, its lookup tables, and an undo journal.

    Every write goes through ``_set``, which journals (owner, key, old
    value); a cell's fields are written through ``vars(cell)``, so every
    owner is a dict and undo is one restore.  The grid and graph tables are
    built once per search.
    """

    def __init__(self, g: DataFlowGraph, shape: OverlayShape, params: PlacerParams):
        self.shape = shape
        self.params = params
        self.cfg = new_overlay(shape.rows, shape.cols)
        self.coords = list(shape.cells())  # cell id -> (r, c)
        self.cells = [self.cfg.cells[rc] for rc in self.coords]
        self.out_sels = [cell.out_sel for cell in self.cells]
        n = self.n_cells = len(self.coords)
        # pin id -> (r, c, side): the border port of an outward side
        self.pin_port = [(r, c, d) for d in _DIRS for (r, c) in self.coords]
        self.border_pins = [(port, port[2] * n + port[0] * shape.cols + port[1])
                            for port in shape.border_ports()]
        # pin id (side 4: the FU) -> (out side, next search state, border port
        # or None) for every output the value could leave through: the
        # neighbour's facing input pin, or on the border the output as a goal
        exits = []
        for i, (r, c) in enumerate(self.coords):
            ways = []
            for out_d, in_d, dr, dc in _STEPS:
                if shape.in_bounds(r + dr, c + dc):
                    ways.append((out_d, (in_d * n + i + dr * shape.cols + dc) << 1, None))
                else:
                    ways.append((out_d, (out_d * n + i) << 1 | 1, (r, c, out_d)))
            exits.append(tuple(ways))
        self.moves = [ways[:side] + ways[side + 1:]  # never back out the side it came in
                      for side in range(_FU_SIDE) for ways in exits] + exits

        self.input_ports: dict[int, int] = {}  # input value id -> bound pin id
        # value id -> pin ids where that value can be tapped (keys only)
        self.sites: dict[int, dict[int, None]] = {}
        self.origin_cell: dict[int, int] = {}  # op value id -> producing cell id
        self._journal: list[tuple[dict, object, object]] = []
        self._affinity_rows: dict[int, list[float]] = {}

        ops = g.op_nodes()
        ins: dict[int, list[Edge]] = {nid: [] for nid in g.nodes}
        outs: dict[int, list[Edge]] = {nid: [] for nid in g.nodes}
        for e in g.edges:
            ins[e.dst].append(e)
            outs[e.src].append(e)
        self.in_edges = {nid: sorted(ins[nid], key=attrgetter("dport")) for nid in ops}
        self.out_edges = {nid: sorted(outs[nid], key=attrgetter("dst", "dport"))
                          for nid in ops}
        io = {nid for nid, node in g.nodes.items()
              if node.kind in (NodeKind.INPUT, NodeKind.OUTPUT)}
        self.io_adjacent = ({e.dst for e in g.edges if e.src in io}
                            | {e.src for e in g.edges if e.dst in io}).intersection(ops)
        # op id -> ids of the op nodes sharing an edge, a producer or a consumer
        self.related: dict[int, list[int]] = {}
        for nid in ops:
            producers = {e.src for e in ins[nid]}
            consumers = {e.dst for e in outs[nid]}
            related = producers | consumers
            for v in producers:
                related.update(e.dst for e in outs[v])
            for v in consumers:
                related.update(e.src for e in ins[v])
            related.discard(nid)
            self.related[nid] = sorted(related.intersection(ops))

    # -- position sampling weights

    @cached_property
    def border_weights(self) -> list[float]:
        """Per cell, the complement of a center-peaked Gaussian: border cells
        (short paths to the scarce border interfaces) are favored."""
        shape, sigma = self.shape, self.params.sigma
        if sigma is None:
            sigma = min(shape.rows, shape.cols) / 4
        cr = (shape.rows - 1) / 2
        cc = (shape.cols - 1) / 2
        return [1.0 - math.exp(-((r - cr) ** 2 + (c - cc) ** 2) / (2 * sigma * sigma))
                for (r, c) in self.coords]

    def position_weights(self, related: list[int]) -> list[float]:
        """Sampling weight per cell: the border term, sharpened by affinity
        to the cells of already-placed related nodes."""
        bonus = [0.0] * self.n_cells
        for k in related:
            row = self._affinity_rows.get(k)
            if row is None:
                (rr, rc) = self.coords[k]
                row = self._affinity_rows[k] = [1.0 / (1 + abs(r - rr) + abs(c - rc))
                                                for (r, c) in self.coords]
            bonus = [b + x for b, x in zip(bonus, row)]
        a = self.params.affinity_bonus
        return [w * (1.0 + a * b) for w, b in zip(self.border_weights, bonus)]

    def related_cells(self, nid: int) -> list[int]:
        """Cells of placed nodes that share an edge, a producer, or a consumer."""
        origin = self.origin_cell
        return [origin[v] for v in self.related[nid] if v in origin]

    # -- journaled writes

    def _set(self, owner: dict, key, value) -> None:
        self._journal.append((owner, key, owner.get(key, _ABSENT)))
        owner[key] = value

    def mark(self) -> int:
        return len(self._journal)

    def rollback(self, mark: int) -> None:
        while len(self._journal) > mark:
            owner, key, old = self._journal.pop()
            if old is _ABSENT:
                del owner[key]
            else:
                owner[key] = old

    def claim_fu(self, cell: int, nid: int, op: OpCode) -> None:
        self._set(vars(self.cells[cell]), "fu_op", op)
        self._set(self.origin_cell, nid, cell)

    def claim_out(self, cell: int, out_d: Direction, source: Union[Direction, str]) -> None:
        self._set(self.out_sels[cell], out_d, source)

    def set_pin(self, cell: int, pin: Pin, direction: Direction) -> None:
        self._set(vars(self.cells[cell]), _PIN_FIELD[pin], direction)

    def claim_mask(self, cell: int, pin: Pin, value: int) -> bool:
        fields = vars(self.cells[cell])
        if fields["mask"] is not None:
            return False
        self._set(fields, "mask", (pin, value))
        return True

    def bind_input(self, pin: int, nid: int) -> None:
        self._set(self.cfg.io_in, self.pin_port[pin], nid)
        self._set(self.input_ports, nid, pin)
        self.add_site(nid, pin)

    def bind_output(self, pin: int, nid: int) -> None:
        self._set(self.cfg.io_out, self.pin_port[pin], nid)

    def add_site(self, vid: int, pin: int) -> None:
        box = self.sites.setdefault(vid, {})
        if pin not in box:
            self._set(box, pin, None)


def _pin_for(code: OpCode, dport: int) -> Pin:
    if code == OpCode.MUX:
        return (Pin.SEL, Pin.IN1, Pin.IN2)[dport]
    return (Pin.IN1, Pin.IN2)[dport]


def route_edge(state: _State, value: int, *, sink_cell: Optional[int] = None,
               sink_pin: Optional[Pin] = None, to_border: bool = False,
               bindable_input: Optional[int] = None) -> int:
    """Shortest route from any replication site of ``value`` to the sink.

    The sink is either an FU pin (cell id sink_cell, sink_pin) or the
    nearest free border output interface (to_border).  Multi-source
    breadth-first search over free output selectors; every hop costs 1.  A
    search state is ``(p << 1) | kind`` for pin id ``p = side*R*C + r*C +
    c``, kind 0 for the value at an input pin and 1 for a border output
    goal.  States are expanded in increasing order of the integer key
    ``dist*8*R*C + state`` (each distance's states sorted, the producing
    FU's hops ahead of all of them), so distance ties break by side
    (N<E<S<W), then row, column and kind, and a state's parent is the first
    state to reach it.  On success all traversed selectors are claimed,
    every pin reached becomes a new replication site, and the sink reached
    is returned as a pin id: the cell and its input side, or for the border
    its outward side.  Raises NoPath otherwise.
    """
    n = state.n_cells
    fu_pins = _FU_SIDE * n
    parent: list[Optional[int]] = [None] * (8 * n)  # state -> pin id it came from
    starts = []
    for p in state.sites.get(value, ()):
        parent[p << 1] = _SEED
        starts.append(p << 1)
    if bindable_input is not None and bindable_input not in state.input_ports:
        io_in = state.cfg.io_in
        for port, p in state.border_pins:
            if parent[p << 1] is None and port not in io_in:
                parent[p << 1] = _BIND
                starts.append(p << 1)
    starts.sort()
    origin = state.origin_cell.get(value)
    if origin is not None:  # its FU goes first: its hops win distance-1 ties
        starts.insert(0, (fu_pins + origin) << 1)

    io_out, out_sels, moves = state.cfg.io_out, state.out_sels, state.moves
    sink = -1 if sink_cell is None else sink_cell
    level, goal = starts, None
    while level and goal is None:
        ahead = []
        for t in level:
            p = t >> 1
            cell = p % n
            if t & 1 or cell == sink:
                goal = t
                break
            out_sel = out_sels[cell]
            for out_d, nt, port in moves[p]:
                if (out_sel[out_d] is None and parent[nt] is None
                        and (port is None or to_border and port not in io_out)):
                    parent[nt] = p
                    ahead.append(nt)
        level = sorted(ahead)
    if goal is None:
        raise NoPath(f"value {value} cannot reach its sink")

    # replay the parent chain: claim selectors, register sites, bind io
    t, chain = goal, []
    while True:
        src = parent[t]
        chain.append((t, src))
        if src < 0 or src >= fu_pins:  # a start state, or the producing FU
            break
        t = src << 1
    for t, src in reversed(chain):
        if src == _BIND:
            state.bind_input(t >> 1, bindable_input)
        elif src != _SEED:
            side, cell = divmod(src, n)
            to_side = _DIRS[(t >> 1) // n]  # a goal's outward side, or the pin's
            state.claim_out(cell, to_side if t & 1 else opposite(to_side),
                            FU if side == _FU_SIDE else _DIRS[side])
        if not t & 1:
            state.add_site(value, t >> 1)
    if sink_pin is not None:
        state.set_pin(sink_cell, sink_pin, _DIRS[(goal >> 1) // n])
    return goal >> 1


# -- the main loop -------------------------------------------------------------------


def _route_node_edges(g: DataFlowGraph, state: _State, nid: int, cell: int) -> bool:
    """Mask constants and route every already-satisfiable edge of nid."""
    code = g.nodes[nid].code
    for e in state.in_edges[nid]:
        producer = g.nodes[e.src]
        pin = _pin_for(code, e.dport)
        if producer.kind == NodeKind.CONST:
            if not state.claim_mask(cell, pin, producer.value):
                return False
        elif producer.kind == NodeKind.INPUT or e.src in state.origin_cell:
            bindable = e.src if producer.kind == NodeKind.INPUT else None
            try:
                route_edge(state, e.src, sink_cell=cell, sink_pin=pin,
                           bindable_input=bindable)
            except NoPath:
                return False
        # else: producer not placed yet; its placement will connect us
    for e in state.out_edges[nid]:
        if g.nodes[e.dst].kind == NodeKind.OUTPUT:
            if not _route_to_output(state, nid, e.dst):
                return False
        elif e.dst in state.origin_cell:
            pin = _pin_for(g.nodes[e.dst].code, e.dport)
            try:
                route_edge(state, nid, sink_cell=state.origin_cell[e.dst],
                           sink_pin=pin)
            except NoPath:
                return False
    return True


def _route_to_output(state: _State, value: int, output: int,
                     bindable_input: Optional[int] = None) -> bool:
    """Route ``value`` out of the nearest free border output, tagged ``output``."""
    try:
        pin = route_edge(state, value, to_border=True, bindable_input=bindable_input)
    except NoPath:
        return False
    state.bind_output(pin, output)
    return True


def place_and_route(g: DataFlowGraph, shape: OverlayShape,
                    params: PlacerParams = PlacerParams(),
                    seed: int = 0) -> Placement:
    """Map a graph onto the overlay; raises Unroutable when the budget ends.

    Deterministic for fixed (graph, shape, params, seed).  Capacity
    violations (more op nodes than cells, more inputs or outputs than border
    interfaces) raise PreconditionViolated before any search runs.
    """
    bad = validate_dfg(g)
    if bad:
        raise ValueError(f"invalid graph: {bad}")
    counters = PlacerCounters()
    ops = g.op_nodes()
    n_in, n_out = len(g.inputs()), len(g.outputs())
    cap_in, cap_out = shape.io_capacity()
    if len(ops) > shape.rows * shape.cols:
        raise PreconditionViolated(
            f"{len(ops)} op nodes exceed {shape.rows * shape.cols} cells", counters)
    if n_in > cap_in or n_out > cap_out:
        raise PreconditionViolated(
            f"{n_in} inputs / {n_out} outputs exceed {cap_in} border interfaces",
            counters)
    state = _State(g, shape, params)
    const_ids = {nid for nid, n in g.nodes.items() if n.kind == NodeKind.CONST}
    for nid in ops:
        const_pins = sum(1 for e in state.in_edges[nid] if e.src in const_ids)
        if const_pins > 1:
            raise PreconditionViolated(
                f"node {nid} has {const_pins} constant pins; a cell masks one signal",
                counters)
    for e in g.edges:
        if e.src in const_ids and g.nodes[e.dst].kind == NodeKind.OUTPUT:
            raise PreconditionViolated(
                f"constant {e.src} feeds an output interface directly", counters)

    rng = random.Random(seed)
    unplaced = set(ops)
    copies = {e for e in g.edges
              if g.nodes[e.src].kind == NodeKind.INPUT
              and g.nodes[e.dst].kind == NodeKind.OUTPUT}
    stack: list[tuple[str, object, int]] = []  # (kind, item, journal mark)
    failed_round: set[int] = set()
    restarts_this_round = 0
    best_progress = 0
    stall_streak = 0  # backtracks since the search last reached a new depth

    def backtrack():
        nonlocal stall_streak
        counters.backtracks += 1
        stall_streak += 1
        if stack:
            cap = params.backtrack_max_depth
            if cap is None:
                cap = max(1, len(stack) // 4)
            # a stalled search unwinds ever deeper, up to a full restart
            cap = min(len(stack), cap * (1 + stall_streak // 3))
            k = rng.randint(1, max(1, cap))
            for _ in range(k):
                kind, item, mark = stack.pop()
                state.rollback(mark)
                if kind == "node":
                    unplaced.add(item)
                else:
                    copies.add(item)

    while unplaced or copies:
        if counters.position_attempts >= params.global_budget:
            raise Unroutable("global budget exhausted", counters)
        if unplaced:
            candidates = sorted(unplaced - failed_round)
            if not candidates or restarts_this_round >= params.max_node_restarts:
                backtrack()
                failed_round.clear()
                restarts_this_round = 0
                continue
            # io-adjacent nodes are io_weight times as likely to be drawn
            weights = [params.io_weight if nid in state.io_adjacent else 1.0
                       for nid in candidates]
            nid = rng.choices(candidates, weights=weights)[0]
            mark = _try_place(g, state, nid, rng, counters)
            if mark is not None:
                stack.append(("node", nid, mark))
                unplaced.discard(nid)
                failed_round.clear()
                restarts_this_round = 0
                if len(stack) > best_progress:
                    best_progress = len(stack)
                    stall_streak = 0
            else:
                failed_round.add(nid)
                restarts_this_round += 1
                counters.node_restarts += 1
        else:
            edge = min(copies, key=lambda e: (e.src, e.dst))
            counters.position_attempts += 1
            mark = state.mark()
            if _route_to_output(state, edge.src, edge.dst, bindable_input=edge.src):
                stack.append(("copy", edge, mark))
                copies.discard(edge)
            else:
                state.rollback(mark)
                backtrack()

    return Placement(shape, state.cfg,
                     {nid: state.coords[state.origin_cell[nid]] for nid in ops},
                     seed, counters)


def _try_place(g: DataFlowGraph, state: _State, nid: int, rng: random.Random,
               counters: PlacerCounters) -> Optional[int]:
    """Sample positions for one node until its edges route; None on failure."""
    params = state.params
    failed: set[int] = set()
    weights = None
    for _ in range(params.max_position_attempts):
        if counters.position_attempts >= params.global_budget:
            return None
        free = [i for i, cell in enumerate(state.cells)
                if cell.fu_op is None and i not in failed]
        if not free:
            return None
        counters.position_attempts += 1
        if weights is None:  # once per node, and only when a cell is drawn
            weights = state.position_weights(state.related_cells(nid))
        free_weights = [weights[i] for i in free]
        if sum(free_weights) <= 0.0:  # e.g. only the exact center is free
            cell = rng.choice(free)
        else:
            cell = rng.choices(free, weights=free_weights)[0]
        mark = state.mark()
        state.claim_fu(cell, nid, g.nodes[nid].code)
        if _route_node_edges(g, state, nid, cell):
            return mark
        state.rollback(mark)
        failed.add(cell)
    return None
