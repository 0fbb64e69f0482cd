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
"""

from __future__ import annotations

import heapq
import math
import random
from dataclasses import dataclass
from typing import Optional, Union

from .dfg import DataFlowGraph, NodeKind, OpCode, validate_dfg
from .overlay import (FU, Direction, OverlayConfig, OverlayShape, Pin,
                      new_overlay, opposite)

Cell = tuple[int, int]
Port = tuple[int, int, Direction]  # border interface: cell + outward side


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


# -- node selection and position sampling -------------------------------------------


def io_adjacent_nodes(g: DataFlowGraph) -> set[int]:
    """Op nodes with a direct edge to an Input or Output node."""
    io = {nid for nid, n in g.nodes.items()
          if n.kind in (NodeKind.INPUT, NodeKind.OUTPUT)}
    adjacent = set()
    for e in g.edges:
        if e.src in io and g.nodes[e.dst].kind == NodeKind.OP:
            adjacent.add(e.dst)
        if e.dst in io and g.nodes[e.src].kind == NodeKind.OP:
            adjacent.add(e.src)
    return adjacent


def select_node(unplaced: list[int], g: DataFlowGraph, rng: random.Random,
                io_weight: float = 4.0) -> int:
    """Weighted draw: io-adjacent nodes are io_weight times as likely."""
    if not unplaced:
        raise ValueError("no nodes to select")
    candidates = sorted(unplaced)
    favored = io_adjacent_nodes(g)
    weights = [io_weight if nid in favored else 1.0 for nid in candidates]
    return rng.choices(candidates, weights=weights)[0]


def position_weights(cells: list[Cell], related: list[Cell],
                     shape: OverlayShape, params: PlacerParams) -> list[float]:
    """Sampling weight per candidate cell.

    The distance term is the complement of a center-peaked Gaussian, so
    border cells (short paths to the scarce border interfaces) are favored;
    the affinity term pulls toward already-placed related nodes.
    """
    sigma = params.sigma if params.sigma is not None else min(shape.rows, shape.cols) / 4
    cr = (shape.rows - 1) / 2
    cc = (shape.cols - 1) / 2
    weights = []
    for (r, c) in cells:
        d2 = (r - cr) ** 2 + (c - cc) ** 2
        w = 1.0 - math.exp(-d2 / (2 * sigma * sigma))
        bonus = sum(1.0 / (1 + abs(r - rr) + abs(c - rc))
                    for (rr, rc) in related)
        weights.append(w * (1.0 + params.affinity_bonus * bonus))
    return weights


def sample_position(free: list[Cell], related: list[Cell], shape: OverlayShape,
                    params: PlacerParams, rng: random.Random) -> Cell:
    cells = sorted(free)
    if not cells:
        raise ValueError("no free cells")
    weights = position_weights(cells, related, shape, params)
    if sum(weights) <= 0.0:  # e.g. only the exact center is free
        return rng.choice(cells)
    return rng.choices(cells, weights=weights)[0]


# -- routing state -------------------------------------------------------------------


_ABSENT = object()  # journaled old value of a key that was not there
_PIN_FIELD = ("fu_in1", "fu_in2", "fu_sel")  # CellConfig field per Pin


class _State:
    """The config under construction, its reverse indexes, and an undo journal.

    Every write goes through ``_set``, which journals (owner, key, old
    value); a cell's fields are written through ``vars(cell)``, so every
    owner is a dict and undo is one restore.
    """

    def __init__(self, shape: OverlayShape):
        self.shape = shape
        self.cfg = new_overlay(shape.rows, shape.cols)
        self.cells = self.cfg.cells
        self.input_ports: dict[int, Port] = {}  # input value id -> bound port
        # value id -> input-pin sites where that value can be tapped (keys only)
        self.sites: dict[int, dict[tuple[Cell, Direction], None]] = {}
        self.origin_cell: dict[int, Cell] = {}  # op value id -> producing cell
        self._journal: list[tuple[dict, object, object]] = []

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

    def claim_fu(self, cell: Cell, nid: int, op: OpCode) -> None:
        self._set(vars(self.cells[cell]), "fu_op", op)
        self._set(self.origin_cell, nid, cell)

    def claim_out(self, cell: Cell, out_d: Direction,
                  source: Union[Direction, str]) -> None:
        self._set(self.cells[cell].out_sel, out_d, source)

    def set_pin(self, cell: Cell, pin: Pin, direction: Direction) -> None:
        self._set(vars(self.cells[cell]), _PIN_FIELD[pin], direction)

    def claim_mask(self, cell: Cell, pin: Pin, value: int) -> bool:
        fields = vars(self.cells[cell])
        if fields["mask"] is not None:
            return False
        self._set(fields, "mask", (pin, value))
        return True

    def bind_input(self, port: Port, nid: int) -> None:
        self._set(self.cfg.io_in, port, nid)
        self._set(self.input_ports, nid, port)
        self.add_site(nid, ((port[0], port[1]), port[2]))

    def bind_output(self, port: Port, nid: int) -> None:
        self._set(self.cfg.io_out, port, nid)

    def add_site(self, vid: int, site: tuple[Cell, Direction]) -> None:
        box = self.sites.setdefault(vid, {})
        if site not in box:
            self._set(box, site, None)


def _pin_for(code: OpCode, dport: int) -> Pin:
    if code == OpCode.MUX:
        return (Pin.SEL, Pin.IN1, Pin.IN2)[dport]
    return (Pin.IN1, Pin.IN2)[dport]


def route_edge(state: _State, value: int, *, sink_cell: Optional[Cell] = None,
               sink_pin: Optional[Pin] = None, to_border: bool = False,
               bindable_input: Optional[int] = None) -> tuple[Cell, Direction]:
    """Shortest route from any replication site of ``value`` to the sink.

    The sink is either an FU pin (sink_cell, sink_pin) or the nearest free
    border output interface (to_border).  Multi-source Dijkstra over free
    output selectors; hop cost is 1; ties resolve by port order N<E<S<W then
    cell order.  On success all traversed selectors are claimed, every pin
    reached becomes a new replication site, and the sink reached is
    returned: the cell and its input side, or for the border its outward
    side.  Raises NoPath otherwise.
    """
    shape = state.shape
    # search states: ("pin", cell, d) value present at an input pin;
    # goal pseudo-state: ("goal", cell, out_d) for a border output.
    dist: dict[tuple, int] = {}
    parent: dict[tuple, tuple] = {}
    heap: list[tuple] = []

    def push(node, d, par):
        if node in dist and dist[node] <= d:
            return
        dist[node] = d
        parent[node] = par
        kind = 0 if node[0] == "pin" else 1
        (r, c) = node[1]
        heapq.heappush(heap, (d, int(node[2]), r, c, kind, node))

    for (cell, d) in sorted(state.sites.get(value, ()),
                            key=lambda s: (int(s[1]), s[0])):
        push(("pin", cell, d), 0, ("seed", None))
    if bindable_input is not None and bindable_input not in state.input_ports:
        for port in shape.border_ports():
            if port not in state.cfg.io_in:
                push(("pin", (port[0], port[1]), port[2]), 0, ("bind", port))
    origin = state.origin_cell.get(value)
    if origin is not None:
        out_sel = state.cells[origin].out_sel
        for out_d in Direction:
            if out_sel[out_d] is not None:
                continue
            nb = shape.neighbor(*origin, out_d)
            hop = (origin[0], origin[1], out_d, FU)
            if nb is not None:
                push(("pin", nb, opposite(out_d)), 1, ("claim", hop))
            elif to_border and (origin[0], origin[1], out_d) not in state.cfg.io_out:
                push(("goal", origin, out_d), 1, ("claim", hop))

    goal = None
    settled = set()
    while heap:
        _, _, _, _, _, node = heapq.heappop(heap)
        if node in settled:
            continue
        settled.add(node)
        if node[0] == "goal":
            goal = node
            break
        _, cell, d = node
        if sink_cell is not None and cell == sink_cell:
            goal = node
            break
        base = dist[node]
        out_sel = state.cells[cell].out_sel
        for out_d in Direction:
            if out_d == d:  # reflecting a port back out the same side
                continue
            if out_sel[out_d] is not None:
                continue
            hop = (cell[0], cell[1], out_d, d)
            nb = shape.neighbor(*cell, out_d)
            if nb is not None:
                push(("pin", nb, opposite(out_d)), base + 1, ("claim", hop))
            elif to_border and (cell[0], cell[1], out_d) not in state.cfg.io_out:
                push(("goal", cell, out_d), base + 1, ("claim", hop))
    if goal is None:
        raise NoPath(f"value {value} cannot reach its sink")

    # replay the parent chain: claim selectors, register sites, bind io
    chain = []
    node = goal
    while True:
        par = parent[node]
        chain.append((node, par))
        if par[0] in ("seed", "bind"):
            break
        hop = par[1]
        if hop[3] == FU:  # expanded straight off the producing cell
            break
        node = ("pin", (hop[0], hop[1]), hop[3])
    chain.reverse()
    for node, par in chain:
        if par[0] == "bind":
            state.bind_input(par[1], bindable_input)
        elif par[0] == "claim":
            state.claim_out((par[1][0], par[1][1]), par[1][2], par[1][3])
        if node[0] == "pin":
            state.add_site(value, (node[1], node[2]))
    if sink_pin is not None:
        state.set_pin(sink_cell, sink_pin, goal[2])
    return goal[1], goal[2]


# -- the main loop -------------------------------------------------------------------


def _related_cells(g: DataFlowGraph, nid: int, state: _State) -> list[Cell]:
    """Cells of placed nodes that share an edge, a producer, or a consumer."""
    related: set[int] = set()
    producers = {e.src for e in g.edges if e.dst == nid}
    consumers = {e.dst for e in g.edges if e.src == nid}
    for e in g.edges:
        if e.dst == nid or e.src == nid:
            related.add(e.src)
            related.add(e.dst)
        if e.src in producers:
            related.add(e.dst)  # shares an input with nid
        if e.dst in consumers:
            related.add(e.src)  # shares an output with nid
    related.discard(nid)
    cells = [state.origin_cell[v] for v in sorted(related)
             if v in state.origin_cell]
    return cells


def _route_node_edges(g: DataFlowGraph, state: _State, nid: int,
                      cell: Cell) -> bool:
    """Mask constants and route every already-satisfiable edge of nid."""
    code = g.nodes[nid].code
    for e in g.in_edges(nid):
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
    for e in sorted(g.out_edges(nid), key=lambda e: (e.dst, e.dport)):
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
        (r, c), side = route_edge(state, value, to_border=True,
                                  bindable_input=bindable_input)
    except NoPath:
        return False
    state.bind_output((r, c, side), output)
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
    const_ids = {nid for nid, n in g.nodes.items() if n.kind == NodeKind.CONST}
    for nid in ops:
        const_pins = sum(1 for e in g.in_edges(nid) if e.src in const_ids)
        if const_pins > 1:
            raise PreconditionViolated(
                f"node {nid} has {const_pins} constant pins; a cell masks one signal",
                counters)
    for e in g.edges:
        if e.src in const_ids and g.nodes[e.dst].kind == NodeKind.OUTPUT:
            raise PreconditionViolated(
                f"constant {e.src} feeds an output interface directly", counters)

    rng = random.Random(seed)
    state = _State(shape)
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
            nid = select_node(candidates, g, rng, params.io_weight)
            mark = _try_place(g, state, nid, rng, params, counters)
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
                     {nid: state.origin_cell[nid] for nid in ops}, seed, counters)


def _try_place(g: DataFlowGraph, state: _State, nid: int, rng: random.Random,
               params: PlacerParams, counters: PlacerCounters) -> Optional[int]:
    """Sample positions for one node until its edges route; None on failure."""
    failed: set[Cell] = set()
    related = _related_cells(g, nid, state)
    for _ in range(params.max_position_attempts):
        if counters.position_attempts >= params.global_budget:
            return None
        free = [cell for cell in state.shape.cells()
                if state.cells[cell].fu_op is None and cell not in failed]
        if not free:
            return None
        counters.position_attempts += 1
        cell = sample_position(free, related, state.shape, params, rng)
        mark = state.mark()
        state.claim_fu(cell, nid, g.nodes[nid].code)
        if _route_node_edges(g, state, nid, cell):
            return mark
        state.rollback(mark)
        failed.add(cell)
    return None
