"""Las Vegas place & route: stochastic placement with breadth-first grid routing.

The overlay has no dedicated routing fabric (cell outputs forward cell
inputs on a Manhattan grid), so mapping a graph onto it is NP-complete and
is attacked with a randomized search: nodes are drawn with a bias toward
io-adjacent ones (border interfaces are the scarce resource), positions are
sampled from a border-favoring distribution sharpened by affinity to
related nodes, every tentative placement immediately routes its satisfiable
edges over free resources by breadth-first search, every hop costing 1
(shortest path from wherever the value is already replicated), and
exhaustion triggers node switches and random-depth backtracking.  The
algorithm only ever returns correct answers; only its running time is
random.

That running time is heavy-tailed, so the search is a series of runs.  Each
run starts from an empty grid, and run k may spend ``RESTART_UNIT *
_luby(k)`` position attempts: 1, 1, 2, 1, 1, 2, 4, ... units, the universal
restart schedule of Luby, Sinclair & Zuckerman ("Optimal speedup of Las
Vegas algorithms", 1993), whose expected time is within a log factor of the
best fixed cutoff's, whatever the distribution.  The budget spans all runs.
One random stream is drawn through every run, so a placement depends only
on (graph, shape, params, seed).

The search state is a set of flat lists indexed by cell id and pin id: each
claim sets one slot and journals the old value, so a backtrack restores the
slots it journaled.  The ``OverlayConfig`` is built from the lists once, when
the search succeeds.  It is not validated here; ``simulator.compile_config``
validates a config once, where it is used.  The tables that depend only on
the grid are built once per shape and shared by all searches on it.

Inside the search, cells are numbered ``i = r*C + c`` and input pins (or
border sides) ``p = side*R*C + i``; the config keeps its ``(r, c)`` and
``Direction`` keys.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass
from typing import Optional, Union

from .dfg import DataFlowGraph, NodeKind, OpCode, validate_dfg
from .overlay import FU, CellConfig, Direction, OverlayConfig, OverlayShape, Pin, opposite

Cell = tuple[int, int]


SIGMA_DIVISOR = 4  # border Gaussian width: the grid's shorter side over this
IO_WEIGHT = 4.0  # selection bias for io-adjacent nodes
AFFINITY_BONUS = 3.0  # position weight gained per unit of affinity
MAX_POSITION_ATTEMPTS = 10  # cells sampled per node before it is set aside
RESTART_UNIT = 24  # position attempts per unit of the restart schedule
MAX_NODE_RESTARTS = 5  # nodes set aside in a row before a backtrack
BACKTRACK_DIVISOR = 4  # backtrack depth cap: placed nodes over this, at least 1


@dataclass(frozen=True)
class PlacerParams:
    """How long the search may run, over all its runs; the tuning is the
    constants above."""

    global_budget: int = 100_000  # total position attempts before giving up


@dataclass
class PlacerCounters:
    position_attempts: int = 0
    node_restarts: int = 0
    backtracks: int = 0
    runs: int = 0  # searches started from an empty grid


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
    validated; its grid is ``config.shape``.  ``node_cells`` says which
    cell's FU computes each op node.
    Stream tags are node ids: an Input's on ``config.io_in``, an Output's on
    ``config.io_out``.
    """

    config: OverlayConfig
    node_cells: dict[int, Cell]
    rng_seed: int
    counters: PlacerCounters
    rng_algorithm: str = RNG_ALGORITHM

    def apply(self) -> OverlayConfig:
        return self.config


# -- search state ---------------------------------------------------------------------


_ABSENT = object()  # journaled old value of a key that was not there
_DIRS = tuple(Direction)
_OPPOSITE = tuple(opposite(d) for d in _DIRS)
_FU_SIDE = 4  # pin side that stands for a cell's FU output
# (out side, the neighbour's facing side, row step, column step)
_STEPS = tuple((d, opposite(d), dr, dc)
               for d, (dr, dc) in zip(_DIRS, ((-1, 0), (0, 1), (1, 0), (0, -1))))
_SEED, _BIND = -1, -2  # route_edge parents of a start state


class _Grid:
    """The tables of a search that depend only on the grid's shape.

    Built once per shape (``_grid``) and shared by every search on it, so
    nothing here is written during a search but the affinity rows, each
    filled once, on first use, with the same values whoever fills it.
    """

    def __init__(self, shape: OverlayShape):
        self.coords = tuple(shape.cells())  # cell id -> (r, c)
        n = len(self.coords)
        # pin id -> (r, c, side): the border port of an outward side
        self.pin_port = tuple((r, c, d) for d in _DIRS for (r, c) in self.coords)
        self.border_pins = tuple(port[2] * n + port[0] * shape.cols + port[1]
                                 for port in shape.border_ports())
        # pin id (side 4: the FU) -> (out selector index, next search state,
        # is a border goal) for every output the value could leave through:
        # the neighbour's facing input pin, or on the border the output as a
        # goal.  Out selector ``cell*4 + side`` is the output on that side.
        # ``feeds``: cell id -> the out selectors of the outputs facing it.
        exits, feeds = [], []
        for i, (r, c) in enumerate(self.coords):
            ways, cell_feeds = [], []
            for out_d, in_d, dr, dc in _STEPS:
                if shape.in_bounds(r + dr, c + dc):
                    j = i + dr * shape.cols + dc
                    ways.append((4 * i + out_d, (in_d * n + j) << 1, False))
                    cell_feeds.append(4 * j + in_d)
                else:
                    ways.append((4 * i + out_d, (out_d * n + i) << 1 | 1, True))
            exits.append(tuple(ways))
            feeds.append(tuple(cell_feeds))
        self.feeds = tuple(feeds)
        self.moves = tuple([ways[:side] + ways[side + 1:]  # never back out the side it came in
                            for side in range(_FU_SIDE) for ways in exits] + exits)
        # per cell, the complement of a center-peaked Gaussian: border cells
        # (short paths to the scarce border interfaces) are favored
        sigma = min(shape.rows, shape.cols) / SIGMA_DIVISOR
        cr = (shape.rows - 1) / 2
        cc = (shape.cols - 1) / 2
        self.border_weights = tuple(
            1.0 - math.exp(-((r - cr) ** 2 + (c - cc) ** 2) / (2 * sigma * sigma))
            for (r, c) in self.coords)
        self._affinity: list[Optional[tuple[float, ...]]] = [None] * n

    def affinity_row(self, k: int) -> tuple[float, ...]:
        """Per cell, its affinity to cell ``k``: one over one plus the
        Manhattan distance."""
        row = self._affinity[k]
        if row is None:
            (rr, rc) = self.coords[k]
            row = self._affinity[k] = tuple(1.0 / (1 + abs(r - rr) + abs(c - rc))
                                            for (r, c) in self.coords)
        return row


@functools.lru_cache(maxsize=16)
def _grid(shape: OverlayShape) -> _Grid:
    return _Grid(shape)


class _State:
    """The config under construction, its lookup tables, and an undo journal.

    The config lives in flat lists: FU op and mask per cell id, pin selects
    per ``cell*3 + Pin``, out selectors per ``cell*4 + side``, and input
    and output tags per pin id.  Every write goes through ``_set`` (a list
    slot) or ``_add`` (a new dict key), which journal (owner, index or key,
    old value), so a backtrack is one restore per write.  ``config`` builds
    the ``OverlayConfig`` once, at the end.  The grid tables are shared per
    shape (``_grid``); the graph tables are built once per search.
    """

    def __init__(self, g: DataFlowGraph, shape: OverlayShape):
        self.shape = shape
        grid = self.grid = _grid(shape)
        n = self.n_cells = len(grid.coords)
        self.fu_op: list[Optional[OpCode]] = [None] * n
        self.mask: list[Optional[tuple[Pin, int]]] = [None] * n
        self.pin_sel: list[Optional[Direction]] = [None] * (3 * n)
        self.out_sel: list[Union[None, Direction, str]] = [None] * (4 * n)
        self.io_in: list[Optional[int]] = [None] * (4 * n)  # pin id -> input tag
        self.io_out: list[Optional[int]] = [None] * (4 * n)  # pin id -> output tag

        self.input_ports: dict[int, int] = {}  # input value id -> bound pin id
        # value id -> pin ids where that value can be tapped (keys only)
        self.sites: dict[int, dict[int, None]] = {}
        self.origin_cell: dict[int, int] = {}  # op value id -> producing cell id
        self._journal: list[tuple[Union[list, dict], object, object]] = []

        nodes = g.nodes
        ops = g.op_nodes()
        # node id -> (consumer id, port) of each operand it is, in id order
        self.uses: dict[int, list[tuple[int, int]]] = {nid: [] for nid in nodes}
        for nid in sorted(nodes):
            for port, src in enumerate(nodes[nid].srcs):
                self.uses[src].append((nid, port))
        io = {nid for nid, node in nodes.items()
              if node.kind in (NodeKind.INPUT, NodeKind.OUTPUT)}
        self.io_adjacent: set[int] = set()  # op ids sharing an edge with an Input or Output
        # op id -> ids of the op nodes sharing an edge, a producer or a consumer
        self.related: dict[int, list[int]] = {}
        for nid in ops:
            producers = set(nodes[nid].srcs)
            consumers = {dst for dst, _ in self.uses[nid]}
            related = producers | consumers
            if not related.isdisjoint(io):
                self.io_adjacent.add(nid)
            for v in producers:
                related.update(dst for dst, _ in self.uses[v])
            for v in consumers:
                related.update(nodes[v].srcs)
            related.discard(nid)
            self.related[nid] = sorted(related.intersection(ops))

    # -- position sampling weights

    def position_weights(self, related: list[int]) -> list[float]:
        """Sampling weight per cell: the border term, sharpened by affinity
        to the cells of already-placed related nodes."""
        bonus = [0.0] * self.n_cells
        for k in related:
            bonus = [b + x for b, x in zip(bonus, self.grid.affinity_row(k))]
        return [w * (1.0 + AFFINITY_BONUS * b) for w, b in zip(self.grid.border_weights, bonus)]

    def related_cells(self, nid: int) -> list[int]:
        """Cells of placed nodes that share an edge, a producer, or a consumer."""
        origin = self.origin_cell
        return [origin[v] for v in self.related[nid] if v in origin]

    # -- journaled writes

    def _set(self, owner: list, index: int, value) -> None:
        self._journal.append((owner, index, owner[index]))
        owner[index] = value

    def _add(self, owner: dict, key, value) -> None:
        self._journal.append((owner, key, _ABSENT))
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
        self._set(self.fu_op, cell, op)
        self._add(self.origin_cell, nid, cell)

    def claim_out(self, cell: int, out_d: int, source: Union[Direction, str]) -> None:
        self._set(self.out_sel, 4 * cell + out_d, source)

    def set_pin(self, cell: int, pin: Pin, direction: Direction) -> None:
        self._set(self.pin_sel, 3 * cell + pin, direction)

    def claim_mask(self, cell: int, pin: Pin, value: int) -> bool:
        if self.mask[cell] is not None:
            return False
        self._set(self.mask, cell, (pin, value))
        return True

    def bind_input(self, pin: int, nid: int) -> None:
        self._set(self.io_in, pin, nid)
        self._add(self.input_ports, nid, pin)
        self.add_site(nid, pin)

    def bind_output(self, pin: int, nid: int) -> None:
        self._set(self.io_out, pin, nid)

    def add_site(self, vid: int, pin: int) -> None:
        box = self.sites.setdefault(vid, {})
        if pin not in box:
            self._add(box, pin, None)

    def config(self) -> OverlayConfig:
        """The overlay configuration the state holds."""
        cells = {}
        for i, rc in enumerate(self.grid.coords):
            cells[rc] = CellConfig(self.fu_op[i], *self.pin_sel[3 * i:3 * i + 3], self.mask[i],
                                   dict(zip(_DIRS, self.out_sel[4 * i:4 * i + 4])))
        io_in, io_out = ({self.grid.pin_port[p]: tag for p, tag in enumerate(tags)
                          if tag is not None} for tags in (self.io_in, self.io_out))
        return OverlayConfig(self.shape, cells, io_in, io_out)


def _pin_for(code: OpCode, port: int) -> Pin:
    if code == OpCode.MUX:
        return (Pin.SEL, Pin.IN1, Pin.IN2)[port]
    return (Pin.IN1, Pin.IN2)[port]


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
    state to reach it.  The goal is the first state in that order that is
    one, so the search stops at the first distance that reaches a goal and
    takes the smallest goal there.  On success all traversed selectors are
    claimed, every pin reached becomes a new replication site, and the sink
    reached is returned as a pin id: the cell and its input side, or for the
    border its outward side.  Raises NoPath otherwise.
    """
    n = state.n_cells
    fu_pins = _FU_SIDE * n
    parent: list[Optional[int]] = [None] * (8 * n)  # state -> pin id it came from
    starts = []
    for p in state.sites.get(value, ()):
        parent[p << 1] = _SEED
        starts.append(p << 1)
    if bindable_input is not None and bindable_input not in state.input_ports:
        io_in = state.io_in
        for p in state.grid.border_pins:
            if parent[p << 1] is None and io_in[p] is None:
                parent[p << 1] = _BIND
                starts.append(p << 1)
    starts.sort()
    origin = state.origin_cell.get(value)
    if origin is not None:  # its FU goes first: its hops win distance-1 ties
        starts.insert(0, (fu_pins + origin) << 1)

    io_out, out_sel = state.io_out, state.out_sel
    moves = state.grid.moves
    # a goal is a border output state or an input pin of the sink cell; the
    # first in expansion order is the smallest one a distance reaches
    sinks = [] if sink_cell is None else [(side * n + sink_cell) << 1
                                          for side in range(_FU_SIDE)]
    level = starts
    goal = next((t for t in starts if (t >> 1) % n == sink_cell), None)
    if goal is None and sink_cell is not None and all(
            out_sel[out] is not None for out in state.grid.feeds[sink_cell]):
        level = []  # no free output faces the sink: no search would reach it
    while level and goal is None:
        ahead = []
        for t in level:
            p = t >> 1
            for out, nt, border in moves[p]:
                if (out_sel[out] is None and parent[nt] is None
                        and (not border or to_border and io_out[nt >> 1] is None)):
                    parent[nt] = p
                    ahead.append(nt)
        goals = [t for t in sinks if parent[t] is not None]
        if to_border:
            goals += [t for t in ahead if t & 1]
        if goals:
            goal = min(goals)
        else:
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
            to_side = (t >> 1) // n  # a goal's outward side, or the pin's
            state.claim_out(cell, to_side if t & 1 else _OPPOSITE[to_side],
                            FU if side == _FU_SIDE else _DIRS[side])
        if not t & 1:
            state.add_site(value, t >> 1)
    if sink_pin is not None:
        state.set_pin(sink_cell, sink_pin, _DIRS[(goal >> 1) // n])
    return goal >> 1


# -- the main loop -------------------------------------------------------------------


def _route_node_edges(g: DataFlowGraph, state: _State, nid: int, cell: int) -> bool:
    """Mask constants and route every already-satisfiable edge of nid."""
    node = g.nodes[nid]
    for port, src in enumerate(node.srcs):
        producer = g.nodes[src]
        pin = _pin_for(node.code, port)
        if producer.kind == NodeKind.CONST:
            if not state.claim_mask(cell, pin, producer.value):
                return False
        elif producer.kind == NodeKind.INPUT or src in state.origin_cell:
            bindable = src if producer.kind == NodeKind.INPUT else None
            try:
                route_edge(state, src, sink_cell=cell, sink_pin=pin,
                           bindable_input=bindable)
            except NoPath:
                return False
        # else: producer not placed yet; its placement will connect us
    for dst, port in state.uses[nid]:
        if g.nodes[dst].kind == NodeKind.OUTPUT:
            if not _route_to_output(state, nid, dst):
                return False
        elif dst in state.origin_cell:
            pin = _pin_for(g.nodes[dst].code, port)
            try:
                route_edge(state, nid, sink_cell=state.origin_cell[dst],
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
    """Map a graph onto the overlay in runs that restart from an empty grid;
    raises Unroutable when the budget, shared by all runs, ends.

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
    state = _State(g, shape)
    const_ids = {nid for nid, n in g.nodes.items() if n.kind == NodeKind.CONST}
    for nid in ops:
        const_pins = sum(1 for src in g.nodes[nid].srcs if src in const_ids)
        if const_pins > 1:
            raise PreconditionViolated(
                f"node {nid} has {const_pins} constant pins; a cell masks one signal",
                counters)
    # (Input, Output) of every edge from one to the other
    copies = set()
    for nid in g.outputs():
        (src,) = g.nodes[nid].srcs
        if src in const_ids:
            raise PreconditionViolated(
                f"constant {src} feeds an output interface directly", counters)
        if g.nodes[src].kind == NodeKind.INPUT:
            copies.add((src, nid))

    rng = random.Random(seed)
    while True:
        counters.runs += 1
        cutoff = min(params.global_budget,
                     counters.position_attempts + RESTART_UNIT * _luby(counters.runs))
        if _run(g, state, set(ops), set(copies), rng, counters, cutoff):
            break
        if counters.position_attempts >= params.global_budget:
            raise Unroutable("global budget exhausted", counters)
        state.rollback(0)

    return Placement(state.config(),
                     {nid: state.grid.coords[state.origin_cell[nid]] for nid in ops},
                     seed, counters)


def _luby(k: int) -> int:
    """The k-th term, from 1, of Luby's sequence: 1, 1, 2, 1, 1, 2, 4, 1, ..."""
    while k & (k + 1):  # k is not 2**i - 1: it repeats the term of a shorter prefix
        k -= (1 << (k.bit_length() - 1)) - 1
    return (k + 1) >> 1


def _run(g: DataFlowGraph, state: _State, unplaced: set[int], copies: set[tuple[int, int]],
         rng: random.Random, counters: PlacerCounters, cutoff: int) -> bool:
    """One run from an empty state: place every node in ``unplaced`` and
    route every (Input, Output) edge in ``copies``.  True once done, False
    once ``counters`` reaches ``cutoff`` position attempts."""
    stack: list[tuple[str, object, int]] = []  # (kind, item, journal mark)
    failed_round: set[int] = set()
    restarts_this_round = 0

    def backtrack():
        counters.backtracks += 1
        if stack:
            k = rng.randint(1, max(1, len(stack) // BACKTRACK_DIVISOR))
            for _ in range(k):
                kind, item, mark = stack.pop()
                state.rollback(mark)
                if kind == "node":
                    unplaced.add(item)
                else:
                    copies.add(item)

    while unplaced or copies:
        if counters.position_attempts >= cutoff:
            return False
        if unplaced:
            candidates = sorted(unplaced - failed_round)
            if not candidates or restarts_this_round >= MAX_NODE_RESTARTS:
                backtrack()
                failed_round.clear()
                restarts_this_round = 0
                continue
            # io-adjacent nodes are IO_WEIGHT times as likely to be drawn
            weights = [IO_WEIGHT if nid in state.io_adjacent else 1.0
                       for nid in candidates]
            nid = rng.choices(candidates, weights=weights)[0]
            mark = _try_place(g, state, nid, rng, counters, cutoff)
            if mark is not None:
                stack.append(("node", nid, mark))
                unplaced.discard(nid)
                failed_round.clear()
                restarts_this_round = 0
            else:
                failed_round.add(nid)
                restarts_this_round += 1
                counters.node_restarts += 1
        else:
            edge = min(copies)
            src, dst = edge
            counters.position_attempts += 1
            mark = state.mark()
            if _route_to_output(state, src, dst, bindable_input=src):
                stack.append(("copy", edge, mark))
                copies.discard(edge)
            else:
                state.rollback(mark)
                backtrack()
    return True


def _try_place(g: DataFlowGraph, state: _State, nid: int, rng: random.Random,
               counters: PlacerCounters, budget: int) -> Optional[int]:
    """Sample positions for one node until its edges route; None on failure."""
    failed: set[int] = set()
    weights = None
    for _ in range(MAX_POSITION_ATTEMPTS):
        if counters.position_attempts >= budget:
            return None
        free = [i for i, op in enumerate(state.fu_op) if op is None and i not in failed]
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
