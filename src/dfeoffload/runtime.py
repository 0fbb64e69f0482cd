"""The offload decision layer: cost model, config cache, rollback policy.

Rather than predicting device performance in detail, the runtime keeps
per-kernel moving averages of measured software and offloaded times and
rolls back to software for good when offloading proves slower.  Successful
mappings are cached by graph hash, lowered and ready to run, so repeat
invocations skip place & route and lowering; failed mappings are cached too,
so a graph that does not route is searched once.  The analysis of each
kernel is memoized, so a call on a cached mapping does only per-call work:
trip counts, the decision, gather, run, scatter and the epilogue.

An unrolled graph leaves the last (inner extent mod unroll) iterations of
each innermost loop to an epilogue.  The epilogue runs the kernel's unroll-1
graph on the host over those iterations, through the same views and column
blocks as the overlay's run but off the modelled wire; the software
interpreter never runs on an offloaded call.
"""

from __future__ import annotations

import math
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, fields
from enum import Enum
from pathlib import Path
from typing import Callable, Hashable, Optional, Union

import numpy as np

from . import kernels as kl
from .dfg import DataFlowGraph, DfgStats, dfg_hash, dfg_stats
from .frontend import (EligibilityReport, Thresholds, check_eligibility,
                       check_unroll, extract_dfg)
from .overlay import OverlayShape
from .placer import Placement, PlacerParams, Unroutable, place_and_route
from .simulator import (FRAME_SIZE, GraphIo, OutOfBounds, Program, RunReport,
                        compile_config, graph_io, leftover, lower_dfg,
                        run_compiled, run_epilogue, stream_length, stream_views,
                        write_back)


@dataclass
class CostModel:
    """Transfer and configuration timing constants (seconds, bytes/second)."""

    wire_rate: float = 230e6
    config_time: float = 2.1e-3
    const_transfer_time: float = 55e-6
    software_time_per_call: float = 0.0  # measured online, 0 = unknown

    def __post_init__(self):
        constants = (self.wire_rate, self.config_time, self.const_transfer_time)
        if any(c <= 0 for c in constants):
            raise ValueError("cost model constants must be positive")
        if not all(map(math.isfinite, constants)):
            raise ValueError("cost model constants must be finite")

    @staticmethod
    def from_file(path: str | Path) -> "CostModel":
        """Read key=value overrides ('#' comments allowed) over the defaults."""
        kwargs = {}
        for raw in Path(path).read_text().splitlines():
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, _, val = line.partition("=")
            key = key.strip()
            if key not in {f.name for f in fields(CostModel)}:
                raise KeyError(f"unknown cost-model key {key!r}")
            kwargs[key] = float(val.strip())
        return CostModel(**kwargs)


def estimate_offload_time(stats: DfgStats, n_iterations: int,
                          model: CostModel, cached: bool) -> float:
    """Predicted seconds for one offloaded call.

    Configuration cost is skipped when the mapping is already cached; the
    data term is the wire time for every streamed word, one 16-byte frame
    each.
    """
    if n_iterations < 0:
        raise ValueError("iteration count must be nonnegative")
    t = 0.0 if cached else model.config_time
    t += model.const_transfer_time
    t += FRAME_SIZE * n_iterations * (stats.inputs + stats.outputs) / model.wire_rate
    return t


MARGIN = 0.9  # offload when the estimate is under this share of software time
ALPHA = 0.2  # weight of the newest call in each moving average
WARMUP_CALLS = 5  # offloaded calls before a rollback may trip
CACHE_CAPACITY = 32  # mappings, analyses and routing failures a runtime keeps


class Mode(Enum):
    SOFTWARE = "software"
    OFFLOADED = "offloaded"
    ROLLED_BACK = "rolled_back"


@dataclass
class OffloadState:
    """Per-kernel execution statistics driving the rollback policy.

    ROLLED_BACK is absorbing: once offloading measured worse than software,
    after WARMUP_CALLS offloaded calls, it stays off until the graph changes.
    """

    mode: Mode = Mode.SOFTWARE
    ema_software: Optional[float] = None
    ema_offload: Optional[float] = None
    software_calls: int = 0
    offload_calls: int = 0


def decide(state: OffloadState, estimate: float, measured_software: float) -> Mode:
    """Offload only when the estimate is under MARGIN times measured software."""
    if measured_software <= 0:
        raise ValueError("measured software time must be positive")
    if state.mode == Mode.ROLLED_BACK:
        return Mode.SOFTWARE
    if estimate < MARGIN * measured_software:
        return Mode.OFFLOADED
    return Mode.SOFTWARE


def record(state: OffloadState, mode: Mode, elapsed: float) -> OffloadState:
    """Fold one measured call into the state; may trip the rollback."""
    if elapsed <= 0:
        raise ValueError("elapsed time must be positive")
    if mode == Mode.SOFTWARE:
        state.software_calls += 1
        state.ema_software = (elapsed if state.ema_software is None
                              else ALPHA * elapsed + (1 - ALPHA) * state.ema_software)
    elif mode == Mode.OFFLOADED:
        state.offload_calls += 1
        state.ema_offload = (elapsed if state.ema_offload is None
                             else ALPHA * elapsed + (1 - ALPHA) * state.ema_offload)
        state.mode = Mode.OFFLOADED
        if (state.offload_calls >= WARMUP_CALLS
                and state.ema_software is not None
                and state.ema_offload > state.ema_software):
            state.mode = Mode.ROLLED_BACK
    else:
        raise ValueError("record takes SOFTWARE or OFFLOADED")
    return state


class _Lru:
    """A map of at most CACHE_CAPACITY keys that drops the least recently used.

    Not locked: its owner holds a lock around every use.
    """

    def __init__(self):
        self._entries: OrderedDict = OrderedDict()

    def get(self, key: Hashable):
        value = self._entries.get(key)
        if value is not None:
            self._entries.move_to_end(key)
        return value

    def put(self, key: Hashable, value) -> None:
        self._entries[key] = value
        self._entries.move_to_end(key)
        while len(self._entries) > CACHE_CAPACITY:
            self._entries.popitem(last=False)

    def __len__(self) -> int:
        return len(self._entries)


@dataclass
class CacheEntry:
    """A mapping ready to run: ``program`` is the placement's config, lowered
    and validated, and ``io`` is ``graph_io`` of the graph placed, all that
    the gather, the scatter and the leftover count read of it.

    A kernel whose graph has the same hash but another node numbering runs
    on this entry, so its streams are keyed by the placed graph's node ids,
    as ``io`` lists them.
    """

    key: int
    placement: Placement
    program: Program
    io: GraphIo


class ConfigCache:
    """LRU map of at most CACHE_CAPACITY graph hashes to ready-to-run configs.

    Reads are cheap and common, writes rare; a single lock keeps both
    consistent for concurrent callers.
    """

    def __init__(self):
        self._entries = _Lru()
        self._lock = threading.RLock()

    def get(self, key: int) -> Optional[CacheEntry]:
        with self._lock:
            return self._entries.get(key)

    def put(self, entry: CacheEntry) -> None:
        with self._lock:
            self._entries.put(entry.key, entry)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


@dataclass(frozen=True)
class _Accepted:
    """An eligible kernel's graph at one unroll factor, ready to map.

    When unrolled, it also holds the unroll-1 graph's host program and
    ``graph_io``, which run the leftover iterations (``run_epilogue``).
    """

    dfg: DataFlowGraph
    key: int  # dfg_hash of the graph
    stats: DfgStats
    loops: tuple[kl.For, ...]  # the perfect nest, outer to inner
    epilogue_program: Optional[Program] = None
    epilogue_io: Optional[GraphIo] = None


def _accept(kernel: kl.Kernel, dfg: DataFlowGraph,
            epilogue_dfg: Optional[DataFlowGraph] = None) -> _Accepted:
    """The accepted analysis of ``dfg``, with its epilogue lowered for the host."""
    program = io = None
    if epilogue_dfg is not None:
        program, io = lower_dfg(epilogue_dfg), graph_io(epilogue_dfg)
    return _Accepted(dfg, dfg_hash(dfg), dfg_stats(dfg),
                     tuple(kernel.canonical_nest()[0]), program, io)


class _CachedUnroutable(Unroutable):
    """A failure to route, raised again from the cache without a search."""


# What analysing a kernel at one unroll factor and thresholds concluded: a
# graph to map, or the reason it runs in software.
_Analysis = Union[_Accepted, EligibilityReport]


def analyze_kernel(kernel: kl.Kernel, unroll: int, thresholds: Thresholds) -> _Analysis:
    """Eligibility and extraction of ``kernel`` at one unroll factor.

    The verdict, with its size thresholds, is taken on the unroll-1 graph.
    At unroll 1 it is the graph mapped, so it is extracted once; when
    unrolled, it is the epilogue's, and the unrolled graph is accepted
    whatever its size: whether it fits the grid is the placer's to say.
    """
    report = check_eligibility(kernel, thresholds)
    if not report.accepted():
        return report
    if unroll == 1:
        return _accept(kernel, report.dfg)
    return _accept(kernel, extract_dfg(kernel, unroll), epilogue_dfg=report.dfg)


def trip_counts(loops, params: dict[str, int]) -> list[tuple[str, int]]:
    """(loop var, trip count) outer to inner for one call's parameters.

    A negative bound runs its loop zero times, as in software.
    """
    return [(f.var, max(f.bound if isinstance(f.bound, int) else params[f.bound], 0))
            for f in loops]


def run_offloaded(entry: CacheEntry, accepted: _Accepted,
                  arrays: dict[str, np.ndarray], trips: list[tuple[str, int]]
                  ) -> tuple[dict[str, np.ndarray], RunReport]:
    """One call on a mapped kernel: gather, run, scatter, then the epilogue.

    The gather makes views of the caller's arrays, and the run copies each
    block straight from them, so no full-length input stream is built.
    The epilogue is the unroll-1 graph of ``accepted`` run on the host.
    Returns the result arrays and the overlay's run report.  Raises
    simulator.OutOfBounds when an access in either graph falls outside its
    array somewhere in the iterations it covers; each graph's views are all
    checked before its run, so nothing has been written when the overlay's
    gather raises.
    """
    streams = stream_views(entry.io, arrays, trips)
    report = run_compiled(entry.program, streams)
    result = write_back(entry.io, report, arrays, trips)
    left = leftover(entry.io, trips)
    if left:
        run_epilogue(accepted.epilogue_io, accepted.epilogue_program,
                     result, trips, left)
    return result, report


@dataclass
class TraceEvent:
    """One step of a call: host microseconds since the call began, its phase,
    and a detail, ``template.format(*args)``.  The detail is formatted only
    when read, so a call whose trace nobody reads formats no text.
    """

    t_us: float
    phase: str
    template: str = ""
    args: tuple = ()

    @property
    def detail(self) -> str:
        return self.template.format(*self.args) if self.args else self.template

    def line(self) -> str:
        return f"{self.t_us:.1f} {self.phase} {self.detail}".rstrip()


class OffloadRuntime:
    """End-to-end pipeline: analyze, map (or fetch), decide, execute, record.

    Whatever path a call takes (offloaded, rejected, rolled back, or
    unroutable), the returned arrays match pure software evaluation.  An
    offloaded call never runs the software interpreter: its unroll epilogue
    is the unroll-1 graph run on the host (``run_epilogue``).  Offloaded
    elapsed time is simulated on ``device_model``: by default the estimate's
    ``cost_model``, and another model is what makes measured device time
    depart from the estimate.  Software elapsed time is read from ``clock``.
    ``decide`` and ``record`` hold the policy.  Distinct kernels may execute
    concurrently: cache and per-kernel state updates are lock-protected.
    """

    def __init__(self, shape: OverlayShape,
                 thresholds: Optional[Thresholds] = None,
                 placer_params: PlacerParams = PlacerParams(),
                 cost_model: Optional[CostModel] = None,
                 device_model: Optional[CostModel] = None,
                 unroll: int = 1,
                 seed: int = 0,
                 clock: Callable[[], float] = time.perf_counter):
        check_unroll(unroll)
        self.shape = shape
        self.thresholds = thresholds or Thresholds(
            max_nodes=shape.rows * shape.cols)
        self.placer_params = placer_params
        self.cost_model = cost_model or CostModel()
        self.device_model = device_model or self.cost_model
        self.cache = ConfigCache()
        # (kernel content key, unroll, thresholds) -> _Analysis
        self._analyses = _Lru()
        # (graph hash, shape, placer params, seed) -> the Unroutable message
        self._unroutable = _Lru()
        self.unroll = unroll
        self.seed = seed
        self.clock = clock
        self._states: dict[int, OffloadState] = {}
        self._lock = threading.RLock()

    def state_for(self, key: int) -> OffloadState:
        with self._lock:
            if key not in self._states:
                self._states[key] = OffloadState()
            return self._states[key]

    def analyze(self, kernel: kl.Kernel) -> _Analysis:
        """``analyze_kernel`` at this runtime's unroll and thresholds, memoized
        per ``kernel.content_key``: a digest of the AST computed once per
        kernel object, so a hit neither hashes nor compares the AST, and an
        equal kernel parsed again, or unpickled, shares the analysis.
        """
        memo_key = (kernel.content_key, self.unroll, self.thresholds)
        with self._lock:
            analysis = self._analyses.get(memo_key)
        if analysis is not None:
            return analysis
        analysis = analyze_kernel(kernel, self.unroll, self.thresholds)
        with self._lock:
            self._analyses.put(memo_key, analysis)
        return analysis

    def map(self, accepted: _Accepted) -> CacheEntry:
        """Place, route and lower an accepted graph, and cache the mapping.

        Lowering validates the placement's config, once per mapping.

        Raises Unroutable when the graph does not route on this runtime's
        shape, placer params and seed, PreconditionViolated among them when
        it cannot fit the grid at all.  The failure is cached too, so the
        search runs once: a later call raises _CachedUnroutable at once.
        """
        failure_key = (accepted.key, self.shape, self.placer_params, self.seed)
        with self._lock:
            failure = self._unroutable.get(failure_key)
        if failure is not None:
            raise _CachedUnroutable(failure)
        try:
            placement = place_and_route(accepted.dfg, self.shape,
                                        self.placer_params, self.seed)
        except Unroutable as exc:
            with self._lock:
                self._unroutable.put(failure_key, str(exc))
            raise
        entry = CacheEntry(accepted.key, placement, compile_config(placement.apply()),
                           graph_io(accepted.dfg))
        self.cache.put(entry)
        return entry

    # -- the pipeline ---------------------------------------------------------

    def execute(self, kernel: kl.Kernel, arrays: dict[str, np.ndarray],
                params: dict[str, int]
                ) -> tuple[dict[str, np.ndarray], list[TraceEvent]]:
        trace: list[TraceEvent] = []
        t0 = self.clock()

        def emit(phase: str, template: str = "", *args):
            trace.append(TraceEvent((self.clock() - t0) * 1e6, phase, template, args))

        def software(template: str, state: Optional[OffloadState], *args):
            start = self.clock()
            result = kl.evaluate_kernel(kernel, arrays, params)
            elapsed = self.clock() - start
            if state is not None:
                record(state, Mode.SOFTWARE, max(elapsed, 1e-9))
            emit("software", template, *args)
            return result, trace

        analysis = self.analyze(kernel)
        if isinstance(analysis, EligibilityReport):
            emit("analysis", "rejected: {}", analysis.table_label())
            return software("ineligible: {}", None, analysis.reason.value)
        key, stats = analysis.key, analysis.stats
        emit("analysis", "accepted hash={:016x} in={} out={} calc={}",
             key, stats.inputs, stats.outputs, stats.calc_nodes)
        state = self.state_for(key)

        entry = self.cache.get(key)
        cached = entry is not None
        if not cached:
            pr_start = self.clock()
            try:
                entry = self.map(analysis)
            except Unroutable as exc:
                note = " (cached failure)" if isinstance(exc, _CachedUnroutable) else ""
                emit("place_route", "unroutable{}: {}", note, str(exc))
                return software("unroutable, software fallback", state)
            emit("place_route", "placed in {:.2f} ms, attempts={}",
                 (self.clock() - pr_start) * 1e3,
                 entry.placement.counters.position_attempts)
        else:
            emit("cache", "hit, reusing configuration")

        trips = trip_counts(analysis.loops, params)
        n_iter = stream_length(entry.io, trips)
        baseline = state.ema_software
        if baseline is None and self.cost_model.software_time_per_call > 0:
            baseline = self.cost_model.software_time_per_call
        if baseline is None:
            return software("measuring software baseline", state)
        estimate = estimate_offload_time(stats, n_iter, self.cost_model, cached)
        decision = decide(state, estimate, baseline)
        emit("decision", "estimate={:.3e}s software={:.3e}s -> {}",
             estimate, baseline, decision.value)
        if decision != Mode.OFFLOADED:
            return software("decision: software", state)

        try:
            result, run_report = run_offloaded(entry, analysis, arrays, trips)
        except OutOfBounds:
            # The overlay streams every access in the graph over the whole
            # domain; software touches only what it evaluates, and raises
            # its own error for what it cannot.
            return software("access out of range, software fallback", state)

        device_elapsed = 0.0
        config_cost = 0.0 if cached else self.device_model.config_time
        config_cost += self.device_model.const_transfer_time
        device_elapsed += config_cost
        # one constant slot per masked cell of the validated config
        emit("configure", "{}consts={} t={:.1f}us", "cached, " if cached else "",
             len(entry.program.const_fill), config_cost * 1e6)
        t_in = FRAME_SIZE * run_report.frames_in / self.device_model.wire_rate
        device_elapsed += t_in
        emit("transfer_in", "frames={} t={:.1f}us", run_report.frames_in, t_in * 1e6)
        emit("compute", "cycles={}", run_report.cycles)
        t_out = FRAME_SIZE * run_report.frames_out / self.device_model.wire_rate
        device_elapsed += t_out
        emit("transfer_out", "frames={} t={:.1f}us", run_report.frames_out, t_out * 1e6)

        left = leftover(entry.io, trips)
        if left:
            emit("epilogue", "{} leftover iterations of {}", left, trips[-1][0])

        record(state, Mode.OFFLOADED, device_elapsed)
        if state.mode == Mode.ROLLED_BACK:
            emit("rollback", "offload slower than software; reverting for good")
        return result, trace

