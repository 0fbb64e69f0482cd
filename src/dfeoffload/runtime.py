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
from dataclasses import dataclass, fields, replace
from enum import Enum
from pathlib import Path
from typing import Callable, Optional, Union

import numpy as np

from . import kernels as kl
from .dfg import DataFlowGraph, DfgStats, dfg_hash, dfg_stats
from .frontend import (EligibilityReport, Thresholds, check_eligibility,
                       check_unroll, unroll_dfg)
from .overlay import OverlayShape
from .placer import Placement, PlacerParams, Unroutable, place_and_route
from .simulator import (CACHE_CAPACITY, FRAME_SIZE, GraphIo, Lru, OutOfBounds,
                        Program, compile_config, graph_io, leftover,
                        lower_dfg, run_compiled, run_epilogue, stream_length,
                        stream_views, write_back)


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
        if not 0 <= self.software_time_per_call < math.inf:
            raise ValueError("software_time_per_call must be finite and nonnegative")

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


def device_time(model: CostModel, frames_in: int, frames_out: int,
                cached: bool) -> tuple[float, float, float]:
    """Modelled overlay seconds of one offloaded call, (configure, transfer
    in, transfer out): ``config_time`` unless the mapping is cached, plus
    ``const_transfer_time``, then one 16-byte frame per streamed word at
    ``wire_rate`` each way."""
    configure = (0.0 if cached else model.config_time) + model.const_transfer_time
    return (configure, FRAME_SIZE * frames_in / model.wire_rate,
            FRAME_SIZE * frames_out / model.wire_rate)


def estimate_offload_time(stats: DfgStats, n_iterations: int,
                          model: CostModel, cached: bool) -> float:
    """Predicted seconds for one offloaded call: the summed ``device_time``
    of the frames a run of ``n_iterations`` positions streams."""
    if n_iterations < 0:
        raise ValueError("iteration count must be nonnegative")
    return sum(device_time(model, stats.inputs * n_iterations,
                           stats.outputs * n_iterations, cached))


MARGIN = 0.9  # offload when the estimate is under this share of software time
ALPHA = 0.2  # weight of the newest call in each moving average
WARMUP_CALLS = 5  # offloaded calls before a rollback may trip


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
    """LRU map of at most CACHE_CAPACITY graph hashes to ready-to-run configs."""

    def __init__(self):
        self._entries = Lru(CACHE_CAPACITY)

    def get(self, key: int) -> Optional[CacheEntry]:
        return self._entries.get(key)

    def put(self, entry: CacheEntry) -> None:
        self._entries.put(entry.key, entry)

    def __len__(self) -> int:
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


def _accept(dfg: DataFlowGraph, loops: tuple[kl.For, ...],
            epilogue_dfg: Optional[DataFlowGraph] = None) -> _Accepted:
    """The accepted analysis of ``dfg``, with its epilogue lowered for the host."""
    program = io = None
    if epilogue_dfg is not None:
        program, io = lower_dfg(epilogue_dfg), graph_io(epilogue_dfg)
    return _Accepted(dfg, dfg_hash(dfg), dfg_stats(dfg), loops, program, io)


class _CachedUnroutable(Unroutable):
    """A failure to route, raised again from the cache without a search."""


# What analysing a kernel at one unroll factor and thresholds concluded: a
# graph to map, or the reason it runs in software.
_Analysis = Union[_Accepted, EligibilityReport]


def analyze_kernel(kernel: kl.Kernel, unroll: int, thresholds: Thresholds) -> _Analysis:
    """Eligibility and extraction of ``kernel`` at one unroll factor.

    The kernel is extracted once, at unroll 1, and the verdict, with its
    size thresholds, is taken on that graph.  At unroll 1 it is the graph
    mapped; when unrolled, it is the epilogue's, and its copy into lanes
    (``unroll_dfg``) is accepted whatever its size: whether it fits the
    grid is the placer's to say.
    """
    report = check_eligibility(kernel, thresholds)
    if not report.accepted():
        return report
    loops = tuple(kernel.canonical_nest()[0])
    return _accept(unroll_dfg(report.dfg, loops[-1].var, unroll), loops,
                   epilogue_dfg=report.dfg if unroll > 1 else None)


def trip_counts(loops, params: dict[str, int]) -> list[tuple[str, int]]:
    """(loop var, trip count) outer to inner for one call's parameters.

    A negative bound runs its loop zero times, as in software.
    """
    return [(f.var, max(f.bound if isinstance(f.bound, int) else params[f.bound], 0))
            for f in loops]


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
    elapsed time is ``device_time`` on ``device_model``: by default the
    estimate's ``cost_model``, and another model is what makes measured
    device time depart from the estimate.  Software elapsed time is read
    from ``clock``.  ``decide`` and ``record`` hold the policy.  Distinct
    kernels may execute concurrently: cache and per-kernel state updates are
    lock-protected.  ``thresholds`` without a ``max_nodes`` limit the
    unroll-1 graph to the grid's cell count.
    """

    def __init__(self, shape: OverlayShape,
                 thresholds: Thresholds = Thresholds(),
                 placer_params: PlacerParams = PlacerParams(),
                 cost_model: Optional[CostModel] = None,
                 device_model: Optional[CostModel] = None,
                 unroll: int = 1,
                 seed: int = 0,
                 clock: Callable[[], float] = time.perf_counter):
        check_unroll(unroll)
        self.shape = shape
        if thresholds.max_nodes is None:
            thresholds = replace(thresholds, max_nodes=shape.rows * shape.cols)
        self.thresholds = thresholds
        self.placer_params = placer_params
        self.cost_model = cost_model or CostModel()
        self.device_model = device_model or self.cost_model
        self.cache = ConfigCache()
        # (kernel content key, unroll, thresholds) -> _Analysis
        self._analyses = Lru(CACHE_CAPACITY)
        # (graph hash, shape, placer params, seed) -> the Unroutable message
        self._unroutable = Lru(CACHE_CAPACITY)
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
        analysis = self._analyses.get(memo_key)
        if analysis is not None:
            return analysis
        analysis = analyze_kernel(kernel, self.unroll, self.thresholds)
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
        failure = self._unroutable.get(failure_key)
        if failure is not None:
            raise _CachedUnroutable(failure)
        try:
            placement = place_and_route(accepted.dfg, self.shape,
                                        self.placer_params, self.seed)
        except Unroutable as exc:
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

        # Gather views of the caller's arrays, run, scatter, then run the
        # leftover iterations on the host.  Each graph's views are all
        # bounds-checked before it runs, so a gather raises before any write.
        try:
            run_report = run_compiled(entry.program, stream_views(entry.io, arrays, trips))
            result = write_back(entry.io, run_report.outputs, arrays, trips)
            left = leftover(entry.io, trips)
            if left:
                run_epilogue(analysis.epilogue_io, analysis.epilogue_program,
                             result, trips, left)
        except OutOfBounds as exc:
            # The overlay streams every access in the graph over the whole
            # domain; software touches only what it evaluates, and raises
            # its own error for what it cannot.
            return software("access out of range ({}), software fallback", state, str(exc))

        charge = device_time(self.device_model, run_report.frames_in,
                             run_report.frames_out, cached)
        t_config, t_in, t_out = charge
        # one constant slot per masked cell of the validated config
        emit("configure", "{}consts={} t={:.1f}us", "cached, " if cached else "",
             len(entry.program.const_fill), t_config * 1e6)
        emit("transfer_in", "frames={} t={:.1f}us", run_report.frames_in, t_in * 1e6)
        emit("compute", "cycles={}", run_report.cycles)
        emit("transfer_out", "frames={} t={:.1f}us", run_report.frames_out, t_out * 1e6)

        if left:
            emit("epilogue", "{} leftover iterations of {}", left, trips[-1][0])

        record(state, Mode.OFFLOADED, sum(charge))
        if state.mode == Mode.ROLLED_BACK:
            emit("rollback", "offload slower than software; reverting for good")
        return result, trace

