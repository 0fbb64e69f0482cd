"""The three workloads and the closed loop that times them.

One caller drives ``OffloadRuntime.execute``; each call starts after the
previous one returns.  A run repeats whole rounds (every prepared call once,
in a seeded order) until it has run for the requested time and made at least
``MIN_TIMED_CALLS`` calls.  Every timed call's arrays are compared with the
numpy references; a call fails when it raises or returns a wrong array.

Host time around each call and the simulated device time the runtime
reports for the call are kept apart and never added.  The host-time metrics
are the process's CPU time scaled by the host's speed, sampled between
calls (see ``hostspeed``); wall times are kept as well.
"""

from __future__ import annotations

import re
import resource
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from dfeoffload import (CostModel, Kernel, OffloadRuntime, OverlayShape,
                        PlacerParams, corpus)

from hostspeed import HostSpeed, clocks
from references import REFERENCES, Reference, random_arrays
from tracer import Tracer

# The corpus kernels that route at unroll 1 on a 6x6 overlay.
WARM_KERNELS = ("2mm", "3mm", "atax", "bicg", "branchmix", "gemm", "gemver",
                "gesummv", "mvt", "symm", "syr2k", "syrk", "trmm")
# One kernel per kind of access the gather serves: loop-invariant reads
# (gemm), swapped subscripts (syr2k), vector broadcasts (gemver) and a
# data-dependent branch (branchmix).  trmm makes the count odd: with five
# kernels of distinct cost the median call lies inside one kernel's times,
# not in the gap between two, where single outliers would move it.
STREAM_KERNELS = ("gemm", "syr2k", "gemver", "branchmix", "trmm")
# (kernel, unroll, overlay side): unroll 1 on 6x6, and unroll 2 on 8x8 for
# every kernel but 3mm, which does not route there.
COLD_CONFIGS = tuple([(k, 1, 6) for k in WARM_KERNELS]
                     + [(k, 2, 8) for k in WARM_KERNELS if k != "3mm"])
WORKLOADS = ("warm-small", "stream-large", "cold-map")

WARM_INSTANCES = 8  # inputs per warm-small kernel
COLD_SEEDS = 4  # placer seeds 0..3 for every cold-map configuration
WARM_SIZES = (8, 32)
# Odd inner extents near 707 give about 2.5e5 stream positions at unroll 2
# and leave one iteration per row to the software epilogue.
STREAM_SIZES = (699, 715)
COLD_SIZES = (8, 16)
# A placer budget at which every cold-map (kernel, seed) pair routes; the
# largest search among them takes about 6k position attempts.
COLD_BUDGET = 20_000
# A software time far above any offload estimate, so every call is offloaded
# and no call waits for the interpreter to measure a baseline.
SOFTWARE_BASELINE_S = 10.0
SETUP_REPEATS = 3
SETUP_PROBES = 10  # probes before and after each set-up, see ``hostspeed``
MIN_TIMED_CALLS = 100

_DEVICE_PHASES = ("configure", "transfer_in", "transfer_out")
_DEVICE_US = re.compile(r"\bt=([0-9.eE+-]+)us")


@dataclass
class Call:
    """One prepared ``execute`` call: kernel, inputs and the runtime to use."""

    label: str
    kernel: Kernel
    ref: Reference
    arrays: dict[str, np.ndarray]
    params: dict[str, int]
    runtime: Callable[[], OffloadRuntime]
    _expected: Optional[dict[str, np.ndarray]] = None

    def expected(self) -> dict[str, np.ndarray]:
        if self._expected is None:
            self._expected = self.ref.expected(self.arrays, self.params)
        return self._expected


@dataclass
class Prepared:
    calls: list[Call]
    warm_up: list[Call]  # untimed calls made in set-up


def _stratified(rng: np.random.Generator, lo: int, hi: int, count: int) -> list[int]:
    """One draw from each of ``count`` equal slices of [lo, hi], shuffled.

    Keeps the total work of a run close to the same from seed to seed.
    """
    edges = np.linspace(lo, hi + 1, count + 1).astype(int)
    values = [int(rng.integers(edges[i], edges[i + 1])) for i in range(count)]
    return [int(v) for v in rng.permutation(values)]


def _runtime(side: int, unroll: int, **kwargs) -> OffloadRuntime:
    return OffloadRuntime(
        OverlayShape(side, side), unroll=unroll,
        cost_model=CostModel(software_time_per_call=SOFTWARE_BASELINE_S),
        **kwargs)


def _call(name: str, params: dict[str, int], rng: np.random.Generator,
          runtime: Callable[[], OffloadRuntime], tag: str = "") -> Call:
    ref = REFERENCES[name]
    sizes = " ".join(f"{p}={params[p]}" for p in ref.params)
    return Call(f"{name}{tag} {sizes}", corpus.load(name), ref,
                random_arrays(ref, params, rng), params, runtime)


def prepare(workload: str, seed: int) -> Prepared:
    """Build the inputs and runtimes of one workload from its seed."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    if workload == "warm-small":
        shared = _runtime(6, 1)
        calls = []
        for name in WARM_KERNELS:
            ref = REFERENCES[name]
            sizes = {p: _stratified(rng, *WARM_SIZES, WARM_INSTANCES)
                     for p in ref.params}
            for i in range(WARM_INSTANCES):
                params = {p: sizes[p][i] for p in ref.params}
                calls.append(_call(name, params, rng, lambda: shared))
        return Prepared(calls, calls[::WARM_INSTANCES])
    if workload == "stream-large":
        shared = _runtime(8, 2)
        calls = []
        for name in STREAM_KERNELS:
            ref = REFERENCES[name]
            params = {p: int(rng.integers(STREAM_SIZES[0], STREAM_SIZES[1] + 1))
                      for p in ref.params}
            inner = ref.loops[-1]
            params[inner] |= 1
            calls.append(_call(name, params, rng, lambda: shared))
        return Prepared(calls, calls)
    if workload == "cold-map":
        calls = []
        for name, unroll, side in COLD_CONFIGS:
            ref = REFERENCES[name]
            sizes = {p: _stratified(rng, *COLD_SIZES, COLD_SEEDS)
                     for p in ref.params}
            for placer_seed in range(COLD_SEEDS):
                params = {p: sizes[p][placer_seed] for p in ref.params}

                def fresh(side=side, unroll=unroll, placer_seed=placer_seed):
                    return _runtime(side, unroll, seed=placer_seed,
                                    placer_params=PlacerParams(global_budget=COLD_BUDGET))
                calls.append(_call(name, params, rng, fresh,
                                   f" u{unroll} {side}x{side} seed={placer_seed}"))
        # One warm-up on a throwaway runtime, with a search of a few milliseconds.
        warm = COLD_CONFIGS.index(("trmm", 1, 6)) * COLD_SEEDS
        return Prepared(calls, [calls[warm]])
    raise KeyError(f"unknown workload {workload!r}; have {', '.join(WORKLOADS)}")


def device_seconds(trace) -> float:
    """Simulated overlay seconds the runtime reported for one call."""
    total = 0.0
    for event in trace:
        if event.phase in _DEVICE_PHASES:
            match = _DEVICE_US.search(event.detail)
            if match is None:
                raise ValueError(f"no device time in trace event {event.line()!r}")
            total += float(match.group(1)) * 1e-6
    return total


def ran_on_overlay(trace) -> bool:
    return any(event.phase == "compute" for event in trace)


def matches(out: dict, expected: dict[str, np.ndarray]) -> bool:
    if set(out) != set(expected):
        return False
    for name, want in expected.items():
        got = out[name]
        if (not isinstance(got, np.ndarray) or got.dtype != np.int32
                or got.shape != want.shape or not np.array_equal(got, want)):
            return False
    return True


@dataclass
class Measurement:
    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    offloaded: int = 0
    rounds: int = 0
    loop_s: float = 0.0  # wall time of the whole timed loop
    call_s: list[float] = field(default_factory=list)  # wall time
    scaled_s: list[float] = field(default_factory=list)  # see ``hostspeed``
    iterations: int = 0
    device_s: float = 0.0
    errors: list[str] = field(default_factory=list)
    probe_s: float = 0.0  # median probe time of the run, see ``hostspeed``

    def end_to_end(self, wall: bool = False) -> dict[str, tuple[float, str]]:
        """Every end-to-end metric but ``setup_s``, as (value, unit).

        Host times are scaled CPU times (see ``hostspeed``), or with
        ``wall`` wall times.
        """
        times = np.array((self.call_s if wall else self.scaled_s) or [0.0])
        busy = float(times.sum())
        return {
            "call_ms_p50": (float(np.percentile(times, 50)) * 1e3, "ms"),
            "call_ms_p90": (float(np.percentile(times, 90)) * 1e3, "ms"),
            "iters_per_s": (self.iterations / busy if busy > 0 else 0.0, "1/s"),
            "device_ms_per_call": (self.device_s / self.offloaded * 1e3
                                   if self.offloaded else 0.0, "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "MB"),
        }


def _another_round(m: Measurement, start: float, seconds: float) -> bool:
    """Stop at the round boundary nearest the deadline.

    A cold-map round lasts many seconds, so waiting for the first boundary
    past the deadline would stretch some runs by most of a round.
    """
    elapsed = time.perf_counter() - start
    return elapsed + elapsed / m.rounds / 2 < seconds


def measure(prepared: Prepared, seed: int, seconds: float,
            min_calls: int = MIN_TIMED_CALLS,
            tracer: Optional[Tracer] = None) -> Measurement:
    """Closed loop over whole rounds of the prepared calls."""
    order_rng = np.random.default_rng([seed, 1 << 16])
    m = Measurement()
    speed = HostSpeed()
    cpu_s, groups = [], []  # each timed call's CPU time and probe group before it
    cpu = 0.0
    calls = prepared.calls
    start = time.perf_counter()
    while m.rounds == 0 or m.attempted < min_calls or _another_round(m, start, seconds):
        for index in order_rng.permutation(len(calls)):
            call = calls[index]
            runtime = call.runtime()
            group = speed.before_call(cpu)
            m.attempted += 1
            if tracer is not None:
                tracer.call = m.attempted - 1
            t0, c0 = clocks()
            try:
                out, trace = runtime.execute(call.kernel, call.arrays, call.params)
            except Exception as exc:  # a failed call is counted, the run goes on
                m.failed += 1
                if len(m.errors) < 5:
                    m.errors.append(f"{call.label}: {type(exc).__name__}: {exc}")
                continue
            finally:
                t1, c1 = clocks()
                elapsed, cpu = t1 - t0, c1 - c0
                if tracer is not None:
                    tracer.call = None
            if not matches(out, call.expected()):
                m.failed += 1
                m.wrong += 1
                if len(m.errors) < 5:
                    m.errors.append(f"{call.label}: wrong output")
                continue
            m.call_s.append(elapsed)
            cpu_s.append(cpu)
            groups.append(group)
            m.iterations += call.ref.iterations(call.params)
            if ran_on_overlay(trace):
                m.offloaded += 1
                m.device_s += device_seconds(trace)
        m.rounds += 1
    m.loop_s = time.perf_counter() - start
    speed.sample()  # the probe after the last call
    m.scaled_s = [speed.scaled(c, g) for c, g in zip(cpu_s, groups)]
    m.probe_s = speed.median_probe_s()
    return m


def set_up(workload: str, seed: int) -> Prepared:
    """Inputs, runtimes and the warm-up calls that fill the config cache."""
    prepared = prepare(workload, seed)
    for call in prepared.warm_up:
        call.runtime().execute(call.kernel, call.arrays, call.params)
    return prepared


@dataclass
class Result:
    setup_s: list[float]  # wall time of each set-up
    scaled_setup_s: list[float]  # the same as scaled CPU time
    measurement: Measurement
    tracer: Optional[Tracer]


def run(workload: str, seed: int, seconds: float, trace: bool = False,
        setup_repeats: int = SETUP_REPEATS,
        min_calls: int = MIN_TIMED_CALLS) -> Result:
    """Set up ``setup_repeats`` times, keep the last, then time the loop."""
    tracer = Tracer() if trace else None
    if tracer is not None:
        tracer.install()
    try:
        speed = HostSpeed()
        setups, timed = [], []  # wall times; (CPU time, probe group before)
        group = speed.sample(SETUP_PROBES)
        for _ in range(setup_repeats):
            t0, c0 = clocks()
            prepared = set_up(workload, seed)
            t1, c1 = clocks()
            setups.append(t1 - t0)
            timed.append((c1 - c0, group))
            group = speed.sample(SETUP_PROBES)
        scaled = [speed.scaled(c, g) for c, g in timed]
        m = measure(prepared, seed, seconds, min_calls, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    return Result(setups, scaled, m, tracer)

