"""Per-layer spans for the traced benchmark run, recorded from outside the program.

The tracer replaces the public functions of each layer with wrappers that
record a span (name, host start and end, parent span, timed call) and a few
counters read from arguments and results.  A function imported by name into
another module is replaced there too, so calls between layers are seen
wherever they are made.  ``uninstall`` puts every original back.

Spans are kept in memory and written out when the run ends.  A span's self
time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Optional

# (span name, module, attribute path) for every layer function the run wraps.
LAYER_FUNCTIONS = (
    ("runtime.execute", "dfeoffload.runtime", "OffloadRuntime.execute"),
    ("runtime.cache_get", "dfeoffload.runtime", "ConfigCache.get"),
    ("frontend.check_eligibility", "dfeoffload.frontend", "check_eligibility"),
    ("frontend.extract_dfg", "dfeoffload.frontend", "extract_dfg"),
    ("dfg.dfg_hash", "dfeoffload.dfg", "dfg_hash"),
    ("placer.place_and_route", "dfeoffload.placer", "place_and_route"),
    ("placer.apply", "dfeoffload.placer", "Placement.apply"),
    ("overlay.validate_config", "dfeoffload.overlay", "validate_config"),
    ("simulator.compile_config", "dfeoffload.simulator", "compile_config"),
    ("simulator.build_streams", "dfeoffload.simulator", "build_streams"),
    ("simulator.run_compiled", "dfeoffload.simulator", "run_compiled"),
    ("simulator.write_back", "dfeoffload.simulator", "write_back"),
    ("kernels.evaluate_kernel", "dfeoffload.kernels", "evaluate_kernel"),
)

# Calls from one layer into another that the run counts, caller first.
CALL_EDGES = (
    ("runtime.execute", "frontend.check_eligibility"),
    ("runtime.execute", "frontend.extract_dfg"),
    ("frontend.check_eligibility", "frontend.extract_dfg"),
    ("runtime.execute", "placer.place_and_route"),
    ("runtime.execute", "placer.apply"),
    ("placer.place_and_route", "placer.apply"),
    ("placer.place_and_route", "overlay.validate_config"),
    ("simulator.compile_config", "overlay.validate_config"),
    ("runtime.execute", "kernels.evaluate_kernel"),
)


def _resolve(module: str, path: str) -> tuple[Any, str, Any]:
    """(owner object, attribute name, current value) for a dotted path."""
    owner: Any = sys.modules[module]
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr, getattr(owner, attr)


class Patches:
    """Replaces functions in the program and restores them on ``undo``."""

    def __init__(self):
        self._undo: list[tuple[Any, str, Any]] = []

    def replace(self, module: str, path: str,
                make: Callable[[Callable], Callable]) -> None:
        """Swap ``module.path`` for ``make(original)`` at every binding.

        A module-level function is also swapped in every module of the
        ``dfeoffload`` package that imported it by name; a method is swapped
        on its class.
        """
        owner, attr, original = _resolve(module, path)
        wrapper = make(original)
        if "." in path:
            self._set(owner, attr, wrapper)
            return
        for name, mod in list(sys.modules.items()):
            if mod is None or name.split(".")[0] != "dfeoffload":
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, key, wrapper)

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def undo(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


@dataclass
class Span:
    name: str
    start_ns: int
    end_ns: int = 0
    parent: int = -1
    call: Optional[int] = None  # index of the timed call, None in set-up
    counters: dict = field(default_factory=dict)


class Tracer:
    """Records spans around the layer functions while installed.

    Set ``call`` to the index of the timed call before each call and back to
    None afterwards; spans outside timed calls belong to set-up.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.call: Optional[int] = None
        self._stack: list[int] = []
        self._patches = Patches()

    # -- installing -----------------------------------------------------------

    def install(self) -> None:
        for name, module, path in LAYER_FUNCTIONS:
            self._patches.replace(module, path,
                                  lambda fn, name=name: self._wrap(name, fn))
        # The engine's run_program is reached through a backend table, so the
        # runner that get_runner hands out is the one wrapped.
        self._patches.replace(
            "dfeoffload.engine", "get_runner",
            lambda get: lambda *a, **kw: self._wrap("engine.run_program",
                                                    get(*a, **kw)))

    def uninstall(self) -> None:
        self._patches.undo()

    def _wrap(self, name: str, fn: Callable) -> Callable:
        count = _COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, 0, parent=self._stack[-1] if self._stack else -1,
                        call=self.call)
            index = len(self.spans)
            self.spans.append(span)
            self._stack.append(index)
            span.start_ns = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.end_ns = time.perf_counter_ns()
                if count is not None:
                    span.counters = count(args, kwargs, None, exc)
                raise
            finally:
                self._stack.pop()
            span.end_ns = time.perf_counter_ns()
            if count is not None:
                span.counters = count(args, kwargs, result, None)
            return result

        return traced

    # -- reporting ------------------------------------------------------------

    def layer_totals(self, timed: bool = True) -> tuple[dict, dict, dict, dict]:
        """Sums over timed-call spans (or set-up spans when ``timed`` is False).

        Returns (total ns, self ns, calls, counters) keyed by span name, with
        calls also keyed by (caller, callee) pairs.
        """
        total: dict[str, int] = defaultdict(int)
        self_ns: dict[str, int] = defaultdict(int)
        calls: dict = defaultdict(int)
        counters: dict[str, float] = defaultdict(float)
        for span in self.spans:
            if (span.call is not None) != timed:
                continue
            duration = span.end_ns - span.start_ns
            total[span.name] += duration
            self_ns[span.name] += duration
            calls[span.name] += 1
            if span.parent >= 0:
                parent = self.spans[span.parent]
                self_ns[parent.name] -= duration
                calls[(parent.name, span.name)] += 1
            for key, value in span.counters.items():
                counters[key] += value
        return total, self_ns, calls, counters

    def write_spans(self, path: Path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps({
                    "name": span.name, "start_ns": span.start_ns,
                    "end_ns": span.end_ns, "parent": span.parent,
                    "call": span.call, "counters": span.counters}) + "\n")


# -- counters read from arguments and results ---------------------------------------


def _cache_get(args, kwargs, result, exc):
    if exc is not None:
        return {}
    return {"runtime.cache_hits" if result is not None
            else "runtime.cache_misses": 1}


def _place_and_route(args, kwargs, result, exc):
    counters = result.counters if exc is None else getattr(exc, "counters", None)
    if counters is None:
        return {}
    return {"placer.position_attempts": counters.position_attempts,
            "placer.backtracks": counters.backtracks,
            "placer.node_restarts": counters.node_restarts,
            "placer.nodes_placed": len(result.node_cells) if exc is None else 0}


def _run_compiled(args, kwargs, result, exc):
    if exc is not None:
        return {}
    return {"simulator.frames_in": result.frames_in,
            "simulator.frames_out": result.frames_out}


def _run_program(args, kwargs, result, exc):
    instrs, values = args[0], args[1]
    return {"engine.ops": int(len(instrs)) * int(values.shape[1])}


def _evaluate_kernel(args, kwargs, result, exc):
    """Iterations run by an epilogue: the calls that skip into the innermost loop."""
    kernel = args[0]
    params = args[2] if len(args) > 2 else kwargs["params"]
    start = args[3] if len(args) > 3 else kwargs.get("innermost_start", 0)
    if not start:
        return {}
    loops, _ = kernel.canonical_nest()
    trips = [loop.bound if isinstance(loop.bound, int) else params[loop.bound]
             for loop in loops]
    iters = trips[-1] - start
    for n in trips[:-1]:
        iters *= n
    return {"kernels.epilogue_iters": iters}


_COUNTERS = {
    "runtime.cache_get": _cache_get,
    "placer.place_and_route": _place_and_route,
    "simulator.run_compiled": _run_compiled,
    "engine.run_program": _run_program,
    "kernels.evaluate_kernel": _evaluate_kernel,
}


def layer_metrics(tracer: Tracer, timed_calls: int, offloaded: int,
                  setups: int) -> dict[str, tuple[float, str]]:
    """Per-layer figures per timed call, plus the placer's share of a set-up.

    ms figures are host time.  ``runtime.offloaded_calls`` is a total, to be
    read against the calls attempted.
    """
    total, self_ns, calls, c = tracer.layer_totals(timed=True)
    n = max(timed_calls, 1)

    def ms(ns: float) -> tuple[float, str]:
        return ns / 1e6 / n, "ms/call"

    def per_call(count: float) -> tuple[float, str]:
        return count / n, "count/call"

    engine_s = total["engine.run_program"] / 1e9
    attempts = c["placer.position_attempts"]
    metrics = {
        "runtime.execute.self_ms": ms(self_ns["runtime.execute"]),
        "runtime.cache_hits": per_call(c["runtime.cache_hits"]),
        "runtime.cache_misses": per_call(c["runtime.cache_misses"]),
        "runtime.offloaded_calls": (float(offloaded), "count"),
        "frontend.check_eligibility.ms": ms(total["frontend.check_eligibility"]),
        "frontend.extract_dfg.ms": ms(total["frontend.extract_dfg"]),
        "frontend.extract_dfg.calls": per_call(calls["frontend.extract_dfg"]),
        "dfg.dfg_hash.ms": ms(total["dfg.dfg_hash"]),
        "placer.place_and_route.ms": ms(total["placer.place_and_route"]),
        "placer.apply.ms": ms(total["placer.apply"]),
        "placer.position_attempts": per_call(attempts),
        "placer.backtracks": per_call(c["placer.backtracks"]),
        "placer.node_restarts": per_call(c["placer.node_restarts"]),
        "placer.nodes_placed_per_attempt": (
            c["placer.nodes_placed"] / attempts if attempts else 0.0, "ratio"),
        "overlay.validate_config.ms": ms(total["overlay.validate_config"]),
        "overlay.validate_config.calls": per_call(calls["overlay.validate_config"]),
        "simulator.compile_config.self_ms": ms(self_ns["simulator.compile_config"]),
        "simulator.build_streams.ms": ms(total["simulator.build_streams"]),
        "simulator.run_compiled.self_ms": ms(self_ns["simulator.run_compiled"]),
        "simulator.write_back.ms": ms(total["simulator.write_back"]),
        "simulator.frames_in": per_call(c["simulator.frames_in"]),
        "simulator.frames_out": per_call(c["simulator.frames_out"]),
        "engine.run_program.ms": ms(total["engine.run_program"]),
        "engine.ops": per_call(c["engine.ops"]),
        "engine.ops_per_s": (c["engine.ops"] / engine_s if engine_s else 0.0, "1/s"),
        "kernels.evaluate_kernel.ms": ms(total["kernels.evaluate_kernel"]),
        "kernels.epilogue_iters": per_call(c["kernels.epilogue_iters"]),
    }
    for caller, callee in CALL_EDGES:
        metrics[f"calls.{caller}-{callee}"] = per_call(calls[(caller, callee)])
    s_total, _, _, s_counters = tracer.layer_totals(timed=False)
    metrics["setup.placer.place_and_route.ms"] = (
        s_total["placer.place_and_route"] / 1e6 / max(setups, 1), "ms/setup")
    metrics["setup.placer.position_attempts"] = (
        s_counters["placer.position_attempts"] / max(setups, 1), "count/setup")
    return metrics
