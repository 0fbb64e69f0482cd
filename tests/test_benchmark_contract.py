"""What the benchmark in ``offloadbench/`` uses of the program.

The benchmark wraps the functions its tracer names, builds runtimes with a
fixed set of keywords, and reads each call's device time from the text of
its trace.  A change that renames or drops one of them, or changes that
text, breaks the benchmark run; these tests make it fail here as well.
"""

import importlib
import runpy
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from dfeoffload import (CostModel, OffloadRuntime, OverlayShape, PlacerParams,
                        corpus, engine, runtime)
from dfeoffload.kernels import allocate_arrays

BENCH = Path(__file__).resolve().parent.parent / "offloadbench"
TRACER = BENCH / "tracer.py"
LAYER_FUNCTIONS = runpy.run_path(str(TRACER))["LAYER_FUNCTIONS"]


@pytest.mark.parametrize("span,module,path", LAYER_FUNCTIONS,
                         ids=[span for span, _, _ in LAYER_FUNCTIONS])
def test_every_function_the_tracer_wraps_exists(span, module, path):
    owner = importlib.import_module(module)
    for part in path.split("."):
        owner = getattr(owner, part)
    assert callable(owner), span


def test_the_engine_entry_points_the_benchmark_uses_exist():
    assert callable(engine.get_runner)
    assert isinstance(engine.default_backend(), str)


def test_the_runtime_takes_the_keywords_the_workloads_pass():
    rt = OffloadRuntime(OverlayShape(6, 6), unroll=1,
                        cost_model=CostModel(software_time_per_call=10.0), seed=0,
                        placer_params=PlacerParams(global_budget=20_000))
    assert rt.placer_params.global_budget == 20_000


def test_the_benchmark_reads_each_calls_device_time_from_its_trace(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    workloads = importlib.import_module("workloads")
    charges = []
    original = runtime.record
    monkeypatch.setattr(runtime, "record", lambda state, mode, elapsed: (
        charges.append(elapsed) or original(state, mode, elapsed)))
    model = CostModel(software_time_per_call=10.0)
    kernel = corpus.load("gemm")
    params = {"M": 7, "N": 9}
    arrays = allocate_arrays(kernel, params, np.random.default_rng(0))
    # At unroll 2 each row streams 4 lane blocks and leaves its last column
    # to the epilogue, which runs on the host and is not charged.
    for shape, unroll, positions in ((OverlayShape(6, 6), 1, 7 * 9),
                                     (OverlayShape(8, 8), 2, 7 * 4)):
        rt = OffloadRuntime(shape, cost_model=model, unroll=unroll, seed=3)
        stats = rt.analyze(kernel).stats
        wire = 16 * (stats.inputs + stats.outputs) * positions / model.wire_rate
        # three device figures, each printed to 0.1 us
        for setup in (model.config_time, 0.0):  # a miss, then a hit
            _, trace = rt.execute(kernel, arrays, params)
            assert workloads.ran_on_overlay(trace)
            assert ("epilogue" in [event.phase for event in trace]) == (unroll == 2)
            assert workloads.device_seconds(trace) == pytest.approx(
                setup + model.const_transfer_time + wire, rel=0, abs=2e-7)
            # the runtime records what it predicts
            assert charges[-1] == runtime.estimate_offload_time(
                stats, positions, model, cached=not setup)


def test_an_offloaded_call_reaches_the_functions_the_tracer_times(monkeypatch):
    # A per-layer metric reads 0 when a refactor routes a call around the
    # function its span wraps; pin which spans a cold and a warm call record.
    monkeypatch.syspath_prepend(str(BENCH))
    tracer = importlib.import_module("tracer").Tracer()
    rt = OffloadRuntime(OverlayShape(8, 8), unroll=2, seed=3,
                        cost_model=CostModel(software_time_per_call=10.0))
    kernel = corpus.load("gemm")
    params = {"M": 7, "N": 9}
    arrays = allocate_arrays(kernel, params, np.random.default_rng(0))
    tracer.install()
    try:
        for call in range(2):
            tracer.call = call
            _, trace = rt.execute(kernel, arrays, params)
            assert "compute" in [event.phase for event in trace]
    finally:
        tracer.uninstall()
    cold, warm = (Counter(span.name for span in tracer.spans if span.call == call)
                  for call in range(2))
    assert cold == {"runtime.execute": 1, "runtime.cache_get": 1,
                    "frontend.check_eligibility": 1, "frontend.extract_dfg": 1,
                    "dfg.dfg_hash": 1, "placer.place_and_route": 1,
                    "placer.apply": 1, "simulator.compile_config": 1,
                    "simulator.run_compiled": 1, "simulator.write_back": 1,
                    "engine.run_program": 2}
    assert warm == {"runtime.execute": 1, "runtime.cache_get": 1,
                    "simulator.run_compiled": 1, "simulator.write_back": 1,
                    "engine.run_program": 2}
