"""What the benchmark in ``offloadbench/`` uses of the program.

The benchmark wraps the functions its tracer names and builds runtimes with
a fixed set of keywords.  A change that renames or drops one of them breaks
the benchmark run; these tests make it fail here as well.
"""

import importlib
import runpy
from pathlib import Path

import pytest

from dfeoffload import CostModel, OffloadRuntime, OverlayShape, PlacerParams, engine

TRACER = Path(__file__).resolve().parent.parent / "offloadbench" / "tracer.py"
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
