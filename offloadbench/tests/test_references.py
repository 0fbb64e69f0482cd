"""The numpy references agree with the program's software evaluator."""

import json
from pathlib import Path

import numpy as np
import pytest

from dfeoffload import corpus, evaluate_kernel

import tracer
import workloads
from references import REFERENCES, random_arrays

BENCHMARK_JSON = Path(__file__).resolve().parents[2] / "BENCHMARK.json"
USED = sorted(set(workloads.WARM_KERNELS) | set(workloads.STREAM_KERNELS)
              | {name for name, _, _ in workloads.COLD_CONFIGS})


def test_every_kernel_the_workloads_use_has_a_reference():
    assert set(USED) <= set(REFERENCES)


# Inner extents 6 (even) and 7 (odd, a remainder at unroll 2); outer 5 and 6.
@pytest.mark.parametrize("inner", [6, 7])
@pytest.mark.parametrize("name", USED)
def test_reference_matches_evaluator(name, inner):
    ref = REFERENCES[name]
    kernel = corpus.load(name)
    rng = np.random.default_rng([inner, len(name)])
    for outer in (5, 6):
        params = {p: outer for p in ref.params}
        params[ref.loops[-1]] = inner
        arrays = random_arrays(ref, params, rng)
        want = evaluate_kernel(kernel, arrays, params)
        got = ref.expected(arrays, params)
        assert set(got) == set(want)
        for array in want:
            assert got[array].dtype == want[array].dtype == np.int32
            np.testing.assert_array_equal(got[array], want[array], err_msg=array)


def test_references_wrap_like_int32():
    ref = REFERENCES["gemm"]
    params = {"M": 3, "N": 5}
    arrays = {name: np.full(shape, np.iinfo(np.int32).max, dtype=np.int32)
              for name, shape in ref.shapes(**params).items()}
    want = evaluate_kernel(corpus.load("gemm"), arrays, params)
    np.testing.assert_array_equal(ref.expected(arrays, params)["C"], want["C"])


def test_run_reports_the_metrics_benchmark_json_names():
    spec = json.loads(BENCHMARK_JSON.read_text())
    result = workloads.run("warm-small", 0, 0.0, trace=True, setup_repeats=1,
                           min_calls=1)
    m = result.measurement
    assert m.failed == 0 and m.offloaded == m.attempted == len(workloads.WARM_KERNELS) * workloads.WARM_INSTANCES
    end_to_end = set(m.end_to_end()) | {"setup_s"}
    assert end_to_end == {metric["name"] for metric in spec["end_to_end"]}
    layers = tracer.layer_metrics(result.tracer, m.attempted, m.offloaded, 1)
    assert set(layers) == {metric["name"] for metric in spec["per_layer"]}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
