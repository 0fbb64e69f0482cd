"""A delay added to one layer moves the end-to-end metric the README maps it to.

Each case slows one public function of a layer by a fixed amount: a fixed
time per call for place & route and for extraction, and a fixed time per
gathered stream position for ``build_streams``, whose cost grows with the
data.  The delay is installed by this test only.  On the workload that
exercises the layer, ``call_ms_p50`` and ``iters_per_s`` must get worse by
more than the benchmark's bound; on the workload that bypasses the layer (or
touches it with tiny inputs) they must stay within the bound.

Host speed drifts on shared machines in phases of seconds, so the test takes
short measurements in adjacent pairs (slowed and not, alternating which goes
first) and compares the median of the per-pair ratios with the bound.
"""

import json
import statistics
import time
from pathlib import Path

import pytest

import workloads
from tracer import Patches

SPEC = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
BOUND = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
PAIRS = 7
# Timed calls per measurement: whole rounds, few enough that both sides of a
# pair see the same host speed.
MIN_CALLS = {"warm-small": 104, "stream-large": 10, "cold-map": 48}


def _busy_wait(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def _slowed(per_call: float, per_position: float):
    def make(fn):
        def slowed(*args, **kwargs):
            result = fn(*args, **kwargs)
            positions = len(next(iter(result.values()), ())) if per_position else 0
            _busy_wait(per_call + per_position * positions)
            return result
        return slowed
    return make


@pytest.fixture(scope="module")
def prepared():
    out = {name: workloads.set_up(name, 7) for name in workloads.WORKLOADS}
    # Only the unroll-1 pairs of cold-map whose search takes milliseconds,
    # so that one round stays short.
    cold = out["cold-map"]
    cold.calls = [c for c in cold.calls if " u1 " in c.label and not c.label.startswith("3mm")]
    return out


def _metrics(prepared, workload):
    m = workloads.measure(prepared[workload], 7, 0.0, MIN_CALLS[workload])
    assert m.failed == 0 and m.offloaded == m.attempted
    e2e = m.end_to_end()
    return e2e["call_ms_p50"][0], e2e["iters_per_s"][0]


def _ratios(prepared, workload, module, path, slowdown):
    """Median over adjacent pairs of slowed / plain, for p50 and iters_per_s."""
    p50, ips = [], []
    for i in range(PAIRS):
        measured = {}
        for slowed in ((False, True) if i % 2 == 0 else (True, False)):
            patches = Patches()
            if slowed:
                patches.replace(module, path, slowdown)
            try:
                measured[slowed] = _metrics(prepared, workload)
            finally:
                patches.undo()
        p50.append(measured[True][0] / measured[False][0])
        ips.append(measured[True][1] / measured[False][1])
    return statistics.median(p50), statistics.median(ips)


CASES = [
    # module, function, delay per call (s), per stream position (s),
    # workload that exercises it, workload that bypasses it
    ("dfeoffload.placer", "place_and_route", 0.05, 0.0, "cold-map", "warm-small"),
    ("dfeoffload.simulator", "build_streams", 0.0, 4e-7, "stream-large", "warm-small"),
    ("dfeoffload.frontend", "extract_dfg", 0.002, 0.0, "warm-small", "stream-large"),
]


@pytest.mark.parametrize("module,path,per_call,per_position,exercised,bypassed", CASES,
                         ids=[case[1] for case in CASES])
def test_delay_moves_only_the_workload_that_uses_the_layer(
        prepared, module, path, per_call, per_position, exercised, bypassed):
    slowdown = _slowed(per_call, per_position)

    p50, ips = _ratios(prepared, exercised, module, path, slowdown)
    assert p50 > 1 + BOUND["call_ms_p50"], (exercised, p50)
    assert ips < 1 - BOUND["iters_per_s"], (exercised, ips)

    p50, ips = _ratios(prepared, bypassed, module, path, slowdown)
    assert p50 <= 1 + BOUND["call_ms_p50"], (bypassed, p50)
    assert ips >= 1 - BOUND["iters_per_s"], (bypassed, ips)
