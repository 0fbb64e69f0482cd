"""Runtime: the warm path, the analysis memo, the cached failures, LRU
eviction and the measured-cost rollback.

Offload is forced with a software baseline far above any estimate, so every
eligible call that maps runs on the overlay; software is forced with one far
below.  Every returned array must equal ``evaluate_kernel``.
"""

import os
import pickle
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import dfeoffload
from dfeoffload import cli, corpus, frontend, overlay, placer, runtime, simulator
from dfeoffload.dfg import DataFlowGraph
from dfeoffload.kernels import (EvalError, Kernel, allocate_arrays,
                                evaluate_kernel, parse_kernel)
from dfeoffload.overlay import OverlayShape
from dfeoffload.placer import PlacerParams
from dfeoffload.runtime import CostModel, OffloadRuntime
from conftest import assert_id_rule
from test_frontend import BIG_LITERAL_BODIES, _GEN_ARRAYS, _kernels, kparse

# The kernels that route at unroll 1 on a 6x6 overlay.
WARM_KERNELS = ["2mm", "3mm", "atax", "bicg", "branchmix", "gemm", "gemver",
                "gesummv", "mvt", "symm", "syr2k", "syrk", "trmm"]
OFFLOAD = CostModel(software_time_per_call=10.0)
SOFTWARE = CostModel(software_time_per_call=1e-12)
# A placer seed at which all of WARM_KERNELS route on 6x6 in milliseconds.
SEED = 3


def _inputs(kernel, size, seed=0):
    params = {p: size for p in kernel.params}
    rng = np.random.default_rng(seed)
    return allocate_arrays(kernel, params, rng, -2**31, 2**31 - 1), params


def _assert_matches_software(kernel, arrays, params, out):
    expected = evaluate_kernel(kernel, arrays, params)
    assert set(out) == set(expected)
    for name, want in expected.items():
        assert out[name].dtype == want.dtype
        assert np.array_equal(out[name], want), name


def _phases(trace):
    return [event.phase for event in trace]


class _Counts:
    """Counts calls to functions of the program, wherever they are bound."""

    def __init__(self, monkeypatch):
        self.calls = {}
        self._monkeypatch = monkeypatch

    def watch(self, module, name):
        original = getattr(module, name)

        def counted(*args, **kwargs):
            self.calls[name] = self.calls.get(name, 0) + 1
            return original(*args, **kwargs)

        self._monkeypatch.setattr(module, name, counted)
        self.calls[name] = 0


@pytest.fixture
def counts(monkeypatch):
    c = _Counts(monkeypatch)
    c.watch(frontend, "extract_dfg")
    c.watch(runtime, "unroll_dfg")
    c.watch(runtime, "check_eligibility")
    c.watch(simulator, "trace_config")
    c.watch(runtime, "compile_config")
    c.watch(runtime, "place_and_route")
    return c


def _analysis_calls(c):
    return {name: c.calls[name] for name in
            ("extract_dfg", "check_eligibility", "trace_config", "compile_config")}


def test_each_warm_kernel_misses_once_then_hits():
    rt = OffloadRuntime(OverlayShape(6, 6), cost_model=OFFLOAD, seed=SEED)
    for i, name in enumerate(WARM_KERNELS):
        kernel = corpus.load(name)
        for call in range(3):
            arrays, params = _inputs(kernel, 5 + call, seed=i)
            out, trace = rt.execute(kernel, arrays, params)
            _assert_matches_software(kernel, arrays, params, out)
            phases = _phases(trace)
            assert "compute" in phases, (name, phases)
            assert ("place_route" in phases) == (call == 0), (name, phases)
            assert ("cache" in phases) == (call > 0), (name, phases)
    assert len(rt.cache) == len(WARM_KERNELS)


@pytest.mark.parametrize("name", ["gemm", "trmm"])
def test_unroll_two_with_odd_inner_extent_runs_the_epilogue(name):
    kernel = corpus.load(name)
    rt = OffloadRuntime(OverlayShape(8, 8), cost_model=OFFLOAD, unroll=2, seed=SEED)
    for call in range(3):
        arrays, params = _inputs(kernel, 7 + 2 * call, seed=call)
        out, trace = rt.execute(kernel, arrays, params)
        _assert_matches_software(kernel, arrays, params, out)
        assert "compute" in _phases(trace)
        assert "epilogue" in _phases(trace)


def test_a_hit_neither_analyses_nor_lowers(counts):
    kernel = corpus.load("gemm")
    rt = OffloadRuntime(OverlayShape(6, 6), cost_model=OFFLOAD, seed=SEED)
    arrays, params = _inputs(kernel, 6)
    rt.execute(kernel, arrays, params)
    # a miss at unroll 1 extracts once, inside the eligibility check, and
    # lowers once, which traces the config once
    assert _analysis_calls(counts) == {"extract_dfg": 1, "check_eligibility": 1,
                                       "trace_config": 1, "compile_config": 1}
    for name in counts.calls:
        counts.calls[name] = 0
    for size in (4, 9):
        arrays, params = _inputs(kernel, size)
        out, trace = rt.execute(kernel, arrays, params)
        _assert_matches_software(kernel, arrays, params, out)
        assert "cache" in _phases(trace) and "compute" in _phases(trace)
    assert _analysis_calls(counts) == {"extract_dfg": 0, "check_eligibility": 0,
                                       "trace_config": 0, "compile_config": 0}
    # an equal kernel parsed again is the same analysis
    rt.execute(corpus.load("gemm"), arrays, params)
    assert counts.calls["check_eligibility"] == 0


# scaleadd, with the literal 3, C's dtype and the inner loop bound as holes
SCALEADD = ("kernel scaleadd(M, N)\narrays: A[MxN]:int32, B[MxN]:int32, C[MxN]:{dtype}\n"
            "for i in 0..M {{ for j in 0..{bound} {{ C[i][j] = A[i][j] + {k}*B[i][j] + 1; }} }}")
SCALEADD_HOLES = {"dtype": "int32", "bound": "N", "k": 3}


@pytest.mark.parametrize("change", [{"k": 4}, {"dtype": "float32"}, {"bound": 3}],
                         ids=["literal", "dtype", "loop-bound"])
def test_a_kernel_that_differs_in_one_place_gets_its_own_analysis(counts, change):
    rt = OffloadRuntime(OverlayShape(6, 6), frontend.Thresholds(min_nodes=0),
                        cost_model=OFFLOAD, seed=SEED)
    kernels = [parse_kernel(SCALEADD.format(**SCALEADD_HOLES)),
               parse_kernel(SCALEADD.format(**{**SCALEADD_HOLES, **change}))]
    for kernel in kernels + kernels:
        arrays, params = _inputs(kernel, 5)
        out, _ = rt.execute(kernel, arrays, params)
        _assert_matches_software(kernel, arrays, params, out)
    assert counts.calls["check_eligibility"] == 2


def test_a_pickled_kernel_hits_the_memo(counts):
    kernel = corpus.load("gemm")
    rt = OffloadRuntime(OverlayShape(6, 6), cost_model=OFFLOAD, seed=SEED)
    arrays, params = _inputs(kernel, 6)
    rt.execute(kernel, arrays, params)
    copy = pickle.loads(pickle.dumps(kernel))
    assert copy is not kernel
    out, trace = rt.execute(copy, arrays, params)
    _assert_matches_software(kernel, arrays, params, out)
    assert "cache" in _phases(trace)
    assert counts.calls["check_eligibility"] == 1


def test_the_memo_key_is_the_same_in_every_process(tmp_path):
    kernel = corpus.load("gemm")
    key = kernel.content_key
    pickled = tmp_path / "gemm.pickle"
    pickled.write_bytes(pickle.dumps(kernel))
    script = ("import pickle, sys\nfrom dfeoffload import corpus\n"
              "copy = pickle.loads(open(sys.argv[1], 'rb').read())\n"
              "print(copy.content_key, corpus.load('gemm').content_key)")
    src = str(Path(dfeoffload.__file__).resolve().parents[1])
    for hash_seed in ("1", "2"):
        env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": src}
        run = subprocess.run([sys.executable, "-c", script, str(pickled)], env=env,
                             capture_output=True, text=True, check=True)
        assert run.stdout.split() == [key, key]


def _refuse(*args):
    raise AssertionError("called on a hit")


def test_a_hit_neither_hashes_nor_compares_the_kernel(monkeypatch):
    kernel = corpus.load("gemm")
    rt = OffloadRuntime(OverlayShape(6, 6), cost_model=OFFLOAD, seed=SEED)
    arrays, params = _inputs(kernel, 6)
    rt.execute(kernel, arrays, params)
    expected = evaluate_kernel(kernel, arrays, params)
    equal = corpus.load("gemm")
    monkeypatch.setattr(Kernel, "__hash__", _refuse)
    monkeypatch.setattr(Kernel, "__eq__", _refuse)
    for hit in (kernel, equal):
        out, trace = rt.execute(hit, arrays, params)
        assert "cache" in _phases(trace) and "compute" in _phases(trace)
        assert out.keys() == expected.keys()
        for name, want in expected.items():
            assert np.array_equal(out[name], want), name


@pytest.mark.parametrize("unroll,extent", [(1, 6), (2, 7)], ids=["u1", "u2-odd"])
def test_a_hit_does_not_rescan_the_graph(monkeypatch, unroll, extent):
    kernel = corpus.load("gemm")
    rt = OffloadRuntime(OverlayShape(8, 8), cost_model=OFFLOAD, unroll=unroll, seed=SEED)
    rt.execute(kernel, *_inputs(kernel, extent))
    arrays, params = _inputs(kernel, extent, seed=1)
    expected = evaluate_kernel(kernel, arrays, params)
    monkeypatch.setattr(DataFlowGraph, "inputs", _refuse)
    monkeypatch.setattr(DataFlowGraph, "outputs", _refuse)
    out, trace = rt.execute(kernel, arrays, params)
    assert "cache" in _phases(trace)
    assert ("epilogue" in _phases(trace)) == (unroll == 2)
    for name, want in expected.items():
        assert np.array_equal(out[name], want), name


@pytest.mark.parametrize("unroll,extent", [(1, 6), (2, 7)], ids=["u1", "u2-odd"])
def test_a_repeated_call_signature_lays_out_no_view(monkeypatch, unroll, extent):
    # The signature is the trip counts and each array's shape, strides and
    # dtype: new values of the same arrays repeat it, a new size does not.
    kernel = corpus.load("gemm")
    rt = OffloadRuntime(OverlayShape(8, 8), cost_model=OFFLOAD, unroll=unroll, seed=SEED)
    layouts = []
    original = simulator._layout
    monkeypatch.setattr(simulator, "_layout",
                        lambda *args: layouts.append(args[1]) or original(*args))
    accepted = rt.analyze(kernel)
    ios = [simulator.graph_io(accepted.dfg)]
    if unroll > 1:  # the leftover column's graph
        ios.append(accepted.epilogue_io)
    per_call = sum(len(io.reads) + len(io.writes) for io in ios)
    for size, seed, laid_out in [(extent, 0, per_call), (extent, 1, 0),
                                 (extent + 2, 2, per_call), (extent, 3, 0)]:
        layouts.clear()
        arrays, params = _inputs(kernel, size, seed=seed)
        out, trace = rt.execute(kernel, arrays, params)
        assert "compute" in _phases(trace)
        _assert_matches_software(kernel, arrays, params, out)
        assert len(layouts) == laid_out, (size, seed)


@pytest.mark.parametrize("unroll,extent", [(1, 6), (2, 7)], ids=["u1", "u2-odd"])
def test_a_repeated_signature_reaches_no_layout_and_no_row_plan(monkeypatch, unroll, extent):
    # The second call of a signature runs on its call plan: it lays out no
    # view and plans no rows, for the overlay's box or the epilogue's.
    kernel = corpus.load("gemm")
    rt = OffloadRuntime(OverlayShape(8, 8), cost_model=OFFLOAD, unroll=unroll, seed=SEED)
    arrays, params = _inputs(kernel, extent)
    first, _ = rt.execute(kernel, arrays, params)

    def refuse(*args):
        raise AssertionError("a repeated signature planned again")

    monkeypatch.setattr(simulator, "_layout", refuse)
    monkeypatch.setattr(simulator, "_row_plan", refuse)
    second, trace = rt.execute(kernel, arrays, params)
    assert "cache" in _phases(trace) and "compute" in _phases(trace)
    assert ("epilogue" in _phases(trace)) == (unroll == 2)
    assert second.keys() == first.keys()
    for name, want in first.items():
        assert np.array_equal(second[name], want), name
    _assert_matches_software(kernel, arrays, params, second)


def test_a_call_plan_is_made_again_on_a_new_mapping(monkeypatch):
    # A plan belongs to the mapping it was made on: once the cache holds
    # another mapping of the graph, the signature is planned again.
    kernel = corpus.load("gemm")
    rt = OffloadRuntime(OverlayShape(6, 6), cost_model=OFFLOAD, seed=SEED)
    arrays, params = _inputs(kernel, 5)
    rt.execute(kernel, arrays, params)
    accepted = rt.analyze(kernel)
    entry = rt.map(accepted)
    layouts = []
    original = simulator._layout
    monkeypatch.setattr(simulator, "_layout",
                        lambda *args: layouts.append(args[1]) or original(*args))
    for laid_out in [len(accepted.dfg.inputs()) + len(accepted.dfg.outputs()), 0]:
        layouts.clear()
        out, trace = rt.execute(kernel, arrays, params)
        assert "cache" in _phases(trace)
        _assert_matches_software(kernel, arrays, params, out)
        assert len(layouts) == laid_out
    trips = runtime.trip_counts(accepted.loops, params)
    assert accepted.plans.get(simulator.call_signature(entry.io, arrays, trips)).entry is entry
    assert len(accepted.plans) == 1


def test_arrays_that_are_not_one_block_run_on_one_plan_per_signature(monkeypatch):
    # A sliced, a reversed and a broadcast array are not one C- or
    # Fortran-ordered block: every call copies them to C order, and the
    # signature's plan, made over such copies on the miss, runs the hit.
    kernel = corpus.load("gemm")
    rt = OffloadRuntime(OverlayShape(8, 8), cost_model=OFFLOAD, unroll=2, seed=SEED)
    arrays, params = _inputs(kernel, 7)
    wide = np.zeros((7, 8), dtype=np.int32)
    wide[:, ::2] = arrays["A"]
    arrays["A"] = wide[:, ::2]
    arrays["B"] = np.ascontiguousarray(arrays["B"][::-1, ::-1])[::-1, ::-1]
    arrays["C"] = np.broadcast_to(arrays["C"][:1], arrays["C"].shape)
    assert not any(a.flags.forc for a in arrays.values())
    out, trace = rt.execute(kernel, arrays, params)
    assert "epilogue" in _phases(trace)
    _assert_matches_software(kernel, arrays, params, out)
    monkeypatch.setattr(simulator, "_layout", _refuse)
    monkeypatch.setattr(simulator, "_row_plan", _refuse)
    out, trace = rt.execute(kernel, arrays, params)
    assert "cache" in _phases(trace) and "epilogue" in _phases(trace)
    _assert_matches_software(kernel, arrays, params, out)
    assert len(rt.analyze(kernel).plans) == 1


# The trace of a warm call of gemm at unroll 2, M=7 and N=9 on 8x8, placer
# seed 3: every phase in order, and its detail.
_WARM_TRACE = [
    ("analysis", "accepted hash=7c142fc80aeb3d1a in=18 out=2 calc=20"),
    ("cache", "hit, reusing configuration"),
    ("decision", "estimate=9.396e-05s software=1.000e+01s -> offloaded"),
    ("configure", "cached, consts=4 t=55.0us"),
    ("transfer_in", "frames=504 t=35.1us"),
    ("compute", "cycles=68"),
    ("transfer_out", "frames=56 t=3.9us"),
    ("epilogue", "1 leftover iterations of j"),
]


def test_a_warm_call_traces_every_phase_and_its_detail():
    # The first warm call finds the plan the cold call made, and so does
    # every later one; the plan changes no phase, order or detail.
    kernel = corpus.load("gemm")
    rt = OffloadRuntime(OverlayShape(8, 8), cost_model=OFFLOAD, unroll=2, seed=3)
    params = {"M": 7, "N": 9}
    arrays = allocate_arrays(kernel, params, np.random.default_rng(0), -2**31, 2**31 - 1)
    _, cold = rt.execute(kernel, arrays, params)
    assert _phases(cold)[1] == "place_route"
    for _ in range(2):
        out, trace = rt.execute(kernel, arrays, params)
        assert [(event.phase, event.detail) for event in trace] == _WARM_TRACE
        _assert_matches_software(kernel, arrays, params, out)


@pytest.mark.parametrize("model", [OFFLOAD, SOFTWARE], ids=["offload", "software"])
@pytest.mark.parametrize("size", [True, np.int64(6)], ids=["bool", "int64"])
def test_a_bool_or_numpy_integer_size_runs_as_the_int_it_equals(model, size):
    # Software runs range(True) as range(1); each trip count is read with
    # operator.index, so offload runs it so too.
    kernel = corpus.load("gemm")
    arrays, _ = _inputs(kernel, 6)
    params = {"M": size, "N": 6}
    rt = OffloadRuntime(OverlayShape(6, 6), cost_model=model, seed=SEED)
    # an offload runs cold, then warm; software runs once, before its
    # measured time replaces the model's
    for _ in range(2 if model is OFFLOAD else 1):
        out, trace = rt.execute(kernel, arrays, params)
        assert ("compute" in _phases(trace)) == (model is OFFLOAD)
        _assert_matches_software(kernel, arrays, params, out)


def test_concurrent_calls_with_different_signatures_get_their_own_arrays():
    # Four threads share one mapping, each at its own size, so the memo is
    # read and written from every thread at once.
    kernel = corpus.load("gemm")
    rt = OffloadRuntime(OverlayShape(6, 6), cost_model=OFFLOAD, seed=SEED)
    rt.execute(kernel, *_inputs(kernel, 4))
    calls = [_inputs(kernel, size, seed=size) for size in (5, 6, 7, 8)]
    expected = [evaluate_kernel(kernel, *call) for call in calls]
    wrong, done = [], []

    def worker(i):
        for _ in range(25):
            out, trace = rt.execute(kernel, *calls[i])
            if "compute" not in _phases(trace) or not all(
                    np.array_equal(out[name], want) for name, want in expected[i].items()):
                wrong.append(i)
        done.append(i)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert sorted(done) == [0, 1, 2, 3] and wrong == []


def test_concurrent_first_calls_on_one_mapping_keep_one_row_plan_per_key(monkeypatch):
    # Four threads make the first calls on a fresh mapping, in turn at a
    # size that runs as one piece (every input pinned) and at one cut into
    # pieces (gemm's B[k][j] pinned, A and C loaded per piece), so the
    # analysis's plan memo is read and written from every thread at once.
    # It keeps one plan per signature, each with the row plan of its box.
    monkeypatch.setattr(simulator, "_BLOCK", 64)
    kernel = corpus.load("gemm")
    rt = OffloadRuntime(OverlayShape(6, 6), cost_model=OFFLOAD, seed=SEED)
    accepted = rt.analyze(kernel)
    entry = rt.map(accepted)
    assert len(accepted.plans) == 0
    calls = [_inputs(kernel, size, seed=size) for size in (6, 12)]  # 36 and 144 positions
    expected = [evaluate_kernel(kernel, *call) for call in calls]
    wrong, done = [], []

    def worker(i):
        for turn in range(10):
            which = (i + turn) % 2
            out, trace = rt.execute(kernel, *calls[which])
            if "compute" not in _phases(trace) or not all(
                    np.array_equal(out[name], want) for name, want in expected[which].items()):
                wrong.append(i)
        done.append(i)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert sorted(done) == [0, 1, 2, 3] and wrong == []
    assert len(accepted.plans) == 2
    b_reads = {nid for nid, binding in entry.io.reads if binding.array == "B"}
    for (arrays, params), pinned in zip(calls, [set(entry.program.input_slots), b_reads]):
        trips = runtime.trip_counts(accepted.loops, params)
        plan = accepted.plans.get(simulator.call_signature(entry.io, arrays, trips))
        assert plan.entry is entry
        assert {tag for _, tag in plan.steady.rows.pinned} == pinned


def test_graphs_that_differ_only_in_numbering_share_one_mapping():
    # The same two statements in either order extract to one graph under two
    # numberings, with one hash: the second kernel runs on the first one's
    # mapping and streams by that mapping's node ids.
    text = ("kernel two(M, N)\narrays: A[MxN]:int32, B[MxN]:int32, C[MxN]:int32, "
            "D[MxN]:int32\nfor i in 0..M {{ for j in 0..N {{ {} {} }} }}")
    first, second = "C[i][j] = A[i][j] + 3*B[i][j];", "D[i][j] = 5*A[i][j] - B[i][j];"
    rt = OffloadRuntime(OverlayShape(6, 6), frontend.Thresholds(min_nodes=0),
                        cost_model=OFFLOAD, seed=SEED)
    for call, kernel in enumerate([parse_kernel(text.format(first, second)),
                                   parse_kernel(text.format(second, first))]):
        arrays, params = _inputs(kernel, 5, seed=call)
        out, trace = rt.execute(kernel, arrays, params)
        _assert_matches_software(kernel, arrays, params, out)
        assert ("cache" in _phases(trace)) == (call == 1)
    assert len(rt.cache) == 1


def test_a_cold_mapping_is_validated_once_where_it_is_lowered(monkeypatch):
    checked = []
    original = overlay.trace_config

    def counted(cfg):
        checked.append(cfg)
        return original(cfg)

    for module in (overlay, placer, runtime, simulator):
        if getattr(module, "trace_config", None) is original:
            monkeypatch.setattr(module, "trace_config", counted)
    kernel = corpus.load("gemm")
    rt = OffloadRuntime(OverlayShape(6, 6), cost_model=OFFLOAD, seed=SEED)
    arrays, params = _inputs(kernel, 6)
    _, trace = rt.execute(kernel, arrays, params)
    entry = rt.cache.get(rt.analyze(kernel).key)
    assert len(checked) == 1 and checked[0] is entry.placement.apply()
    assert "compute" in _phases(trace)


def test_an_unrolled_miss_extracts_once_and_copies_the_graph_into_lanes(counts):
    kernel = corpus.load("gemm")
    rt = OffloadRuntime(OverlayShape(8, 8), cost_model=OFFLOAD, unroll=2, seed=SEED)
    arrays, params = _inputs(kernel, 7)
    out, trace = rt.execute(kernel, arrays, params)
    _assert_matches_software(kernel, arrays, params, out)
    assert "place_route" in _phases(trace) and "epilogue" in _phases(trace)
    assert (counts.calls["extract_dfg"], counts.calls["unroll_dfg"]) == (1, 1)


def test_an_unroll_factor_below_1_is_refused():
    with pytest.raises(ValueError, match="unroll factor must be >= 1"):
        OffloadRuntime(OverlayShape(6, 6), unroll=0)


def test_changing_unroll_analyses_a_new_graph(counts):
    kernel = corpus.load("gemm")
    rt = OffloadRuntime(OverlayShape(8, 8), cost_model=OFFLOAD, seed=SEED)
    arrays, params = _inputs(kernel, 7)
    _, first = rt.execute(kernel, arrays, params)
    rt.unroll = 2
    out, second = rt.execute(kernel, arrays, params)
    _assert_matches_software(kernel, arrays, params, out)
    assert first[0].detail != second[0].detail  # the graph hash differs
    assert "place_route" in _phases(second) and "epilogue" in _phases(second)
    assert counts.calls["place_and_route"] == 2
    rt.unroll = 1
    _, third = rt.execute(kernel, arrays, params)
    assert third[0].detail == first[0].detail
    assert "cache" in _phases(third)
    assert counts.calls["check_eligibility"] == 2


def test_an_unroutable_graph_is_searched_once(counts):
    kernel = corpus.load("3mm")
    rt = OffloadRuntime(OverlayShape(4, 4), cost_model=OFFLOAD,
                        placer_params=PlacerParams(global_budget=2000))
    traces = []
    for call in range(3):
        arrays, params = _inputs(kernel, 4, seed=call)
        out, trace = rt.execute(kernel, arrays, params)
        _assert_matches_software(kernel, arrays, params, out)
        traces.append(trace)
    assert counts.calls["place_and_route"] == 1
    details = [[e.detail for e in trace if e.phase == "place_route"]
               for trace in traces]
    assert "cached" not in details[0][0]
    assert all("cached failure" in d[0] for d in details[1:])
    assert all(_phases(trace)[-1] == "software" for trace in traces)


def test_a_cached_failure_reports_the_counters_of_the_search_that_failed():
    kernel = corpus.load("3mm")
    rt = OffloadRuntime(OverlayShape(4, 4), cost_model=OFFLOAD,
                        placer_params=PlacerParams(global_budget=500))
    arrays, params = _inputs(kernel, 4)
    events = [next(e for e in rt.execute(kernel, arrays, params)[1] if e.phase == "place_route")
              for _ in range(2)]
    assert [e.detail for e in events] == ["unroutable: global budget exhausted",
                                          "unroutable (cached failure): global budget exhausted"]
    first, cached = (e.args[-1] for e in events)
    assert first == cached == placer.PlacerCounters(500, 70, 9, 14)


def test_an_unrolled_graph_larger_than_the_grid_is_unroutable(counts):
    # gemm has 10 op nodes per lane: 20 at unroll 2 exceed the 16 cells of a
    # 4x4 grid, which the placer refuses before any search
    kernel = corpus.load("gemm")
    rt = OffloadRuntime(OverlayShape(4, 4), cost_model=OFFLOAD, unroll=2)
    details = []
    for call in range(2):
        arrays, params = _inputs(kernel, 5, seed=call)
        out, trace = rt.execute(kernel, arrays, params)
        _assert_matches_software(kernel, arrays, params, out)
        assert _phases(trace)[-1] == "software"
        details += [e.detail for e in trace if e.phase == "place_route"]
    assert details == ["unroutable: 20 op nodes exceed 16 cells",
                       "unroutable (cached failure): 20 op nodes exceed 16 cells"]
    assert counts.calls["place_and_route"] == 1


@pytest.mark.parametrize("model", [OFFLOAD, SOFTWARE], ids=["offload", "software"])
def test_out_of_range_access_raises_what_software_raises(model):
    kernel = corpus.load("atax")
    arrays, params = _inputs(kernel, 1)
    with pytest.raises(EvalError) as want:
        evaluate_kernel(kernel, arrays, params)
    rt = OffloadRuntime(OverlayShape(6, 6), cost_model=model, seed=SEED)
    with pytest.raises(EvalError) as got:
        rt.execute(kernel, arrays, params)
    assert str(got.value) == str(want.value)
    # the same runtime still offloads inputs in range
    arrays, params = _inputs(kernel, 6)
    out, trace = rt.execute(kernel, arrays, params)
    _assert_matches_software(kernel, arrays, params, out)
    assert ("compute" in _phases(trace)) == (model is OFFLOAD)


@pytest.mark.parametrize("name", sorted(BIG_LITERAL_BODIES))
def test_a_literal_outside_int32_runs_in_software(name):
    kernel = kparse(BIG_LITERAL_BODIES[name])
    arrays, params = _inputs(kernel, 4)
    rt = OffloadRuntime(OverlayShape(6, 6), cost_model=OFFLOAD, seed=SEED)
    out, trace = rt.execute(kernel, arrays, params)
    _assert_matches_software(kernel, arrays, params, out)
    assert "compute" not in _phases(trace)


@pytest.mark.parametrize("name", ["A", "C"])
@pytest.mark.parametrize("model", [OFFLOAD, SOFTWARE, CostModel()],
                         ids=["offload", "software", "baseline"])
def test_an_array_of_the_wrong_rank_raises_one_eval_error_on_every_path(model, name):
    # gemm declares A and C 2-D; A is only read, C is read and written.  The
    # call is refused where it enters, before any analysis.
    kernel = corpus.load("gemm")
    arrays, params = _inputs(kernel, 8)
    arrays[name] = arrays[name].ravel()
    rt = OffloadRuntime(OverlayShape(6, 6), cost_model=model, seed=SEED)
    with pytest.raises(EvalError, match=f"^array '{name}' has rank 1, declared 2$"):
        rt.execute(kernel, arrays, params)


@pytest.mark.parametrize("name", ["B", "C"])
@pytest.mark.parametrize("model", [OFFLOAD, SOFTWARE, CostModel()],
                         ids=["offload", "software", "baseline"])
def test_a_list_for_an_array_raises_one_eval_error_on_every_path(model, name):
    # B is only read, C is read and written.  The call is refused where it
    # enters, before any analysis.
    kernel = corpus.load("gemm")
    arrays, params = _inputs(kernel, 8)
    arrays[name] = arrays[name].tolist()
    rt = OffloadRuntime(OverlayShape(6, 6), cost_model=model, seed=SEED)
    with pytest.raises(EvalError, match=f"^array '{name}' is a list, not a numpy array$"):
        rt.execute(kernel, arrays, params)


# gemm with a declared array D that no statement touches
GEMM_D = parse_kernel(corpus.kernel_path("gemm").read_text().replace(
    "C[MxN]:int32", "C[MxN]:int32, D[MxN]:int32"))
_REFUSALS = [("missing", "missing array '{}'"),
             ("list", "array '{}' is a list, not a numpy array"),
             ("rank", "array '{}' has rank 1, declared 2")]
_PATHS = {  # path -> (cost model, unroll, whether a good call maps first)
    "software": (SOFTWARE, 1, False),
    "baseline": (CostModel(), 1, False),
    "cold": (OFFLOAD, 1, False),
    "warm": (OFFLOAD, 1, True),
    "epilogue": (OFFLOAD, 2, True),
}


@pytest.mark.parametrize("path", list(_PATHS))
@pytest.mark.parametrize("name", ["B", "C", "D"])
@pytest.mark.parametrize("refusal,message", _REFUSALS, ids=[r for r, _ in _REFUSALS])
def test_arrays_that_break_the_rule_raise_one_eval_error_on_every_path(
        path, name, refusal, message):
    # B is only read, C is read and written, and the graph never touches D.
    # The call is refused where it enters, before any analysis or mapping.
    model, unroll, warm = _PATHS[path]
    rt = OffloadRuntime(OverlayShape(8, 8), cost_model=model, unroll=unroll, seed=SEED)
    arrays, params = _inputs(GEMM_D, 5)  # N=5 leaves one column at unroll 2
    if warm:
        out, trace = rt.execute(GEMM_D, arrays, params)
        _assert_matches_software(GEMM_D, arrays, params, out)
        assert "compute" in _phases(trace)
        assert ("epilogue" in _phases(trace)) == (unroll == 2)
    mapped = (len(rt._analyses), len(rt.cache))
    if refusal == "missing":
        del arrays[name]
    else:
        arrays[name] = arrays[name].tolist() if refusal == "list" else arrays[name].ravel()
    with pytest.raises(EvalError, match=f"^{message.format(name)}$"):
        rt.execute(GEMM_D, arrays, params)
    assert (len(rt._analyses), len(rt.cache)) == mapped == ((1, 1) if warm else (0, 0))


def _assert_every_path_agrees(kernel, arrays, params, unroll):
    """Software, a forced offload and its warm hit return evaluate_kernel's
    arrays, in the caller's dtypes."""
    want = evaluate_kernel(kernel, arrays, params)
    software = OffloadRuntime(OverlayShape(8, 8), cost_model=SOFTWARE, unroll=unroll, seed=SEED)
    offload = OffloadRuntime(OverlayShape(8, 8), cost_model=OFFLOAD, unroll=unroll, seed=SEED)
    for rt, phase in [(software, "software"), (offload, "place_route"), (offload, "cache")]:
        out, trace = rt.execute(kernel, arrays, params)
        phases = _phases(trace)
        assert phase in phases and ("compute" in phases) == (rt is offload)
        assert ("epilogue" in phases) == (rt is offload and unroll == 2)
        assert set(out) == set(want)
        for name, a in want.items():
            assert out[name].dtype == a.dtype == arrays[name].dtype
            assert np.array_equal(out[name], a), name
    return want


@pytest.mark.parametrize("unroll", [1, 2])
@pytest.mark.parametrize("dtype", [np.uint8, np.int16, np.uint32, np.int64, np.float64, np.bool_])
def test_gemm_returns_what_software_returns_whatever_the_dtype_of_c(dtype, unroll):
    # C holds values over the whole int32 range, and the int64 C beyond it,
    # so results overflow the narrow dtypes.  C is read as numpy casts it to
    # int32, and each result is stored as numpy casts an int32 into C.
    kernel = corpus.load("gemm")
    arrays, params = _inputs(kernel, 5)
    as_int32 = dict(arrays)
    arrays["C"] = arrays["C"].astype(dtype)
    if dtype is np.int64:
        arrays["C"] += 2**32 * np.arange(-12, 13).reshape(5, 5)
    want = _assert_every_path_agrees(kernel, arrays, params, unroll)
    assert np.array_equal(want["C"],
                          evaluate_kernel(kernel, as_int32, params)["C"].astype(dtype))


@pytest.mark.parametrize("unroll", [1, 2])
def test_branchmix_in_int64_beyond_int32_compares_what_the_overlay_compares(unroll):
    # A[0] + 2**32 is read as A[0], as the overlay's int32 streams read it
    kernel = corpus.load("branchmix")
    arrays, params = _inputs(kernel, 5)
    as_int64 = {name: a.astype(np.int64) for name, a in arrays.items()}
    as_int64["A"][0] += 2**32
    want = _assert_every_path_agrees(kernel, as_int64, params, unroll)
    assert np.array_equal(want["C"], evaluate_kernel(kernel, arrays, params)["C"])


@pytest.mark.parametrize("unroll,index_range", [(1, "[1,5]"), (2, "[5,5]")])
def test_an_out_of_range_gather_falls_back_to_software_and_names_the_access(
        unroll, index_range):
    # Software reads A[i][j+1] only when A[i][j] > A[i][j], which never
    # holds; the overlay and the epilogue stream both arms of the branch.
    kernel = parse_kernel(
        "kernel guard(M, N)\narrays: A[MxN]:int32, C[MxN]:int32\n"
        "for i in 0..M { for j in 0..N {\n"
        "  if (A[i][j] > A[i][j]) { C[i][j] = A[i][j+1] + 1; } else { C[i][j] = A[i][j] - 1; }\n"
        "} }")
    arrays, params = _inputs(kernel, 5)
    rt = OffloadRuntime(OverlayShape(6, 6), frontend.Thresholds(min_nodes=0),
                        cost_model=OFFLOAD, unroll=unroll, seed=SEED)
    out, trace = rt.execute(kernel, arrays, params)
    _assert_matches_software(kernel, arrays, params, out)
    access = f"A dim 1: index range {index_range} outside extent 5"
    assert (trace[-1].phase, trace[-1].args) == ("software", (access,))
    assert trace[-1].detail == f"access out of range ({access}), software fallback"


def test_a_read_indexed_by_a_parameter_is_refused_before_place_and_route(counts):
    # The gather lays streams out over the loop domain, which has no N, so
    # no placement of this graph could ever run.
    kernel = parse_kernel(
        "kernel readparam(M, N)\narrays: A[MxN]:int32, B[MxN]:int32, C[MxN]:int32\n"
        "for i in 0..M { for j in 0..N { C[i][j] = A[i][j] * B[i][N-1] + 3*A[i][j] + 1; } }")
    rt = OffloadRuntime(OverlayShape(6, 6), frontend.Thresholds(min_nodes=0),
                        cost_model=OFFLOAD, seed=SEED)
    for call in range(2):
        arrays, params = _inputs(kernel, 6, seed=call)
        out, trace = rt.execute(kernel, arrays, params)
        _assert_matches_software(kernel, arrays, params, out)
        assert _phases(trace) == ["analysis", "software"]
    assert rt.analyze(kernel).detail == "read of B indexed by parameter 'N'"
    assert counts.calls["place_and_route"] == 0


@pytest.mark.parametrize("model", [OFFLOAD, SOFTWARE], ids=["offload", "software"])
def test_a_negative_trip_count_runs_the_loop_zero_times(model):
    kernel = corpus.load("gemm")
    arrays, _ = _inputs(kernel, 2)
    params = {"M": -1, "N": 2}
    rt = OffloadRuntime(OverlayShape(6, 6), cost_model=model, seed=SEED)
    out, trace = rt.execute(kernel, arrays, params)
    _assert_matches_software(kernel, arrays, params, out)
    assert ("compute" in _phases(trace)) == (model is OFFLOAD)


@pytest.mark.parametrize("value", ["nan", "inf", "-1"])
def test_a_software_time_that_is_not_finite_and_nonnegative_is_refused(tmp_path, value):
    message = "^software_time_per_call must be finite and nonnegative$"
    with pytest.raises(ValueError, match=message):
        CostModel(software_time_per_call=float(value))
    path = tmp_path / "model.cost"
    path.write_text(f"software_time_per_call = {value}\n")
    with pytest.raises(ValueError, match=message):
        CostModel.from_file(path)


def test_a_software_time_of_0_means_measure_it(tmp_path):
    path = tmp_path / "model.cost"
    path.write_text("software_time_per_call = 0.0\n")
    assert CostModel.from_file(path) == CostModel()
    kernel = corpus.load("gemm")
    rt = OffloadRuntime(OverlayShape(6, 6), cost_model=CostModel.from_file(path), seed=SEED)
    _, trace = rt.execute(kernel, *_inputs(kernel, 4))
    assert trace[-1].detail == "measuring software baseline"


GEMM = str(corpus.kernel_path("gemm"))


# gemm's unroll-1 graph has 10 calc nodes, one more than a 3x3 grid has cells.
@pytest.mark.parametrize("argv,rc,out,err", [
    (["analyze", GEMM, "--max-nodes", "9"], cli.EXIT_OK, "gemm         No, too large      9/1/10", ""),
    (["place", GEMM, "--overlay", "3x3"], cli.EXIT_OK, "",
     "kernel rejected: No, too large (10 calc nodes > 9)\n"),
    (["place", GEMM, "--overlay", "3x3", "--max-nodes", "20"], cli.EXIT_UNROUTABLE, "",
     "unroutable: 10 op nodes exceed 9 cells (attempts=0 restarts=0 backtracks=0 runs=0)\n"),
    (["run", GEMM, "--overlay", "3x3"], cli.EXIT_OK,
     "gemm: No, too large; software path\nPASS (software)\n", ""),
    (["run", GEMM, "--overlay", "3x3", "--max-nodes", "20"], cli.EXIT_UNROUTABLE, "",
     "unroutable: 10 op nodes exceed 9 cells (attempts=0 restarts=0 backtracks=0 runs=0)\n"),
], ids=["analyze", "place", "place-max-nodes", "run", "run-max-nodes"])
def test_the_node_limit_defaults_to_the_grids_cell_count(monkeypatch, tmp_path, capsys,
                                                         argv, rc, out, err):
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv) == rc
    got = capsys.readouterr()
    assert got.out.startswith(out) and got.err == err
    assert list(tmp_path.iterdir()) == []


def test_a_runtime_limits_an_unset_node_limit_to_its_grid():
    kernel = corpus.load("gemm")
    rt = OffloadRuntime(OverlayShape(3, 3))
    assert rt.thresholds == frontend.Thresholds(min_nodes=8, max_nodes=9)
    report = rt.analyze(kernel)
    assert (report.table_label(), report.detail) == ("No, too large", "10 calc nodes > 9")
    rt = OffloadRuntime(OverlayShape(3, 3), frontend.Thresholds(max_nodes=20))
    assert rt.analyze(kernel).stats.calc_nodes == 10


def test_estimate_offload_time_charges_one_frame_per_streamed_word():
    stats = frontend.check_eligibility(corpus.load("gemm")).dfg_stats
    # 2.1 ms configuration + 55 us constants + 64 positions of 9 input and
    # 1 output words at 16 bytes each over 230e6 bytes/s
    estimate = runtime.estimate_offload_time
    assert estimate(stats, 64, CostModel(), cached=False) == 0.0021995217391304347
    assert estimate(stats, 1000, CostModel(), cached=True) == 0.0007506521739130436


def test_a_kernel_that_reads_no_array_runs_in_software():
    # Nothing streams in, so nothing would fire the overlay: without the
    # rejection the offloaded call returned no values and write_back raised.
    kernel = parse_kernel("kernel fill(M, N)\narrays: C[MxN]:int32\n"
                          "for i in 0..M { for j in 0..N { C[i][j] = 7; } }")
    rt = OffloadRuntime(OverlayShape(4, 4), frontend.Thresholds(min_nodes=0),
                        cost_model=OFFLOAD, seed=SEED)
    arrays, params = _inputs(kernel, 5)
    out, trace = rt.execute(kernel, arrays, params)
    _assert_matches_software(kernel, arrays, params, out)
    assert trace[0].detail == "rejected: No, unsupported op"


# Every corpus kernel that routes on 8x8 when unrolled, each at a placer seed
# at which it routes in well under a second.  Unroll 2 routes for all but 3mm;
# at unroll 3 and 4 the rest run out of border interfaces or search for
# seconds.
EPILOGUE_CASES = [
    ("2mm", 2, 2), ("atax", 2, 1), ("bicg", 2, 3), ("branchmix", 2, 0),
    ("gemm", 2, 0), ("gemver", 2, 0), ("gesummv", 2, 0), ("mvt", 2, 0),
    ("symm", 2, 2), ("syr2k", 2, 1), ("syrk", 2, 4), ("trmm", 2, 1),
    ("trmm", 3, 2), ("scaleadd", 3, 0), ("scaleadd", 4, 0),
]


@pytest.mark.parametrize("name,unroll,seed", EPILOGUE_CASES,
                         ids=[f"{n}-u{u}" for n, u, _ in EPILOGUE_CASES])
def test_every_leftover_runs_on_the_host_as_software_would(monkeypatch, name, unroll, seed):
    kernel = corpus.load(name)
    software = []
    monkeypatch.setattr(runtime.kl, "evaluate_kernel",
                        lambda *args: software.append(args) or evaluate_kernel(*args))
    rt = OffloadRuntime(OverlayShape(8, 8), frontend.Thresholds(min_nodes=0),
                        cost_model=OFFLOAD, unroll=unroll, seed=seed)
    inner = kernel.canonical_nest()[0][-1].bound
    extents = [3 * unroll + leftover for leftover in range(unroll)]
    if name in ("gemm", "trmm", "scaleadd"):
        # below the unroll factor, every iteration is the epilogue's; the
        # other kernels read fixed columns that such an extent lacks
        extents.append(unroll - 1)
    for extent in extents:
        params = {p: 5 for p in kernel.params}
        params[inner] = extent
        arrays = allocate_arrays(kernel, params, np.random.default_rng(extent),
                                 -2**31, 2**31 - 1)
        before = {k: a.copy() for k, a in arrays.items()}
        out, trace = rt.execute(kernel, arrays, params)
        assert "compute" in _phases(trace), (extent, _phases(trace))
        assert ("epilogue" in _phases(trace)) == (extent % unroll != 0)
        for k, a in arrays.items():
            assert np.array_equal(a, before[k]), k
        _assert_matches_software(kernel, arrays, params, out)
    assert software == []


def test_an_offloaded_call_builds_no_full_length_input_stream():
    # gemm at unroll 2 on 8x8 streams 18 inputs over 707 rows of 353 lane
    # blocks.  As int32 streams they would take 18 MB; a cached call holds
    # the result array, the output streams and the engine's scratch.
    kernel = corpus.load("gemm")
    params = {"M": 707, "N": 707}
    arrays = allocate_arrays(kernel, params, np.random.default_rng(0))
    rt = OffloadRuntime(OverlayShape(8, 8), cost_model=OFFLOAD, unroll=2)
    rt.execute(kernel, arrays, params)  # maps and caches
    tracemalloc.start()
    try:
        _, trace = rt.execute(kernel, arrays, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert _phases(trace)[:3] == ["analysis", "cache", "decision"]
    assert "compute" in _phases(trace)
    stream_bytes = rt.analyze(kernel).stats.inputs * 707 * (707 // 2) * 4
    assert peak < stream_bytes / 2, (peak, stream_bytes)


def test_an_out_of_range_read_in_the_leftover_columns_raises_what_software_raises(
        monkeypatch):
    # A[i][j+1] leaves A only at j = N-1, which unroll 2 and an odd N leave
    # to the epilogue: the steady state's box plans, the epilogue's does
    # not, and the call falls back to software before the overlay runs.
    kernel = parse_kernel("kernel shift(M, N)\narrays: A[MxN]:int32, C[MxN]:int32\n"
                          "for i in 0..M { for j in 0..N { C[i][j] = 2*A[i][j+1] + 1; } }")
    arrays, params = _inputs(kernel, 5)
    with pytest.raises(EvalError) as want:
        evaluate_kernel(kernel, arrays, params)
    runs = []
    original = runtime.run_compiled
    monkeypatch.setattr(runtime, "run_compiled",
                        lambda *args: runs.append(1) or original(*args))
    rt = OffloadRuntime(OverlayShape(6, 6), frontend.Thresholds(min_nodes=0),
                        cost_model=OFFLOAD, unroll=2, seed=SEED)
    with pytest.raises(EvalError) as got:
        rt.execute(kernel, arrays, params)
    assert str(got.value) == str(want.value)
    assert runs == []


class _FakeClock:
    """A clock that advances a fixed step on every read."""

    def __init__(self, step):
        self.step, self.now = step, 0.0

    def __call__(self):
        self.now += self.step
        return self.now


def _policy_run(device_model):
    """Nine gemm calls at N=8 on 6x6, software timed by a 0.5 s-per-read clock."""
    kernel = corpus.load("gemm")
    rt = OffloadRuntime(OverlayShape(6, 6), device_model=device_model,
                        clock=_FakeClock(0.5))
    traces = []
    for call in range(9):
        arrays, params = _inputs(kernel, 8, seed=call)
        out, trace = rt.execute(kernel, arrays, params)
        _assert_matches_software(kernel, arrays, params, out)
        traces.append(trace)
    return traces


def test_offloading_measured_slower_than_software_rolls_back_for_good():
    # At 1 byte/s the device time of a call is far above the 0.5 s that
    # software measures, while the estimate (default model) is far below it:
    # the runtime offloads through the warm-up, then rolls back.
    traces = _policy_run(CostModel(wire_rate=1.0))
    assert traces[0][-1].detail == "measuring software baseline"
    for trace in traces[1:6]:
        assert "compute" in _phases(trace)
    assert [_phases(trace)[-1] for trace in traces[1:6]] == ["transfer_out"] * 4 + ["rollback"]
    for trace in traces[6:]:
        assert "compute" not in _phases(trace)
        assert (trace[-1].phase, trace[-1].detail) == ("software", "decision: software")


def test_offloading_measured_faster_than_software_never_rolls_back():
    traces = _policy_run(None)
    assert traces[0][-1].detail == "measuring software baseline"
    for trace in traces[1:]:
        assert "compute" in _phases(trace) and "rollback" not in _phases(trace)


_DTYPES = [np.int32, np.int64, np.int16, np.uint8]
_LAYOUTS = ["C", "F", "reversed", "strided", "broadcast"]


def _laid_out(values, layout):
    """``values`` in ``layout``: the same elements, but a stride-0 broadcast
    repeats the first row."""
    if layout == "F":
        return np.asfortranarray(values)
    if layout == "reversed":
        back = (slice(None, None, -1),) * values.ndim
        return np.ascontiguousarray(values[back])[back]
    if layout == "strided":
        view = np.zeros([2 * n for n in values.shape], values.dtype)
        view = view[(slice(None, None, 2),) * values.ndim]
        view[...] = values
        return view
    if layout == "broadcast":
        return np.broadcast_to(values[:1], values.shape)
    return values


@st.composite
def _call_arrays(draw, kernel, params):
    """A kernel's arrays, each in a drawn layout and dtype.  Shapes are the
    declared extents clipped at 0, but one array may be one short along an
    axis.  int32 and int64 values span int32's range, int64 ones beyond it
    too, and the narrow dtypes span their own."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    short = draw(st.none() | st.sampled_from([decl.name for decl in kernel.arrays]))
    arrays = {}
    for decl in kernel.arrays:
        shape = [max(e.evaluate(params), 0) for e in decl.extents]
        if decl.name == short:
            axis = draw(st.integers(0, len(shape) - 1))
            shape[axis] = max(shape[axis] - 1, 0)
        dtype = draw(st.sampled_from(_DTYPES))
        info = np.iinfo(dtype)
        values = rng.integers(max(info.min, -2**31), min(info.max, 2**31 - 1), shape,
                              dtype=np.int64, endpoint=True)
        if dtype is np.int64:
            values += 2**32 * rng.integers(-3, 4, shape)
        arrays[decl.name] = _laid_out(values.astype(dtype), draw(st.sampled_from(_LAYOUTS)))
    return arrays


def _assert_returns(want, rt, kernel, arrays, params):
    """``rt.execute`` returns the arrays ``want``, or raises as it does."""
    if isinstance(want, Exception):
        with pytest.raises(type(want)) as got:
            rt.execute(kernel, arrays, params)
        assert str(got.value) == str(want)
        return
    out, _ = rt.execute(kernel, arrays, params)
    assert set(out) == set(want)
    for name, a in want.items():
        assert out[name].dtype == a.dtype and np.array_equal(out[name], a), name


@settings(max_examples=40)
@given(body=_kernels("accepted"), m=st.integers(-1, 5), n=st.integers(-1, 7),
       unroll=st.integers(1, 3), rows=st.integers(3, 8), cols=st.integers(3, 8),
       seed=st.integers(0, 2**32 - 1), budget=st.integers(100, 1000), data=st.data())
def test_generated_kernels_return_through_execute_what_the_oracle_returns(
        body, m, n, unroll, rows, cols, seed, budget, data):
    # A fresh runtime with offload forced, called cold and then warm, and
    # one driven past its warm-up into the rollback, as _policy_run is.
    kernel = kparse(body, arrays=_GEN_ARRAYS)
    params = {"M": m, "N": n}
    arrays = data.draw(_call_arrays(kernel, params), label="arrays")
    try:
        want = evaluate_kernel(kernel, arrays, params)
    except EvalError as exc:
        want = exc
    shape = OverlayShape(rows, cols)
    common = dict(thresholds=frontend.Thresholds(min_nodes=0),
                  placer_params=PlacerParams(budget), unroll=unroll, seed=seed)
    forced = OffloadRuntime(shape, cost_model=OFFLOAD, **common)
    rollback = OffloadRuntime(shape, device_model=CostModel(wire_rate=1.0),
                              clock=_FakeClock(0.5), **common)
    for rt, calls in [(forced, 2), (rollback, runtime.WARMUP_CALLS + 2)]:
        for _ in range(calls):
            _assert_returns(want, rt, kernel, arrays, params)
    mapped = forced.analyze(kernel).dfg  # None when the kernel runs in software
    if mapped is not None:
        assert_id_rule(mapped)


@pytest.mark.parametrize("capacity,maps", [(2, 4), (runtime.CACHE_CAPACITY, 3)],
                         ids=["capacity-2", "default"])
def test_the_least_recently_used_mapping_is_evicted(monkeypatch, counts, capacity, maps):
    monkeypatch.setattr(runtime, "CACHE_CAPACITY", capacity)
    rt = OffloadRuntime(OverlayShape(6, 6), cost_model=OFFLOAD, seed=SEED)
    for i, name in enumerate(["gemm", "trmm", "atax", "gemm"]):
        kernel = corpus.load(name)
        arrays, params = _inputs(kernel, 5, seed=i)
        out, trace = rt.execute(kernel, arrays, params)
        _assert_matches_software(kernel, arrays, params, out)
    assert ("place_route" in _phases(trace)) == (maps == 4)
    assert counts.calls["place_and_route"] == maps
    assert len(rt.cache) == min(capacity, 3)
