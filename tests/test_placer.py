"""Placer: golden placements, determinism, and the round trip through the overlay."""

import hashlib
import importlib
import random
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import add_node, random_dfg, random_input_streams
from dfeoffload import corpus, placer
from dfeoffload.dfg import DataFlowGraph, NodeKind, OpCode, interpret_dfg
from dfeoffload.frontend import extract_dfg
from dfeoffload.overlay import (OverlayShape, deserialize_config, serialize_config,
                                validate_config)
from dfeoffload.placer import (PlacerCounters, PlacerParams, PreconditionViolated,
                               Unroutable, place_and_route)
from dfeoffload.simulator import compile_config, run_compiled


def _digest(p) -> str:
    """sha1 of the serialized config, the node cells and the search counters."""
    c = p.counters
    text = (f"{sorted(p.node_cells.items())} {c.position_attempts} "
            f"{c.node_restarts} {c.backtracks}")
    return hashlib.sha1(serialize_config(p.apply()) + text.encode()).hexdigest()


# (kernel, unroll, grid side) -> digest per placer seed 0..3, at the default
# budget.  A change to the search, the routing tie-breaks or the config
# format moves these; re-pin them only on purpose.
_GOLDEN = {
    ("3mm", 1, 6): (
        "37eb9a7d472acdcbb808715efd363fcbe31bc771",
        "9d2ae9057d385d8fa540748c8e08b591bf0b4a9f",
        "bc5a17d83122f673f60eec2240a4f13ef5f2cca5",
        "7cd6473d430c818ff9d76af80b2ec74d669c0a36",
    ),
    ("branchmix", 2, 8): (
        "a7d06d1077661de2f344187624ab75739e948d55",
        "bbd6578e419cae0df40c5399a1dedecb4d8eddb5",
        "0f9dce284505b345263b5b49795011dc8e3220d0",
        "c0f124d601d7a1696e8eafcca8be5011eb45f2a7",
    ),
    ("gemm", 2, 8): (
        "a2c5f29fd8fd654d86ae0f02da329dc7cf6ca9ef",
        "6db9306d15406bcaf194e27ce4e2ed4aac4a358d",
        "4b75d1d8740e7e0ac6f5917c156a5c12db3b84e8",
        "8741512ea85d7825f510a50d717d0f8c9c858f17",
    ),
    ("trmm", 2, 8): (
        "00dc22d95283fe87acb542f1aceb8738822f6742",
        "7512666de88de03b6b2fdfc28080a941deb5a854",
        "536da3945670a86f8a243800e8f818d08991165a",
        "7474732f3797383c61302daaaf36b45a1b6235d2",
    ),
}


@pytest.mark.parametrize("name, unroll, side", sorted(_GOLDEN))
def test_corpus_placements_match_the_golden_digests(name, unroll, side):
    g = extract_dfg(corpus.load(name), unroll)
    got = tuple(_digest(place_and_route(g, OverlayShape(side, side), seed=seed))
                for seed in range(4))
    assert got == _GOLDEN[(name, unroll, side)]


# (kernel, unroll, rows, cols) -> digest per placer seed 0..3, at the default
# budget.  Non-square and one-row/one-column grids, so a row/column slip in
# how the placer numbers cells moves them where a square grid may not.
_GOLDEN_RECT = {
    ("branchmix", 1, 4, 9): (
        "6ed8b42e7d91432031c6d716fa69161f319d6390",
        "1af626684a65c34dcaca1a940573d26e1a978e3f",
        "89e9f485d2254310cc23f9503d0a2d5ab0b2ab86",
        "6b1b7a5761c90340d5ef2084048621b2a8fd8773",
    ),
    ("branchmix", 1, 9, 4): (
        "6739425e822bf97149351a6a7101d1361892dfe7",
        "8be904130a1787e593c3415a9293b1b11f2172d4",
        "083c0710990ecdfc3b6b87f691f90d7f04af9f4d",
        "7ce18a36c11808e31d89b6446dfb5ef4270be4d6",
    ),
    ("scaleadd", 1, 1, 8): (
        "a5edeff5c78dbf3948d6a40adaa2714f158a680b",
        "6022b3e2d937e96aa688e58a9aee59cd3e8a865c",
        "f6925e5c961ab9f401706ca31adadd29e423ee09",
        "28d299cb79a5ee6b1f6f021b29cbd0ad16566273",
    ),
    ("scaleadd", 1, 8, 1): (
        "a233dde665f5e4d0ec8eb27187d07fe663c03389",
        "adeaf6ac556f9d6b9b94df8cc6d0bac96941b5c9",
        "b10001cad2becdd5d79a10430dbe00c871842a6f",
        "a730576c11df83d073d2609d676a2a165ad79ad2",
    ),
    ("trmm", 2, 6, 9): (
        "4a59bb6ef63e762b859ab7e0c50f7b77eb1d9809",
        "ae77355ed4bcce8aa63685963159bfedbcdace36",
        "ecab23e1e108ddd892c360e759954a17e2d2a581",
        "b1f49b97ee77e1a5f45a98e8b04d405cd3c1fb39",
    ),
    ("trmm", 2, 9, 6): (
        "033273048c3e11c11c381651873d565086098493",
        "677494a2bf858609df8a4032682d77e04e66fb3a",
        "63142b4e76a3935b8c039f750bad68ed7c8362e2",
        "238b9c6eacc284ad74483dc427c50abb23ed6a3d",
    ),
}


@pytest.mark.parametrize("name, unroll, rows, cols", sorted(_GOLDEN_RECT))
def test_placements_on_non_square_grids_match_the_golden_digests(name, unroll, rows, cols):
    g = extract_dfg(corpus.load(name), unroll)
    got = tuple(_digest(place_and_route(g, OverlayShape(rows, cols), seed=seed))
                for seed in range(4))
    assert got == _GOLDEN_RECT[(name, unroll, rows, cols)]


def test_a_failing_search_spends_its_budget_the_same_way():
    g = extract_dfg(corpus.load("3mm"), 1)
    with pytest.raises(Unroutable, match="global budget exhausted") as info:
        place_and_route(g, OverlayShape(4, 4), PlacerParams(global_budget=1000), seed=0)
    assert info.value.counters == PlacerCounters(1000, 151, 25, 22)


def test_the_restart_schedule_is_lubys_sequence():
    assert [placer._luby(k) for k in range(1, 16)] == [1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8]


def test_a_failing_search_restarts_and_stops_at_the_global_budget():
    # 1,001 attempts end inside a run: the global budget cuts it short
    g = extract_dfg(corpus.load("3mm"), 1)
    with pytest.raises(Unroutable, match="global budget exhausted") as info:
        place_and_route(g, OverlayShape(4, 4), PlacerParams(global_budget=1001), seed=0)
    assert info.value.counters.position_attempts == 1001
    assert info.value.counters.runs > 1


def test_a_search_that_outlives_its_first_run_still_routes():
    g = extract_dfg(corpus.load("3mm"), 1)
    first, second = (place_and_route(g, OverlayShape(6, 6), seed=0) for _ in range(2))
    assert first.counters.runs > 1
    assert first.counters.position_attempts > placer.RESTART_UNIT
    assert validate_config(first.apply()) == []
    assert _digest(first) == _digest(second)


def test_every_cold_map_pair_routes_at_the_benchmarks_budget(monkeypatch):
    """A pair that did not route would run in software and silently slow the
    benchmark's cold-map workload."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "offloadbench"))
    workloads = importlib.import_module("workloads")
    params = PlacerParams(global_budget=workloads.COLD_BUDGET)
    for name, unroll, side in workloads.COLD_CONFIGS:
        g = extract_dfg(corpus.load(name), unroll)
        for seed in range(workloads.COLD_SEEDS):
            place_and_route(g, OverlayShape(side, side), params, seed)


def test_the_same_graph_shape_params_and_seed_give_the_same_placement():
    g = extract_dfg(corpus.load("gemm"), 2)
    shape, params = OverlayShape(8, 8), PlacerParams(global_budget=5000)
    first = place_and_route(g, shape, params, seed=2)
    second = place_and_route(g, shape, params, seed=2)
    assert _digest(first) == _digest(second)
    assert serialize_config(first.apply()) == serialize_config(second.apply())


@settings(max_examples=60)
@given(seed=st.integers(0, 2**32 - 1), side=st.integers(3, 6),
       n_ops=st.integers(0, 9), n_inputs=st.integers(1, 4),
       n_outputs=st.integers(1, 3), placer_seed=st.integers(0, 3))
def test_a_placement_round_trips_through_the_overlay_to_interpret_dfg(
        seed, side, n_ops, n_inputs, n_outputs, placer_seed):
    g = random_dfg(random.Random(seed), n_ops, n_inputs, n_outputs)
    try:
        p = place_and_route(g, OverlayShape(side, side),
                            PlacerParams(global_budget=2000), placer_seed)
    except Unroutable:
        return
    cfg = p.apply()
    assert validate_config(cfg) == []
    assert p.node_cells.keys() == set(g.op_nodes())
    assert all(cfg.cells[cell].fu_op == g.nodes[nid].code
               for nid, cell in p.node_cells.items())
    program = compile_config(deserialize_config(serialize_config(cfg)))
    streams = random_input_streams(g, np.random.default_rng(seed), 17)
    want = interpret_dfg(g, {nid: s.tolist() for nid, s in streams.items()})
    report = run_compiled(program, {tag: streams[tag] for tag in program.input_slots})
    assert {tag: s.tolist() for tag, s in report.outputs.items()} == want


def _chain(n_ops: int, n_inputs: int = 1, n_outputs: int = 1) -> DataFlowGraph:
    """n_inputs Inputs, then n_ops ADDs in a chain, read by n_outputs Outputs."""
    g = DataFlowGraph()
    ins = [add_node(g, NodeKind.INPUT) for _ in range(n_inputs)]
    prev = ins[0]
    for i in range(n_ops):
        prev = add_node(g, NodeKind.OP, prev, ins[i % n_inputs], code=OpCode.ADD)
    for _ in range(n_outputs):
        add_node(g, NodeKind.OUTPUT, prev)
    return g


def _two_constants() -> DataFlowGraph:
    g = DataFlowGraph()
    a, b = add_node(g, NodeKind.CONST, value=1), add_node(g, NodeKind.CONST, value=2)
    add_node(g, NodeKind.OUTPUT, add_node(g, NodeKind.OP, a, b, code=OpCode.ADD))
    return g


def _constant_to_output() -> DataFlowGraph:
    g = _chain(1)
    add_node(g, NodeKind.OUTPUT, add_node(g, NodeKind.CONST, value=7))
    return g


@pytest.mark.parametrize("graph, match", [
    (_chain(5), "5 op nodes exceed 4 cells"),
    (_chain(1, n_inputs=9), "9 inputs / 1 outputs exceed 8 border interfaces"),
    (_chain(1, n_outputs=9), "1 inputs / 9 outputs exceed 8 border interfaces"),
    (_two_constants(), "2 constant pins"),
    (_constant_to_output(), "feeds an output interface directly"),
], ids=["cells", "inputs", "outputs", "two-masks", "const-output"])
def test_a_graph_over_capacity_is_refused_before_any_search(graph, match):
    with pytest.raises(PreconditionViolated, match=match) as info:
        place_and_route(graph, OverlayShape(2, 2))
    assert info.value.counters.position_attempts == 0


def test_the_tables_shared_per_shape_do_not_leak_between_searches():
    """Searches on 6x6, 8x8 and 6x9, then on 6x6 again, and four threads
    searching on one shape at once, all from freshly built grid tables,
    give the placements of the serial runs pinned above."""
    cases = [("3mm", 1, 6, 6), ("gemm", 2, 8, 8), ("trmm", 2, 6, 9), ("3mm", 1, 6, 6)]
    golden = {(name, unroll, side, side): digests
              for (name, unroll, side), digests in _GOLDEN.items()} | _GOLDEN_RECT

    def search(case, seed):
        name, unroll, rows, cols = case
        g = extract_dfg(corpus.load(name), unroll)
        return _digest(place_and_route(g, OverlayShape(rows, cols), seed=seed))

    placer._grid.cache_clear()
    for case in cases:
        assert search(case, 0) == golden[case][0]
    placer._grid.cache_clear()
    jobs = [(case, seed) for case in [("gemm", 2, 8, 8), ("trmm", 2, 8, 8)] for seed in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, inside the searches
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            got = list(pool.map(lambda job: search(*job), jobs, timeout=300))
    finally:
        sys.setswitchinterval(interval)
    assert got == [golden[case][seed] for case, seed in jobs]
