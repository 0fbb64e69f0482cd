"""Simulator: gather, lowering and the run, against ``dfg.interpret_dfg``."""

import numpy as np

from dfeoffload import corpus
from dfeoffload.dfg import NodeKind, interpret_dfg, validate_dfg
from dfeoffload.frontend import extract_dfg
from dfeoffload.kernels import allocate_arrays
from dfeoffload.overlay import OverlayShape
from dfeoffload.placer import place_and_route
from dfeoffload.runtime import trip_counts
from dfeoffload.simulator import build_streams, compile_config, run_compiled


def test_an_input_that_nothing_reads_is_not_streamed():
    kernel = corpus.load("gemm")
    g = extract_dfg(kernel, 1)
    first = g.inputs()[0]
    unread = g.add_node(NodeKind.INPUT)
    g.io_bindings[unread] = g.io_bindings[first]
    assert validate_dfg(g) == []
    program = compile_config(place_and_route(g, OverlayShape(6, 6), seed=3).apply())
    params = {"M": 5, "N": 6}
    arrays = allocate_arrays(kernel, params, np.random.default_rng(0))
    streams = build_streams(g, arrays, trip_counts(kernel.canonical_nest()[0], params))
    assert unread not in streams
    report = run_compiled(program, streams)
    want = interpret_dfg(g, {**{nid: s.tolist() for nid, s in streams.items()},
                             unread: streams[first].tolist()})
    assert {tag: s.tolist() for tag, s in report.outputs.items()} == want
