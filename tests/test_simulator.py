"""Simulator: gather, lowering and the run, against ``dfg.interpret_dfg``."""

import struct

import numpy as np
import pytest

from dfeoffload import corpus
from dfeoffload.dfg import LengthMismatch, NodeKind, interpret_dfg, validate_dfg
from dfeoffload.frontend import extract_dfg
from dfeoffload.kernels import allocate_arrays
from dfeoffload.overlay import OverlayShape
from dfeoffload.placer import place_and_route
from dfeoffload.runtime import trip_counts
from dfeoffload.simulator import (build_streams, compile_config, dump_frames,
                                  load_frames, run_compiled)


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


def test_frames_are_tag_value_and_eight_zero_bytes():
    streams = {9: np.array([1, -2, 2**31 - 1], np.int32),
               4: np.array([-2**31, 0, 7], np.int64)}
    want = b"".join(struct.pack("<Ii8x", tag, int(streams[tag][pos]))
                    for pos in range(3) for tag in (4, 9))
    data = dump_frames(streams)
    assert data == want
    back = load_frames(data)
    assert list(back) == [4, 9]
    for tag, stream in streams.items():
        assert back[tag].dtype == np.int32
        assert back[tag].tolist() == stream.tolist()


def test_frames_refuse_what_the_wire_cannot_carry():
    with pytest.raises(OverflowError):
        dump_frames({1: np.array([0, 2**31], np.int64)})
    with pytest.raises(OverflowError):
        dump_frames({1: np.array([-2**31 - 1], np.int64)})
    with pytest.raises(LengthMismatch):
        dump_frames({1: np.zeros(2, np.int32), 2: np.zeros(3, np.int32)})
    with pytest.raises(ValueError, match="truncated"):
        load_frames(bytes(17))
    assert dump_frames({}) == b"" and load_frames(b"") == {}
