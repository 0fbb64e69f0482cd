"""Simulator: gather, lowering and the run, against ``dfg.interpret_dfg``."""

import collections
import functools
import hashlib
import itertools
import math
import re
import struct
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from conftest import add_node, reference_trace, trace_fields
from dfeoffload import corpus, engine, overlay, runtime, simulator
from dfeoffload.dfg import (OP_ARITY, AffineExpr, DataFlowGraph, IoBinding,
                            LengthMismatch, NodeKind, OpCode, interpret_dfg, validate_dfg)
from dfeoffload.frontend import IneligibleKernel, Thresholds, extract_dfg
from dfeoffload.kernels import allocate_arrays, evaluate_kernel, parse_kernel
from dfeoffload.overlay import Direction, OverlayShape, Pin
from dfeoffload.placer import PlacerParams, place_and_route
from dfeoffload.runtime import CostModel, OffloadRuntime, trip_counts
from dfeoffload.simulator import (OutOfBounds, build_streams, call_signature,
                                  compile_config, dump_frames, graph_io, load_frames,
                                  lower_dfg, plan_box, run_compiled, write_back)


def test_an_input_that_nothing_reads_is_not_streamed():
    kernel = corpus.load("gemm")
    g = extract_dfg(kernel, 1)
    first = g.inputs()[0]
    unread = add_node(g, NodeKind.INPUT)
    g.io_bindings[unread] = g.io_bindings[first]
    assert validate_dfg(g) == []
    program = compile_config(place_and_route(g, OverlayShape(6, 6), seed=3).apply())
    params = {"M": 5, "N": 6}
    arrays = allocate_arrays(kernel, params, np.random.default_rng(0))
    streams = build_streams(graph_io(g), arrays,
                            trip_counts(kernel.canonical_nest()[0], params))
    assert unread not in streams
    report = run_compiled(program, streams)
    want = interpret_dfg(g, {**{nid: s.tolist() for nid, s in streams.items()},
                             unread: streams[first].tolist()})
    assert {tag: s.tolist() for tag, s in report.outputs.items()} == want


# -- the lowering of placed configs ----------------------------------------------------

# One digest per placer seed 0..3 of each lowered (kernel, unroll): unroll 1
# on 6x6 and unroll 2 on 8x8, at a placer budget of 20,000.
_PROGRAM_DIGESTS = {
    ("2mm", 1): ("4d82e6cc4ac26d85", "14f2158fef100c87", "c9d3268c3b3a928b", "d8d5844d682ee848"),
    ("3mm", 1): ("5dcdc33be20a32da", "8cb831048ea25829", "5efd9acbf53d182c", "9c193c4da0fde4eb"),
    ("atax", 1): ("002240478c7b305e", "bc71bc20599c6988", "d36cbe7c285f8627", "1b848cf9ebc041cb"),
    ("bicg", 1): ("2f31ffb5e6983f94", "5e9cdcf439a78da4", "34a8074bd78fe749", "a24befffbb89ae85"),
    ("branchmix", 1): ("1ba212b8a26f37dd", "c092308520d65511", "61fc94f7c160289c",
                       "bd66f56ff5c15ce1"),
    ("gemm", 1): ("72fdb7b22252ca13", "a9a5fc0b65b4167e", "e147a101b72f0f08", "3a1256dac7b75b76"),
    ("gemver", 1): ("5ce5a25107458e95", "c8d2e8479d397bf9", "e447a30dfc0fa2c6",
                    "5329a650d4432fa2"),
    ("gesummv", 1): ("6bd5d28c03de51f5", "d5c2bb6aa1026c91", "1e40d45e8f5d8ff0",
                     "1ac9842635bf7f92"),
    ("mvt", 1): ("b043a6516a5e7455", "831bf9449d1545b1", "c97ec19dc664f4db", "4f09fe5ce778d9a0"),
    ("symm", 1): ("99588bddeb97c48e", "e7887e84ce5ef12d", "333ead887ff274c9", "e47fb95f72e62739"),
    ("syr2k", 1): ("a0673531b9289a74", "b86450419be4abb0", "81ab24d76ac839b7", "b22c0b6ed329d2f1"),
    ("syrk", 1): ("4cf93ec484d2d565", "4584fd951d492fca", "c21ec0c46662b0c7", "f464f4efd7192599"),
    ("trmm", 1): ("4a30b87ff7130dff", "06c0ef3ea59d1b77", "92916bd0ae6194f1", "723fb7017292120b"),
    ("2mm", 2): ("02ad78e0a79fcb3c", "019634ce5fdedb31", "a5c967ce9b71dd02", "4ca029498ced3841"),
    ("atax", 2): ("8512c861338502d4", "866240f2dd49bcfe", "dd20df66419d7bd1", "a9e26325ed73c607"),
    ("bicg", 2): ("2b0f1d004a5a535f", "130f4e918d805587", "95bd8035574c3086", "653ef8085875bae0"),
    ("branchmix", 2): ("9e69e916a232340d", "bf833439f1fc0711", "6dce19258c5daba7",
                       "c3f18de5f8c2d151"),
    ("gemm", 2): ("727899f0bd796baf", "d78f0e6db4b666cf", "879f09a231847eee", "99fa64dd6f3f82b4"),
    ("gemver", 2): ("cc9c42a59a31ed40", "27ee393a1dc95ff1", "fd52f9003dd6bb8b",
                    "1f330795ba486528"),
    ("gesummv", 2): ("74016bfd757612a0", "27e4f1559e5a937a", "a5b9d2a22fe3fa8d",
                     "0f9794caa881c4ba"),
    ("mvt", 2): ("37ba2bf7031826ca", "e6ce7ac95bd4872c", "c1dc2ac4dbc7655b", "230e98a6ce027fa3"),
    ("symm", 2): ("309b7c9a75339a73", "4394594ae851cbfa", "b3f63baa937af80e", "a3ce9981de2d82a4"),
    ("syr2k", 2): ("3d52171461f68b51", "328fd2e4e12d4a89", "41d22e5cdf0a1f0c", "1e2c4b0d378347c3"),
    ("syrk", 2): ("919119c1c51a4648", "c5fefa5314cf282b", "1775d2e1b9b76e01", "2c42918e5678b89d"),
    ("trmm", 2): ("25b7be44b58c94c3", "bb878ce518f8698c", "35ce46dc3f294509", "bfb753c23a069499"),
}


def _program_digest(program: simulator.Program) -> str:
    """Every field of a program, slot numbers and dict order included."""
    fields = (program.n_slots, program.instrs.tolist(), program.const_fill,
              list(program.input_slots.items()), list(program.output_slots.items()),
              program.depth)
    return hashlib.sha1(repr(fields).encode()).hexdigest()[:16]


@pytest.mark.parametrize("name, unroll", list(_PROGRAM_DIGESTS))
def test_placed_configs_lower_to_the_pinned_programs(name, unroll):
    g = extract_dfg(corpus.load(name), unroll)
    shape = OverlayShape(6, 6) if unroll == 1 else OverlayShape(8, 8)
    got = tuple(_program_digest(compile_config(
        place_and_route(g, shape, PlacerParams(global_budget=20_000), seed).apply()))
        for seed in range(4))
    assert got == _PROGRAM_DIGESTS[(name, unroll)]


@functools.cache
def _placement(name, unroll, seed):
    """The graph and its placement of ``_PROGRAM_DIGESTS`` at one placer seed."""
    g = extract_dfg(corpus.load(name), unroll)
    shape = OverlayShape(6, 6) if unroll == 1 else OverlayShape(8, 8)
    return g, place_and_route(g, shape, PlacerParams(global_budget=20_000), seed)


@functools.cache
def _placed(name, unroll, seed):
    """The graph and its pinned program of ``_PROGRAM_DIGESTS`` at one placer seed."""
    g, placement = _placement(name, unroll, seed)
    return g, compile_config(placement.apply())


@pytest.mark.parametrize("name, unroll", list(_PROGRAM_DIGESTS))
def test_trace_config_matches_a_trace_of_each_route_on_the_pinned_placements(name, unroll):
    for seed in range(4):
        cfg = _placement(name, unroll, seed)[1].apply()
        assert trace_fields(overlay.trace_config(cfg)) == reference_trace(cfg)


def _assert_no_instruction_writes_an_input_or_a_constant(program):
    """The premise of the blocked run's once-per-run fills: every result has
    a slot of its own, and none is an input or a constant slot."""
    dsts = program.instrs[:, 1].tolist()
    assert len(set(dsts)) == len(dsts)
    assert set(dsts).isdisjoint(program.input_slots.values())
    assert set(dsts).isdisjoint(slot for slot, _ in program.const_fill)


@pytest.mark.parametrize("name, unroll", list(_PROGRAM_DIGESTS))
def test_a_placed_program_writes_no_input_or_constant_slot(name, unroll):
    for seed in range(4):
        _assert_no_instruction_writes_an_input_or_a_constant(_placed(name, unroll, seed)[1])


@pytest.mark.parametrize("unroll", [1, 2])
def test_a_host_program_writes_no_input_or_constant_slot(unroll):
    lowered = 0
    for name in corpus.kernel_names():
        try:
            g = extract_dfg(corpus.load(name), unroll)
        except IneligibleKernel:
            continue
        _assert_no_instruction_writes_an_input_or_a_constant(lower_dfg(g))
        lowered += 1
    assert lowered == 15


class _ReadCounter(dict):
    """A cell's ``out_sel`` that counts the reads of each of its outputs."""

    def __init__(self, rc, sels, reads: collections.Counter):
        super().__init__(sels)
        self.rc, self.reads = rc, reads

    def __getitem__(self, side):
        self.reads[(*self.rc, side)] += 1
        return super().__getitem__(side)


def test_lowering_resolves_each_hop_at_most_once():
    """A hop, a cell's input side, is resolved by reading the output of the
    neighbour that faces it.  Lowering reads every output once for the
    cell checks and once more for each io_out binding, and beyond that
    exactly once if some route passes the hop it faces, however many
    routes share that hop, and never otherwise."""
    cfg = place_and_route(extract_dfg(corpus.load("gemm"), 2), OverlayShape(8, 8),
                          seed=3).apply()
    facing = []  # the output each route's hops read, walked here on its own
    for rc, cell in cfg.cells.items():
        for d in [*map(cell.pin_select, Pin), *cell.out_sel.values()]:
            at = rc
            while isinstance(d, Direction) and cfg.shape.neighbor(*at, d) is not None:
                at, d = cfg.shape.neighbor(*at, d), overlay.opposite(d)
                facing.append((*at, d))
                d = cfg.cells[at].out_sel[d]
    assert len(facing) > len(set(facing))  # routes share hops
    reads = collections.Counter()
    for rc, cell in cfg.cells.items():
        cell.out_sel = _ReadCounter(rc, cell.out_sel, reads)
    compile_config(cfg)
    assert reads == {(*rc, d): 1 + ((*rc, d) in cfg.io_out) + ((*rc, d) in facing)
                     for rc in cfg.cells for d in Direction}


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


# -- gather and scatter through views, against index arrays ----------------------------

LOOP_VARS = ("i", "j", "k")


def _steady_counts(trips, factor):
    """Every loop from 0 to its count (negative counts run zero times), with
    the innermost count divided by the unroll factor."""
    counts = [max(n, 0) for _, n in trips]
    counts[-1] //= factor
    return counts


def _reference(binding, trips, factor, shape):
    """Index arrays of ``binding`` over the steady state, and whether all are in range."""
    counts = _steady_counts(trips, factor)
    grids = np.indices(counts).reshape(len(counts), -1)
    env = {var: grids[i] for i, (var, _) in enumerate(trips)}
    idx = []
    for expr in binding.access:
        total = np.full(grids.shape[1], expr.const, dtype=np.int64)
        for var, coeff in expr.terms:
            total = total + coeff * env[var]
        idx.append(total)
    in_range = all(((i >= 0) & (i < n)).all() for i, n in zip(idx, shape))
    return tuple(idx), in_range


def _array(rng, shape, layout, dtype):
    """A random array of ``shape`` laid out as C, Fortran, sliced, reversed or read-only."""
    if layout == "sliced":
        big = rng.integers(-2**31, 2**31, tuple(2 * s + 1 for s in shape))
        arr = big[tuple(slice(1, None, 2) for _ in shape)]
    else:
        arr = rng.integers(-2**31, 2**31, shape)
        if layout == "fortran":
            arr = np.asfortranarray(arr)
        elif layout == "reversed":
            arr = arr[tuple(slice(None, None, -1) for _ in shape)]
    arr = arr.astype(dtype, copy=False)
    if layout == "read-only":
        arr.flags.writeable = False
    assert arr.shape == shape
    return arr


def _graph(reads=(), writes=(), factor=1):
    """Inputs bound to ``reads``, each feeding a PASS, and Outputs bound to ``writes``."""
    g = DataFlowGraph(unroll=factor)
    for binding in reads:
        nid = add_node(g, NodeKind.INPUT)
        g.io_bindings[nid] = binding
        add_node(g, NodeKind.OP, nid, code=OpCode.PASS)
    for binding in writes:
        g.io_bindings[add_node(g, NodeKind.OUTPUT)] = binding
    return g


def _copying(reads, writes, factor=1):
    """``_graph`` whose Outputs each copy the first read: a graph with a
    host program."""
    g = _graph(reads, writes, factor)
    copy = g.op_nodes()[0]
    for out in g.outputs():
        g.nodes[out] = replace(g.nodes[out], srcs=(copy,))
    return g


# F[0], a read for a ``_copying`` graph that only writes matter to
_F0 = IoBinding("F", (AffineExpr.of(0),))


def _plan_of(g, arrays, trips):
    """``plan_box`` of the steady state of ``g``, lowered for the host."""
    return plan_box(graph_io(g), lower_dfg(g), arrays, trips)


def _as_blocks(arrays):
    """``arrays`` as the runtime plans and runs them: each that is not one
    C- or Fortran-ordered block copied to C order."""
    return {name: a if a.flags.forc else np.ascontiguousarray(a) for name, a in arrays.items()}


_LAYOUTS = st.sampled_from(["C", "fortran", "sliced", "reversed", "read-only"])
_DTYPES = st.sampled_from([np.int32, np.int64])


@st.composite
def _domains(draw):
    """Up to three loops with an unroll factor of 1 to 3.  One domain in four is
    empty: one loop's trip count is 0 or negative."""
    n, factor = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    counts = [draw(st.integers(1, 5)) for _ in range(n - 1)]
    counts.append(draw(st.integers(factor, 7)))
    if draw(st.sampled_from([False, False, False, True])):
        counts[draw(st.integers(0, n - 1))] = draw(st.integers(-1, 0))
    return [(LOOP_VARS[d], c) for d, c in enumerate(counts)], factor


@st.composite
def _subscript(draw, trips, factor, coeffs):
    """(extent, subscript) for one dimension: the extent fits the subscript's
    range over the domain with 0 to 2 to spare, and the constant puts the
    range anywhere from one before the array's start to one past its end."""
    counts = _steady_counts(trips, factor)
    spans = [c * (max(n, 1) - 1) for c, n in zip(coeffs, counts)]
    lo = sum(min(x, 0) for x in spans)
    hi = sum(max(x, 0) for x in spans)
    extent = draw(st.integers(hi - lo + 1, hi - lo + 3))
    const = draw(st.integers(-lo - 1, extent - hi))
    return extent, AffineExpr.of(const, **{var: c for (var, _), c in zip(trips, coeffs)})


@st.composite
def _reads(draw, trips, factor, name):
    """Any affine read: every loop variable may appear in every subscript
    with a coefficient from -2 to 2 (0 gives a stride-0 read)."""
    dims = [draw(_subscript(trips, factor,
                            [draw(st.integers(-2, 2)) for _ in trips]))
            for _ in range(draw(st.integers(1, 3)))]
    return tuple(e for e, _ in dims), IoBinding(name, tuple(a for _, a in dims))


@settings(max_examples=200)
@given(domain=_domains(), data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_build_streams_gathers_what_index_arrays_gather(domain, data, seed):
    trips, factor = domain
    rng = np.random.default_rng(seed)
    arrays, in_range, out_of_range = {}, [], []
    for name in ("A", "B", "C", "D"):
        shape, binding = data.draw(_reads(trips, factor, name))
        arrays[name] = _array(rng, shape, data.draw(_LAYOUTS), data.draw(_DTYPES))
        idx, ok = _reference(binding, trips, factor, shape)
        (in_range if ok or not len(idx[0]) else out_of_range).append((binding, idx))
    before = {name: a.copy() for name, a in arrays.items()}
    for binding, _ in out_of_range:
        with pytest.raises(OutOfBounds, match=rf"^{binding.array} dim \d: index range"):
            build_streams(graph_io(_graph([binding], factor=factor)), arrays, trips)
    g = _graph([binding for binding, _ in in_range], factor=factor)
    got = build_streams(graph_io(g), arrays, trips)
    assert sorted(got) == g.inputs()
    for nid, (binding, idx) in zip(g.inputs(), in_range):
        want = arrays[binding.array][idx] if len(idx[0]) else np.zeros(0)
        assert got[nid].dtype == np.int32 and got[nid].ndim == 1
        assert got[nid].tolist() == want.astype(np.int32).tolist(), binding
    for name, a in arrays.items():
        assert np.array_equal(a, before[name])


@st.composite
def _writes(draw, trips, factor, name):
    """A write as extraction makes one: each dimension one distinct loop
    variable, here with any nonzero coefficient, plus a constant."""
    order = draw(st.permutations(range(len(trips))))
    dims = []
    for var in order:
        coeffs = [0] * len(trips)
        coeffs[var] = draw(st.sampled_from([-2, -1, 1, 2]))
        dims.append(draw(_subscript(trips, factor, coeffs)))
    return tuple(e for e, _ in dims), IoBinding(name, tuple(a for _, a in dims))


@settings(max_examples=200)
@given(domain=_domains(), data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_write_back_scatters_what_index_arrays_scatter(domain, data, seed):
    trips, factor = domain
    rng = np.random.default_rng(seed)
    arrays, in_range, out_of_range = {}, [], []
    for name in ("C", "D", "E"):
        shape, binding = data.draw(_writes(trips, factor, name))
        layout = data.draw(st.sampled_from(["C", "fortran", "sliced", "reversed"]))
        arrays[name] = _array(rng, shape, layout, data.draw(_DTYPES))
        idx, ok = _reference(binding, trips, factor, shape)
        stream = rng.integers(-2**31, 2**31, len(idx[0])).astype(np.int32)
        (in_range if ok or not len(idx[0]) else out_of_range).append((binding, idx, stream))
    arrays["F"] = np.zeros(3, np.int32)  # read, and written by nothing
    before = {name: a.copy() for name, a in arrays.items()}
    blocks = _as_blocks(arrays)
    for binding, _, stream in out_of_range:
        with pytest.raises(OutOfBounds, match=rf"^{binding.array} dim \d: index range"):
            _plan_of(_copying([_F0], [binding], factor), blocks, trips)
    g = _copying([_F0], [binding for binding, _, _ in in_range], factor)
    outputs = dict(zip(g.outputs(), [stream for _, _, stream in in_range]))
    got = write_back(graph_io(g), outputs, blocks, _plan_of(g, blocks, trips))
    want = {name: a.copy() for name, a in arrays.items()}
    for binding, idx, stream in in_range:
        want[binding.array][idx] = stream
    assert got["F"] is arrays["F"]
    for name in arrays:
        assert got[name].dtype == arrays[name].dtype
        assert np.array_equal(got[name], want[name]), name
        assert np.array_equal(arrays[name], before[name]), name


def test_an_access_out_of_range_at_either_extreme_is_named():
    # i runs 0..3 and j 0..4: A[i+1][2-j] reaches row 4 of 4, B[j-1] reaches -1.
    trips = [("i", 4), ("j", 5)]
    a = IoBinding("A", (AffineExpr.of(1, i=1), AffineExpr.of(2, j=-1)))
    b = IoBinding("B", (AffineExpr.of(-1, j=1),))
    arrays = {"A": np.zeros((4, 3), np.int32), "B": np.zeros(6, np.int32)}
    with pytest.raises(OutOfBounds, match=r"^A dim 0: index range \[1,4\] outside extent 4$"):
        build_streams(graph_io(_graph([a])), arrays, trips)
    with pytest.raises(OutOfBounds, match=r"^B dim 0: index range \[-1,3\] outside extent 6$"):
        build_streams(graph_io(_graph([b])), arrays, trips)
    # an empty domain reads nothing, so nothing is out of range
    for trips in ([("i", 0), ("j", 5)], [("i", 4), ("j", -2)]):
        streams = build_streams(graph_io(_graph([a, b])), arrays, trips)
        assert [(s.dtype, s.shape) for s in streams.values()] == [(np.int32, (0,))] * 2


def test_a_bad_binding_is_refused_with_its_reason():
    trips = [("i", 2)]
    arrays = {"A": np.zeros((2, 2), np.int32)}
    cases = [
        (IoBinding("A", (AffineExpr.of(0, i=1),)), "array A has rank 2, access has 1 dims"),
        (IoBinding("A", (AffineExpr.of(0, i=1), AffineExpr.of(0, q=1))),
         "access uses unknown loop variable 'q'"),
    ]
    for binding, message in cases:
        with pytest.raises(OutOfBounds) as exc:
            build_streams(graph_io(_graph([binding])), arrays, trips)
        assert str(exc.value) == message
        with pytest.raises(OutOfBounds) as exc:
            _plan_of(_copying([IoBinding("A", (AffineExpr.of(0, i=1), AffineExpr.of(0)))],
                              [binding]), arrays, trips)
        assert str(exc.value) == message


# -- the column-blocked run ------------------------------------------------------------

_BLOCK = simulator._BLOCK
_LENGTHS = (0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 3)


@pytest.fixture(scope="module")
def branchmix_run():
    """branchmix's graph (compares and MUXes), random streams of the longest
    length, and what ``interpret_dfg`` makes of them."""
    g = extract_dfg(corpus.load("branchmix"), 1)
    rng = np.random.default_rng(4)
    streams = {nid: rng.integers(-2**31, 2**31, _LENGTHS[-1]).astype(np.int32)
               for nid in g.inputs()}
    want = interpret_dfg(g, {nid: s.tolist() for nid, s in streams.items()})
    return g, streams, want


@pytest.mark.parametrize("lowering", ["overlay", "host"])
def test_run_compiled_equals_interpret_dfg_across_block_edges(
        monkeypatch, branchmix_run, lowering):
    g, streams, want = branchmix_run
    program = (compile_config(place_and_route(g, OverlayShape(6, 6), seed=3).apply())
               if lowering == "overlay" else lower_dfg(g))
    widths = []

    def runner():
        def run(steps, values, sources):
            widths.append(values.shape[1])
            engine.run_program(steps, values, sources)
        return run

    monkeypatch.setattr(engine, "get_runner", runner)
    for length in _LENGTHS:
        widths.clear()
        report = run_compiled(program, {nid: s[:length] for nid, s in streams.items()})
        assert widths == [min(_BLOCK, length - lo) for lo in range(0, length, _BLOCK)]
        assert sorted(report.outputs) == g.outputs()
        for tag, stream in report.outputs.items():
            assert stream.dtype == np.int32
            assert stream.tolist() == want[tag][:length], (length, tag)
        assert report.frames_in == len(streams) * length
        assert report.frames_out == len(g.outputs()) * length
        assert report.cycles == program.depth + length


def test_run_compiled_refuses_streams_that_do_not_match_its_tags(branchmix_run):
    g, streams, _ = branchmix_run
    program = lower_dfg(g)
    first, second = g.inputs()
    with pytest.raises(simulator.UnconfiguredTag,
                       match=re.escape(f"missing input tags [{first}], unexpected []")):
        run_compiled(program, {second: streams[second]})
    with pytest.raises(simulator.UnconfiguredTag,
                       match=re.escape("missing input tags [], unexpected [999]")):
        run_compiled(program, {**streams, 999: streams[first]})
    with pytest.raises(LengthMismatch, match=re.escape("shapes differ: [(2,), (3,)]")):
        run_compiled(program, {first: streams[first][:2], second: streams[second][:3]})


def test_write_back_refuses_a_missing_or_short_output_stream():
    kernel = corpus.load("branchmix")
    g = extract_dfg(kernel, 1)
    params = {"M": 3, "N": 4}
    arrays = allocate_arrays(kernel, params, np.random.default_rng(0))
    trips = trip_counts(kernel.canonical_nest()[0], params)
    (out,) = g.outputs()
    plan = _plan_of(g, arrays, trips)
    with pytest.raises(simulator.UnconfiguredTag,
                       match=f"report carries no stream for output {out}"):
        write_back(graph_io(g), {}, arrays, plan)
    with pytest.raises(LengthMismatch, match=f"output {out}: stream length 11 != domain 12"):
        write_back(graph_io(g), {out: np.zeros(11, np.int32)}, arrays, plan)


@pytest.mark.parametrize("block", [1, 4, 5, 12, 64])
@pytest.mark.parametrize("shape", [(7,), (70,), (3, 5), (5, 3), (2, 13), (2, 3, 4),
                                   (4, 1, 9), (1, 1, 1), (0,), (0, 3), (3, 0)])
def test_pieces_tile_the_box_once_in_row_major_order(monkeypatch, block, shape):
    monkeypatch.setattr(simulator, "_BLOCK", block)
    box = np.arange(math.prod(shape)).reshape(shape)
    seen, widths = [], []
    for index, piece in simulator._pieces(shape):
        assert box[index].shape == piece
        widths.append(math.prod(piece))
        seen.extend(box[index].reshape(-1).tolist())
    assert seen == list(range(box.size))
    assert all(1 <= w <= block for w in widths)
    if len(shape) == 1:  # a 1-D stream is cut every block positions
        assert widths == [min(block, box.size - lo) for lo in range(0, box.size, block)]


def _summing_graph(reads, factor):
    """``_graph(reads)`` with one Output per Input: the Input plus the Input
    before it, so that streams running out of step show in the outputs.  An
    Output is bound to its Input's read; nothing scatters it here."""
    g = _graph(reads, factor=factor)
    inputs = g.inputs()
    for prev, nid in zip(inputs[-1:] + inputs[:-1], inputs):
        out = add_node(g, NodeKind.OUTPUT, add_node(g, NodeKind.OP, nid, prev, code=OpCode.ADD))
        g.io_bindings[out] = g.io_bindings[nid]
    return g


def _source_array(rng, shape, layout, dtype):
    """An array of ``shape`` laid out as C, Fortran, sliced, reversed or
    "broadcast": one row repeated along the other axes with stride 0.  An
    int64 array holds values beyond int32, which a stream wraps."""
    values = rng.integers(-2**31, 2**31, shape)
    if dtype == np.int64:
        values += rng.integers(-3, 4, shape) << 32
    values = values.astype(dtype)
    if layout == "fortran":
        return np.asfortranarray(values)
    if layout == "reversed":
        return values[(slice(None, None, -1),) * len(shape)]
    if layout == "sliced":
        arr = np.zeros(tuple(2 * n + 1 for n in shape), dtype)[(slice(1, None, 2),) * len(shape)]
        arr[...] = values
        return arr
    if layout == "broadcast":
        return np.broadcast_to(values[(0,) * (len(shape) - 1)], shape)
    return values


@pytest.mark.parametrize("block", [1, 5, 64])
@settings(max_examples=100, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(domain=_domains(), data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_run_compiled_runs_views_as_it_runs_built_streams(monkeypatch, block, domain,
                                                          data, seed):
    monkeypatch.setattr(simulator, "_BLOCK", block)
    trips, factor = domain
    rng = np.random.default_rng(seed)
    arrays, reads = {}, []
    for name in ("A", "B", "C"):
        shape, binding = data.draw(_reads(trips, factor, name))
        layout = data.draw(st.sampled_from(["C", "fortran", "sliced", "reversed",
                                            "broadcast"]))
        idx, ok = _reference(binding, trips, factor, shape)
        if ok or not len(idx[0]):
            arrays[name] = _source_array(rng, shape, layout, data.draw(_DTYPES))
            reads.append(binding)
    before = {name: a.copy() for name, a in arrays.items()}
    g = _summing_graph(reads, factor)
    program = lower_dfg(g)
    blocks = _as_blocks(arrays)
    views = _plan_of(g, blocks, trips).gather(blocks)
    box = tuple(_steady_counts(trips, factor))
    for nid, binding in zip(g.inputs(), reads):
        source = arrays[binding.array]
        assert views[nid].shape == box
        # a view is over its source's memory unless the source was copied
        assert not views[nid].size or (np.shares_memory(views[nid], source)
                                       == source.flags.forc)
    got = run_compiled(program, views)
    want = run_compiled(program, build_streams(graph_io(g), arrays, trips))
    assert (got.frames_in, got.frames_out, got.cycles) == (
        want.frames_in, want.frames_out, want.cycles)
    assert sorted(got.outputs) == sorted(want.outputs) == g.outputs()
    for tag, stream in got.outputs.items():
        assert stream.dtype == np.int32 and stream.shape == (math.prod(box),)
        assert np.array_equal(stream, want.outputs[tag]), tag
    for name, a in arrays.items():
        assert np.array_equal(a, before[name])


# (box, block, the pieces' shapes): rows cut in the middle of the outer axis,
# a cut under a leading index, an innermost row wider than the block, and a
# 3-D box cut along its outer axis; each but the third ends on a shorter piece.
_CUT_BOXES = [
    ((5, 7), 16, [(2, 7), (2, 7), (1, 7)]),
    ((3, 5, 4), 8, [(2, 4), (2, 4), (1, 4)] * 3),
    ((3, 20), 8, [(8,), (8,), (4,)] * 3),
    ((5, 2, 3), 12, [(2, 2, 3), (2, 2, 3), (1, 2, 3)]),
]


@pytest.mark.parametrize("box, block, pieces", _CUT_BOXES,
                         ids=["2-D mid-axis", "3-D under a lead", "wide row", "3-D outer"])
def test_an_input_that_no_piece_changes_is_copied_once(monkeypatch, box, block, pieces):
    """One read per subset of the loops, indexed by exactly those loops, so
    that some reads are constant along every axis the pieces cut and the
    others are not.  One read runs backwards along its array, with a
    negative stride."""
    monkeypatch.setattr(simulator, "_BLOCK", block)
    assert [piece for _, piece in simulator._pieces(box)] == pieces
    trips = list(zip(LOOP_VARS, box))
    rng = np.random.default_rng(len(box) * block)
    arrays, reads = {}, []
    for used in itertools.chain.from_iterable(
            itertools.combinations(trips, r) for r in range(len(trips) + 1)):
        name = f"A{len(arrays)}"
        access = tuple(AffineExpr.of(0, **{var: 1}) for var, _ in used) or (AffineExpr.of(2),)
        shape = tuple(n for _, n in used) or (3,)
        arrays[name] = rng.integers(-2**31, 2**31, shape).astype(np.int32)
        reads.append(IoBinding(name, access))
    var, n = trips[0]
    reads[1] = IoBinding("A1", (AffineExpr.of(n - 1, **{var: -1}),))
    g = _summing_graph(reads, 1)
    program = lower_dfg(g)
    views = _plan_of(g, arrays, trips).gather(arrays)
    cut = len(next(simulator._pieces(box))[0])
    invariant = [nid for nid, view in views.items() if not any(view.strides[:cut])]
    assert 0 < len(invariant) < len(views)
    got = run_compiled(program, views)
    want = run_compiled(program, build_streams(graph_io(g), arrays, trips))
    assert sorted(got.outputs) == sorted(want.outputs)
    for tag, stream in got.outputs.items():
        assert np.array_equal(stream, want.outputs[tag]), tag


# -- the row plan ----------------------------------------------------------------------


def _lowered(unroll):
    """(graph, host program) of every corpus graph that extracts at ``unroll``."""
    out = []
    for name in corpus.kernel_names():
        try:
            g = extract_dfg(corpus.load(name), unroll)
        except IneligibleKernel:
            continue
        out.append((g, lower_dfg(g)))
    assert len(out) == 15
    return out


# (box, block): a 2-D box cut along its outer axis, a 3-D box cut under a
# leading index, a 1-D box cut every block, and a box of one piece.
_ORACLE_BOXES = [((5, 3), 6), ((3, 4, 5), 8), ((23,), 4), ((4, 3), 64)]


def _mixed_views(rng, tags, box, cut):
    """One view of ``box`` per tag, the layouts taken in turn from a random
    start: values along every axis; an int64 row beyond the int32 range,
    which a stream wraps, repeated with stride 0 along the ``cut`` axes
    (pinned); and values repeated with stride 0 along the innermost axis."""
    start, views = int(rng.integers(3)), {}
    for i, tag in enumerate(tags):
        layout = (start + i) % 3
        if layout == 0:
            views[tag] = rng.integers(-2**31, 2**31, box).astype(np.int32)
        elif layout == 1:
            row = box[cut:]
            views[tag] = np.broadcast_to(
                rng.integers(-2**31, 2**31, row) + (rng.integers(-3, 4, row) << 32), box)
        else:
            column = rng.integers(-2**31, 2**31, (*box[:-1], 1)).astype(np.int32)
            views[tag] = np.broadcast_to(column, box)
    return views


def _assert_runs_as_interpret_dfg(monkeypatch, g, program, seed):
    """``run_compiled`` over mixed views of each oracle box, against
    ``interpret_dfg`` on the same values, which knows no plan."""
    loads = 0
    for box, block in _ORACLE_BOXES:
        monkeypatch.setattr(simulator, "_BLOCK", block)
        cut = len(next(simulator._pieces(box))[0])
        views = _mixed_views(np.random.default_rng(seed), list(program.input_slots), box, cut)
        unread = [0] * math.prod(box)
        want = interpret_dfg(g, {nid: views[nid].reshape(-1).tolist() if nid in views
                                 else unread for nid in g.inputs()})
        got = run_compiled(program, views).outputs
        assert sorted(got) == sorted(want) == g.outputs()
        for tag, stream in got.items():
            assert stream.tolist() == want[tag], (box, tag)
        loads += sum(any(view.strides[:cut]) for view in views.values())
    assert loads


@pytest.mark.parametrize("name, unroll", list(_PROGRAM_DIGESTS))
def test_a_placed_program_runs_as_interpret_dfg_in_cut_boxes(monkeypatch, name, unroll):
    for seed in range(4):
        _assert_runs_as_interpret_dfg(monkeypatch, *_placed(name, unroll, seed), seed)


@pytest.mark.parametrize("unroll", [1, 2])
def test_a_host_program_runs_as_interpret_dfg_in_cut_boxes(monkeypatch, unroll):
    for seed, (g, program) in enumerate(_lowered(unroll)):
        _assert_runs_as_interpret_dfg(monkeypatch, g, program, seed)


def _assert_plan_reads_what_the_program_names(program, pinned):
    """Run the plan of ``program`` and ``pinned`` on value ids, over two
    pieces: every step must read the row holding the value the program's
    instruction names, and every output row its output.  A constant or a
    pinned input is one value for the whole run; any other value is the
    piece's own, so a row read stale from the piece before fails."""
    plan = simulator._row_plan(program, pinned)
    consts = dict(program.const_fill)
    tags = {slot: tag for tag, slot in program.input_slots.items()}

    def value(slot, piece):
        if slot in consts:
            return "const", consts[slot]
        if slot in tags and tags[slot] in pinned:
            return "input", tags[slot]
        return ("input", tags[slot], piece) if slot in tags else ("result", slot, piece)

    assert plan.n_rows <= program.n_slots
    assert set(plan.loaded).isdisjoint(pinned) and len(set(plan.loaded)) == len(plan.loaded)
    rows = [None] * plan.n_rows
    for row, constant in plan.const_fill:
        rows[row] = "const", constant
    for row, tag in plan.pinned:
        rows[row] = "input", tag
    for piece in range(2):
        instrs = iter(program.instrs.tolist())
        for op, dst, *operands in plan.steps:
            if op == engine.LOAD:
                rows[dst] = "input", plan.loaded[operands[0]], piece
                continue
            want_op, want_dst, *want_operands = next(instrs)
            assert op == want_op
            arity = OP_ARITY[op]
            assert [rows[row] for row in operands[:arity]] == [
                value(slot, piece) for slot in want_operands[:arity]]
            rows[dst] = value(want_dst, piece)
        assert next(instrs, None) is None
        for tag, slot in program.output_slots.items():
            assert rows[plan.outputs[tag]] == value(slot, piece), tag


def _pinned_sets(program):
    """All inputs, none, and every other input by tag order and the rest."""
    tags = list(program.input_slots)
    return [tuple(tags), (), tuple(tags[::2]), tuple(tags[1::2])]


@pytest.mark.parametrize("name, unroll", list(_PROGRAM_DIGESTS))
def test_the_row_plans_of_a_placed_program_read_what_it_names(name, unroll):
    for seed in range(4):
        _, program = _placed(name, unroll, seed)
        for pinned in _pinned_sets(program):
            _assert_plan_reads_what_the_program_names(program, pinned)


@pytest.mark.parametrize("unroll", [1, 2])
def test_the_row_plans_of_a_host_program_read_what_it_names(unroll):
    for _, program in _lowered(unroll):
        for pinned in _pinned_sets(program):
            _assert_plan_reads_what_the_program_names(program, pinned)


# -- the plans memoized per call signature ----------------------------------------------
#
# The runtime keeps one call plan per signature (``simulator.call_signature``)
# on each analysis: a plan made on one call's arrays gathers and scatters
# every later call of the signature.

_SOURCE_LAYOUTS = ["C", "fortran", "sliced", "reversed", "broadcast"]
_OFFLOAD = CostModel(software_time_per_call=10.0)


def _same_views(got, want):
    """Views over the same memory with the same layout and values."""
    assert got.keys() == want.keys()
    for nid, view in got.items():
        assert (view.shape, view.strides, view.dtype) == (
            want[nid].shape, want[nid].strides, want[nid].dtype), nid
        if view.size:
            assert (view.__array_interface__["data"][0]
                    == want[nid].__array_interface__["data"][0]), nid
        assert np.array_equal(view, want[nid]), nid


def _outcome(call):
    """``call()``'s result, or the text of the OutOfBounds it raises."""
    try:
        return call()
    except OutOfBounds as exc:
        return str(exc)


@settings(max_examples=40)
@given(domain=_domains(), data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_a_memoized_view_equals_a_fresh_one(domain, data, seed):
    """Calls on one GraphIo that alternate three signatures, through plans
    kept per signature as the runtime keeps them, gather and scatter
    exactly what a fresh plan of each call on a fresh GraphIo does.  Each
    call copies the arrays that are not one block anew, as the runtime
    does.  The second signature has the first's trip counts and shapes but
    the other dtype, and may have other strides; the third other trip
    counts, which may take an access out of range."""
    trips, factor = domain
    rng = np.random.default_rng(seed)
    reads = [data.draw(_reads(trips, factor, name)) for name in ("A", "B")]
    writes = [data.draw(_writes(trips, factor, "C"))]
    g = _copying([b for _, b in reads], [b for _, b in writes], factor)
    shapes = {binding.array: shape for shape, binding in reads + writes}
    first_dtype = data.draw(_DTYPES)
    other_trips = [(var, data.draw(st.integers(n - 1, n + 1))) for var, n in trips]
    signatures = [(trips, first_dtype), (trips, np.int64 if first_dtype == np.int32 else np.int32),
                  (other_trips, data.draw(_DTYPES))]
    calls = []
    for sig_trips, dtype in signatures:
        layout = data.draw(st.sampled_from(_SOURCE_LAYOUTS))
        arrays = {name: _source_array(rng, shape, layout, dtype)
                  for name, shape in shapes.items()}
        positions = math.prod(_steady_counts(sig_trips, factor))
        outputs = dict.fromkeys(g.outputs(), rng.integers(-2**31, 2**31, positions,
                                                          dtype=np.int32))
        calls.append((sig_trips, arrays, outputs))
    io, program, plans = graph_io(g), lower_dfg(g), {}

    def planned(sig_trips, arrays, blocks, outputs):
        signature = call_signature(io, arrays, sig_trips)
        if signature not in plans:
            plans[signature] = plan_box(io, program, blocks, sig_trips)
        plan = plans[signature]
        return plan.gather(blocks), write_back(io, outputs, blocks, plan)

    def fresh(sig_trips, blocks, outputs):
        plan = _plan_of(g, blocks, sig_trips)
        return plan.gather(blocks), write_back(graph_io(g), outputs, blocks, plan)

    for index in data.draw(st.permutations([0, 1, 2] * 3)):
        sig_trips, arrays, outputs = calls[index]
        blocks = _as_blocks(arrays)
        got = _outcome(lambda: planned(sig_trips, arrays, blocks, outputs))
        want = _outcome(lambda: fresh(sig_trips, blocks, outputs))
        if isinstance(want, str):
            assert got == want
            continue
        _same_views(got[0], want[0])
        for name, array in want[1].items():
            assert got[1][name].dtype == array.dtype
            assert np.array_equal(got[1][name], array), name


def _memo_counted(monkeypatch):
    """The bindings ``_layout`` is called on, wherever it runs."""
    layouts = []
    original = simulator._layout
    monkeypatch.setattr(simulator, "_layout",
                        lambda *args: layouts.append(args[1]) or original(*args))
    return layouts


def _runtime_of(text, unroll=1):
    """A kernel, a runtime that offloads it, and its analysis's plans.  The
    runtime's clock advances a second per read, so a software fallback
    measures a baseline that offload still beats."""
    kernel = parse_kernel(text)
    rt = OffloadRuntime(OverlayShape(6, 6), Thresholds(min_nodes=0), cost_model=_OFFLOAD,
                        unroll=unroll, seed=3, clock=itertools.count().__next__)
    return kernel, rt, rt.analyze(kernel).plans


def test_an_out_of_range_signature_raises_the_same_text_on_every_call(monkeypatch):
    # i runs 0..M-1 over A[i+1]: in range at M=3 on 4 elements, not at M=4.
    # Software reads A[i+1] only when A[i] > A[i], which never holds, so an
    # offload that cannot gather falls back to it.
    kernel, rt, plans = _runtime_of(
        "kernel guard(M)\narrays: A[M]:int32, C[M]:int32\nfor i in 0..M {\n"
        "  if (A[i] > A[i]) { C[i] = A[i+1] + 1; } else { C[i] = A[i] - 1; }\n}")
    arrays = {"A": np.arange(4, dtype=np.int32), "C": np.zeros(4, dtype=np.int32)}
    layouts = _memo_counted(monkeypatch)
    refused = []
    for m, in_range_layouts in [(4, None), (3, 3), (4, None), (3, 0), (4, None)]:
        layouts.clear()
        out, trace = rt.execute(kernel, arrays, {"M": m})
        assert np.array_equal(out["C"], evaluate_kernel(kernel, arrays, {"M": m})["C"])
        if in_range_layouts is None:
            assert trace[-1].phase == "software"
            refused.append((trace[-1].detail, len(layouts)))
        else:
            assert "compute" in [event.phase for event in trace]
            assert len(layouts) == in_range_layouts, m
    access = "A dim 0: index range [1,4] outside extent 4"
    assert refused == [(f"access out of range ({access}), software fallback", 2)] * 3
    assert len(plans) == 1


def test_an_array_of_another_stride_or_dtype_gets_its_own_plan(monkeypatch):
    # A[i][j] over 3x4 arrays of one shape: C and Fortran differ in
    # strides, int64 and int32 in dtype and strides, int32 and uint32 in
    # dtype alone.  A copy repeats its original's plan.
    kernel, rt, plans = _runtime_of(
        "kernel scale(M, N)\narrays: A[MxN]:int32, C[MxN]:int32\n"
        "for i in 0..M { for j in 0..N { C[i][j] = 3*A[i][j] + 1; } }")
    params = {"M": 3, "N": 4}
    target = np.zeros((3, 4), dtype=np.int32)
    c = np.arange(12).reshape(3, 4)
    f = np.asfortranarray(c)
    layouts = _memo_counted(monkeypatch)
    for array, laid_out in [(c, 2), (c.copy(), 0), (f, 2), (c.astype(np.int32), 2),
                            (c.astype(np.uint32), 2), (f.astype(np.int32), 2),
                            (f.copy(order="F"), 0), (c, 0)]:
        layouts.clear()
        arrays = {"A": array, "C": target}
        out, trace = rt.execute(kernel, arrays, params)
        assert "compute" in [event.phase for event in trace]
        assert out["C"].tolist() == (3 * c + 1).tolist()
        assert len(layouts) == laid_out, (array.dtype, array.strides)
    assert len(plans) == 5


def test_the_reads_and_the_writes_of_one_array_keep_their_own_plans():
    # C[i] = C[i+1] over 5 elements: the read and the write views of one
    # signature lie one element apart.
    g = _copying([IoBinding("C", (AffineExpr.of(1, i=1),))],
                 [IoBinding("C", (AffineExpr.of(0, i=1),))])
    io, program = graph_io(g), lower_dfg(g)
    trips = [("i", 4)]
    arrays = {"C": np.arange(5, dtype=np.int32)}
    plan = plan_box(io, program, arrays, trips)
    assert [layout[3] for layout in plan.reads] == [4]
    assert [layout[3] for layout in plan.writes] == [0]
    for _ in range(2):
        report = run_compiled(program, plan.gather(arrays), plan)
        out = write_back(io, report.outputs, arrays, plan)
        assert out["C"].tolist() == [1, 2, 3, 4, 4]


def test_a_box_at_another_start_gets_its_own_plan():
    # C[i] = A[i] + 1 at unroll 2 over i = 0..2: the steady state reads
    # A[0..1] in two lanes, and the epilogue of the one leftover iteration
    # reads A[2], a box of the same count at another start.
    kernel, rt, plans = _runtime_of("kernel inc(N)\narrays: A[N]:int32, C[N]:int32\n"
                                    "for i in 0..N { C[i] = A[i] + 1; }", unroll=2)
    arrays = {"A": np.arange(10, 13, dtype=np.int32), "C": np.zeros(3, np.int32)}
    for _ in range(2):
        out, trace = rt.execute(kernel, arrays, {"N": 3})
        assert "epilogue" in [event.phase for event in trace]
        assert out["C"].tolist() == [11, 12, 13]
    entry = rt.cache.get(rt.analyze(kernel).key)
    plan = plans.get(call_signature(entry.io, arrays, [("i", 3)]))
    assert len(plans) == 1 and plan.entry is entry
    assert plan.steady.shape == plan.epilogue.shape == (1,)
    assert sorted(layout[3] for layout in plan.steady.reads) == [0, 4]
    assert [layout[3] for layout in plan.epilogue.reads] == [8]


def test_the_memo_keeps_the_most_recent_signatures(monkeypatch):
    # Each new signature makes one plan; at CACHE_CAPACITY + 1 signatures
    # the least recently used is dropped, and the most recent are kept.
    kernel, rt, plans = _runtime_of("kernel inc(N)\narrays: A[N]:int32, C[N]:int32\n"
                                    "for i in 0..N { C[i] = 3*A[i] + 1; }")
    capacity = runtime.CACHE_CAPACITY
    arrays = {"A": np.arange(capacity + 1, dtype=np.int32),
              "C": np.zeros(capacity + 1, dtype=np.int32)}
    layouts = _memo_counted(monkeypatch)

    def laid_out(n):
        layouts.clear()
        out, trace = rt.execute(kernel, arrays, {"N": n})
        assert "compute" in [event.phase for event in trace]
        assert out["C"][:n].tolist() == (3 * arrays["A"][:n] + 1).tolist()
        return len(layouts)

    for n in range(1, capacity + 2):
        assert laid_out(n) == 2
        assert len(plans) == min(n, capacity)
    assert laid_out(capacity + 1) == 0 and laid_out(2) == 0
    assert laid_out(1) == 2  # the first, dropped
    assert len(plans) == capacity
