"""Simulator: gather, lowering and the run, against ``dfg.interpret_dfg``."""

import functools
import hashlib
import itertools
import math
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import dfeoffload
from dfeoffload import corpus, engine, overlay, placer, runtime, simulator
from dfeoffload.dfg import (OP_ARITY, AffineExpr, DataFlowGraph, IoBinding,
                            LengthMismatch, NodeKind, OpCode, Remainder, interpret_dfg,
                            validate_dfg)
from dfeoffload.frontend import IneligibleKernel, extract_dfg
from dfeoffload.kernels import allocate_arrays
from dfeoffload.overlay import Direction, OverlayShape, Pin
from dfeoffload.placer import PlacerParams, place_and_route
from dfeoffload.runtime import trip_counts
from dfeoffload.simulator import (OutOfBounds, build_streams, compile_config,
                                  dump_frames, graph_io, load_frames, lower_dfg,
                                  run_compiled, stream_views, write_back)


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
    ("2mm", 1): ("d6b5f067d8ae154c", "14f2158fef100c87", "c9d3268c3b3a928b", "d8d5844d682ee848"),
    ("3mm", 1): ("5a31c55c934056a2", "55bd6b10a36dea5c", "abb6edd0f33aff43", "9c193c4da0fde4eb"),
    ("atax", 1): ("002240478c7b305e", "bc71bc20599c6988", "d36cbe7c285f8627", "1b848cf9ebc041cb"),
    ("bicg", 1): ("2f31ffb5e6983f94", "5e9cdcf439a78da4", "34a8074bd78fe749", "a24befffbb89ae85"),
    ("branchmix", 1): ("1ba212b8a26f37dd", "c092308520d65511", "61fc94f7c160289c",
                       "bd66f56ff5c15ce1"),
    ("gemm", 1): ("72fdb7b22252ca13", "a9a5fc0b65b4167e", "68ee71165a287b74", "3a1256dac7b75b76"),
    ("gemver", 1): ("5ce5a25107458e95", "5c267beded04e245", "e447a30dfc0fa2c6",
                    "5329a650d4432fa2"),
    ("gesummv", 1): ("021f6bda2644732e", "d5c2bb6aa1026c91", "1e40d45e8f5d8ff0",
                     "1ac9842635bf7f92"),
    ("mvt", 1): ("b043a6516a5e7455", "831bf9449d1545b1", "c97ec19dc664f4db", "4f09fe5ce778d9a0"),
    ("symm", 1): ("99588bddeb97c48e", "e7887e84ce5ef12d", "333ead887ff274c9", "e47fb95f72e62739"),
    ("syr2k", 1): ("a0673531b9289a74", "b86450419be4abb0", "81ab24d76ac839b7", "b22c0b6ed329d2f1"),
    ("syrk", 1): ("4cf93ec484d2d565", "4584fd951d492fca", "c21ec0c46662b0c7", "f464f4efd7192599"),
    ("trmm", 1): ("4a30b87ff7130dff", "06c0ef3ea59d1b77", "92916bd0ae6194f1", "723fb7017292120b"),
    ("2mm", 2): ("2dbd9ca02d283ac4", "464a70f239066771", "dab0932f09259464", "e5716133eaae6b11"),
    ("atax", 2): ("e87fe2d6ab165592", "321adb624fd6ecbe", "09153dd4774499fa", "af35e22b06072fb8"),
    ("bicg", 2): ("01ad514f0cbd1f19", "71be605af6862229", "aee44eba3ccbd14d", "4d4583f188c1aa08"),
    ("branchmix", 2): ("36a48a2901909433", "975b133c079aff6b", "e69f02f205b00b42",
                       "69fe0f4eb6d16b60"),
    ("gemm", 2): ("727899f0bd796baf", "e55eba60653a08bb", "bdf34f7c7c86bf28", "99fa64dd6f3f82b4"),
    ("gemver", 2): ("5f5ef8801d9587ed", "75c60a8740cba019", "b0462c06f9e7142c",
                    "2b3ea56c09f1ff68"),
    ("gesummv", 2): ("74016bfd757612a0", "27e4f1559e5a937a", "db7e3430df9a4ed3",
                     "683f197af480836f"),
    ("mvt", 2): ("d6b201f0b1a887c1", "0803dde2504af24e", "2e2e3248e29a1757", "b7e26fb9b747d7c5"),
    ("symm", 2): ("309b7c9a75339a73", "4f567d254d4c3920", "b3f63baa937af80e", "a3ce9981de2d82a4"),
    ("syr2k", 2): ("3d52171461f68b51", "328fd2e4e12d4a89", "41d22e5cdf0a1f0c", "1e2c4b0d378347c3"),
    ("syrk", 2): ("e31ad76bf2aa247e", "e8c852efa90edad4", "7d97311e8313b4db", "99ed0dfe83b0d4d6"),
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
def _placed(name, unroll, seed):
    """The graph and its pinned program of ``_PROGRAM_DIGESTS`` at one placer seed."""
    g = extract_dfg(corpus.load(name), unroll)
    shape = OverlayShape(6, 6) if unroll == 1 else OverlayShape(8, 8)
    return g, compile_config(
        place_and_route(g, shape, PlacerParams(global_budget=20_000), seed).apply())


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


def test_lowering_traces_each_route_once(monkeypatch):
    """One trace per wired FU pin and one per forwarding output, wherever
    ``trace_port`` is bound."""
    cfg = place_and_route(extract_dfg(corpus.load("gemm"), 2), OverlayShape(8, 8),
                          seed=3).apply()
    original = overlay.trace_port
    traced = []

    def counted(cfg, cell, port):
        traced.append((cell, port))
        return original(cfg, cell, port)

    for module in (dfeoffload, overlay, placer, runtime, simulator):
        if getattr(module, "trace_port", None) is original:
            monkeypatch.setattr(module, "trace_port", counted)
    compile_config(cfg)
    routes = [(rc, d) for rc, cell in cfg.cells.items()
              for d in [*map(cell.pin_select, Pin), *cell.out_sel.values()]
              if isinstance(d, Direction)]
    assert sorted(traced) == sorted(routes)


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
    the innermost count divided by the lane stride."""
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
    g = DataFlowGraph()
    for binding in reads:
        nid = g.add_node(NodeKind.INPUT)
        g.io_bindings[nid] = binding
        g.add_edge(nid, g.add_node(NodeKind.OP, code=OpCode.PASS), 0)
    for binding in writes:
        g.io_bindings[g.add_node(NodeKind.OUTPUT)] = binding
    if factor > 1:
        g.remainder = Remainder(LOOP_VARS[0], factor)
    return g


_LAYOUTS = st.sampled_from(["C", "fortran", "sliced", "reversed", "read-only"])
_DTYPES = st.sampled_from([np.int32, np.int64])


@st.composite
def _domains(draw):
    """Up to three loops with a lane stride of 1 to 3.  One domain in four is
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


@settings(max_examples=200, deadline=None, database=None)
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


@settings(max_examples=200, deadline=None, database=None)
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
    arrays["F"] = np.zeros(3, np.int32)  # written by nothing
    before = {name: a.copy() for name, a in arrays.items()}
    for binding, _, stream in out_of_range:
        with pytest.raises(OutOfBounds, match=rf"^{binding.array} dim \d: index range"):
            write_back(graph_io(_graph(writes=[binding], factor=factor)),
                       {0: stream}, arrays, trips)
    g = _graph(writes=[binding for binding, _, _ in in_range], factor=factor)
    outputs = dict(zip(g.outputs(), [stream for _, _, stream in in_range]))
    got = write_back(graph_io(g), outputs, arrays, trips)
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
        (IoBinding("Z", (AffineExpr.of(0, i=1),)), "array 'Z' not supplied"),
        (IoBinding("A", (AffineExpr.of(0, i=1),)), "array A has rank 2, access has 1 dims"),
        (IoBinding("A", (AffineExpr.of(0, i=1), AffineExpr.of(0, q=1))),
         "access uses unknown loop variable 'q'"),
    ]
    for binding, message in cases:
        with pytest.raises(OutOfBounds) as exc:
            build_streams(graph_io(_graph([binding])), arrays, trips)
        assert str(exc.value) == message
        with pytest.raises(OutOfBounds) as exc:
            write_back(graph_io(_graph(writes=[binding])),
                       {0: np.zeros(2, np.int32)}, arrays, trips)
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
        add = g.add_node(NodeKind.OP, code=OpCode.ADD)
        g.add_edge(nid, add, 0)
        g.add_edge(prev, add, 1)
        out = g.add_node(NodeKind.OUTPUT)
        g.add_edge(add, out, 0)
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
@settings(max_examples=100, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
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
    views = stream_views(graph_io(g), arrays, trips)
    box = tuple(_steady_counts(trips, factor))
    for nid, binding in zip(g.inputs(), reads):
        assert views[nid].shape == box
        assert not views[nid].size or np.shares_memory(views[nid], arrays[binding.array])
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
    others are not.  One read is of a reversed array, with negative strides."""
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
    arrays["A1"] = arrays["A1"][::-1].copy()[::-1]
    g = _summing_graph(reads, 1)
    program = lower_dfg(g)
    views = stream_views(graph_io(g), arrays, trips)
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


# -- the view plans memoized per call signature -----------------------------------------

_SOURCE_LAYOUTS = ["C", "fortran", "sliced", "reversed", "broadcast"]


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


@settings(max_examples=40, deadline=None, database=None)
@given(domain=_domains(), data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_a_memoized_view_equals_a_fresh_one(domain, data, seed):
    """Calls on one GraphIo that alternate three signatures gather and
    scatter exactly what a fresh GraphIo, with nothing memoized, does.  The
    second signature has the first's trip counts and shapes but the other
    dtype, and may have other strides; the third other trip counts, which
    may take an access out of range."""
    trips, factor = domain
    rng = np.random.default_rng(seed)
    reads = [data.draw(_reads(trips, factor, name)) for name in ("A", "B")]
    writes = [data.draw(_writes(trips, factor, "C"))]
    g = _graph([b for _, b in reads], [b for _, b in writes], factor)
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
    io = graph_io(g)
    for index in data.draw(st.permutations([0, 1, 2] * 3)):
        sig_trips, arrays, outputs = calls[index]
        got = _outcome(lambda: stream_views(io, arrays, sig_trips))
        want = _outcome(lambda: stream_views(graph_io(g), arrays, sig_trips))
        if isinstance(want, str):
            assert got == want
        else:
            _same_views(got, want)
        got = _outcome(lambda: write_back(io, outputs, arrays, sig_trips))
        want = _outcome(lambda: write_back(graph_io(g), outputs, arrays, sig_trips))
        if isinstance(want, str):
            assert got == want
        else:
            for name, array in want.items():
                assert got[name].dtype == array.dtype
                assert np.array_equal(got[name], array), name


def _memo_counted(monkeypatch):
    """The bindings ``_layout`` is called on, wherever it runs."""
    layouts = []
    original = simulator._layout
    monkeypatch.setattr(simulator, "_layout",
                        lambda *args: layouts.append(args[1]) or original(*args))
    return layouts


def test_an_out_of_range_signature_raises_the_same_text_on_every_call(monkeypatch):
    # i runs 0..M-1 over A[i+1]: in range at M=3 on 4 elements, not at M=4.
    binding = IoBinding("A", (AffineExpr.of(1, i=1),))
    io = graph_io(_graph([binding]))
    arrays = {"A": np.arange(4, dtype=np.int32)}
    layouts = _memo_counted(monkeypatch)
    for trips, laid_out in [([("i", 4)], 1), ([("i", 3)], 1), ([("i", 4)], 1),
                            ([("i", 3)], 0), ([("i", 4)], 1)]:
        layouts.clear()
        if trips[0][1] == 4:
            with pytest.raises(OutOfBounds) as exc:
                stream_views(io, arrays, trips)
            assert str(exc.value) == "A dim 0: index range [1,4] outside extent 4"
        else:
            (view,) = stream_views(io, arrays, trips).values()
            assert view.tolist() == [1, 2, 3]
        assert len(layouts) == laid_out, trips
    assert len(io.plans) == 1


def test_an_array_of_another_stride_or_dtype_gets_its_own_plan(monkeypatch):
    # A[i][j] over 3x4 arrays of one shape: C and Fortran differ in
    # strides, int64 and int32 in dtype and strides, int32 and uint32 in
    # dtype alone.  A copy repeats its original's plan.
    binding = IoBinding("A", (AffineExpr.of(0, i=1), AffineExpr.of(0, j=1)))
    io = graph_io(_graph([binding]))
    trips = [("i", 3), ("j", 4)]
    c = np.arange(12).reshape(3, 4)
    f = np.asfortranarray(c)
    layouts = _memo_counted(monkeypatch)
    for array, laid_out in [(c, 1), (c.copy(), 0), (f, 1), (c.astype(np.int32), 1),
                            (c.astype(np.uint32), 1), (f.astype(np.int32), 1),
                            (f.copy(order="F"), 0), (c, 0)]:
        layouts.clear()
        (view,) = stream_views(io, {"A": array}, trips).values()
        assert view.dtype == array.dtype and view.tolist() == c.tolist()
        assert len(layouts) == laid_out, (array.dtype, array.strides)
    assert len(io.plans) == 5


def test_the_reads_and_the_writes_of_one_array_keep_their_own_plans():
    # C[i] = C[i+1] over 5 elements: the read and the write views of one
    # signature lie one element apart.
    read = IoBinding("C", (AffineExpr.of(1, i=1),))
    write = IoBinding("C", (AffineExpr.of(0, i=1),))
    g = _graph([read], [write])
    io = graph_io(g)
    trips = [("i", 4)]
    arrays = {"C": np.arange(5, dtype=np.int32)}
    for _ in range(2):
        streams = build_streams(io, arrays, trips)
        out = write_back(io, dict(zip(g.outputs(), streams.values())), arrays, trips)
        assert out["C"].tolist() == [1, 2, 3, 4, 4]
    assert len(io.plans) == 2


def test_a_box_at_another_start_gets_its_own_plan():
    # C[i] = A[i] at lane stride 2 over i = 0..3: the steady state reads
    # A[0..1], and an epilogue of two leftover iterations reads A[2..3], a
    # box of the same trip counts and count at another start.
    g = _graph([IoBinding("A", (AffineExpr.of(0, i=1),))],
               [IoBinding("C", (AffineExpr.of(0, i=1),))], factor=2)
    (read,), (out,) = g.inputs(), g.outputs()
    g.add_edge(next(e.dst for e in g.edges if e.src == read), out, 0)
    io = graph_io(g)
    arrays = {"A": np.arange(10, 14, dtype=np.int32), "C": np.zeros(4, np.int32)}
    trips = [("i", 4)]
    for _ in range(2):
        (view,) = stream_views(io, arrays, trips).values()
        simulator.run_epilogue(io, lower_dfg(g), arrays, trips, 2)
        assert view.tolist() == [10, 11] and arrays["C"].tolist() == [0, 0, 12, 13]


def test_the_memo_keeps_the_most_recent_signatures(monkeypatch):
    binding = IoBinding("A", (AffineExpr.of(0, i=1),))
    io = graph_io(_graph([binding]))
    arrays = {"A": np.arange(simulator.CACHE_CAPACITY + 1, dtype=np.int32)}
    for n in range(1, simulator.CACHE_CAPACITY + 2):
        stream_views(io, arrays, [("i", n)])
    assert len(io.plans) == simulator.CACHE_CAPACITY
    layouts = _memo_counted(monkeypatch)
    stream_views(io, arrays, [("i", simulator.CACHE_CAPACITY + 1)])
    assert layouts == []
    (view,) = stream_views(io, arrays, [("i", 1)]).values()  # the first, evicted
    assert layouts == [binding] and view.tolist() == [0]
    assert len(io.plans) == simulator.CACHE_CAPACITY
