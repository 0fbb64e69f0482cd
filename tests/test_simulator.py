"""Simulator: gather, lowering and the run, against ``dfg.interpret_dfg``."""

import hashlib
import math
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import dfeoffload
from dfeoffload import corpus, engine, overlay, placer, runtime, simulator
from dfeoffload.dfg import (AffineExpr, DataFlowGraph, IoBinding, LengthMismatch,
                            NodeKind, OpCode, Remainder, interpret_dfg, validate_dfg)
from dfeoffload.frontend import extract_dfg
from dfeoffload.kernels import allocate_arrays
from dfeoffload.overlay import Direction, OverlayShape, Pin
from dfeoffload.placer import PlacerParams, place_and_route
from dfeoffload.runtime import trip_counts
from dfeoffload.simulator import (OutOfBounds, RunReport, build_streams,
                                  compile_config, dump_frames, graph_io,
                                  load_frames, lower_dfg, run_compiled,
                                  stream_views, write_back)


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
                       RunReport({0: stream}, 0, 0, 0, 0), arrays, trips)
    g = _graph(writes=[binding for binding, _, _ in in_range], factor=factor)
    outputs = dict(zip(g.outputs(), [stream for _, _, stream in in_range]))
    got = write_back(graph_io(g), RunReport(outputs, 0, 0, 0, 0), arrays, trips)
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
                       RunReport({0: np.zeros(2, np.int32)}, 0, 0, 0, 0), arrays, trips)
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
        def run(instrs, values):
            widths.append(values.shape[1])
            engine.run_program(instrs, values)
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
    assert (got.frames_in, got.frames_out, got.cycles, got.bytes_on_wire) == (
        want.frames_in, want.frames_out, want.cycles, want.bytes_on_wire)
    assert sorted(got.outputs) == sorted(want.outputs) == g.outputs()
    for tag, stream in got.outputs.items():
        assert stream.dtype == np.int32 and stream.shape == (math.prod(box),)
        assert np.array_equal(stream, want.outputs[tag]), tag
    for name, a in arrays.items():
        assert np.array_equal(a, before[name])
