import hashlib
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import DIV_KERNELS, FP_KERNELS, YES_KERNELS
from dfeoffload import corpus
from dfeoffload.dfg import (Edge, NodeKind, OpCode, dfg_stats, dfg_to_text,
                           interpret_dfg, validate_dfg)
from dfeoffload.frontend import (IneligibleKernel, Reason, Thresholds,
                                 Verdict, check_eligibility, extract_dfg,
                                 to_affine)
from dfeoffload.kernels import evaluate_kernel, allocate_arrays, parse_kernel
from dfeoffload.simulator import (build_streams, graph_io, lower_dfg, run_epilogue,
                                  write_back)


def kparse(body, arrays="A[MxN]:int32, B[MxN]:int32, C[MxN]:int32",
           params="M, N", loops=("i", "M", "j", "N")):
    i, m, j, n = loops
    return parse_kernel(
        f"kernel t({params})\narrays: {arrays}\n"
        f"for {i} in 0..{m} {{ for {j} in 0..{n} {{ {body} }} }}")


def test_division_rejected():
    k = kparse("C[i][j] = A[i][j] / 2;")
    rep = check_eligibility(k)
    assert rep.verdict == Verdict.REJECTED
    assert rep.reason == Reason.DIVISION
    assert rep.table_label() == "No, divisions"


def test_remainder_rejected_as_division():
    k = kparse("C[i][j] = A[i][j] % 3;")
    assert check_eligibility(k).reason == Reason.DIVISION


def test_float_literal_rejected():
    k = kparse("C[i][j] = A[i][j] * 1 + B[i][j] * 0 + 0*C[i][j];")
    assert check_eligibility(k).reason != Reason.FLOATING_POINT
    k2 = kparse("C[i][j] = A[i][j] + 1;",
                arrays="A[MxN]:int32, C[MxN]:float32")
    assert check_eligibility(k2).reason == Reason.FLOATING_POINT
    assert check_eligibility(k2).table_label() == "No, fp data"


def test_float_checked_before_division():
    k = parse_kernel("kernel t(N)\narrays: A[N]:float32, B[N]:float32\n"
                     "for i in 0..N { B[i] = A[i] / 2; }")
    assert check_eligibility(k).reason == Reason.FLOATING_POINT


def test_division_checked_before_nonaffine():
    k = kparse("C[i][j] = A[i][i*j] / 2;")
    assert check_eligibility(k).reason == Reason.DIVISION


def test_nonaffine_index():
    k = kparse("C[i][j] = A[i][i*j];")
    assert check_eligibility(k).reason == Reason.NON_AFFINE


def test_imperfect_nest_nonaffine():
    k = parse_kernel(
        "kernel t(M, N)\narrays: A[MxN]:int32, C[MxN]:int32\n"
        "for i in 0..M { C[i][0] = A[i][0]; for j in 0..N { C[i][j] = A[i][j]; } }")
    assert check_eligibility(k).reason == Reason.NON_AFFINE


def test_loop_carried_read_unsupported():
    k = kparse("C[i][j] = C[i][j+1] + 1;", arrays="C[MxN+1]:int32")
    assert check_eligibility(k).reason == Reason.UNSUPPORTED_OP


def test_identical_read_write_supported():
    k = kparse("C[i][j] = C[i][j]*2 + A[i][j]*3 + B[i][j]*4 + A[i][j]*B[i][j] "
               "+ A[i][j] + B[i][j];")
    rep = check_eligibility(k, Thresholds(min_nodes=2))
    assert rep.accepted()


def test_branch_asymmetry_unsupported():
    k = parse_kernel(
        "kernel t(M, N)\narrays: A[MxN]:int32, C[MxN]:int32, D[MxN]:int32\n"
        "for i in 0..M { for j in 0..N {"
        " if (A[i][j] > 0) { C[i][j] = 1; } else { D[i][j] = 2; } } }")
    assert check_eligibility(k).reason == Reason.UNSUPPORTED_OP


def test_scalar_value_unsupported():
    k = kparse("C[i][j] = A[i][j] + M;")
    assert check_eligibility(k).reason == Reason.UNSUPPORTED_OP


def test_non_covering_write_unsupported():
    k = parse_kernel("kernel t(M, N)\narrays: A[MxN]:int32, x[M]:int32\n"
                     "for i in 0..M { for j in 0..N { x[i] = A[i][j]; } }")
    assert check_eligibility(k).reason == Reason.UNSUPPORTED_OP


def test_too_small_then_accepted_by_threshold():
    k = kparse("C[i][j] = A[i][j] + 1;")
    rep = check_eligibility(k, Thresholds(min_nodes=10))
    assert rep.reason == Reason.TOO_SMALL
    assert rep.dfg_stats is not None and rep.dfg_stats.calc_nodes == 1
    rep2 = check_eligibility(k, Thresholds(min_nodes=1))
    assert rep2.accepted()


def test_too_large():
    k = kparse("C[i][j] = A[i][j] + 3*B[i][j] + 1;")
    rep = check_eligibility(k, Thresholds(min_nodes=1, max_nodes=2))
    assert rep.reason == Reason.TOO_LARGE


def test_fig_kernel_accepted_min2():
    rep = check_eligibility(corpus.load("scaleadd"), Thresholds(min_nodes=2))
    assert rep.accepted()
    assert rep.dfg_stats.calc_nodes == 3  # mul, add, add


def test_eligibility_deterministic(corpus_kernels):
    for name, k in corpus_kernels.items():
        assert check_eligibility(k) == check_eligibility(k), name


def test_corpus_labels(corpus_kernels):
    for name in YES_KERNELS:
        assert check_eligibility(corpus_kernels[name]).table_label() == "Yes", name
    for name in DIV_KERNELS:
        assert check_eligibility(corpus_kernels[name]).table_label() == "No, divisions", name
    for name in FP_KERNELS:
        assert check_eligibility(corpus_kernels[name]).table_label() == "No, fp data", name


# -- extraction ------------------------------------------------------------------


def test_extract_fig_shape():
    g = extract_dfg(corpus.load("scaleadd"))
    s = dfg_stats(g)
    assert (s.inputs, s.consts, s.calc_nodes, s.outputs) == (2, 2, 3, 1)
    codes = sorted(n.code.name for n in g.nodes.values()
                   if n.kind == NodeKind.OP)
    assert codes == ["ADD", "ADD", "MUL"]


def test_extract_branch_gt_feeds_mux_select():
    g = extract_dfg(corpus.load("branchmix"))
    gts = [n for n in g.nodes.values() if n.kind == NodeKind.OP and n.code == OpCode.GT]
    muxes = [n for n in g.nodes.values() if n.kind == NodeKind.OP and n.code == OpCode.MUX]
    assert len(gts) == 1 and len(muxes) == 1
    sel_edges = [e for e in g.edges if e.dst == muxes[0].id and e.dport == 0]
    assert sel_edges[0].src == gts[0].id


def test_extract_dedupes_reads():
    # A appears three times in branchmix but is streamed once
    g = extract_dfg(corpus.load("branchmix"))
    assert len(g.inputs()) == 2


def test_extract_acyclic_always(corpus_kernels):
    for name, k in corpus_kernels.items():
        try:
            g = extract_dfg(k)
        except IneligibleKernel:
            continue
        g.topo_order()  # raises on an edge that breaks the id rule
        assert validate_dfg(g) == []


def test_extract_rejects_ineligible():
    with pytest.raises(IneligibleKernel):
        extract_dfg(corpus.load("lu"))


def test_unroll_lane_partitions():
    g = extract_dfg(corpus.load("scaleadd"), unroll=4)
    lanes = sorted({(b.lane_offset, b.lane_stride) for b in g.io_bindings.values()})
    assert lanes == [(0, 4), (1, 4), (2, 4), (3, 4)]
    assert g.remainder is not None and g.remainder.factor == 4
    s = dfg_stats(g)
    assert (s.inputs, s.outputs, s.calc_nodes) == (8, 4, 12)


def test_unroll_access_offsets():
    g = extract_dfg(corpus.load("scaleadd"), unroll=4)
    offsets = sorted(b.access[1].const for b in g.io_bindings.values()
                     if b.array == "A")
    assert offsets == [0, 1, 2, 3]
    strides = {b.access[1].terms for b in g.io_bindings.values() if b.array == "A"}
    assert strides == {(("j", 4),)}


def test_unroll_semantic_invariance():
    for name in ("scaleadd", "branchmix", "gemm"):
        k = corpus.load(name)
        rng = np.random.default_rng(5)
        params = {p: 8 for p in k.params}
        arrays = allocate_arrays(k, params, rng)
        want = evaluate_kernel(k, arrays, params)
        loops, _ = k.canonical_nest()
        trips = [(f.var, 8) for f in loops]
        for unroll in (1, 2, 4):
            g = extract_dfg(k, unroll=unroll)
            streams = build_streams(graph_io(g), arrays, trips)
            outs = interpret_dfg(g, {n: list(map(int, s))
                                     for n, s in streams.items()})
            outputs = {n: np.array(v, np.int32) for n, v in outs.items()}
            got = write_back(graph_io(g), outputs, arrays, trips)
            for arr in want:
                assert np.array_equal(got[arr], want[arr]), (name, unroll, arr)


def test_constant_folding_collapses_literal_math():
    k = kparse("C[i][j] = A[i][j] + (2*3 + 4);")
    g = extract_dfg(k)
    s = dfg_stats(g)
    assert s.calc_nodes == 1 and s.consts == 1
    consts = [n.value for n in g.nodes.values() if n.kind == NodeKind.CONST]
    assert consts == [10]


def test_pass_inserted_for_double_const_mux():
    k = kparse("C[i][j] = A[i][j] > 0 ? 3 : 1;")
    g = extract_dfg(k)
    passes = [n for n in g.nodes.values()
              if n.kind == NodeKind.OP and n.code == OpCode.PASS]
    assert len(passes) == 1
    # each op node keeps at most one constant-fed pin
    const_ids = {n.id for n in g.nodes.values() if n.kind == NodeKind.CONST}
    ins = g.in_edge_map()
    for nid in g.op_nodes():
        assert sum(1 for e in ins[nid] if e.src in const_ids) <= 1


def test_pass_inserted_for_const_output():
    k = kparse("C[i][j] = 7 + 0*A[i][j];")
    g = extract_dfg(k)
    for e in g.edges:
        if g.nodes[e.dst].kind == NodeKind.OUTPUT:
            assert g.nodes[e.src].kind != NodeKind.CONST


def test_to_affine_forms():
    k = kparse("C[i][j] = A[2*i+3][j-1] + B[i][j];", arrays="A[99x99]:int32, "
               "B[MxN]:int32, C[MxN]:int32")
    g = extract_dfg(k)
    accesses = {str(b.access[0]) for b in g.io_bindings.values()
                if b.array == "A"}
    assert accesses == {"2*i+3"}


# -- both entry points, one verdict ------------------------------------------------

_ARRAYS = "A[MxN]:int32, B[MxN]:int32, C[MxN]:int32"
_UNSUPPORTED = Reason.UNSUPPORTED_OP
_VERDICTS = {  # case -> (body, arrays, reason, detail)
    "float-literal": (
        "C[i][j] = A[i][j] + 1.5;", _ARRAYS, Reason.FLOATING_POINT, "float literal 1.5"),
    "float-array": (
        "C[i][j] = A[i][j] + 1;", "A[MxN]:int32, C[MxN]:float32",
        Reason.FLOATING_POINT, "array C is float32"),
    "float-before-division": (
        "C[i][j] = A[i][j] / 2.0;", _ARRAYS, Reason.FLOATING_POINT, "float literal 2.0"),
    "division-in-subscript": (
        "C[i][j] = A[i][j/2];", _ARRAYS, Reason.DIVISION, "operator '/'"),
    "remainder": (
        "C[i][j] = A[i][j] % 3;", _ARRAYS, Reason.DIVISION, "operator '%'"),
    "non-affine-read": (
        "C[i][j] = A[i][i*j];", _ARRAYS, Reason.NON_AFFINE, "non-affine subscript on A"),
    "non-affine-write": (
        "C[i][i*j] = A[i][j];", _ARRAYS, Reason.NON_AFFINE, "non-affine subscript on C"),
    "array-in-subscript": (
        "C[i][j] = A[i][B[i][j]];", _ARRAYS, Reason.NON_AFFINE, "non-affine subscript on A"),
    "scalar-value": (
        "C[i][j] = A[i][j] + M;", _ARRAYS, _UNSUPPORTED, "scalar 'M' used as a value"),
    "scalar-condition": (
        "if (M > 0) { C[i][j] = A[i][j]; } else { C[i][j] = B[i][j]; }", _ARRAYS,
        _UNSUPPORTED, "scalar 'M' used as a value"),
    "scalar-in-ternary": (
        "C[i][j] = j > 2 ? A[i][j] : B[i][j];", _ARRAYS,
        _UNSUPPORTED, "scalar 'j' used as a value"),
    "twice-flat": (
        "C[i][j] = A[i][j]; C[i][j] = B[i][j];", _ARRAYS,
        _UNSUPPORTED, "element C assigned twice"),
    "twice-in-branch": (
        "if (A[i][j] > 0) { C[i][j] = 1; C[i][j] = 2; } else { C[i][j] = 3; }", _ARRAYS,
        _UNSUPPORTED, "element C assigned twice"),
    "twice-before-if": (
        "C[i][j] = 1; if (A[i][j] > 0) { C[i][j] = 2; } else { C[i][j] = 3; }", _ARRAYS,
        _UNSUPPORTED, "element C assigned twice"),
    "twice-after-if": (
        "if (A[i][j] > 0) { C[i][j] = 2; } else { C[i][j] = 3; } C[i][j] = 1;", _ARRAYS,
        _UNSUPPORTED, "element C assigned twice"),
    "two-write-accesses": (
        "C[i][j] = A[i][j]; C[i][j+1] = B[i][j];",
        "A[MxN]:int32, B[MxN]:int32, C[MxN+1]:int32",
        _UNSUPPORTED, "array C written through multiple access functions"),
    "write-scaled": (
        "C[i][2*j] = A[i][j];", _ARRAYS,
        _UNSUPPORTED, "write to C is not var+const per dimension"),
    "write-constant": (
        "C[i][0] = A[i][j];", _ARRAYS,
        _UNSUPPORTED, "write to C is not var+const per dimension"),
    "write-two-vars": (
        "C[i][i+j] = A[i][j];", _ARRAYS,
        _UNSUPPORTED, "write to C is not var+const per dimension"),
    "write-reuses-var": (
        "C[j][j] = A[i][j];", _ARRAYS,
        _UNSUPPORTED, "write subscripts of C reuse a variable"),
    "write-param": (
        "C[i][M] = A[i][j];", _ARRAYS,
        _UNSUPPORTED, "write subscripts of C reuse a variable"),
    "read-param": (
        "C[i][j] = A[i][j] * B[i][N-1] + 3*A[i][j] + 1;", _ARRAYS,
        _UNSUPPORTED, "read of B indexed by parameter 'N'"),
    "write-not-covering": (
        "x[i] = A[i][j];", "A[MxN]:int32, x[M]:int32",
        _UNSUPPORTED, "write to x does not cover the full iteration space"),
    "loop-carried-condition": (
        "if (C[i][j+1] > 0) { C[i][j] = 1; } else { C[i][j] = 2; }", "C[MxN+1]:int32",
        _UNSUPPORTED,
        "array C is read at a different element than it is written (loop-carried dependence)"),
    "asymmetric": (
        "if (A[i][j] > 0) { C[i][j] = 1; } else { B[i][j] = 2; }", _ARRAYS,
        _UNSUPPORTED, "if/else branches assign different elements"),
    "asymmetric-nested": (
        "if (A[i][j] > 0) { if (B[i][j] > 0) { C[i][j] = 1; } else { B[i][j] = 2; } }"
        " else { C[i][j] = 3; }", _ARRAYS,
        _UNSUPPORTED, "if/else branches assign different elements"),
    "reads-nothing": (
        "C[i][j] = 3 * 7;", _ARRAYS, _UNSUPPORTED, "no array element is read"),
    "symmetric-nested": (
        "if (A[i][j] > 0) { if (B[i][j] > 0) { C[i][j] = 1; } else { C[i][j] = A[i][j]; } }"
        " else { C[i][j] = B[i][j] * 3; }", _ARRAYS, Reason.NONE, ""),
    "read-after-write": (
        "C[i][j] = A[i][j] + 1; B[i][j] = C[i][j] * 2;", _ARRAYS, Reason.NONE, ""),
}


@pytest.mark.parametrize("case", list(_VERDICTS))
def test_check_eligibility_and_extract_dfg_give_one_verdict(case):
    body, arrays, reason, detail = _VERDICTS[case]
    k = kparse(body, arrays=arrays)
    report = check_eligibility(k, Thresholds(min_nodes=1))
    assert (report.reason, report.detail) == (reason, detail)
    if reason == Reason.NONE:
        assert report.accepted() and extract_dfg(k).nodes == report.dfg.nodes
        return
    with pytest.raises(IneligibleKernel) as exc:
        extract_dfg(k)
    assert (exc.value.reason, exc.value.detail) == (reason, detail)


# -- golden extraction -------------------------------------------------------------

# sha1 of dfg_to_text(extract_dfg(k, u)) for u = 1, 2, 3.  Node ids steer the
# placer, so a change here changes placements and every number measured on them.
_GOLDEN_DIGESTS = {
    "2mm": ("886fcb82cf4a38aef08d46b32e049ccd4ec60567",
            "2db6d8d9b2067d950113c0f24c69315a2a7b1c54",
            "1a4da456cde787fdc1a6275dda4490a366b8ab77"),
    "3mm": ("9a1ff41f5341b92b84acff911dd91755e3296c1a",
            "462ef8aea06ebf6d2b3eaf91ffc809726361a682",
            "763756566b2e1c19d15cf3213b081cbe023800dd"),
    "atax": ("de36e78749750313ca7ae0d3e7d1e094fc708019",
             "fcab86ee3c771f14f6600e002104d7205541cb31",
             "dd4c877d4d9168f069d4c57e9d38e025942f5e11"),
    "bicg": ("bc41dc991f71bf424631809f512984cb5a49cae7",
             "454b9b95bd009c87fcdc9007cbb75ce4160616e8",
             "43af71878c8797a98899beef0f3fc24e2a7b73bc"),
    "branchmix": ("f17278d28268723e5f2d1f3ea16325d64fb0b0a9",
                  "b672753f94f03256af8888e67966308f7ad6dd88",
                  "ff51a8aad65880b13752ae485a53b454c8e64ade"),
    "gemm": ("84d70d96701761ec15bb900bf1dbb3ff12965977",
             "c96436c49c22ce7a8f45b78e95ec2c70f0bbcf5e",
             "601785b637904d776e2349485ba513a1b4fef171"),
    "gemver": ("9b5e0a1029b8079bc4ad5fe8cd154a90707715cf",
               "52e791cb9ab1f47b3a379e81acbb2e556278805e",
               "be2851fbd050e9968d2eab12a99ab6a70dbd0667"),
    "gesummv": ("f06e43ba36d846ab39fbe7beb1932d53a49320d6",
                "dd8c98d000aaa7eb819f46c16f4bd521957e48f5",
                "ed82dc5c0c20fb85b9ff74fc3acc720c844e0153"),
    "heat-3d": ("e708cab86d484c8cbee58810bb02119b79cdbe60",
                "d4c5eda0f42fb57b2fbd466f503aaf28a5e85a57",
                "ece12dc14c18de26ee9bad937c5775a36cd9f79f"),
    "mvt": ("917e5c302819c90eb5be5426fb982cb93119f034",
            "69379ae455ac73888499d23b568722e478b436b1",
            "275d65c1218ad98b363ab064c6f4c1ca33c33c5e"),
    "scaleadd": ("be772c8b0d95b0124d5d3ecbb3d00406c3d20319",
                 "5133d3b1d7dcb5a1c02b045ee820675fbd6f26b9",
                 "c22527710223cc44b9793fccf1086075f8e36479"),
    "symm": ("4b04ee6ba566ed3b0dbe62f19a19f2e237d33e07",
             "e9fbef7b60c4124fdc1cb54d7272aca34a1a6eec",
             "224b6e97543a66d952c1280d290dcb42fe44d929"),
    "syr2k": ("2bbc3e87e2c0404172472ccb92816c0c82cf9939",
              "cc099cfd7bcdaf5b4311b495625b50f120f1f24a",
              "11ea5e3218adb95aa503f99ed4549a3b6a849a68"),
    "syrk": ("7e694075646aac8eb4d74ab47eb2998281e83aca",
             "6aae668f386d7aba0209a206e67355e4f9fbb340",
             "0a2875cfbbdac4849854b7f0e08aa578e1e231fc"),
    "trmm": ("ab5c727bcdf27c13db8de6497e19ef45f22849c4",
             "78320a8b16d16f360f396ad365e9c5763de9e2b2",
             "8de26a5cf0e4a76803f6d193529671971f3b005b"),
}


def test_extraction_matches_the_golden_digests(corpus_kernels):
    extractable = {name for name, k in corpus_kernels.items()
                   if check_eligibility(k).reason in (Reason.NONE, Reason.TOO_SMALL)}
    assert extractable == set(_GOLDEN_DIGESTS)
    for name, digests in _GOLDEN_DIGESTS.items():
        got = tuple(hashlib.sha1(dfg_to_text(extract_dfg(corpus_kernels[name], u))
                                 .encode()).hexdigest() for u in (1, 2, 3))
        assert got == digests, name


# sha1 of the repr of (nodes, edges, bindings, remainder) of extract_dfg(k, u)
# for u = 2, 3, 4, each in its order.  dfg_to_text sorts edges and bindings,
# but the placer reads the edge list in order, so these pin that order too.
_ORDERED_DIGESTS = {
    "2mm": ("c41098fa831b1c96a5cd97a1e4df0fcdc244246f",
            "65eb750065e6fbd06e44691b1428075522e31278",
            "fd1f70c632a8b991f99d7635d31093be1ea58fe1"),
    "3mm": ("f9e77921c235038676ae786cfd2571c8877b6c71",
            "3073baeaa2ce279e9c7e2e6415ba0c5a6b89d1d1",
            "9dceffcf9cef4708fbf955b039871d699ad7b2af"),
    "atax": ("6499a06cb1bc832613dc9a19b15006dfbb1a68ef",
             "801771a7e68dfc69399badd5374a7f10b665b532",
             "822913dac6a87e217bf8678505025c8ca3421ef9"),
    "bicg": ("929a16b173c93a465e7f88e90056db8af2bc3ccf",
             "c125c9d458d0e7c1fc9cdb6965d2dd82339bc3e3",
             "a3906db590715ad70f81ba6f7d1571933ef5d5c1"),
    "branchmix": ("ef988c362cb94cf306a9e0185edc67b7f50bfa89",
                  "d1b7495d0c4c4878b1fd767f6ad062e296f0d639",
                  "7e98832dc3407ac6d95665d47e9a2ab74bb2c70b"),
    "gemm": ("192a11a523337cd95806db521d4df2298a7406bf",
             "c449495a6eaf31b4270279958c55bf8c7f152d4a",
             "e874f838b7c741e76a369eb790a02428c12390d5"),
    "gemver": ("4157f9b1369e353b964d1812e424035749537936",
               "395f9d48fb188eb2877de72192392f268fffca8d",
               "c4c5b90dd97f353d0394e10003a60e472d33cc88"),
    "gesummv": ("42bccce208ea3eb3b30efc67398a58e42695b69a",
                "59869ac8deab614a1a757ae47d4f14b7ca19efad",
                "6259e1c41a998ebbf2f890f1411d5e2fa058be4f"),
    "heat-3d": ("96286e2e5f4f2b615c2a52bc9fabe74a07814b1f",
                "4972fdd4a4b2db384fbd868758ead878e70aeecb",
                "a29d16d89666881f1e3516f1484d478d719c87a9"),
    "mvt": ("87d37d4269367dc7d66d14ccc13a34b7ed853b5b",
            "50c8b651eb85f7b6e1eab760130583d91cca6513",
            "e22c6a270a7ed76b418dc4f1f23bbb709b1e1184"),
    "scaleadd": ("e2b9b6ef70533b9e9cd27b0d4eb26294f859f707",
                 "4f2f88a201a7e9ceefa3a7954272f526871255c2",
                 "092485872c323c9b4b4002cbdc997d50815a6195"),
    "symm": ("c1bd31eab95499c310c4b1e75629b687ed20783e",
             "9d77a4fa8a74b61547701e99b0d8f09d007f160d",
             "e5698f4201de6cdba1514a37083e035891278816"),
    "syr2k": ("1f4996359bee53d8c8213f2a5ebf0e124148cd84",
              "ee612511ef2ea930c107710143f763b37efa6b27",
              "11ba18f3f1f6908a8c0cfcc3f97c80581e90aecf"),
    "syrk": ("78a59678f9a7d13c1e427e6df5aab6e2951c46f2",
             "c03affadb77d20b2b4a96cf4a92517537843ceb0",
             "fb35cd73037c0c4321bd2b70062f04f4f5e6f7f6"),
    "trmm": ("36ef6894d89322fe775ebd973e1202f56a4dd785",
             "c13196026704257882bc4b4fdebad66179aa0b1a",
             "08544c88045a7551ed98e516b429f03831582b3c"),
}


def _ordered_digests(k):
    got = []
    for u in (2, 3, 4):
        g = extract_dfg(k, u)
        state = (list(g.nodes.values()), g.edges, list(g.io_bindings.items()), g.remainder)
        got.append(hashlib.sha1(repr(state).encode()).hexdigest())
    return tuple(got)


def test_unrolled_extraction_keeps_its_ids_and_orders(corpus_kernels):
    assert set(_ORDERED_DIGESTS) == set(_GOLDEN_DIGESTS)
    for name, digests in _ORDERED_DIGESTS.items():
        assert _ordered_digests(corpus_kernels[name]) == digests, name


def _assert_final(g):
    """``g`` is an unroll-1 graph as extraction builds it: nodes in id order,
    every node feeding an Output, at most one constant in-edge per op and
    none into an Output."""
    assert list(g.nodes) == sorted(g.nodes)
    ins = g.in_edge_map()
    feeds, todo = set(), g.outputs()
    while todo:
        nid = todo.pop()
        if nid not in feeds:
            feeds.add(nid)
            todo += [e.src for e in ins[nid]]
    assert feeds == set(g.nodes)
    consts = {nid for nid, n in g.nodes.items() if n.kind == NodeKind.CONST}
    for nid, edges in ins.items():
        allowed = 1 if g.nodes[nid].kind == NodeKind.OP else 0
        assert sum(e.src in consts for e in edges) <= allowed, nid


def _assert_lanes(base, g, unroll):
    """``g`` is ``base`` copied into ``unroll`` lanes: with b the largest id
    plus one, lane L's node n is L*b + n; nodes, then edges, then bindings
    come lane by lane."""
    b = max(base.nodes) + 1
    shifts = [lane * b for lane in range(unroll)]
    assert list(g.nodes.items()) == [(s + nid, replace(n, id=s + nid))
                                     for s in shifts for nid, n in base.nodes.items()]
    assert g.edges == [Edge(s + e.src, e.sport, s + e.dst, e.dport)
                       for s in shifts for e in base.edges]
    assert list(g.io_bindings) == [s + nid for s in shifts for nid in base.io_bindings]


def test_unrolled_pass_nodes_keep_their_ids_and_orders():
    # No corpus graph has a PASS node; this one has two per lane.  Pinned
    # with the PASS nodes placed where the walk meets their constants.
    k = kparse("C[i][j] = A[i][j] > 0 ? 3 : 1; B[i][j] = 2 * 3;")
    assert _ordered_digests(k) == ("c84f25c82a8293094bfabb96d02473fbc92f3029",
                                   "163cc7b84a495de463c061fd953ec6c12d308230",
                                   "3b3292f3d826418c56df86cdfbab0dc670efed29")
    base = extract_dfg(k)
    passes = [nid for nid, n in base.nodes.items() if n.code is OpCode.PASS]
    assert len(passes) == 2
    b = max(base.nodes) + 1
    for u in (2, 3, 4):
        g = extract_dfg(k, u)
        _assert_lanes(base, g, u)
        assert ([nid for nid, n in g.nodes.items() if n.code is OpCode.PASS]
                == [lane * b + p for lane in range(u) for p in passes])


# -- differential: generated kernels against the software oracle -------------------

# A and B are only read, at j+c with c <= 2; C and D are written at [i][j] and
# may be read back there.
_GEN_ARRAYS = "A[MxN+2]:int32, B[MxN+2]:int32, C[MxN]:int32, D[MxN]:int32"
_LOOP_CARRIED = ("array C is read at a different element than it is written "
                 "(loop-carried dependence)")
_REJECTED = {  # construct -> (text added to the first value built, its verdict)
    "float": ("1.5", (Reason.FLOATING_POINT, "float literal 1.5")),
    "division": ("(A[i][j] / 3)", (Reason.DIVISION, "operator '/'")),
    "non-affine": ("A[i][j*j]", (Reason.NON_AFFINE, "non-affine subscript on A")),
    "scalar": ("j", (_UNSUPPORTED, "scalar 'j' used as a value")),
    "loop-carried": ("C[i][j+1]", (_UNSUPPORTED, _LOOP_CARRIED)),
    "twice": (None, (_UNSUPPORTED, "element C assigned twice")),
    "asymmetric": (None, (_UNSUPPORTED, "if/else branches assign different elements")),
}


@st.composite
def _exprs(draw, depth=0):
    kinds = ["read", "literal"] + (["arith", "compare", "ternary"] if depth < 3 else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "read":
        name = draw(st.sampled_from("ABCD"))
        return f"{name}[i][j]" if name in "CD" else f"{name}[i][j+{draw(st.integers(0, 2))}]"
    if kind == "literal":
        return str(draw(st.integers(-4, 4)))
    sub = [draw(_exprs(depth + 1)) for _ in range(3)]
    if kind == "arith":
        return f"({sub[0]} {draw(st.sampled_from('+-*'))} {sub[1]})"
    if kind == "compare":
        op = draw(st.sampled_from(["==", "!=", "<", "<=", ">", ">="]))
        return f"({sub[0]} {op} {sub[1]})"
    return f"({sub[0]} ? {sub[1]} : {sub[2]})"


@st.composite
def _kernels(draw, construct):
    """A kernel body holding the rejected ``construct``, or none ("accepted")."""
    e = [draw(_exprs()) for _ in range(5)]
    text = _REJECTED.get(construct, (None,))[0]
    if text is not None:
        e[0] = f"({e[0]} + {text})"
    if construct == "asymmetric":
        return f"if ({e[2]}) {{ C[i][j] = {e[0]}; }} else {{ D[i][j] = {e[1]}; }}"
    body = draw(st.sampled_from([
        f"C[i][j] = {e[0]};",
        f"C[i][j] = {e[0]}; D[i][j] = {e[1]};",
        f"if ({e[2]}) {{ C[i][j] = {e[0]}; }} else {{ C[i][j] = {e[1]}; }}",
        f"if ({e[2]}) {{ C[i][j] = {e[0]}; D[i][j] = {e[1]}; }}"
        f" else {{ D[i][j] = {e[3]}; C[i][j] = {e[4]}; }}",
        f"if ({e[2]}) {{ if ({e[3]}) {{ C[i][j] = {e[0]}; }} else {{ C[i][j] = {e[1]}; }} }}"
        f" else {{ C[i][j] = {e[4]}; }}",
        f"if ({e[2]}) {{ }} else {{ }} C[i][j] = {e[0]};",
    ]))
    return body + f" C[i][j] = {e[1]};" if construct == "twice" else body


@pytest.mark.parametrize("construct", list(_REJECTED))
@settings(max_examples=10)
@given(data=st.data())
def test_generated_rejections_agree_on_both_entry_points(construct, data):
    k = kparse(data.draw(_kernels(construct), label="body"), arrays=_GEN_ARRAYS)
    verdict = _REJECTED[construct][1]
    report = check_eligibility(k, Thresholds(min_nodes=0))
    assert (report.reason, report.detail) == verdict
    for unroll in (1, 2):
        with pytest.raises(IneligibleKernel) as exc:
            extract_dfg(k, unroll)
        assert (exc.value.reason, exc.value.detail) == verdict


@settings(max_examples=60)
@given(_kernels("accepted"), st.integers(1, 3), st.integers(1, 7), st.integers(0, 2**31 - 1))
def test_generated_kernels_extract_as_the_oracle_evaluates(body, m, n, seed):
    k = kparse(body, arrays=_GEN_ARRAYS)
    report = check_eligibility(k, Thresholds(min_nodes=0))
    if report.detail == "no array element is read":
        # Then C and D get the same values whatever the arrays held.  An
        # if/else that assigns nothing reads nothing that is kept.
        kept = body.rpartition("else { }")[2]
        assert "A[" not in kept and "B[" not in kept
        written = [name for name in "CD" if f"{name}[i][j] =" in body]
        small = {"M": 2, "N": 3}
        results = [evaluate_kernel(k, allocate_arrays(k, small, np.random.default_rng(s)),
                                   small) for s in (seed, seed + 1)]
        for name in written:
            assert np.array_equal(results[0][name], results[1][name]), body
        return
    assert report.accepted(), (body, report)
    params = {"M": m, "N": n}
    arrays = allocate_arrays(k, params, np.random.default_rng(seed))
    want = evaluate_kernel(k, arrays, params)
    trips = [("i", m), ("j", n)]
    base = extract_dfg(k, 1)
    _assert_final(base)
    for unroll in (1, 2, 3):
        g = extract_dfg(k, unroll)
        _assert_lanes(base, g, unroll)
        streams = build_streams(graph_io(g), arrays, trips)
        outs = interpret_dfg(g, {nid: s.tolist() for nid, s in streams.items()})
        outputs = {nid: np.array(v, np.int32) for nid, v in outs.items()}
        got = write_back(graph_io(g), outputs, arrays, trips)
        leftover = n % unroll
        if leftover:
            run_epilogue(graph_io(base), lower_dfg(base), got, trips, leftover)
        for name in want:
            assert np.array_equal(got[name], want[name]), (body, unroll, name)
