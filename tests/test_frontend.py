import hashlib
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import DIV_KERNELS, FP_KERNELS, YES_KERNELS
from dfeoffload import corpus
from dfeoffload.dfg import (NodeKind, OpCode, dfg_from_text, dfg_stats, dfg_to_text,
                           interpret_dfg, validate_dfg)
from dfeoffload.frontend import (IneligibleKernel, Reason, Thresholds,
                                 check_eligibility, extract_dfg, to_affine)
from dfeoffload.kernels import evaluate_kernel, allocate_arrays, parse_kernel
from dfeoffload.simulator import (build_streams, graph_io, lower_dfg, plan_box,
                                  run_epilogue, write_back)


def kparse(body, arrays="A[MxN]:int32, B[MxN]:int32, C[MxN]:int32",
           params="M, N", loops=("i", "M", "j", "N")):
    i, m, j, n = loops
    return parse_kernel(
        f"kernel t({params})\narrays: {arrays}\n"
        f"for {i} in 0..{m} {{ for {j} in 0..{n} {{ {body} }} }}")


def test_division_rejected():
    k = kparse("C[i][j] = A[i][j] / 2;")
    rep = check_eligibility(k)
    assert not rep.accepted()
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


# Bodies with a literal outside int32: the software path multiplies by it
# and wraps, and compares against it unwrapped, so every A[i][j] is below it.
BIG_LITERAL_BODIES = {
    "product": "C[i][j] = A[i][j] * 3000000000 + A[i][j] * 2 + A[i][j] * 5 + A[i][j] * 7 + 1;",
    "comparison": "C[i][j] = (A[i][j] < 3000000000) + A[i][j] * 2 + A[i][j] * 5"
                  " + A[i][j] * 7 + 1;",
}


@pytest.mark.parametrize("name", sorted(BIG_LITERAL_BODIES))
def test_a_literal_outside_int32_is_unsupported(name):
    rep = check_eligibility(kparse(BIG_LITERAL_BODIES[name]))
    assert (rep.reason, rep.detail) == (Reason.UNSUPPORTED_OP,
                                        "literal 3000000000 is outside int32")


def test_a_literal_outside_int32_that_folds_into_an_int32_is_kept():
    k = kparse("C[i][j] = A[i][j] * (3000000000 - 2999999999) + A[i][j] * 2"
               " + A[i][j] * 5 + A[i][j] * 7 + 1;")
    assert check_eligibility(k).accepted()


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
    assert muxes[0].srcs[0] == gts[0].id


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


def test_an_unrolled_graph_is_its_lanes_accesses_and_its_factor(corpus_kernels):
    """At u = 2 and 4, lane L's binding of each node is the unroll-1 one
    with every access shifted to iteration L of each block of u along the
    innermost loop; the graph records u, and its text keeps it."""
    for name in ("scaleadd", "gemm", "trmm"):
        k = corpus_kernels[name]
        base, inner = extract_dfg(k), k.canonical_nest()[0][-1].var
        b = max(base.nodes) + 1
        for u in (2, 4):
            g = extract_dfg(k, u)
            assert g.unroll == u
            assert g.io_bindings == {
                lane * b + nid: replace(io, access=tuple(a.shift_var(inner, u, lane)
                                                         for a in io.access))
                for lane in range(u) for nid, io in base.io_bindings.items()}
            assert dfg_from_text(dfg_to_text(g)) == g
    s = dfg_stats(extract_dfg(corpus_kernels["scaleadd"], 4))
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
            plan = plan_box(graph_io(g), lower_dfg(g), arrays, trips)
            got = write_back(graph_io(g), outputs, arrays, plan)
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
    for nid in g.op_nodes():
        assert sum(1 for src in g.nodes[nid].srcs if src in const_ids) <= 1


def test_pass_inserted_for_const_output():
    k = kparse("C[i][j] = 7 + 0*A[i][j];")
    g = extract_dfg(k)
    for nid in g.outputs():
        (src,) = g.nodes[nid].srcs
        assert g.nodes[src].kind != NodeKind.CONST


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
    "2mm": ("55fd2e56ef21237916c09d2130a6fa9a2bdefeb9",
            "cee375409de8ba539f7b2b46cd8f157ffc863106",
            "06faa75458e15cd1002b2b3a003efaf958e2c03a"),
    "3mm": ("750d0e329bf1094cdc02319478ef6f7a78f8b339",
            "aca6cd9c993197db3f88cb173c968f117b0f7e9e",
            "2dc5cb4ead9df8fed78701eec66e1ba3bd48566a"),
    "atax": ("09da051b7e3bd005316884d01290046e331fb435",
             "354dfe5e4d255e82fc433a58b884885c17ff0e27",
             "7f04cbd8f89cbffaba3050f94dcdfe62d3934f9f"),
    "bicg": ("7eadae4bd19a32c90b2e038603919958115fb573",
             "a41f403760c96e642e337b50553a49ec1264443f",
             "533e7eccfda4e3c0233fa11553f536bd1b7aa840"),
    "branchmix": ("723659857d5ed2ac823f55407b82cfab36709f69",
                  "5d65e81a40e9521078b643998c4f193e7571050e",
                  "815a7b21e61e6295b49d20286a5b0b435b050774"),
    "gemm": ("e09823906d2cab3d7b1953ec7c620d476bc19cca",
             "1f32bb19989f2a0ccab6623ec073e4605796c79a",
             "45493155a59a4723559c1b1a16530ae2c2da5885"),
    "gemver": ("951c2d6cbfcaba533f66ad54373c44cc9347ac50",
               "bccbaaf58cd3c4c9f05f4d6e009734d1c56e06a3",
               "f0dadac19f24f22c6c98a34ad00af36790b8abea"),
    "gesummv": ("628274044ff950cc77bd2d2bfabad36232cd58e0",
                "8a91ed987939ae54262a7ce9e53e60bd2dbd058f",
                "62a22502bce9d2a2e6043cdffb80d3d8be54af18"),
    "heat-3d": ("6aba3655bb84892db11d0c4da62223a2d3171a6e",
                "6dd6f9896a5d3d217bf6e1edf0a1223abfa2fb4b",
                "4cc41762b5a058fba4198975009194fe131d60f9"),
    "mvt": ("413d78a06ad9e4efa1336518d3b895e7ef292f29",
            "82f72a7d964cd5ca766c5770884d962bbf9cf548",
            "a4034dd5e21e7db5bd58cc5dfbcc033ae350352c"),
    "scaleadd": ("c74793868637c876fe6c82587d039dca17035d11",
                 "a0d3b0baa73fc017e6699da01aa2ec97f86dbeb0",
                 "7e5d64b2b6c5d100e1ef38048eb186362603f1cb"),
    "symm": ("42dcec1bc6a8e9489e3016481f8737ff508779b8",
             "4d9fd0092a73d03769bd7abfa585be699544274d",
             "f3c36b21ecbcdc8a676493c2be346e4c38a1f132"),
    "syr2k": ("4add65699f31d2b29b7e07886d38349735364c55",
              "b43b65f80b63e9514a4c2a36599f8f8351418a56",
              "31295cf26558565d6230161c0d18be01915e42ab"),
    "syrk": ("1d1e59b052bb8f19f3176dcde2bd4398034c4e27",
             "2180705406a30799011c645f2b854de46d41c2e3",
             "9f741b2bfc4e7fefd8a5adb9a64cd1ba1cd9486d"),
    "trmm": ("690255a5e4e5eea93f9227f30fa36e6aa7142de2",
             "383ecc53e8bba6cd6a01ee7ba4ea6c30d4935760",
             "f3501dca399ae9d8451b561972465f09a6a618ee"),
}


def test_extraction_matches_the_golden_digests(corpus_kernels):
    extractable = {name for name, k in corpus_kernels.items()
                   if check_eligibility(k).reason in (Reason.NONE, Reason.TOO_SMALL)}
    assert extractable == set(_GOLDEN_DIGESTS)
    for name, digests in _GOLDEN_DIGESTS.items():
        got = tuple(hashlib.sha1(dfg_to_text(extract_dfg(corpus_kernels[name], u))
                                 .encode()).hexdigest() for u in (1, 2, 3))
        assert got == digests, name


# sha1 of the repr of (nodes with their operands, bindings, unroll) of
# extract_dfg(k, u) for u = 2, 3, 4, each in its order.  dfg_to_text sorts
# nodes and bindings, so these pin the order the graph holds them in too.
_ORDERED_DIGESTS = {
    "2mm": ("72a59ef38e6642326fa8bb31c1aa01910ce0cb57",
            "8f0918cecc15fee66c7eb5c3a0dcca813a00bffe",
            "b98b1ddd7ae4be7966a3ad03ddba32fa7d5509a7"),
    "3mm": ("02e6bcf08d6cbc5e326b926240ea259caeb318d3",
            "4e977aca0d7e88971a556aeff72a49ff342c5287",
            "36ba3d68cc350ec5f1dddf8ef1685ba85d6eddde"),
    "atax": ("ee393d93f9e7f5be80a9db04a888e558e34fa740",
             "e7a2de2d6d27845e2cb5944deb2d874ead9c6f58",
             "0884277095394b33f57be8b1784c8d8b7d4b1665"),
    "bicg": ("1ccb9eb0e073816bd6f9df53f3710fe5c17cca1f",
             "f85215f0d5d1eb3c580c4e425fb5eec17951d0cc",
             "0efc7fe8cd4f1e7c5a55e268deb6812edab87156"),
    "branchmix": ("458335d15e0a66e8e1014792cb114afc0e563f78",
                  "69e3c2284bbe0d3f8efd61d00bdc2cba267b53eb",
                  "1be655dc2801c111e2de09f10462968d86b80e19"),
    "gemm": ("3ad5335e000c2c039bcefbff14b6e5f5acf404af",
             "28e4379cd6b9e73e8feffaf215460d929bfad2cd",
             "0c6cce00059809434f9b142c1f7698e7a232a558"),
    "gemver": ("993a21c8949cf310db252fb942c1779c415680f5",
               "cdfdbcec77be65f08a31a561df6fd73272b08058",
               "bf64bcaf659ee03da27f4072cbf435358e1c3086"),
    "gesummv": ("e999bfd752d0c95b3a015e42ac8ef5d596994d02",
                "226532be8c21585a40d66745a099fa966ee06281",
                "fdc6243264167d94fbb33a86204298eb693618fe"),
    "heat-3d": ("17a82b219802cee4fb4f34ea2fb3696ad581f550",
                "480b8247b843e2fbdfa915e157488ffef8814d23",
                "347511dd2f75eed1bee51d65ca22c5c5f7326600"),
    "mvt": ("bf3d5d39b4e25333ff74489c775ce9e404c2df8a",
            "6d2c3e15fb57bd37bf75649ce7203e62824f6352",
            "68464f68d931a3ed3ff4e11b031ae59cab216132"),
    "scaleadd": ("300384212d4f850c65918d7716e3b1a9f5ca150e",
                 "ba54232eac5dc8c012c932824fa5ea33f80c2a17",
                 "15dd3f1d085acd21fbf6055ba611adabee9fe47e"),
    "symm": ("e0e59c12ab9e8684b8543ced4d20867bcfd9690b",
             "1e4f9af792fca8009336ee194b66fc7e62e7d69c",
             "1d10f880d91cd8dfd5a46bab1ce28a0ca9d10864"),
    "syr2k": ("029fd2e66b551a3b5fc50e8353360de4ceef86e4",
              "b949f4323c1eb39bc89ba5aff0e369d6447ec98c",
              "9cdb4b0a5f380321f3ec1e32de14a909f5b2f12f"),
    "syrk": ("cebfdf2889408d419e7f87a088bb2dcb8f36e3ae",
             "79602addcf527c35d7fd089f683a6ebe0c1959c7",
             "80881745d3fc586d05762db8d191b94f4f2a8e5d"),
    "trmm": ("0e2068a13258af5c78e613f727d88c4158ff6259",
             "8de5b5e03ab77906186a7118888171ad9ab5fe3c",
             "f25a7ea7818d467d3854df89bfa9f8f443018e43"),
}


def _ordered_digests(k):
    got = []
    for u in (2, 3, 4):
        g = extract_dfg(k, u)
        state = (list(g.nodes.values()), list(g.io_bindings.items()), g.unroll)
        got.append(hashlib.sha1(repr(state).encode()).hexdigest())
    return tuple(got)


def test_unrolled_extraction_keeps_its_ids_and_orders(corpus_kernels):
    assert set(_ORDERED_DIGESTS) == set(_GOLDEN_DIGESTS)
    for name, digests in _ORDERED_DIGESTS.items():
        assert _ordered_digests(corpus_kernels[name]) == digests, name


def _assert_final(g):
    """``g`` is an unroll-1 graph as extraction builds it: nodes in id order,
    every node feeding an Output, at most one constant operand per op and
    none into an Output."""
    assert list(g.nodes) == sorted(g.nodes)
    feeds, todo = set(), g.outputs()
    while todo:
        nid = todo.pop()
        if nid not in feeds:
            feeds.add(nid)
            todo += g.nodes[nid].srcs
    assert feeds == set(g.nodes)
    consts = {nid for nid, n in g.nodes.items() if n.kind == NodeKind.CONST}
    for nid, n in g.nodes.items():
        allowed = 1 if n.kind == NodeKind.OP else 0
        assert sum(src in consts for src in n.srcs) <= allowed, nid


def _assert_lanes(base, g, unroll):
    """``g`` is ``base`` copied into ``unroll`` lanes: with b the largest id
    plus one, lane L's node n is L*b + n, fed by its operands moved the
    same; nodes, then bindings come lane by lane."""
    b = max(base.nodes) + 1
    shifts = [lane * b for lane in range(unroll)]
    assert list(g.nodes.items()) == [
        (s + nid, replace(n, id=s + nid, srcs=tuple(s + src for src in n.srcs)))
        for s in shifts for nid, n in base.nodes.items()]
    assert list(g.io_bindings) == [s + nid for s in shifts for nid in base.io_bindings]


def test_unrolled_pass_nodes_keep_their_ids_and_orders():
    # No corpus graph has a PASS node; this one has two per lane.  Pinned
    # with the PASS nodes placed where the walk meets their constants.
    k = kparse("C[i][j] = A[i][j] > 0 ? 3 : 1; B[i][j] = 2 * 3;")
    assert _ordered_digests(k) == ("0ba790c061668599cbcab1392cc13007d8d2beec",
                                   "79625e606ffef95d681aad29f69908780db8d05c",
                                   "0d2b1ae1a6deec577ea0c759681ea8ef609f667c")
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
        got = write_back(graph_io(g), outputs, arrays,
                         plan_box(graph_io(g), lower_dfg(g), arrays, trips))
        leftover = n % unroll
        if leftover:
            program = lower_dfg(base)
            run_epilogue(program, got, plan_box(graph_io(base), program, arrays, trips, leftover))
        for name in want:
            assert np.array_equal(got[name], want[name]), (body, unroll, name)
