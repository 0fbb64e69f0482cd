import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dfeoffload import corpus
from dfeoffload.dfg import (AffineExpr, DataFlowGraph, Edge, LengthMismatch,
                            Node, NodeKind, OpCode, dfg_from_text, dfg_hash,
                            dfg_stats, dfg_to_dot, dfg_to_text, interpret_dfg,
                            validate_dfg, wrap32)
from dfeoffload.frontend import extract_dfg


def fig_like_graph() -> DataFlowGraph:
    """in(A), in(B), consts 3 and 1, MUL, ADD, ADD, out: value = A + 3*B + 1."""
    g = DataFlowGraph()
    a = g.add_node(NodeKind.INPUT)
    b = g.add_node(NodeKind.INPUT)
    c3 = g.add_node(NodeKind.CONST, value=3)
    mul = g.add_node(NodeKind.OP, code=OpCode.MUL)
    g.add_edge(c3, mul, 0)
    g.add_edge(b, mul, 1)
    add1 = g.add_node(NodeKind.OP, code=OpCode.ADD)
    g.add_edge(a, add1, 0)
    g.add_edge(mul, add1, 1)
    c1 = g.add_node(NodeKind.CONST, value=1)
    add2 = g.add_node(NodeKind.OP, code=OpCode.ADD)
    g.add_edge(add1, add2, 0)
    g.add_edge(c1, add2, 1)
    out = g.add_node(NodeKind.OUTPUT)
    g.add_edge(add2, out, 0)
    return g


def test_validate_ok():
    assert validate_dfg(fig_like_graph()) == []


def test_validate_smallest_cycle():
    g = DataFlowGraph()
    a = g.add_node(NodeKind.OP, code=OpCode.PASS)
    b = g.add_node(NodeKind.OP, code=OpCode.PASS)
    g.add_edge(a, b, 0)
    g.add_edge(b, a, 0)
    kinds = {v.kind for v in validate_dfg(g)}
    assert "cycle" in kinds


def test_validate_mux_arity():
    g = DataFlowGraph()
    a = g.add_node(NodeKind.INPUT)
    b = g.add_node(NodeKind.INPUT)
    mux = g.add_node(NodeKind.OP, code=OpCode.MUX)
    g.add_edge(a, mux, 0)
    g.add_edge(b, mux, 1)  # missing the third input
    assert any(v.kind == "arity" for v in validate_dfg(g))


def test_no_division_code_exists():
    assert not any(code.name in ("DIV", "REM", "MOD") for code in OpCode)


def test_interpret_fig_values():
    g = fig_like_graph()
    out = interpret_dfg(g, {0: [1], 1: [2]})
    assert list(out.values()) == [[8]]


def test_interpret_add_wraps():
    g = DataFlowGraph()
    a = g.add_node(NodeKind.INPUT)
    b = g.add_node(NodeKind.INPUT)
    add = g.add_node(NodeKind.OP, code=OpCode.ADD)
    g.add_edge(a, add, 0)
    g.add_edge(b, add, 1)
    out = g.add_node(NodeKind.OUTPUT)
    g.add_edge(add, out, 0)
    res = interpret_dfg(g, {a: [2147483647], b: [1]})
    assert res[out] == [-2147483648]


def test_interpret_mux_polarity():
    g = DataFlowGraph()
    s = g.add_node(NodeKind.INPUT)
    a = g.add_node(NodeKind.INPUT)
    b = g.add_node(NodeKind.INPUT)
    mux = g.add_node(NodeKind.OP, code=OpCode.MUX)
    g.add_edge(s, mux, 0)
    g.add_edge(a, mux, 1)
    g.add_edge(b, mux, 2)
    out = g.add_node(NodeKind.OUTPUT)
    g.add_edge(mux, out, 0)
    res = interpret_dfg(g, {s: [0, 1, -3], a: [10, 10, 10], b: [20, 20, 20]})
    assert res[out] == [20, 10, 10]


def test_interpret_length_mismatch():
    g = fig_like_graph()
    with pytest.raises(LengthMismatch):
        interpret_dfg(g, {0: [1, 2], 1: [3]})


def test_listing_style_branch_values(corpus_kernels):
    g = extract_dfg(corpus_kernels["branchmix"])
    ids = {g.io_bindings[n].array: n for n in g.inputs()}
    res = interpret_dfg(g, {ids["A"]: [5, 1], ids["B"]: [1, 5]})
    (stream,) = res.values()
    assert stream == [9, -26]


def test_stats_fig_graph():
    s = dfg_stats(fig_like_graph())
    assert (s.inputs, s.outputs, s.calc_nodes, s.consts) == (2, 1, 3, 2)
    assert s.total() == 8


def test_stats_empty():
    s = dfg_stats(DataFlowGraph())
    assert (s.inputs, s.outputs, s.calc_nodes) == (0, 0, 0)


def relabeled(g: DataFlowGraph, shift: int) -> DataFlowGraph:
    mapping = {nid: nid + shift for nid in g.nodes}
    out = DataFlowGraph()
    out.nodes = {mapping[nid]: Node(mapping[nid], n.kind, n.code, n.value)
                 for nid, n in g.nodes.items()}
    out.edges = [Edge(mapping[e.src], e.sport, mapping[e.dst], e.dport)
                 for e in g.edges]
    out.io_bindings = {mapping[nid]: b for nid, b in g.io_bindings.items()}
    out.remainder = g.remainder
    return out


def test_hash_relabel_invariant():
    g = fig_like_graph()
    assert dfg_hash(g) == dfg_hash(relabeled(g, 100))


def test_hash_sensitive_to_structure():
    g = fig_like_graph()
    h = dfg_hash(g)
    g2 = fig_like_graph()
    g2.nodes[2] = Node(2, NodeKind.CONST, value=4)  # 3 -> 4
    assert dfg_hash(g2) != h
    g3 = fig_like_graph()
    g3.nodes[3] = Node(3, NodeKind.OP, code=OpCode.ADD)  # MUL -> ADD
    assert dfg_hash(g3) != h


def test_hash_corpus_collision_free(corpus_kernels):
    hashes = {}
    for name, k in corpus_kernels.items():
        try:
            g = extract_dfg(k)
        except Exception:
            continue
        h = dfg_hash(g)
        assert h not in hashes, f"{name} collides with {hashes.get(h)}"
        hashes[h] = name


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=-(2**40), max_value=2**40))
def test_wrap32_range(x):
    w = wrap32(x)
    assert -(2**31) <= w <= 2**31 - 1
    assert (w - x) % (2**32) == 0


def test_affine_parse_round_trip():
    cases = [AffineExpr.of(0), AffineExpr.of(5), AffineExpr.of(-3, i=1),
             AffineExpr.of(2, i=2, j=-1), AffineExpr.of(0, k=-4)]
    for a in cases:
        assert AffineExpr.parse(str(a)) == a


def test_text_round_trip():
    for name in ("scaleadd", "branchmix", "gemm"):
        g = extract_dfg(corpus.load(name), unroll=2)
        g2 = dfg_from_text(dfg_to_text(g))
        assert g2.nodes == g.nodes
        assert sorted(g2.edges, key=str) == sorted(g.edges, key=str)
        assert g2.io_bindings == g.io_bindings
        assert g2.remainder == g.remainder
        assert dfg_hash(g2) == dfg_hash(g)


def test_dot_emitter_mentions_nodes():
    dot = dfg_to_dot(fig_like_graph())
    assert dot.startswith("digraph")
    assert "palegreen" in dot  # constants are marked
    assert dot.count("->") == len(fig_like_graph().edges)
