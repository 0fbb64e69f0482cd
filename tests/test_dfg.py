import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assert_id_rule, random_dfg
from dfeoffload import corpus
from dfeoffload.dfg import (INT32_MAX, INT32_MIN, OP_ARITY, AffineExpr, DataFlowGraph,
                            Edge, IoBinding, LengthMismatch, Node, NodeKind, OpCode,
                            UnknownInput, dfg_from_text, dfg_hash, dfg_stats, dfg_to_dot,
                            dfg_to_text, interpret_dfg, validate_dfg, wrap32)
from dfeoffload.frontend import IneligibleKernel, extract_dfg
from dfeoffload.overlay import OverlayShape
from dfeoffload.placer import place_and_route
from dfeoffload.simulator import lower_dfg


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
    assert [(v.kind, v.detail) for v in validate_dfg(g)] == [
        ("edge-order", f"{b}->{a} does not run to a larger id")]


def test_validate_mux_arity():
    g = DataFlowGraph()
    a = g.add_node(NodeKind.INPUT)
    b = g.add_node(NodeKind.INPUT)
    mux = g.add_node(NodeKind.OP, code=OpCode.MUX)
    g.add_edge(a, mux, 0)
    g.add_edge(b, mux, 1)  # missing the third input
    assert any(v.kind == "arity" for v in validate_dfg(g))


@pytest.mark.parametrize("node,binding,want", [
    (Node(0, NodeKind.OP), None, ("unsupported-code", "node 0")),
    (Node(0, NodeKind.CONST, value=INT32_MAX + 1), None,
     ("const-range", "node 0 value 2147483648")),
    (Node(0, NodeKind.CONST), None, ("const-range", "node 0 value None")),
    (Node(0, NodeKind.INPUT), (1, IoBinding("A", ())),
     ("binding", "binding for missing node 1")),
    (Node(0, NodeKind.CONST, value=1), (0, IoBinding("A", ())),
     ("binding", "node 0 is not an IO node")),
    (Node(0, NodeKind.INPUT), (0, IoBinding("A", (), 0, 0)), ("binding", "node 0 lane 0/0")),
], ids=["no-code", "const-too-large", "const-without-value", "binding-missing-node",
        "binding-on-a-const", "binding-lane-stride-0"])
def test_validate_names_the_one_broken_node(node, binding, want):
    g = DataFlowGraph({node.id: node})
    if binding is not None:
        g.io_bindings[binding[0]] = binding[1]
    assert [(v.kind, v.detail) for v in validate_dfg(g)] == [want]


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


def test_interpret_refuses_an_input_without_a_stream():
    with pytest.raises(UnknownInput, match=r"no stream for input nodes \[1\]"):
        interpret_dfg(fig_like_graph(), {0: [1, 2]})


def test_listing_style_branch_values(corpus_kernels):
    g = extract_dfg(corpus_kernels["branchmix"])
    ids = {g.io_bindings[n].array: n for n in g.inputs()}
    res = interpret_dfg(g, {ids["A"]: [5, 1], ids["B"]: [1, 5]})
    (stream,) = res.values()
    assert stream == [9, -26]


def test_stats_fig_graph():
    s = dfg_stats(fig_like_graph())
    assert (s.inputs, s.outputs, s.calc_nodes, s.consts) == (2, 1, 3, 2)


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


@settings(max_examples=50)
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


# -- edges that break the graph's rules -------------------------------------------------


def _edge_into_a_missing_node() -> DataFlowGraph:
    g = fig_like_graph()
    g.add_edge(3, max(g.nodes) + 1, 0)  # the MUL feeds a node that is not there
    return g


def _edge_out_of_a_missing_node() -> DataFlowGraph:
    g = fig_like_graph()
    g.add_edge(max(g.nodes) + 1, 6, 1)  # a second feed of the last ADD's port 1
    return g


@pytest.mark.parametrize("graph", [_edge_into_a_missing_node, _edge_out_of_a_missing_node],
                         ids=["into", "out-of"])
def test_an_edge_that_names_a_missing_node_is_only_a_dangling_edge(graph):
    g = graph()
    assert [v.kind for v in validate_dfg(g)] == ["dangling-edge"]
    with pytest.raises(ValueError, match="invalid graph"):
        place_and_route(g, OverlayShape(4, 4))
    dangling = g.edges[-1]
    with pytest.raises(ValueError, match=f"dangling edge {dangling.src}->{dangling.dst} "):
        interpret_dfg(g, {nid: [1, 2] for nid in g.inputs()})


def _edge_out_of_a_later_node() -> DataFlowGraph:
    """The fig graph with its constant 1 made after the ADD it feeds."""
    g = fig_like_graph()
    late = max(g.nodes) + 1
    g.nodes[late] = Node(late, NodeKind.CONST, value=1)
    del g.nodes[5]
    g.edges = [Edge(late, e.sport, e.dst, e.dport) if e.src == 5 else e for e in g.edges]
    return g


def test_node_ids_are_the_dependency_order(corpus_kernels):
    """Every graph extraction makes keeps the id rule, and every pass
    refuses a graph with an edge that breaks it or names a missing node."""
    extracted = 0
    for k in corpus_kernels.values():
        for unroll in (1, 2, 3, 4):
            try:
                g = extract_dfg(k, unroll)
            except IneligibleKernel:
                continue
            assert_id_rule(g)
            extracted += 1
    assert extracted == 60
    for g, fault in [(_edge_out_of_a_later_node(), ("edge-order", "8->6 does not run to a larger id")),
                     (_edge_into_a_missing_node(), ("dangling-edge", "3->8 references a missing node"))]:
        assert [(v.kind, v.detail) for v in validate_dfg(g)] == [fault]
        streams = {nid: [1, 2] for nid in g.inputs()}
        for run in (DataFlowGraph.topo_order, dfg_hash, lower_dfg,
                    lambda g: interpret_dfg(g, streams),
                    lambda g: place_and_route(g, OverlayShape(4, 4))):
            with pytest.raises(ValueError):
                run(g)


# -- the linear passes against the quadratic ones ------------------------------------


def _reference_verdicts(g: DataFlowGraph) -> list[tuple[str, str]]:
    """``validate_dfg`` by a scan of every edge per node."""
    out = []
    for e in g.edges:
        if e.src not in g.nodes or e.dst not in g.nodes:
            out.append(("dangling-edge", f"{e.src}->{e.dst} references a missing node"))
        elif e.src >= e.dst:
            out.append(("edge-order", f"{e.src}->{e.dst} does not run to a larger id"))
    for nid, node in sorted(g.nodes.items()):
        if node.kind == NodeKind.OP and node.code not in OP_ARITY:
            out.append(("unsupported-code", f"node {nid}"))
            continue
        if node.kind == NodeKind.CONST and not (INT32_MIN <= node.value <= INT32_MAX):
            out.append(("const-range", f"node {nid} value {node.value!r}"))
        ports = sorted(e.dport for e in g.edges if e.dst == nid and e.src in g.nodes)
        if ports != list(range(node.arity())):
            out.append(("arity", f"node {nid} ({node.label()}) expects ports "
                                 f"{list(range(node.arity()))}, has {ports}"))
        if node.kind == NodeKind.OUTPUT and any(e.src == nid for e in g.edges):
            out.append(("output-fanout", f"output node {nid} has outgoing edges"))
    for nid, binding in g.io_bindings.items():
        if nid not in g.nodes:
            out.append(("binding", f"binding for missing node {nid}"))
            continue
        if g.nodes[nid].kind not in (NodeKind.INPUT, NodeKind.OUTPUT):
            out.append(("binding", f"node {nid} is not an IO node"))
        if binding.lane_stride < 1 or binding.lane_offset < 0:
            out.append(("binding", f"node {nid} lane {binding.lane_offset}/{binding.lane_stride}"))
    return out


def _outcome(order, g: DataFlowGraph):
    """The order, or the type of what computing it raised."""
    try:
        return order(g)
    except (KeyError, ValueError) as exc:
        return type(exc)


def _relabeled_at_random(g: DataFlowGraph, rng: random.Random) -> DataFlowGraph:
    """``g`` with its node ids permuted, so that id order is not a
    dependency order."""
    ids = list(g.nodes)
    new = dict(zip(ids, rng.sample(range(3 * len(ids) + 1), len(ids))))
    out = relabeled(g, 0)
    out.nodes = {new[nid]: Node(new[nid], n.kind, n.code, n.value) for nid, n in g.nodes.items()}
    out.edges = [Edge(new[e.src], e.sport, new[e.dst], e.dport) for e in g.edges]
    out.io_bindings = {new[nid]: b for nid, b in g.io_bindings.items()}
    return out


def _mutated(g: DataFlowGraph, rng: random.Random) -> DataFlowGraph:
    """A copy of ``g`` with one to three random edits that may break it: a
    dropped or rewired edge, a new edge (a backward one, a fan-out or a
    second feed), a dropped node, or an edge out of or into a missing node."""
    g = DataFlowGraph(dict(g.nodes), list(g.edges), dict(g.io_bindings), g.remainder)
    for _ in range(rng.randint(1, 3)):
        ids = list(g.nodes) or [0]
        ghost = max(ids) + 1
        what = rng.randrange(6)
        if what == 0 and g.edges:
            del g.edges[rng.randrange(len(g.edges))]
        elif what == 1 and g.edges:
            i = rng.randrange(len(g.edges))
            e = g.edges[i]
            g.edges[i] = Edge(e.src, e.sport, e.dst, rng.randrange(3))
        elif what == 2:
            g.add_edge(rng.choice(ids), rng.choice(ids), rng.randrange(3))
        elif what == 3 and g.nodes:
            del g.nodes[rng.choice(ids)]
        elif what == 4:
            g.add_edge(ghost, rng.choice(ids), rng.randrange(3))
        else:
            g.add_edge(rng.choice(ids), ghost, 0)
    return g


def _graphs_to_check() -> tuple[list[DataFlowGraph], ...]:
    """Valid graphs, from the corpus at unroll 1 to 3 and at random; a copy
    of each relabeled at random; and broken copies of them all."""
    rng = random.Random(7)
    graphs = []
    for name in corpus.kernel_names():
        for unroll in (1, 2, 3):
            try:
                graphs.append(extract_dfg(corpus.load(name), unroll))
            except IneligibleKernel:
                pass
    assert len(graphs) == 45
    for _ in range(150):
        graphs.append(random_dfg(rng, rng.randint(0, 30), rng.randint(1, 4), rng.randint(1, 3)))
    relabeled = [_relabeled_at_random(g, rng) for g in graphs]
    broken = [_mutated(g, rng) for g in graphs + relabeled for _ in range(3)]
    return graphs, relabeled, broken


def test_the_linear_passes_agree_with_the_quadratic_ones():
    """On corpus graphs at unroll 1 to 3, random graphs, both relabeled at
    random, and broken copies of them all: ``validate_dfg`` gives the
    per-node verdicts, ``topo_order`` gives id order or raises on a bad
    edge, and ``in_edge_map`` gives every node's in-edges.  A relabeling
    is refused with ``edge-order`` exactly at the edges it reverses."""
    valid, relabeled, broken = _graphs_to_check()
    reversed_edges = 0
    for g, r in zip(valid, relabeled):
        assert validate_dfg(g) == []
        want = [("edge-order", f"{e.src}->{e.dst} does not run to a larger id")
                for e in r.edges if e.src > e.dst]
        assert [(v.kind, v.detail) for v in validate_dfg(r)] == want
        reversed_edges += len(want)
    assert reversed_edges
    kinds = set()
    for g in valid + relabeled + broken:
        verdicts = [(v.kind, v.detail) for v in validate_dfg(g)]
        assert verdicts == _reference_verdicts(g)
        kinds.update(kind for kind, _ in verdicts)
        bad_edge = any(kind in ("dangling-edge", "edge-order") for kind, _ in verdicts)
        assert _outcome(DataFlowGraph.topo_order, g) == (ValueError if bad_edge
                                                         else sorted(g.nodes))
        if not verdicts:
            assert g.in_edge_map() == {
                nid: sorted((e for e in g.edges if e.dst == nid), key=lambda e: e.dport)
                for nid in g.nodes}
    assert kinds == {"dangling-edge", "arity", "output-fanout", "binding", "edge-order"}
