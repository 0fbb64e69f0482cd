import random
import re
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import add_node, assert_id_rule, random_dfg
from dfeoffload import corpus
from dfeoffload.dfg import (INT32_MAX, INT32_MIN, OP_ARITY, AffineExpr, DataFlowGraph,
                            IoBinding, LengthMismatch, Node, NodeKind, OpCode, UnknownInput,
                            dfg_from_text, dfg_hash, dfg_stats, dfg_to_dot, dfg_to_text,
                            interpret_dfg, validate_dfg, wrap32)
from dfeoffload.frontend import IneligibleKernel, extract_dfg
from dfeoffload.overlay import OverlayShape
from dfeoffload.placer import place_and_route
from dfeoffload.simulator import lower_dfg


def fig_like_graph() -> DataFlowGraph:
    """in(A), in(B), consts 3 and 1, MUL, ADD, ADD, out: value = A + 3*B + 1."""
    g = DataFlowGraph()
    a = add_node(g, NodeKind.INPUT)
    b = add_node(g, NodeKind.INPUT)
    c3 = add_node(g, NodeKind.CONST, value=3)
    mul = add_node(g, NodeKind.OP, c3, b, code=OpCode.MUL)
    add1 = add_node(g, NodeKind.OP, a, mul, code=OpCode.ADD)
    c1 = add_node(g, NodeKind.CONST, value=1)
    add2 = add_node(g, NodeKind.OP, add1, c1, code=OpCode.ADD)
    add_node(g, NodeKind.OUTPUT, add2)
    return g


def test_validate_ok():
    assert validate_dfg(fig_like_graph()) == []


def test_validate_smallest_cycle():
    g = DataFlowGraph({0: Node(0, NodeKind.OP, OpCode.PASS, srcs=(1,)),
                       1: Node(1, NodeKind.OP, OpCode.PASS, srcs=(0,))})
    assert [(v.kind, v.detail) for v in validate_dfg(g)] == [
        ("edge-order", "1->0 does not run to a larger id")]


def test_validate_mux_arity():
    g = DataFlowGraph()
    a = add_node(g, NodeKind.INPUT)
    b = add_node(g, NodeKind.INPUT)
    add_node(g, NodeKind.OP, a, b, code=OpCode.MUX)  # missing the third operand
    assert [(v.kind, v.detail) for v in validate_dfg(g)] == [
        ("arity", "node 2 (MUX) expects 3 operands, has 2")]


@pytest.mark.parametrize("node,binding,unroll,want", [
    (Node(0, NodeKind.OP), None, 1, ("unsupported-code", "node 0")),
    (Node(0, NodeKind.CONST, value=INT32_MAX + 1), None, 1,
     ("const-range", "node 0 value 2147483648")),
    (Node(0, NodeKind.CONST), None, 1, ("const-range", "node 0 value None")),
    (Node(0, NodeKind.INPUT), (1, IoBinding("A", ())), 1,
     ("binding", "binding for missing node 1")),
    (Node(0, NodeKind.CONST, value=1), (0, IoBinding("A", ())), 1,
     ("binding", "node 0 is not an IO node")),
    (Node(0, NodeKind.INPUT), None, 0, ("unroll", "unroll factor 0 is below 1")),
], ids=["no-code", "const-too-large", "const-without-value", "binding-missing-node",
        "binding-on-a-const", "unroll-0"])
def test_validate_names_the_one_broken_node(node, binding, unroll, want):
    g = DataFlowGraph({node.id: node}, unroll=unroll)
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
    a = add_node(g, NodeKind.INPUT)
    b = add_node(g, NodeKind.INPUT)
    out = add_node(g, NodeKind.OUTPUT, add_node(g, NodeKind.OP, a, b, code=OpCode.ADD))
    res = interpret_dfg(g, {a: [2147483647], b: [1]})
    assert res[out] == [-2147483648]


def test_interpret_mux_polarity():
    g = DataFlowGraph()
    s = add_node(g, NodeKind.INPUT)
    a = add_node(g, NodeKind.INPUT)
    b = add_node(g, NodeKind.INPUT)
    out = add_node(g, NodeKind.OUTPUT, add_node(g, NodeKind.OP, s, a, b, code=OpCode.MUX))
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
    return _renumbered(g, {nid: nid + shift for nid in g.nodes})


def _renumbered(g: DataFlowGraph, new: dict[int, int]) -> DataFlowGraph:
    """``g`` with node id ``nid`` renumbered ``new[nid]``."""
    nodes = {new[nid]: Node(new[nid], n.kind, n.code, n.value, tuple(new[s] for s in n.srcs))
             for nid, n in g.nodes.items()}
    return DataFlowGraph(nodes, {new[nid]: b for nid, b in g.io_bindings.items()}, g.unroll)


def test_hash_relabel_invariant():
    g = fig_like_graph()
    assert dfg_hash(g) == dfg_hash(relabeled(g, 100))


def test_hash_sensitive_to_structure():
    g = fig_like_graph()
    h = dfg_hash(g)
    g2 = fig_like_graph()
    g2.nodes[2] = replace(g2.nodes[2], value=4)  # 3 -> 4
    assert dfg_hash(g2) != h
    g3 = fig_like_graph()
    g3.nodes[3] = replace(g3.nodes[3], code=OpCode.ADD)  # MUL -> ADD
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
        assert g2.nodes == g.nodes  # with their operands
        assert g2.io_bindings == g.io_bindings
        assert g2.unroll == g.unroll == 2
        assert dfg_hash(g2) == dfg_hash(g)


def test_dot_emitter_mentions_nodes():
    dot = dfg_to_dot(fig_like_graph())
    assert dot.startswith("digraph")
    assert "palegreen" in dot  # constants are marked
    assert dot.count("->") == sum(len(n.srcs) for n in fig_like_graph().nodes.values())


@pytest.mark.parametrize("text, match", [
    ("node 0 input\nnode 1 output\nedge 0:1 -> 1:0\n",
     r"source port 1 is not 0: 'edge 0:1 -> 1:0'"),
    ("node 0 input\nnode 1 op PASS\nedge 0:0 -> 1:0\nedge 0:0 -> 1:0\n",
     r"port 0 of node 1 is fed twice: 'edge 0:0 -> 1:0'"),
    ("node 0 input\nnode 1 op ADD\nedge 0:0 -> 1:0\nedge 0:0 -> 1:2\n",
     r"node 1 has ports \[0, 2\], which skip one"),
    ("node 0 input\nedge 0:0 -> 1:0\n", "edge into undeclared node 1"),
], ids=["source-port", "repeated-port", "skipped-port", "undeclared-node"])
def test_text_that_no_graph_holds_is_refused(text, match):
    with pytest.raises(ValueError, match=match):
        dfg_from_text(text)


@pytest.mark.parametrize("line", [
    "node 3", "node 0 op", "node 0 op FOO", "node 0 input 1", "node 0 const x", "meta",
    "meta unroll", "meta remainder j 2", "edge 1:0", "edge 1:0 1:0", "edge 1 -> 2:0",
    "bind 0 A", "bind 0 A i,0 0/1", "bind 0 A i+", "line 0",
], ids=lambda line: line.replace(" ", "_"))
def test_a_malformed_line_is_refused_by_name(line):
    with pytest.raises(ValueError, match=re.escape(f"malformed line: {line!r}")):
        dfg_from_text(f"node 0 input\n{line}\n")


# -- operands that break the graph's rules ----------------------------------------------


def _edge_out_of_a_missing_node() -> DataFlowGraph:
    """The fig graph with the last ADD's second operand a node that is not there."""
    g = fig_like_graph()
    g.nodes[6] = replace(g.nodes[6], srcs=(4, max(g.nodes) + 1))
    return g


@pytest.mark.parametrize("graph", [_edge_out_of_a_missing_node], ids=["out-of"])
def test_an_edge_that_names_a_missing_node_is_only_a_dangling_edge(graph):
    g = graph()
    assert [v.kind for v in validate_dfg(g)] == ["dangling-edge"]
    with pytest.raises(ValueError, match="invalid graph"):
        place_and_route(g, OverlayShape(4, 4))
    with pytest.raises(ValueError, match="dangling edge 8->6 "):
        interpret_dfg(g, {nid: [1, 2] for nid in g.inputs()})


def _edge_out_of_a_later_node() -> DataFlowGraph:
    """The fig graph with its constant 1 made after the ADD it feeds."""
    g = fig_like_graph()
    late = max(g.nodes) + 1
    g.nodes[late] = Node(late, NodeKind.CONST, value=1)
    del g.nodes[5]
    g.nodes[6] = replace(g.nodes[6], srcs=(4, late))
    return g


def test_node_ids_are_the_dependency_order(corpus_kernels):
    """Every graph extraction makes keeps the id rule, and every pass
    refuses a graph with an operand that breaks it or names a missing node."""
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
                     (_edge_out_of_a_missing_node(), ("dangling-edge", "8->6 references a missing node"))]:
        assert [(v.kind, v.detail) for v in validate_dfg(g)] == [fault]
        streams = {nid: [1, 2] for nid in g.inputs()}
        for run in (DataFlowGraph.topo_order, dfg_hash, lower_dfg,
                    lambda g: interpret_dfg(g, streams),
                    lambda g: place_and_route(g, OverlayShape(4, 4))):
            with pytest.raises(ValueError):
                run(g)


# -- the linear passes against the quadratic ones ------------------------------------


def _reference_verdicts(g: DataFlowGraph) -> list[tuple[str, str]]:
    """``validate_dfg`` by a scan of every node's operands per node."""
    out = []
    for nid, node in sorted(g.nodes.items()):
        for src in node.srcs:
            if src not in g.nodes:
                out.append(("dangling-edge", f"{src}->{nid} references a missing node"))
            elif src >= nid:
                out.append(("edge-order", f"{src}->{nid} does not run to a larger id"))
        if node.kind == NodeKind.OP and node.code not in OP_ARITY:
            out.append(("unsupported-code", f"node {nid}"))
            continue
        if node.kind == NodeKind.CONST and not (INT32_MIN <= node.value <= INT32_MAX):
            out.append(("const-range", f"node {nid} value {node.value!r}"))
        if len(node.srcs) != node.arity():
            out.append(("arity", f"node {nid} ({node.label()}) expects {node.arity()} operands,"
                                 f" has {len(node.srcs)}"))
        if node.kind == NodeKind.OUTPUT and any(nid in n.srcs for n in g.nodes.values()):
            out.append(("output-fanout", f"output node {nid} has outgoing edges"))
    for nid in g.io_bindings:
        if nid not in g.nodes:
            out.append(("binding", f"binding for missing node {nid}"))
            continue
        if g.nodes[nid].kind not in (NodeKind.INPUT, NodeKind.OUTPUT):
            out.append(("binding", f"node {nid} is not an IO node"))
    if g.unroll < 1:
        out.append(("unroll", f"unroll factor {g.unroll} is below 1"))
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
    return _renumbered(g, dict(zip(ids, rng.sample(range(3 * len(ids) + 1), len(ids)))))


def _mutated(g: DataFlowGraph, rng: random.Random) -> DataFlowGraph:
    """A copy of ``g`` with one to three random edits that may break it: a
    dropped operand, one rewired to another id, an appended one, a dropped
    node, or an operand that names a missing node."""
    g = DataFlowGraph(dict(g.nodes), dict(g.io_bindings), g.unroll)
    for _ in range(rng.randint(1, 3)):
        if not g.nodes:
            break
        ids = list(g.nodes)
        nid = rng.choice(ids)
        srcs = list(g.nodes[nid].srcs)
        what = rng.randrange(5)
        if what == 0 and srcs:
            del srcs[rng.randrange(len(srcs))]
        elif what == 1 and srcs:
            srcs[rng.randrange(len(srcs))] = rng.choice(ids)
        elif what == 2:
            srcs.append(rng.choice(ids))
        elif what == 3:
            del g.nodes[nid]
            continue
        elif what == 4:  # in place of an operand, or added to none
            i = rng.randrange(len(srcs)) if srcs else 0
            srcs[i:i + 1] = [max(ids) + 1]
        g.nodes[nid] = replace(g.nodes[nid], srcs=tuple(srcs))
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
    per-node verdicts, and ``topo_order`` gives id order or raises on a bad
    operand.  A relabeling is refused with ``edge-order`` exactly at the
    operands it reverses."""
    valid, relabeled, broken = _graphs_to_check()
    reversed_edges = 0
    for g, r in zip(valid, relabeled):
        assert validate_dfg(g) == []
        want = [("edge-order", f"{src}->{nid} does not run to a larger id")
                for nid, n in sorted(r.nodes.items()) for src in n.srcs if src > nid]
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
    assert kinds == {"dangling-edge", "arity", "output-fanout", "binding", "edge-order"}
