"""Overlay: one hand-built config per violation, mutation verdicts, the file format."""

import hashlib
import random
import struct

import pytest

from conftest import reference_trace, trace_fields
from dfeoffload import corpus, overlay
from dfeoffload.dfg import INT32_MAX, OpCode
from dfeoffload.frontend import extract_dfg
from dfeoffload.overlay import (FU, CellConfig, Direction, OverlayConfig, OverlayShape,
                                Pin, deserialize_config, new_overlay, serialize_config,
                                trace_config, validate_config)
from dfeoffload.placer import PlacerParams, place_and_route
from dfeoffload.simulator import InvalidConfig, compile_config

N, E, S, W = Direction


def _base() -> OverlayConfig:
    """A valid 1x2 config: (0,0) adds its W input and a constant 5, and
    (0,1) passes the sum from its W input out of its E side."""
    cfg = new_overlay(1, 2)
    adder = cfg.cells[(0, 0)]
    adder.fu_op, adder.fu_in1, adder.mask = OpCode.ADD, W, (Pin.IN2, 5)
    adder.out_sel[E] = FU
    cfg.cells[(0, 1)].out_sel[E] = W
    cfg.io_in[(0, 0, W)] = 0
    cfg.io_out[(0, 1, E)] = 1
    return cfg


def _extra_cell(cfg):
    cfg.cells[(5, 5)] = CellConfig()


def _pin_conflict(cfg):
    cfg.cells[(0, 0)].fu_in2 = W


def _mask_without_fu(cfg):
    cfg.cells[(0, 1)].mask = (Pin.IN1, 3)


def _mask_range(cfg):
    cfg.cells[(0, 0)].mask = (Pin.IN2, INT32_MAX + 1)


def _pins_without_fu(cfg):
    cfg.cells[(0, 1)].fu_in1 = W


def _unfed_pin(cfg):
    cfg.cells[(0, 0)].mask = None


def _extra_pin(cfg):
    cfg.cells[(0, 0)].fu_sel = W


def _reflection(cfg):
    # the E side is a border, so the reflected "input" is an untagged one
    cfg.cells[(0, 1)].out_sel[E] = E


def _dangling_fu(cfg):
    cfg.cells[(0, 1)].out_sel[S] = FU


def _tag_clash(cfg):
    cfg.io_in[(0, 1, N)] = 0


def _not_border(cfg):
    cfg.io_in[(0, 0, E)] = 7


def _silent_output(cfg):
    cfg.io_out[(0, 1, N)] = 9


def _disabled_output(cfg):
    cfg.cells[(0, 0)].out_sel[E] = None


def _untagged_input(cfg):
    del cfg.io_in[(0, 0, W)]


def _fus_feed_each_other(cfg):
    """(0,0) and (0,1) each read the other's FU result."""
    cfg.cells[(0, 0)].fu_in1 = E
    right = cfg.cells[(0, 1)]
    right.fu_op, right.fu_in1, right.mask = OpCode.ADD, W, (Pin.IN2, 1)
    right.out_sel[E], right.out_sel[W] = None, FU
    cfg.io_in.clear()
    cfg.io_out.clear()


def _valid(cfg):
    pass


# (mutator of ``_base()``, the violation kinds it must cause)
_VIOLATION_CASES = [
    (_valid, set()),
    (_extra_cell, {"extra-cell"}),
    (_pin_conflict, {"pin-conflict"}),
    (_mask_without_fu, {"mask-without-fu"}),
    (_mask_range, {"mask-range"}),
    (_pins_without_fu, {"pins-without-fu"}),
    (_unfed_pin, {"unfed-pin"}),
    (_extra_pin, {"extra-pin"}),
    (_reflection, {"reflection", "untagged-input"}),
    (_dangling_fu, {"dangling-fu"}),
    (_tag_clash, {"tag-clash"}),
    (_not_border, {"not-border"}),
    (_silent_output, {"silent-output"}),
    (_disabled_output, {"unrouted"}),
    (_untagged_input, {"untagged-input"}),
    (_fus_feed_each_other, {"cycle"}),
]


def _case_id(x):
    return x.__name__.strip("_") if callable(x) else None


@pytest.mark.parametrize("mutate, kinds", _VIOLATION_CASES, ids=_case_id)
def test_each_violation_is_reported_by_its_kind(mutate, kinds):
    cfg = _base()
    mutate(cfg)
    assert {v.kind for v in validate_config(cfg)} == kinds


@pytest.mark.parametrize("mutate", [mutate for mutate, _ in _VIOLATION_CASES], ids=_case_id)
def test_lowering_refuses_a_config_with_exactly_its_violations(mutate):
    cfg = _base()
    mutate(cfg)
    violations = validate_config(cfg)
    if not violations:
        # slot 0 is input tag 0, slot 1 the sum and slot 2 the constant 5;
        # the sum passes one output to reach the E border
        program = compile_config(cfg)
        assert program.instrs.tolist() == [[int(OpCode.ADD), 1, 0, 2, 0]]
        assert (program.input_slots, program.output_slots, program.const_fill,
                program.depth) == ({0: 0}, {1: 1}, [(2, 5)], 3)
        return
    with pytest.raises(InvalidConfig) as info:
        compile_config(cfg)
    assert str(info.value) == "; ".join(map(repr, violations))


def _ring() -> OverlayConfig:
    """A 2x2 grid whose four inner outputs forward one another in a ring."""
    cfg = new_overlay(2, 2)
    cfg.cells[(0, 0)].out_sel[E] = S
    cfg.cells[(1, 0)].out_sel[N] = E
    cfg.cells[(1, 1)].out_sel[W] = N
    cfg.cells[(0, 1)].out_sel[S] = W
    return cfg


def test_a_loop_of_pass_through_outputs_is_unrouted():
    """Four outputs of a 2x2 grid forward one another around the ring, so
    tracing any of them comes back to where it started."""
    violations = validate_config(_ring())
    assert len(violations) == 4
    assert all(v.kind == "unrouted" and "routing cycle at" in v.detail
               for v in violations)


def test_a_missing_cell_is_reported_before_any_lookup():
    cfg = _base()
    del cfg.cells[(0, 1)]
    assert [v.kind for v in validate_config(cfg)] == ["missing-cell"]


# -- verdicts over mutated placements ----------------------------------------------


def _corpus_configs() -> list[OverlayConfig]:
    configs = []
    for name in ("2mm", "atax", "bicg", "mvt", "symm", "syr2k", "trmm"):
        g = extract_dfg(corpus.load(name), 1)
        p = place_and_route(g, OverlayShape(4, 4), PlacerParams(global_budget=5000), 0)
        configs.append(p.apply())
    return configs


_SOURCES = [None, FU, *Direction]
_MASK_VALUES = [0, -3, 17, INT32_MAX + 1]


def _mutated_configs(seed: int, count: int) -> list[OverlayConfig]:
    """``count`` corpus placements with one to three random edits each, as
    the verdict digest below makes them."""
    rng = random.Random(seed)
    blobs = [serialize_config(cfg) for cfg in _corpus_configs()]
    configs = []
    for i in range(count):
        cfg = deserialize_config(blobs[i % len(blobs)])
        for _ in range(rng.randint(1, 3)):
            _mutate(cfg, rng)
        configs.append(cfg)
    return configs


def _mutate(cfg: OverlayConfig, rng: random.Random) -> None:
    """One random edit of a cell field or an io binding."""
    shape = cfg.shape
    cell = cfg.cells[(rng.randrange(shape.rows), rng.randrange(shape.cols))]
    what = rng.randrange(6)
    if what == 0:
        cell.fu_op = rng.choice([None, *OpCode])
    elif what == 1:
        setattr(cell, rng.choice(["fu_in1", "fu_in2", "fu_sel"]),
                rng.choice([None, *Direction]))
    elif what == 2:
        cell.mask = rng.choice([None, (rng.choice(list(Pin)), rng.choice(_MASK_VALUES))])
    elif what == 3:
        cell.out_sel[rng.choice(list(Direction))] = rng.choice(_SOURCES)
    else:
        table = cfg.io_in if what == 4 else cfg.io_out
        port = rng.choice(shape.border_ports())
        if port in table:
            del table[port]
        else:
            table[port] = rng.randrange(40)


def test_validate_config_verdicts_over_mutated_placements_match_the_golden_digest():
    """Accept/reject over 2,400 configs with one to three random edits each.

    Only the verdict is pinned: which kinds a rejection lists may change
    without changing which configs the simulator will run.
    """
    rng = random.Random(11)
    blobs = [serialize_config(cfg) for cfg in _corpus_configs()]
    verdicts = []
    for i in range(2400):
        cfg = deserialize_config(blobs[i % len(blobs)])
        for _ in range(rng.randint(1, 3)):
            _mutate(cfg, rng)
        verdicts.append("r" if validate_config(cfg) else "a")
    text = "".join(verdicts)
    assert 300 < text.count("a") < 2100  # both verdicts are well exercised
    assert hashlib.sha1(text.encode()).hexdigest() == "00b784d4861e8548c55e9f1b5d1d93bdc4cb0759"


def _hand_built_configs() -> list[OverlayConfig]:
    configs = [_ring(), _base()]
    del configs[-1].cells[(0, 1)]
    for mutate, _ in _VIOLATION_CASES:
        configs.append(_base())
        mutate(configs[-1])
    return configs


def test_trace_config_matches_a_trace_of_each_route_on_its_own():
    """Over the hand-built configs and 2,400 mutated placements, the one
    memoized pass finds what tracing every route with ``trace_port`` finds:
    the same violations in the same order, the same pin and output routes,
    and the same FU order."""
    configs = _hand_built_configs() + _mutated_configs(11, 2400)
    rejected = 0
    for cfg in configs:
        want = reference_trace(cfg)
        assert trace_fields(trace_config(cfg)) == want
        rejected += bool(want[0])
    assert 300 < rejected < 2100


# -- the file format ---------------------------------------------------------------


def test_a_config_survives_serialization():
    cfg = _base()
    assert serialize_config(deserialize_config(serialize_config(cfg))) == serialize_config(cfg)


def test_deserialize_refuses_a_bad_magic():
    with pytest.raises(ValueError, match="not an overlay config file"):
        deserialize_config(b"XXXX" + serialize_config(_base())[4:])


def test_deserialize_refuses_trailing_bytes():
    with pytest.raises(ValueError, match="trailing bytes in overlay config"):
        deserialize_config(serialize_config(_base()) + b"\0")


@pytest.mark.parametrize("name, side", [("scaleadd", 2), ("gemm", 4)])
def test_deserialize_refuses_a_config_cut_at_any_length(name, side):
    g = extract_dfg(corpus.load(name), 1)
    blob = serialize_config(place_and_route(g, OverlayShape(side, side)).apply())
    for cut in range(len(blob)):
        match = "not an overlay config file" if cut < 4 else "truncated overlay config"
        with pytest.raises(ValueError, match=match):
            deserialize_config(blob[:cut])
    assert serialize_config(deserialize_config(blob)) == blob


def test_deserialize_checks_the_grid_size_before_building_the_grid(monkeypatch):
    def refuse(rows, cols):
        raise AssertionError(f"built a {rows}x{cols} grid for a 21-byte file")

    monkeypatch.setattr(overlay, "new_overlay", refuse)
    with pytest.raises(ValueError, match="truncated overlay config"):
        deserialize_config(b"DFE1" + struct.pack("<HH", 60000, 60000) + bytes(13))
