"""The stream engine against the scalar op semantics of ``dfg.apply_op``."""

import numpy as np
import pytest

from dfeoffload import engine
from dfeoffload.dfg import OP_ARITY, OpCode, apply_op

EDGES = [-2**31, -2**31 + 1, -1, 0, 1, 2**31 - 1]


@pytest.mark.parametrize("code", list(OpCode), ids=lambda c: c.name)
def test_run_program_matches_apply_op(code):
    rng = np.random.default_rng(int(code))
    # every pair of edge values, then random values over the whole int32 range
    x, y = (a.ravel() for a in np.meshgrid(EDGES, EDGES))
    n = len(x) + 200
    values = np.zeros((4, n), dtype=np.int32)
    values[0] = np.concatenate([x, rng.integers(-2**31, 2**31, 200)])
    values[1] = np.concatenate([y, rng.integers(-2**31, 2**31, 200)])
    values[2] = rng.choice(EDGES, n)  # MUX select: zero or not
    engine.run_program(np.array([[code, 3, 0, 1, 2]], dtype=np.int32), values)
    operands = values[:OP_ARITY[code]] if code != OpCode.MUX else values[[2, 0, 1]]
    want = [apply_op(code, [int(v) for v in column]) for column in operands.T]
    assert values[3].tolist() == want


def test_run_program_rejects_an_unknown_op_code():
    values = np.zeros((2, 3), dtype=np.int32)
    with pytest.raises(ValueError, match="bad op code 11"):
        engine.run_program(np.array([[11, 1, 0, 0, 0]], dtype=np.int32), values)


@pytest.mark.parametrize("dst", [0, 1, 2], ids=["dst=x", "dst=y", "dst=z"])
def test_a_mux_may_write_over_any_of_its_operands(dst):
    rng = np.random.default_rng(dst)
    x, y = (a.ravel() for a in np.meshgrid(EDGES, EDGES))
    n = len(x) + 200
    values = np.zeros((4, n), dtype=np.int32)
    values[0] = np.concatenate([x, rng.integers(-2**31, 2**31, 200)])
    values[1] = np.concatenate([y, rng.integers(-2**31, 2**31, 200)])
    values[2] = rng.choice(EDGES, n)
    values[3] = rng.integers(-2**31, 2**31, n)
    before = values.copy()
    want = [apply_op(OpCode.MUX, [int(z), int(x), int(y)]) for x, y, z in values[:3].T]
    engine.run_program(np.array([[OpCode.MUX, dst, 0, 1, 2]], dtype=np.int32), values)
    assert values[dst].tolist() == want
    others = [slot for slot in range(4) if slot != dst]
    assert np.array_equal(values[others], before[others])


def test_a_load_copies_its_source_into_a_row_as_int32():
    values = np.zeros((3, 6), dtype=np.int32)
    wide = np.arange(-3, 3, dtype=np.int64).reshape(2, 3) + (5 << 32)  # wraps to -3..2
    repeated = np.broadcast_to(np.array([7, -8, 9], np.int32), (2, 3))
    steps = [(engine.LOAD, 2, 1, 0, 0), (engine.LOAD, 0, 0, 0, 0), (OpCode.ADD, 1, 0, 2, 0)]
    engine.run_program(steps, values, [wide, repeated])
    assert values.tolist() == [[-3, -2, -1, 0, 1, 2], [4, -10, 8, 7, -7, 11],
                               [7, -8, 9, 7, -8, 9]]
