"""The stream engine: runs a lowered instruction program over int32 streams.

Steps are rows (op, dst, x, y, z) over the rows of a scratch array, as the
simulator's row plan numbers them; op codes follow dfg.OpCode.  Semantics
per position: binary codes compute ``x op y``, comparisons yield 1/0, MUX
yields x when z is nonzero else y, PASS copies x.  All arithmetic wraps in
int32.  A LOAD step copies the piece's source x into row dst, cast to
int32, just before the first step that reads it.
"""

from __future__ import annotations

import numpy as np

from .dfg import OpCode

# Keys are plain ints, as the rows hold them: IntEnum keys and an enum
# lookup per instruction measured slower.  Arithmetic writes straight into
# the destination slot.  A comparison yields booleans, which the assignment
# stores as 1/0: a cast inside the ufunc (``out=`` an int32 slot) measured
# slower.  MUX is ``y + (x - y) * (z != 0)``, which wraps to x or y exactly
# and has no branch per position: over a block of random selects,
# ``np.where`` measured about 5x slower and ``y ^ ((x ^ y) & -(z != 0))``
# about 15% slower.  Its temporary is taken before ``dst`` is written, so
# ``dst`` may be any operand.
_ARITH = {OpCode.ADD.value: np.add, OpCode.SUB.value: np.subtract,
          OpCode.MUL.value: np.multiply}
_COMPARE = {OpCode.EQ.value: np.equal, OpCode.NE.value: np.not_equal,
            OpCode.LT.value: np.less, OpCode.LE.value: np.less_equal,
            OpCode.GT.value: np.greater, OpCode.GE.value: np.greater_equal}
_MUX, _PASS = OpCode.MUX.value, OpCode.PASS.value
LOAD = -1  # not an OpCode: no functional unit loads


def run_program(steps, values: np.ndarray, sources=()) -> None:
    """Execute steps in order, vectorized over stream positions.

    ``steps`` is a sequence of (op, dst, x, y, z) rows, ``values`` an
    (n_rows, width) int32 array updated in place, and ``sources`` the
    arrays LOAD steps copy from, each of ``width`` positions in row-major
    order, all of one shape.
    """
    if sources:
        rows = values.reshape(len(values), *sources[0].shape)
    for op, dst, x, y, z in steps:
        if op in _ARITH:
            _ARITH[op](values[x], values[y], out=values[dst])
        elif op in _COMPARE:
            values[dst] = _COMPARE[op](values[x], values[y])
        elif op == _MUX:
            t = np.subtract(values[x], values[y])
            t *= values[z] != 0
            np.add(t, values[y], out=values[dst])
        elif op == _PASS:
            values[dst] = values[x]
        elif op == LOAD:
            rows[dst] = sources[x]
        else:
            raise ValueError(f"bad op code {op}")


# Kept only for offloadbench/, which records default_backend() and times the
# engine by wrapping get_runner(); there is one engine.
def default_backend() -> str:
    return "pure"


def get_runner():
    return run_program
