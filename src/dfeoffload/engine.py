"""The stream engine: runs a lowered instruction program over int32 streams.

Instructions are rows (op, dst, x, y, z) over slot indices; op codes follow
dfg.OpCode.  Semantics per position: binary codes compute ``x op y``,
comparisons yield 1/0, MUX yields x when z is nonzero else y, PASS copies x.
All arithmetic wraps in int32.
"""

from __future__ import annotations

import numpy as np

OP_ADD, OP_SUB, OP_MUL = 0, 1, 2
OP_EQ, OP_NE, OP_LT, OP_LE, OP_GT, OP_GE = 3, 4, 5, 6, 7, 8
OP_MUX, OP_PASS = 9, 10

# Arithmetic writes straight into the destination slot.  A comparison yields
# booleans, which the assignment stores as 1/0: a cast inside the ufunc
# (``out=`` an int32 slot) measured slower.
_ARITH = {OP_ADD: np.add, OP_SUB: np.subtract, OP_MUL: np.multiply}
_COMPARE = {OP_EQ: np.equal, OP_NE: np.not_equal, OP_LT: np.less,
            OP_LE: np.less_equal, OP_GT: np.greater, OP_GE: np.greater_equal}


def run_program(instrs: np.ndarray, values: np.ndarray) -> None:
    """Execute instructions in order, vectorized over stream positions.

    ``values`` is an (n_slots, length) int32 array updated in place.
    """
    for op, dst, x, y, z in instrs.tolist():
        if op in _ARITH:
            _ARITH[op](values[x], values[y], out=values[dst])
        elif op in _COMPARE:
            values[dst] = _COMPARE[op](values[x], values[y])
        elif op == OP_MUX:
            values[dst] = np.where(values[z] != 0, values[x], values[y])
        elif op == OP_PASS:
            values[dst] = values[x]
        else:
            raise ValueError(f"bad op code {op}")


# Kept only for offloadbench/, which records default_backend() and times the
# engine by wrapping get_runner(); there is one engine.
def default_backend() -> str:
    return "pure"


def get_runner():
    return run_program
