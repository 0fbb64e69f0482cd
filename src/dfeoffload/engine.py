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


def run_program(instrs: np.ndarray, values: np.ndarray) -> None:
    """Execute instructions in order, vectorized over stream positions.

    ``values`` is an (n_slots, length) int32 array updated in place.
    """
    with np.errstate(over="ignore"):
        for op, dst, x, y, z in instrs:
            if op == OP_ADD:
                values[dst] = values[x] + values[y]
            elif op == OP_SUB:
                values[dst] = values[x] - values[y]
            elif op == OP_MUL:
                values[dst] = values[x] * values[y]
            elif op == OP_EQ:
                values[dst] = values[x] == values[y]
            elif op == OP_NE:
                values[dst] = values[x] != values[y]
            elif op == OP_LT:
                values[dst] = values[x] < values[y]
            elif op == OP_LE:
                values[dst] = values[x] <= values[y]
            elif op == OP_GT:
                values[dst] = values[x] > values[y]
            elif op == OP_GE:
                values[dst] = values[x] >= values[y]
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
