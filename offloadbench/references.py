"""Independent numpy references for the corpus kernels the benchmark runs.

Each reference is written from the kernel's ``.k`` source, not from the
program's evaluator, so that the benchmark's output check does not depend on
the code it measures.  Arithmetic runs in int64 and is truncated to int32 at
the end: wrapping +, - and * modulo 2**64 and then 2**32 gives the same bits
as wrapping every step to int32, because 2**32 divides 2**64.  The only
comparison (branchmix) reads unmodified int32 inputs, so it sees the same
values as the kernel does.

Every kernel writes each element of its output from elements of arrays it
never writes (or from the same element), so whole-array expressions match
the loop nest's element-by-element order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

Arrays = dict[str, np.ndarray]


@dataclass(frozen=True)
class Reference:
    """How to build inputs for one kernel and what it must return.

    ``loops`` names the parameter bounding each loop, outer to inner, so the
    iteration count of a call is the product of those parameters.
    ``shapes`` maps parameter values to the extent of every array.
    ``compute`` returns only the arrays the kernel writes.
    """

    params: tuple[str, ...]
    loops: tuple[str, ...]
    shapes: Callable[..., dict[str, tuple[int, ...]]]
    compute: Callable[..., Arrays]

    def iterations(self, params: dict[str, int]) -> int:
        n = 1
        for p in self.loops:
            n *= params[p]
        return n

    def expected(self, arrays: Arrays, params: dict[str, int]) -> Arrays:
        """Every array after the kernel has run: written ones recomputed."""
        wide = {name: np.asarray(a, dtype=np.int64) for name, a in arrays.items()}
        with np.errstate(over="ignore"):
            written = self.compute(wide, **params)
        out = dict(arrays)
        for name, value in written.items():
            out[name] = value.astype(np.int32)
        return out


def _mm2(a, M, N):
    A, B, C = a["A"], a["B"], a["C"]
    t0 = A[:, 0] * B[0, 0] + A[:, 1] * B[1, 0]
    t1 = A[:, 0] * B[0, 1] + A[:, 1] * B[1, 1]
    return {"D": t0[:, None] * C[0][None, :] + t1[:, None] * C[1][None, :]}


def _mm3(a, M, N):
    A, B, C, D = a["A"], a["B"], a["C"], a["D"]
    left0 = A[:, 0] * B[0, 0] + A[:, 1] * B[1, 0]
    left1 = A[:, 0] * B[0, 1] + A[:, 1] * B[1, 1]
    right0 = C[0, 0] * D[0] + C[0, 1] * D[1]
    right1 = C[1, 0] * D[0] + C[1, 1] * D[1]
    return {"E": left0[:, None] * right0[None, :] + left1[:, None] * right1[None, :]}


def _atax(a, N):
    A, x = a["A"], a["x"]
    s0 = A[0, 0] * x[0] + A[0, 1] * x[1]
    s1 = A[1, 0] * x[0] + A[1, 1] * x[1]
    return {"y": A[0] * s0 + A[1] * s1}


def _bicg(a, N):
    A, p, r = a["A"], a["p"], a["r"]
    return {"s": r[0] * A[0] + r[1] * A[1] + 2 * p,
            "q": p[0] * A[0] + p[1] * A[1] + 2 * r}


def _branchmix(a, M, N):
    A, B = a["A"], a["B"]
    return {"C": np.where(A > B, A + 3 * B + 1, A - 5 * B - 2)}


def _gemm(a, M, N):
    A, B, C = a["A"], a["B"], a["C"]
    acc = sum(A[:, t][:, None] * B[t][None, :] for t in range(4))
    return {"C": 2 * acc + 3 * C}


def _gemver(a, N):
    A, u1, v1, u2, v2 = a["A"], a["u1"], a["v1"], a["u2"], a["v2"]
    rank2 = u1[:, None] * v1[None, :] + u2[:, None] * v2[None, :]
    return {"B": 2 * (A + rank2) + 3 * A * (u1 - u2)[:, None]}


def _gesummv(a, N):
    A, B, x = a["A"], a["B"], a["x"]
    return {"y": 3 * (A[0] * x[0] + A[1] * x[1]) + 5 * (B[0] * x[0] + B[1] * x[1])}


def _mvt(a, N):
    A, y1, x1 = a["A"], a["y1"], a["x1"]
    return {"x1": x1 + sum(A[:, t] * y1[t] for t in range(5))}


def _symm(a, M, N):
    A, B, C = a["A"], a["B"], a["C"]
    acc = sum(A[:, t][:, None] * B[t][None, :] for t in range(3))
    return {"C": 2 * C + 3 * acc + B}


def _syr2k(a, N):
    A, B, C = a["A"], a["B"], a["C"]
    acc = sum(A[:, t][:, None] * B[:, t][None, :] + B[:, t][:, None] * A[:, t][None, :]
              for t in range(2))
    return {"C": 3 * C + acc}


def _syrk(a, N):
    A, C = a["A"], a["C"]
    sym = A[:, 0][:, None] * A[:, 0][None, :] + A[:, 1][:, None] * A[:, 1][None, :]
    return {"C": 2 * C + 3 * sym + A[:, 0][:, None] * A[:, 1][None, :] + 1}


def _trmm(a, M, N):
    A, B = a["A"], a["B"]
    acc = sum(A[:, t][:, None] * B[t][None, :] for t in range(3))
    return {"C": 2 * B + 3 * acc}


REFERENCES: dict[str, Reference] = {
    "2mm": Reference(("M", "N"), ("M", "N"),
                     lambda M, N: {"A": (M, 2), "B": (2, 2), "C": (2, N), "D": (M, N)},
                     _mm2),
    "3mm": Reference(("M", "N"), ("M", "N"),
                     lambda M, N: {"A": (M, 2), "B": (2, 2), "C": (2, 2),
                                   "D": (2, N), "E": (M, N)},
                     _mm3),
    "atax": Reference(("N",), ("N",),
                      lambda N: {"A": (2, N), "x": (N,), "y": (N,)},
                      _atax),
    "bicg": Reference(("N",), ("N",),
                      lambda N: {"A": (2, N), "p": (N,), "r": (N,), "s": (N,), "q": (N,)},
                      _bicg),
    "branchmix": Reference(("M", "N"), ("M", "N"),
                           lambda M, N: {"A": (M, N), "B": (M, N), "C": (M, N)},
                           _branchmix),
    "gemm": Reference(("M", "N"), ("M", "N"),
                      lambda M, N: {"A": (M, 4), "B": (4, N), "C": (M, N)},
                      _gemm),
    "gemver": Reference(("N",), ("N", "N"),
                        lambda N: {"A": (N, N), "u1": (N,), "v1": (N,), "u2": (N,),
                                   "v2": (N,), "B": (N, N)},
                        _gemver),
    "gesummv": Reference(("N",), ("N",),
                         lambda N: {"A": (2, N), "B": (2, N), "x": (N,), "y": (N,)},
                         _gesummv),
    "mvt": Reference(("N",), ("N",),
                     lambda N: {"A": (N, N), "y1": (N,), "x1": (N,)},
                     _mvt),
    "symm": Reference(("M", "N"), ("M", "N"),
                      lambda M, N: {"A": (M, 3), "B": (M, N), "C": (M, N)},
                      _symm),
    "syr2k": Reference(("N",), ("N", "N"),
                       lambda N: {"A": (N, 2), "B": (N, 2), "C": (N, N)},
                       _syr2k),
    "syrk": Reference(("N",), ("N", "N"),
                      lambda N: {"A": (N, 2), "C": (N, N)},
                      _syrk),
    "trmm": Reference(("M", "N"), ("M", "N"),
                      lambda M, N: {"A": (M, 3), "B": (M, N), "C": (M, N)},
                      _trmm),
}


def random_arrays(ref: Reference, params: dict[str, int],
                  rng: np.random.Generator) -> Arrays:
    """int32 arrays over the whole int32 range, so products wrap."""
    info = np.iinfo(np.int32)
    return {name: rng.integers(info.min, info.max, size=shape, dtype=np.int32,
                               endpoint=True)
            for name, shape in ref.shapes(**params).items()}
