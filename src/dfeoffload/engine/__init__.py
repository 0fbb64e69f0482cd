"""Stream-execution backends for configured overlays.

Two interchangeable inner loops execute lowered instruction programs over
int32 value streams: ``_core`` (Cython, built at install time) and ``pure``
(numpy).  The compiled one is picked automatically when present; set
``DFEOFFLOAD_ENGINE=pure`` or ``=compiled`` to force a choice.
Both produce bit-identical results.  The benchmark under ``offloadbench/``
reports the engine's throughput (``engine.ops_per_s``) in a traced run.
"""

from __future__ import annotations

import os

from . import pure

_RUNNERS = {"pure": pure.run_program}

try:
    from . import _core  # type: ignore[attr-defined]

    _RUNNERS["compiled"] = _core.run_program
except ImportError:
    _core = None


def available_backends() -> list[str]:
    return sorted(_RUNNERS)


def default_backend() -> str:
    forced = os.environ.get("DFEOFFLOAD_ENGINE")
    if forced:
        if forced not in _RUNNERS:
            raise KeyError(f"engine backend {forced!r} not available; "
                           f"have {available_backends()}")
        return forced
    return "compiled" if "compiled" in _RUNNERS else "pure"


def get_runner(name: str | None = None):
    """The instruction-loop callable for a backend (default: best available)."""
    return _RUNNERS[name or default_backend()]
