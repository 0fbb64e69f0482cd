"""Host time that moves with the program's cost and not with the host's.

On a shared host the same work takes two to three times as long in one
phase as in another, and phases last from under a second to minutes.  Two
things slow it down.  The host can take the CPU away: other processes, or
the hypervisor, run in between.  The process's CPU time (``time.process_time``) leaves those gaps
out.  And the CPU can run slower while it is ours: other work shares its
caches, memory bus or core.  That shows in CPU time too, so the loop times a
fixed piece of work, the probe, between its calls.  The probe is the
benchmark's own code and never changes with the program.  Its Python half
walks small dicts and lists as the analysis and the placer do; its numpy
half gathers, multiplies and adds int32 arrays as the simulator does.  Its
data is small, and an untimed probe runs before the timed ones, so its time
does not depend on what the program's last call left in the caches.

A call's scaled time is its CPU time times ``NOMINAL_PROBE_S / probe``, where
``probe`` is the median CPU time of the probes just before and just after
the call.  It reads as the call's time on a host where the probe takes
``NOMINAL_PROBE_S``.  The host's speed changes within a second, which is
why only the adjacent probes are used.
"""

from __future__ import annotations

import time

import numpy as np

# A fixed constant: only the ratio of a probe time to it enters a scaled
# time.  It is about the probe's median time in a fast phase of a 2-vCPU
# host (Python 3.11, numpy 2.4), so that there scaled times read about as
# long as wall times.
NOMINAL_PROBE_S = 310e-6
# Probe time spent before a call, as a share of the previous call's time.
PROBE_SHARE = 0.05
MAX_PROBES_PER_CALL = 16

_rng = np.random.default_rng(0)
_SRC = _rng.integers(-2**31, 2**31 - 1, 1 << 15, dtype=np.int32, endpoint=True)
_IDX = _rng.integers(0, len(_SRC), len(_SRC)).astype(np.intp)
_KEYS = tuple(f"n{i}" for i in range(64))


def clocks() -> tuple[float, float]:
    """(wall, CPU) time of the process now, in seconds."""
    return time.perf_counter(), time.process_time()


def _probe_work() -> int:
    table: dict[str, list[int]] = {}
    for round_ in range(20):
        for i, key in enumerate(_KEYS):
            slot = table.setdefault(key, [])
            slot.append(i * round_)
            if len(slot) > 4:
                slot.pop(0)
    total = sum(sum(v) for v in table.values())
    with np.errstate(over="ignore"):
        for _ in range(4):
            gathered = _SRC[_IDX]
            total += int((gathered * gathered + _SRC)[::4096].sum())
    return total


class HostSpeed:
    """Groups of probe times, in the order they were taken."""

    def __init__(self) -> None:
        self.groups: list[list[float]] = []

    def sample(self, count: int = 1) -> int:
        """Time ``count`` probes; return the index of their group.

        An untimed probe runs first, so that the timed ones find their code
        and data in the caches whatever the program's call left there.
        """
        _probe_work()
        group = []
        for _ in range(count):
            c0 = time.process_time()
            _probe_work()
            group.append(time.process_time() - c0)
        self.groups.append(group)
        return len(self.groups) - 1

    def before_call(self, last_call_s: float) -> int:
        """Probe for a small share of the previous call's time, at least once."""
        count = round(PROBE_SHARE * last_call_s / NOMINAL_PROBE_S)
        return self.sample(min(max(count, 1), MAX_PROBES_PER_CALL))

    def scaled(self, cpu_s: float, before: int) -> float:
        """CPU time scaled by group ``before`` and the group after it, if any."""
        probes = self.groups[before] + (self.groups[before + 1]
                                        if before + 1 < len(self.groups) else [])
        return cpu_s * NOMINAL_PROBE_S / float(np.median(probes))

    def median_probe_s(self) -> float:
        probes = [p for group in self.groups for p in group]
        return float(np.median(probes)) if probes else 0.0
