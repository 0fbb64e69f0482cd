"""Benchmark command for live offload; see README.md.

    python3 offloadbench/run.py --workload warm-small --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout: the program is imported from
``src/`` there, never from an installed copy.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics of a traced run with ``--trace 1``.  The full record of the run,
with machine information, goes to ``offloadbench/out/``.
"""

import time

_START = time.perf_counter()  # set-up time counts from here
_START_CPU = time.process_time()

import argparse
import json
import os
import platform
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"


def _import_program():
    """Import the package from the checkout's ``src/``; exit if it is absent."""
    if not (SRC / "dfeoffload" / "__init__.py").is_file():
        sys.exit(f"error: no program source at {SRC / 'dfeoffload'}; "
                 "run from the root of a source checkout")
    sys.path.insert(0, str(SRC))
    import dfeoffload
    if Path(dfeoffload.__file__).resolve().parent != SRC / "dfeoffload":
        sys.exit(f"error: imported dfeoffload from {dfeoffload.__file__}, "
                 f"not from {SRC}")
    return dfeoffload


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("warm-small", "stream-large", "cold-map"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    dfeoffload = _import_program()
    import numpy as np

    import hostspeed
    import tracer as tracing
    import workloads
    imported, imported_cpu = hostspeed.clocks()
    import_s = imported - _START
    # Imports read files and unmarshal code; slow phases slow them far less
    # than the probe, so their CPU time enters set-up time unscaled.
    import_cpu_s = imported_cpu - _START_CPU

    result = workloads.run(args.workload, args.seed, args.seconds,
                           trace=bool(args.trace))
    m = result.measurement
    end_to_end = m.end_to_end()
    end_to_end["setup_s"] = (import_cpu_s + statistics.median(result.scaled_setup_s), "s")
    wall = m.end_to_end(wall=True)
    wall["setup_s"] = (import_s + statistics.median(result.setup_s), "s")
    if args.trace:
        metrics = tracing.layer_metrics(result.tracer, m.attempted, m.offloaded,
                                        len(result.setup_s))
    else:
        metrics = end_to_end
    line = {
        "correct": m.wrong == 0,
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = dict(line)
    record.update({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "end_to_end": {k: v[0] for k, v in end_to_end.items()},
        "wall_end_to_end": {k: v[0] for k, v in wall.items()},
        "median_probe_s": m.probe_s,
        "nominal_probe_s": hostspeed.NOMINAL_PROBE_S,
        "import_s": import_s, "setup_repeats_s": result.setup_s,
        "import_cpu_s": import_cpu_s, "scaled_setup_repeats_s": result.scaled_setup_s,
        "rounds": m.rounds, "loop_s": m.loop_s, "offloaded": m.offloaded, "errors": m.errors,
        "machine": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "nproc": os.cpu_count(),
            "engine_backend": dfeoffload.engine.default_backend(),
            "platform": platform.platform(),
        },
    })
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if result.tracer is not None:
        result.tracer.write_spans(OUT / f"{stem}.spans.jsonl")
    for error in m.errors:
        print(f"failed: {error}", file=sys.stderr)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
