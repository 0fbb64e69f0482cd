"""Command-line surface: analyze, place, run, bench, render.

Exit codes: 0 success (a rejection verdict is not an error), 1 parse error,
2 unroutable, 3 simulated/software output mismatch.
"""

from __future__ import annotations

import argparse
import csv
import io
import math
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from . import kernels as kl
from .dfg import dfg_to_dot, dfg_to_text
from .frontend import (EligibilityReport, IneligibleKernel, Thresholds,
                       check_eligibility, check_unroll, extract_dfg)
from .overlay import OverlayShape, config_to_dot, config_to_text, serialize_config
from .placer import PlacerParams, Unroutable, place_and_route
from .runtime import (CostModel, OffloadRuntime, analyze_kernel,
                      estimate_offload_time, run_offloaded, trip_counts)
from .simulator import (OutOfBounds, build_streams, dump_frames, graph_io,
                        stream_length)

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_UNROUTABLE = 2
EXIT_MISMATCH = 3

# `bench` columns; the attempts columns are over the placer seeds of a row
BENCH_FIELDS = ["kernel", "rows", "cols", "seeds", "successes", "success_rate",
                "mean_attempts", "mean_backtracks", "est_transfer_s",
                "median_attempts", "p90_attempts", "max_attempts"]


def _parse_overlay(text: str) -> OverlayShape:
    try:
        rows, cols = text.lower().split("x")
        return OverlayShape(int(rows), int(cols))
    except (ValueError, TypeError) as exc:
        raise argparse.ArgumentTypeError(f"overlay must look like 4x4: {exc}")


def _parse_param(text: str) -> tuple[str, int]:
    name, _, value = text.partition("=")
    if not value:
        raise argparse.ArgumentTypeError("parameter must look like N=8")
    return name.strip(), int(value)


def _load_kernel(path: str) -> kl.Kernel:
    return kl.parse_kernel(Path(path).read_text())


def _param_values(kernel: kl.Kernel, pairs: list[tuple[str, int]],
                  default: int) -> dict[str, int]:
    values = {name: default for name in kernel.params}
    for name, value in pairs:
        if name not in values:
            raise SystemExit(f"kernel {kernel.name} has no parameter {name!r}")
        values[name] = value
    return values


def _thresholds(args) -> Thresholds:
    max_nodes = args.max_nodes
    if max_nodes is None and getattr(args, "overlay", None) is not None:
        max_nodes = args.overlay.rows * args.overlay.cols
    return Thresholds(min_nodes=args.min_nodes, max_nodes=max_nodes)


def _runtime(args) -> OffloadRuntime:
    """The runtime ``place`` and ``run`` analyze and map through."""
    return OffloadRuntime(args.overlay, _thresholds(args),
                          PlacerParams(global_budget=args.budget),
                          unroll=args.unroll, seed=args.seed)


def _cannot_extract(exc: ValueError) -> int:
    """Report a kernel that cannot be extracted as asked: exit 1."""
    print(f"cannot extract: {exc}", file=sys.stderr)
    return EXIT_PARSE


def _rejected(report: EligibilityReport) -> int:
    """Report a rejection verdict, which is not an error."""
    print(f"kernel rejected: {report.table_label()} ({report.detail})",
          file=sys.stderr)
    return EXIT_OK


def cmd_analyze(args) -> int:
    rc = EXIT_OK
    for path in args.files:
        name = Path(path).stem
        try:
            kernel = _load_kernel(path)
        except kl.KernelSyntaxError as exc:
            print(f"{name:<12} parse error: {exc}", file=sys.stderr)
            rc = EXIT_PARSE
            continue
        t0 = time.perf_counter()
        report = check_eligibility(kernel, _thresholds(args))
        elapsed_us = (time.perf_counter() - t0) * 1e6
        s = report.dfg_stats
        counts = f"{s.inputs}/{s.outputs}/{s.calc_nodes}" if s else "-"
        print(f"{name:<12} {report.table_label():<18} {counts:<10} {elapsed_us:8.0f}")
    return rc


def cmd_place(args) -> int:
    try:
        kernel = _load_kernel(args.file)
    except kl.KernelSyntaxError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    try:
        rt = _runtime(args)
    except ValueError as exc:
        return _cannot_extract(exc)
    analysis = rt.analyze(kernel)
    if isinstance(analysis, EligibilityReport):
        return _rejected(analysis)
    try:
        entry = rt.map(analysis)
    except Unroutable as exc:
        c = exc.counters
        print(f"unroutable: {exc} (attempts={c.position_attempts} "
              f"restarts={c.node_restarts} backtracks={c.backtracks})",
              file=sys.stderr)
        return EXIT_UNROUTABLE
    placement = entry.placement
    config = placement.apply()
    out = Path(args.output or (Path(args.file).stem + ".dfecfg"))
    out.write_bytes(serialize_config(config))
    sidecar = out.with_suffix(out.suffix + ".map.txt")
    lines = [f"seed {placement.rng_seed} rng {placement.rng_algorithm}"]
    c = placement.counters
    lines.append(f"attempts {c.position_attempts} restarts {c.node_restarts} "
                 f"backtracks {c.backtracks}")
    for nid, cell in sorted(placement.node_cells.items()):
        lines.append(f"node {nid} -> cell {cell[0]},{cell[1]}")
    sidecar.write_text("\n".join(lines) + "\n")
    if args.dot:
        Path(args.dot).write_text(config_to_dot(config))
    print(f"wrote {out} ({out.stat().st_size} bytes); "
          f"attempts={c.position_attempts} restarts={c.node_restarts} "
          f"backtracks={c.backtracks}")
    if args.format == "text":
        print(config_to_text(config), end="")
    return EXIT_OK


def cmd_run(args) -> int:
    try:
        model = CostModel.from_file(args.cost_model) if args.cost_model else CostModel()
    except (OSError, KeyError, ValueError) as exc:
        reason = exc.args[0] if isinstance(exc, KeyError) else exc
        print(f"run: --cost-model {args.cost_model}: {reason}", file=sys.stderr)
        return EXIT_PARSE
    try:
        kernel = _load_kernel(args.file)
    except kl.KernelSyntaxError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    try:
        rt = _runtime(args)
    except ValueError as exc:
        return _cannot_extract(exc)
    values = _param_values(kernel, args.params, args.size)
    rng = np.random.default_rng(args.data_seed)
    arrays = kl.allocate_arrays(kernel, values, rng)
    software = kl.evaluate_kernel(kernel, arrays, values)

    analysis = rt.analyze(kernel)
    if isinstance(analysis, EligibilityReport):
        print(f"{Path(args.file).stem}: {analysis.table_label()}; software path")
        print("PASS (software)")
        return EXIT_OK
    try:
        entry = rt.map(analysis)
    except Unroutable as exc:
        print(f"unroutable: {exc}", file=sys.stderr)
        return EXIT_UNROUTABLE

    trips = trip_counts(analysis.loops, values)
    try:
        result, run_report = run_offloaded(entry, analysis, arrays, trips)
    except OutOfBounds as exc:
        # OffloadRuntime.execute falls back to software here too: software
        # reads only what it evaluates, and its result is computed above
        print(f"{Path(args.file).stem}: access out of range ({exc}); software path")
        print("PASS (software)")
        return EXIT_OK
    if args.format == "frames":
        base = Path(args.file).stem
        streams = build_streams(entry.io, arrays, trips)
        Path(f"{base}.in.frames").write_bytes(dump_frames(streams))
        Path(f"{base}.out.frames").write_bytes(dump_frames(run_report.outputs))
        print(f"dumped {base}.in.frames / {base}.out.frames")

    n_iter = stream_length(entry.io, trips)
    est = estimate_offload_time(analysis.stats, n_iter, model, cached=False)
    print(f"frames_in={run_report.frames_in} frames_out={run_report.frames_out} "
          f"bytes_on_wire={run_report.bytes_on_wire} cycles={run_report.cycles} "
          f"est_offload={est:.3e}s")
    for name in sorted(software):
        if not np.array_equal(result[name], software[name]):
            print(f"FAIL: array {name} differs from software evaluation")
            return EXIT_MISMATCH
    print("PASS")
    return EXIT_OK


def cmd_bench(args) -> int:
    try:
        check_unroll(args.unroll)
    except ValueError as exc:
        return _cannot_extract(exc)
    if args.seeds < 1:
        print("bench: --seeds must be >= 1", file=sys.stderr)
        return EXIT_PARSE
    try:
        shapes = [_parse_overlay(text) for text in args.sizes.split(",")]
    except argparse.ArgumentTypeError as exc:
        print(f"bench: --sizes: {exc}", file=sys.stderr)
        return EXIT_PARSE
    kernels = []
    for path in args.files:
        try:
            kernels.append((Path(path).stem, _load_kernel(path)))
        except kl.KernelSyntaxError as exc:
            print(f"parse error: {path}: {exc}", file=sys.stderr)
            return EXIT_PARSE
    # every accepted kernel's --param names are checked before any sweep
    accepted = []
    for name, kernel in kernels:
        analysis = analyze_kernel(kernel, args.unroll, Thresholds(min_nodes=args.min_nodes))
        if isinstance(analysis, EligibilityReport):
            continue
        trips = trip_counts(analysis.loops, _param_values(kernel, args.params, args.size))
        accepted.append((name, analysis, trips))
    rows = []
    for name, analysis, trips in accepted:
        n_iter = stream_length(graph_io(analysis.dfg), trips)
        est = estimate_offload_time(analysis.stats, n_iter, CostModel(), cached=True)
        for shape in shapes:
            successes = 0
            attempts = []
            backtracks = []
            for seed in range(args.seeds):
                try:
                    p = place_and_route(analysis.dfg, shape,
                                        PlacerParams(global_budget=args.budget),
                                        seed)
                    successes += 1
                    attempts.append(p.counters.position_attempts)
                    backtracks.append(p.counters.backtracks)
                except Unroutable as exc:
                    attempts.append(exc.counters.position_attempts)
                    backtracks.append(exc.counters.backtracks)
            ranked = sorted(attempts)
            rows.append({
                "kernel": name,
                "rows": shape.rows,
                "cols": shape.cols,
                "seeds": args.seeds,
                "successes": successes,
                "success_rate": f"{successes / args.seeds:.3f}",
                "mean_attempts": f"{sum(attempts) / len(attempts):.1f}",
                "mean_backtracks": f"{sum(backtracks) / len(backtracks):.1f}",
                "est_transfer_s": f"{est:.6e}",
                "median_attempts": f"{statistics.median(ranked):.1f}",
                "p90_attempts": ranked[math.ceil(0.9 * len(ranked)) - 1],  # nearest rank
                "max_attempts": ranked[-1],
            })
    rows.sort(key=lambda r: (r["kernel"], r["rows"] * r["cols"], r["rows"]))
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=BENCH_FIELDS)
    writer.writeheader()
    writer.writerows(rows)
    text = buf.getvalue()
    if args.output:
        Path(args.output).write_text(text)
    else:
        print(text, end="")
    return EXIT_OK


def cmd_render(args) -> int:
    try:
        kernel = _load_kernel(args.file)
    except kl.KernelSyntaxError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    try:
        dfg = extract_dfg(kernel, args.unroll)
    except IneligibleKernel as exc:
        return _rejected(exc.report())
    except ValueError as exc:
        return _cannot_extract(exc)
    text = dfg_to_dot(dfg, kernel.name) if args.format == "dot" else dfg_to_text(dfg)
    if args.output:
        Path(args.output).write_text(text)
    else:
        print(text, end="")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dfeoffload",
        description="Analyze, map, and simulate loop kernels on a dataflow overlay.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, overlay=False):
        p.add_argument("--min-nodes", type=int, default=8,
                       help="smallest offloadable graph (calc nodes)")
        p.add_argument("--max-nodes", type=int, default=None)
        if overlay:
            p.add_argument("--unroll", type=int, default=1)
            p.add_argument("--overlay", type=_parse_overlay, default=OverlayShape(6, 6),
                           help="grid size, e.g. 4x4")
            p.add_argument("--seed", type=int, default=0)
            p.add_argument("--budget", type=int, default=100_000,
                           help="place&route position-attempt budget")

    p = sub.add_parser("analyze", help="classify kernels for offload eligibility")
    p.add_argument("files", nargs="+")
    add_common(p)
    p.set_defaults(func=cmd_analyze, overlay=None)

    p = sub.add_parser("place", help="map a kernel onto the overlay and save the config")
    p.add_argument("file")
    add_common(p, overlay=True)
    p.add_argument("-o", "--output", help="config file path (.dfecfg)")
    p.add_argument("--dot", help="also write a DOT rendering here")
    p.add_argument("--format", choices=["none", "text"], default="none",
                   help="extra dump of the config to stdout")
    p.set_defaults(func=cmd_place)

    p = sub.add_parser("run", help="simulate a kernel and check against software")
    p.add_argument("file")
    add_common(p, overlay=True)
    p.add_argument("--param", dest="params", type=_parse_param, action="append",
                   default=[], help="kernel parameter, e.g. --param M=8")
    p.add_argument("--size", type=int, default=8,
                   help="default value for unset parameters")
    p.add_argument("--data-seed", type=int, default=1)
    p.add_argument("--format", choices=["text", "frames"], default="text",
                   help="frames: dump the tagged wire streams")
    p.add_argument("--cost-model", help="key=value file overriding timing constants")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("bench", help="sweep grid sizes and seeds, emit CSV")
    p.add_argument("files", nargs="+")
    p.add_argument("--sizes", default="2x2,3x3,4x4,5x5,6x6,7x7,8x8,9x9")
    p.add_argument("--seeds", type=int, default=20)
    p.add_argument("--budget", type=int, default=2000)
    p.add_argument("--min-nodes", type=int, default=1)
    p.add_argument("--unroll", type=int, default=1)
    p.add_argument("--param", dest="params", type=_parse_param, action="append",
                   default=[])
    p.add_argument("--size", type=int, default=8)
    p.add_argument("-o", "--output", help="CSV path (default stdout)")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("render", help="dump a kernel's data flow graph")
    p.add_argument("file")
    p.add_argument("--unroll", type=int, default=1)
    p.add_argument("--format", choices=["text", "dot"], default="dot")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_render)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
