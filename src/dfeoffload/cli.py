"""Command-line surface: analyze, place, run, bench, render.

Exit codes: 0 success (a rejection verdict is not an error), 1 bad input (a
parse error, an unreadable or unwritable file, a usage error, a bad option or
parameter value), 2 unroutable, 3 simulated/software output mismatch.  Bad
input is reported as one line on stderr, after the usage for a usage error.
"""

from __future__ import annotations

import argparse
import csv
import io
import math
import statistics
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import kernels as kl
from .dfg import dfg_to_dot, dfg_to_text
from .frontend import (EligibilityReport, IneligibleKernel, Thresholds,
                       check_eligibility, check_unroll, extract_dfg)
from .overlay import OverlayShape, config_to_dot, config_to_text, serialize_config
from .placer import PlacerCounters, PlacerParams, Unroutable, place_and_route
from .runtime import (CostModel, OffloadRuntime, analyze_kernel,
                      estimate_offload_time, trip_counts)
from .simulator import (FRAME_SIZE, build_streams, dump_frames, graph_io,
                        run_compiled, stream_length)

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
    try:
        return name.strip(), int(value)
    except ValueError:
        raise argparse.ArgumentTypeError("parameter must look like N=8") from None


class _Parser(argparse.ArgumentParser):
    """A usage error exits 1, as other bad input does: argparse's own code,
    2, is the unroutable exit."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_PARSE, f"{self.prog}: error: {message}\n")


class BadInput(Exception):
    """Input a command cannot use; ``main`` prints it as one line, exit 1."""


def _load_kernel(path: str) -> kl.Kernel:
    try:
        return kl.parse_kernel(Path(path).read_text())
    except (OSError, UnicodeDecodeError, kl.KernelSyntaxError) as exc:
        raise BadInput(f"parse error: {path}: {exc}") from None


def _check_unroll(unroll: int) -> None:
    try:
        check_unroll(unroll)
    except ValueError as exc:
        raise BadInput(f"cannot extract: {exc}") from None


def _param_values(kernel: kl.Kernel, pairs: list[tuple[str, int]],
                  default: int) -> dict[str, int]:
    values = {name: default for name in kernel.params}
    for name, value in pairs:
        if name not in values:
            raise BadInput(f"kernel {kernel.name} has no parameter {name!r}")
        values[name] = value
    return values


def _thresholds(args) -> Thresholds:
    """The node gates given; the runtime limits an unset ``max_nodes`` to
    its grid's cell count."""
    return Thresholds(min_nodes=args.min_nodes, max_nodes=args.max_nodes)


def _runtime(args, cost_model: CostModel | None = None) -> OffloadRuntime:
    """The runtime ``place`` maps through and ``run`` executes on."""
    _check_unroll(args.unroll)
    return OffloadRuntime(args.overlay, _thresholds(args),
                          PlacerParams(global_budget=args.budget), cost_model,
                          unroll=args.unroll, seed=args.seed)


def _rejected(report: EligibilityReport) -> int:
    """Report a rejection verdict, which is not an error."""
    print(f"kernel rejected: {report.table_label()} ({report.detail})",
          file=sys.stderr)
    return EXIT_OK


def cmd_analyze(args) -> int:
    kernels = [(Path(path).stem, _load_kernel(path)) for path in args.files]
    for name, kernel in kernels:
        t0 = time.perf_counter()
        report = check_eligibility(kernel, _thresholds(args))
        elapsed_us = (time.perf_counter() - t0) * 1e6
        s = report.dfg_stats
        counts = f"{s.inputs}/{s.outputs}/{s.calc_nodes}" if s else "-"
        print(f"{name:<12} {report.table_label():<18} {counts:<10} {elapsed_us:8.0f}")
    return EXIT_OK


def _unroutable(message: str, c: PlacerCounters) -> int:
    """Report a failed search on stderr, with its counters; the exit code."""
    print(f"unroutable: {message} (attempts={c.position_attempts} "
          f"restarts={c.node_restarts} backtracks={c.backtracks} runs={c.runs})",
          file=sys.stderr)
    return EXIT_UNROUTABLE


def cmd_place(args) -> int:
    kernel = _load_kernel(args.file)
    rt = _runtime(args)
    analysis = rt.analyze(kernel)
    if isinstance(analysis, EligibilityReport):
        return _rejected(analysis)
    try:
        entry = rt.map(analysis)
    except Unroutable as exc:
        return _unroutable(str(exc), exc.counters)
    placement = entry.placement
    config = placement.apply()
    out = Path(args.output or (Path(args.file).stem + ".dfecfg"))
    out.write_bytes(serialize_config(config))
    sidecar = out.with_suffix(out.suffix + ".map.txt")
    lines = [f"seed {placement.rng_seed} rng {placement.rng_algorithm}"]
    c = placement.counters
    lines.append(f"attempts {c.position_attempts} restarts {c.node_restarts} "
                 f"backtracks {c.backtracks} runs {c.runs}")
    for nid, cell in sorted(placement.node_cells.items()):
        lines.append(f"node {nid} -> cell {cell[0]},{cell[1]}")
    sidecar.write_text("\n".join(lines) + "\n")
    if args.dot:
        Path(args.dot).write_text(config_to_dot(config))
    print(f"wrote {out} ({out.stat().st_size} bytes); "
          f"attempts={c.position_attempts} restarts={c.node_restarts} "
          f"backtracks={c.backtracks} runs={c.runs}")
    if args.format == "text":
        print(config_to_text(config), end="")
    return EXIT_OK


def cmd_run(args) -> int:
    try:
        model = CostModel.from_file(args.cost_model) if args.cost_model else CostModel()
    except (OSError, KeyError, ValueError) as exc:
        reason = exc.args[0] if isinstance(exc, KeyError) else exc
        raise BadInput(f"run: --cost-model {args.cost_model}: {reason}") from None
    kernel = _load_kernel(args.file)
    # offload is forced: no estimate reaches this software baseline
    rt = _runtime(args, replace(model, software_time_per_call=sys.float_info.max))
    values = _param_values(kernel, args.params, args.size)
    arrays = kl.allocate_arrays(kernel, values, np.random.default_rng(args.data_seed))
    result, trace = rt.execute(kernel, arrays, values)

    # a call that fell back to software ends on a "software" event, and the
    # event before it says why
    *_, cause, last = trace
    base = Path(args.file).stem
    if last.phase == "software":
        if cause.phase == "place_route":
            return _unroutable(*cause.args[1:])
        if cause.phase == "analysis":
            reason = cause.args[0]
        elif last.args:  # offload was decided, and the gather refused an access
            reason = f"access out of range ({last.args[0]})"
        else:  # the estimate overflowed: a cost model with a vanishing wire rate
            reason = f"offload estimate {cause.args[0]:.3e} s"
        print(f"{base}: {reason}; software path")
        print("PASS (software)")
        return EXIT_OK

    software = kl.evaluate_kernel(kernel, arrays, values)
    if args.format == "frames":
        # the trace holds no streams: run the mapped program once more over
        # the gathered streams
        analysis = rt.analyze(kernel)
        entry = rt.cache.get(analysis.key)
        streams = build_streams(entry.io, arrays, trip_counts(analysis.loops, values))
        Path(f"{base}.in.frames").write_bytes(dump_frames(streams))
        Path(f"{base}.out.frames").write_bytes(
            dump_frames(run_compiled(entry.program, streams).outputs))
        print(f"dumped {base}.in.frames / {base}.out.frames")

    events = {event.phase: event.args for event in trace}
    (frames_in, _), (frames_out, _) = events["transfer_in"], events["transfer_out"]
    print(f"frames_in={frames_in} frames_out={frames_out} "
          f"bytes_on_wire={FRAME_SIZE * (frames_in + frames_out)} "
          f"cycles={events['compute'][0]} est_offload={events['decision'][0]:.3e}s")
    for name in sorted(software):
        if not np.array_equal(result[name], software[name]):
            print(f"FAIL: array {name} differs from software evaluation")
            return EXIT_MISMATCH
    print("PASS")
    return EXIT_OK


def cmd_bench(args) -> int:
    _check_unroll(args.unroll)
    if args.seeds < 1:
        raise BadInput("bench: --seeds must be >= 1")
    try:
        shapes = [_parse_overlay(text) for text in args.sizes.split(",")]
    except argparse.ArgumentTypeError as exc:
        raise BadInput(f"bench: --sizes: {exc}") from None
    kernels = [(Path(path).stem, _load_kernel(path)) for path in args.files]
    # every accepted kernel's --param names and array extents are checked
    # before any sweep
    accepted = []
    for name, kernel in kernels:
        analysis = analyze_kernel(kernel, args.unroll, Thresholds(min_nodes=args.min_nodes))
        if isinstance(analysis, EligibilityReport):
            continue
        values = _param_values(kernel, args.params, args.size)
        kl.array_shapes(kernel, values)  # refuses a negative extent, as `run` does
        trips = trip_counts(analysis.loops, values)
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
    kernel = _load_kernel(args.file)
    _check_unroll(args.unroll)
    try:
        dfg = extract_dfg(kernel, args.unroll)
    except IneligibleKernel as exc:
        return _rejected(exc.report())
    text = dfg_to_dot(dfg, kernel.name) if args.format == "dot" else dfg_to_text(dfg)
    if args.output:
        Path(args.output).write_text(text)
    else:
        print(text, end="")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="dfeoffload",
        description="Analyze, map, and simulate loop kernels on a dataflow overlay.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, overlay=False):
        p.add_argument("--min-nodes", type=int, default=Thresholds().min_nodes,
                       help="smallest offloadable graph (calc nodes)")
        p.add_argument("--max-nodes", type=int, default=None)
        if overlay:
            p.add_argument("--unroll", type=int, default=1)
            p.add_argument("--overlay", type=_parse_overlay, default=OverlayShape(6, 6),
                           help="grid size, e.g. 4x4")
            p.add_argument("--seed", type=int, default=0)
            p.add_argument("--budget", type=int, default=PlacerParams().global_budget,
                           help="place&route position-attempt budget")

    p = sub.add_parser("analyze", help="classify kernels for offload eligibility")
    p.add_argument("files", nargs="+")
    add_common(p)
    p.set_defaults(func=cmd_analyze)

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
    try:
        return args.func(args)
    except BadInput as exc:
        print(exc, file=sys.stderr)
    except (OSError, kl.EvalError) as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
    return EXIT_PARSE
