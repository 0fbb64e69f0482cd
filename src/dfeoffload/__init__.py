"""dfeoffload: transparent offload of integer loop kernels onto a simulated
FPGA dataflow overlay.

Pipeline: parse a kernel (`kernels`), check eligibility and extract its data
flow graph (`frontend`), map it onto a parametric cell grid with a stochastic
place & route (`placer`), execute it on the token-based overlay simulator
(`simulator`, backed by the stream `engine`), and let the runtime decide
offload vs software with measured-cost rollback (`runtime`).
"""

from .dfg import (AffineExpr, DataFlowGraph, DfgStats, IoBinding, Node,
                  NodeKind, OpCode, Remainder, dfg_from_text, dfg_hash,
                  dfg_stats, dfg_to_dot, dfg_to_text, interpret_dfg,
                  validate_dfg, wrap32)
from .frontend import (EligibilityReport, IneligibleKernel, Reason, Thresholds,
                       Verdict, check_eligibility, extract_dfg)
from .kernels import (Kernel, KernelSyntaxError, UnknownIdentifier,
                      allocate_arrays, evaluate_kernel, format_kernel,
                      parse_kernel)
from .overlay import (CellConfig, Direction, OverlayConfig, OverlayShape, Pin,
                      config_to_dot, config_to_text, deserialize_config,
                      new_overlay, serialize_config, trace_port,
                      validate_config)
from .placer import (Placement, PlacerCounters, PlacerParams,
                     PreconditionViolated, Unroutable, place_and_route)
from .runtime import (CacheEntry, ConfigCache, CostModel, Mode, OffloadRuntime,
                      OffloadState, TraceEvent, decide, estimate_offload_time,
                      record)
from .simulator import (RunReport, build_streams, compile_config, dump_frames,
                        graph_io, load_frames, run_compiled, stream_views,
                        write_back)

__version__ = "0.1.0"
