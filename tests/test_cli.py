import csv

from dfeoffload import cli, corpus
from dfeoffload.frontend import extract_dfg
from dfeoffload.dfg import dfg_stats
from dfeoffload.runtime import CostModel, estimate_offload_time


def test_bench_estimates_the_stream_length_the_runtime_sends(tmp_path):
    # At M=N=17 and unroll 2 the runtime streams 17 rows of 8 lane blocks,
    # 136 positions, and leaves one iteration per row to the epilogue.
    out = tmp_path / "bench.csv"
    rc = cli.main(["bench", str(corpus.kernel_path("scaleadd")), "--sizes", "4x4",
                   "--seeds", "1", "--budget", "200", "--unroll", "2",
                   "--param", "M=17", "--param", "N=17", "-o", str(out)])
    assert rc == cli.EXIT_OK
    (row,) = csv.DictReader(out.read_text().splitlines())
    stats = dfg_stats(extract_dfg(corpus.load("scaleadd"), 2))

    def estimate(positions):
        return f"{estimate_offload_time(stats, positions, CostModel(), cached=True):.6e}"

    assert row["est_transfer_s"] == estimate(136) != estimate(144)
