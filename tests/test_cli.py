import csv

import numpy as np
import pytest

from dfeoffload import cli, corpus, frontend, placer, runtime
from dfeoffload.frontend import extract_dfg
from dfeoffload.dfg import dfg_stats
from dfeoffload.kernels import allocate_arrays
from dfeoffload.overlay import OverlayShape, serialize_config
from dfeoffload.runtime import CostModel, estimate_offload_time
from dfeoffload.simulator import build_streams, graph_io, load_frames


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


def _run(monkeypatch, tmp_path, capsys, *argv):
    """``dfeoffload run`` in ``tmp_path``: exit code and captured output."""
    monkeypatch.chdir(tmp_path)
    rc = cli.main(["run", *argv])
    return rc, capsys.readouterr()


def test_run_offloads_gemm_and_passes(monkeypatch, tmp_path, capsys):
    calls = {"place_and_route": 0, "compile_config": 0}
    for name in calls:
        original = getattr(runtime, name)

        def counted(*args, name=name, original=original, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(runtime, name, counted)
    rc, out = _run(monkeypatch, tmp_path, capsys,
                   str(corpus.kernel_path("gemm")), "--seed", "3")
    assert rc == cli.EXIT_OK
    assert out.out.splitlines() == [
        "frames_in=576 frames_out=64 bytes_on_wire=10240 cycles=93 "
        "est_offload=2.200e-03s", "PASS"]
    assert calls == {"place_and_route": 1, "compile_config": 1}


def test_run_sends_a_small_kernel_to_software(monkeypatch, tmp_path, capsys):
    rc, out = _run(monkeypatch, tmp_path, capsys, str(corpus.kernel_path("scaleadd")))
    assert rc == cli.EXIT_OK
    assert out.out.splitlines()[-1] == "PASS (software)"


def test_run_exits_2_when_the_graph_does_not_fit(monkeypatch, tmp_path, capsys):
    rc, out = _run(monkeypatch, tmp_path, capsys, str(corpus.kernel_path("gemm")),
                   "--unroll", "3", "--param", "N=7")
    assert rc == cli.EXIT_UNROUTABLE
    assert "unroutable" in out.err


def test_run_exits_1_on_a_parse_error(monkeypatch, tmp_path, capsys):
    bad = tmp_path / "bad.k"
    bad.write_text("kernel bad(N)\nfor i in 0..N {\n")
    rc, out = _run(monkeypatch, tmp_path, capsys, str(bad))
    assert rc == cli.EXIT_PARSE
    assert "parse error" in out.err


def test_run_exits_3_when_the_overlay_result_differs(monkeypatch, tmp_path, capsys):
    original = runtime.write_back

    def corrupt(*args, **kwargs):
        arrays = original(*args, **kwargs)
        arrays["C"][0, 0] += 1
        return arrays

    monkeypatch.setattr(runtime, "write_back", corrupt)
    rc, out = _run(monkeypatch, tmp_path, capsys,
                   str(corpus.kernel_path("gemm")), "--seed", "3")
    assert rc == cli.EXIT_MISMATCH
    assert out.out.splitlines()[-1] == "FAIL: array C differs from software evaluation"


# Software reads A[i][j+1] only when A[i][j] > A[i][j], which never holds;
# the overlay and the epilogue stream both arms of the branch.
GUARDED_READ = """\
kernel guard(M, N)
arrays: A[MxN]:int32, C[MxN]:int32
for i in 0..M { for j in 0..N {
  if (A[i][j] > A[i][j]) { C[i][j] = A[i][j+1] + 1; } else { C[i][j] = A[i][j] - 1; }
} }
"""


@pytest.mark.parametrize("unroll,index_range", [(1, "[1,5]"), (2, "[5,5]")])
def test_run_falls_back_to_software_on_a_read_out_of_range(monkeypatch, tmp_path, capsys,
                                                           unroll, index_range):
    # at unroll 2 and N=5 only the epilogue's column j=4 reads past A
    path = tmp_path / "guard.k"
    path.write_text(GUARDED_READ)
    rc, out = _run(monkeypatch, tmp_path, capsys, str(path), "--min-nodes", "0",
                   "--unroll", str(unroll), "--param", "N=5", "--format", "frames")
    assert rc == cli.EXIT_OK
    assert out.out.splitlines() == [
        f"guard: access out of range (A dim 1: index range {index_range} outside "
        "extent 5); software path", "PASS (software)"]
    assert list(tmp_path.iterdir()) == [path]


def test_run_dumps_the_streams_it_sends(monkeypatch, tmp_path, capsys):
    rc, _ = _run(monkeypatch, tmp_path, capsys, str(corpus.kernel_path("gemm")),
                 "--seed", "3", "--format", "frames")
    assert rc == cli.EXIT_OK
    kernel = corpus.load("gemm")
    params = {"M": 8, "N": 8}
    arrays = allocate_arrays(kernel, params, np.random.default_rng(1))
    trips = runtime.trip_counts(kernel.canonical_nest()[0], params)
    want = build_streams(graph_io(extract_dfg(kernel, 1)), arrays, trips)
    got = load_frames((tmp_path / "gemm.in.frames").read_bytes())
    assert sorted(got) == sorted(want)
    for tag, stream in want.items():
        assert np.array_equal(got[tag], stream), tag


def _place(monkeypatch, tmp_path, capsys, *argv):
    """``dfeoffload place`` in ``tmp_path``: exit code and captured output."""
    monkeypatch.chdir(tmp_path)
    rc = cli.main(["place", *argv])
    return rc, capsys.readouterr()


def test_place_maps_gemm_through_the_runtime(monkeypatch, tmp_path, capsys):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return placer.place_and_route(*args, **kwargs)

    monkeypatch.setattr(runtime, "place_and_route", counted)
    rc, out = _place(monkeypatch, tmp_path, capsys,
                     str(corpus.kernel_path("gemm")), "--seed", "3")
    assert rc == cli.EXIT_OK
    want = placer.place_and_route(extract_dfg(corpus.load("gemm")), OverlayShape(6, 6),
                                  placer.PlacerParams(), 3)
    assert (tmp_path / "gemm.dfecfg").read_bytes() == serialize_config(want.apply())
    assert len(calls) == 1
    assert out.out.startswith("wrote gemm.dfecfg (574 bytes)")


def test_place_rejects_a_small_kernel_with_exit_0(monkeypatch, tmp_path, capsys):
    rc, out = _place(monkeypatch, tmp_path, capsys, str(corpus.kernel_path("scaleadd")))
    assert rc == cli.EXIT_OK
    assert out.err == "kernel rejected: No, too small (3 calc nodes < 8)\n"
    assert list(tmp_path.iterdir()) == []


def test_place_exits_1_on_a_parse_error(monkeypatch, tmp_path, capsys):
    bad = tmp_path / "bad.k"
    bad.write_text("kernel bad(N)\nfor i in 0..N {\n")
    rc, out = _place(monkeypatch, tmp_path, capsys, str(bad))
    assert rc == cli.EXIT_PARSE
    assert "parse error" in out.err


def test_place_exits_2_when_the_search_fails(monkeypatch, tmp_path, capsys):
    rc, out = _place(monkeypatch, tmp_path, capsys, str(corpus.kernel_path("3mm")),
                     "--overlay", "4x4", "--budget", "2000")
    assert rc == cli.EXIT_UNROUTABLE
    assert out.err.startswith("unroutable: global budget exhausted (attempts=2000 ")


def test_place_applies_the_node_limit_when_unrolled(monkeypatch, tmp_path, capsys):
    # gemm has 10 op nodes per lane: 20 at unroll 2 exceed a 4x4 grid
    rc, out = _place(monkeypatch, tmp_path, capsys, str(corpus.kernel_path("gemm")),
                     "--unroll", "2", "--overlay", "4x4")
    assert rc == cli.EXIT_UNROUTABLE
    assert out.err == ("unroutable: 20 op nodes exceed 16 cells "
                       "(attempts=0 restarts=0 backtracks=0)\n")


def test_run_applies_the_node_limit_when_unrolled(monkeypatch, tmp_path, capsys):
    rc, out = _run(monkeypatch, tmp_path, capsys, str(corpus.kernel_path("gemm")),
                   "--unroll", "2", "--overlay", "4x4")
    assert rc == cli.EXIT_UNROUTABLE
    assert (out.out, out.err) == ("", "unroutable: 20 op nodes exceed 16 cells\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["place", "run", "bench"])
def test_an_unroll_factor_below_1_exits_1(monkeypatch, tmp_path, capsys, command):
    monkeypatch.chdir(tmp_path)
    rc = cli.main([command, str(corpus.kernel_path("gemm")), "--unroll", "0"])
    out = capsys.readouterr()
    assert rc == cli.EXIT_PARSE
    assert (out.out, out.err) == ("", "cannot extract: unroll factor must be >= 1\n")
    assert list(tmp_path.iterdir()) == []


def _refuse(*args, **kwargs):
    raise AssertionError("work started before the options were checked")


@pytest.mark.parametrize("text,reason", [
    (None, "[Errno 2] No such file or directory: 'model.cost'"),
    ("wire_speed = 1e6\n", "unknown cost-model key 'wire_speed'"),
    ("config_time = 0  # free\n", "cost model constants must be positive"),
    ("wire_rate = nan\n", "cost model constants must be finite"),
    ("config_time = inf\n", "cost model constants must be finite"),
], ids=["missing", "unknown-key", "non-positive", "nan", "infinite"])
def test_run_with_a_bad_cost_model_exits_1(monkeypatch, tmp_path, capsys, text, reason):
    if text is not None:
        (tmp_path / "model.cost").write_text(text)
    monkeypatch.setattr(cli, "_load_kernel", _refuse)
    rc, out = _run(monkeypatch, tmp_path, capsys, str(corpus.kernel_path("gemm")),
                   "--cost-model", "model.cost")
    assert rc == cli.EXIT_PARSE
    assert (out.out, out.err) == ("", f"run: --cost-model model.cost: {reason}\n")


def test_bench_with_a_bad_size_exits_1(monkeypatch, tmp_path, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "place_and_route", _refuse)
    rc = cli.main(["bench", str(corpus.kernel_path("gemm")), "--sizes", "4x4,bad",
                   "-o", "bench.csv"])
    out = capsys.readouterr()
    assert rc == cli.EXIT_PARSE
    assert (out.out, out.err) == ("", "bench: --sizes: overlay must look like 4x4: "
                                      "not enough values to unpack (expected 2, got 1)\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("seeds", ["0", "-1"])
def test_bench_with_fewer_than_one_seed_exits_1(monkeypatch, tmp_path, capsys, seeds):
    monkeypatch.chdir(tmp_path)
    rc = cli.main(["bench", str(corpus.kernel_path("gemm")), "--sizes", "4x4",
                   "--seeds", seeds, "-o", "bench.csv"])
    out = capsys.readouterr()
    assert rc == cli.EXIT_PARSE
    assert (out.out, out.err) == ("", "bench: --seeds must be >= 1\n")
    assert list(tmp_path.iterdir()) == []


def test_bench_parses_every_file_before_any_sweep(monkeypatch, tmp_path, capsys):
    bad = tmp_path / "bad.k"
    bad.write_text("kernel bad(N)\nfor i in 0..N {\n")
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "place_and_route", _refuse)
    rc = cli.main(["bench", str(corpus.kernel_path("gemm")), str(bad), "--sizes", "4x4",
                   "-o", "bench.csv"])
    out = capsys.readouterr()
    assert rc == cli.EXIT_PARSE
    assert out.out == ""
    assert out.err.startswith(f"parse error: {bad}: ")
    assert list(tmp_path.iterdir()) == [bad]


def test_bench_checks_every_kernels_parameters_before_any_sweep(monkeypatch, tmp_path):
    # gemm has a parameter M and atax has not, so the second kernel refuses
    # --param M=8 before the first one's sweep starts
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "place_and_route", _refuse)
    with pytest.raises(SystemExit) as info:
        cli.main(["bench", str(corpus.kernel_path("gemm")), str(corpus.kernel_path("atax")),
                  "--param", "M=8", "--sizes", "4x4", "--seeds", "3", "-o", "bench.csv"])
    assert info.value.code == "kernel atax has no parameter 'M'"
    assert list(tmp_path.iterdir()) == []


def test_analyze_takes_no_unroll_factor(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["analyze", str(corpus.kernel_path("gemm")), "--unroll", "2"])
    assert info.value.code == 2
    assert "unrecognized arguments: --unroll 2" in capsys.readouterr().err


def _render(monkeypatch, tmp_path, capsys, *argv):
    """``dfeoffload render`` in ``tmp_path``: exit code and captured output."""
    monkeypatch.chdir(tmp_path)
    rc = cli.main(["render", *argv])
    return rc, capsys.readouterr()


def test_render_reports_a_rejection_with_exit_0(monkeypatch, tmp_path, capsys):
    rc, out = _render(monkeypatch, tmp_path, capsys, str(corpus.kernel_path("lu")),
                      "-o", "lu.dot")
    assert rc == cli.EXIT_OK
    assert out.err == "kernel rejected: No, divisions (operator '/')\n"
    assert list(tmp_path.iterdir()) == []


def test_render_exits_1_on_a_parse_error(monkeypatch, tmp_path, capsys):
    bad = tmp_path / "bad.k"
    bad.write_text("kernel bad(N)\nfor i in 0..N {\n")
    rc, out = _render(monkeypatch, tmp_path, capsys, str(bad), "-o", "bad.dot")
    assert rc == cli.EXIT_PARSE
    assert "parse error" in out.err
    assert list(tmp_path.iterdir()) == [bad]


def test_render_exits_1_on_an_unroll_factor_below_1(monkeypatch, tmp_path, capsys):
    rc, out = _render(monkeypatch, tmp_path, capsys, str(corpus.kernel_path("gemm")),
                      "--unroll", "0", "-o", "gemm.dot")
    assert rc == cli.EXIT_PARSE
    assert out.err == "cannot extract: unroll factor must be >= 1\n"
    assert list(tmp_path.iterdir()) == []


# `dfeoffload bench` output for gemm, scaleadd and trmm at unroll 1.  The
# columns up to est_transfer_s are as they were when each kernel was
# extracted twice.
BENCH_CSV = """\
kernel,rows,cols,seeds,successes,success_rate,mean_attempts,mean_backtracks,est_transfer_s,median_attempts,p90_attempts,max_attempts
gemm,4,4,2,2,1.000,52.0,3.0,9.952174e-05,52.0,90,90
gemm,6,6,2,2,1.000,10.0,0.0,9.952174e-05,10.0,10,10
scaleadd,4,4,2,2,1.000,3.0,0.0,6.835652e-05,3.0,3,3
scaleadd,6,6,2,2,1.000,3.0,0.0,6.835652e-05,3.0,3,3
trmm,4,4,2,2,1.000,8.5,0.0,9.061739e-05,8.5,9,9
trmm,6,6,2,2,1.000,8.0,0.0,9.061739e-05,8.0,8,8
"""


def test_bench_extracts_each_kernel_once_at_unroll_1(monkeypatch, capsys):
    calls = []
    original = frontend.extract_dfg

    def counted(kernel, *args, **kwargs):
        calls.append(kernel.name)
        return original(kernel, *args, **kwargs)

    monkeypatch.setattr(frontend, "extract_dfg", counted)
    monkeypatch.setattr(cli, "extract_dfg", counted)
    rc = cli.main(["bench", *(str(corpus.kernel_path(k)) for k in ("gemm", "scaleadd", "trmm")),
                   "--sizes", "4x4,6x6", "--seeds", "2", "--budget", "500"])
    assert rc == cli.EXIT_OK
    assert capsys.readouterr().out.splitlines() == BENCH_CSV.splitlines()
    assert calls == ["gemm", "scaleadd", "trmm"]


def test_bench_reports_attempts_as_a_distribution_over_seeds(tmp_path):
    out = tmp_path / "bench.csv"
    rc = cli.main(["bench", str(corpus.kernel_path("gemm")), "--sizes", "4x4",
                   "--seeds", "10", "--budget", "60", "-o", str(out)])
    assert rc == cli.EXIT_OK
    (row,) = csv.DictReader(out.read_text().splitlines())
    g = extract_dfg(corpus.load("gemm"), 1)
    attempts = []
    for seed in range(10):
        try:
            p = placer.place_and_route(g, OverlayShape(4, 4),
                                       placer.PlacerParams(global_budget=60), seed)
        except placer.Unroutable as exc:
            p = exc
        attempts.append(p.counters.position_attempts)
    attempts.sort()
    assert row["median_attempts"] == f"{(attempts[4] + attempts[5]) / 2:.1f}"
    assert row["p90_attempts"] == str(attempts[8])  # the 9th of 10, by nearest rank
    assert row["max_attempts"] == str(attempts[9])
    assert int(row["successes"]) < 10 and len(set(attempts)) > 3  # a spread worth ranking
