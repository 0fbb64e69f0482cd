import csv
import hashlib

import numpy as np
import pytest

from dfeoffload import cli, corpus, frontend, kernels, placer, runtime
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


def test_run_exits_1_on_a_negative_extent(monkeypatch, tmp_path, capsys):
    rc, out = _run(monkeypatch, tmp_path, capsys, str(corpus.kernel_path("gemm")),
                   "--param", "N=-3")
    assert rc == cli.EXIT_PARSE
    assert (out.out, out.err) == ("", "run: array B has negative extent (4, -3)\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["analyze", "place", "run", "bench", "render"])
def test_a_missing_kernel_file_exits_1(monkeypatch, tmp_path, capsys, command):
    monkeypatch.chdir(tmp_path)
    rc = cli.main([command, "missing.k"])
    out = capsys.readouterr()
    assert rc == cli.EXIT_PARSE
    assert (out.out, out.err) == (
        "", "parse error: missing.k: [Errno 2] No such file or directory: 'missing.k'\n")
    assert list(tmp_path.iterdir()) == []


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


def test_run_takes_the_software_path_when_no_baseline_beats_the_estimate(
        monkeypatch, tmp_path, capsys):
    # at this wire rate the estimate overflows to infinity
    (tmp_path / "model.cost").write_text("wire_rate = 5e-324\n")
    rc, out = _run(monkeypatch, tmp_path, capsys, str(corpus.kernel_path("gemm")),
                   "--cost-model", "model.cost")
    assert rc == cli.EXIT_OK
    assert (out.out, out.err) == (
        "gemm: offload estimate inf s; software path\nPASS (software)\n", "")


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


# `dfeoffload run` on every corpus kernel at the default options (6x6,
# seed 0, size 8): the kernel, the exit code and the stdout lines.  No
# kernel writes to stderr or leaves a file.
RUN_CORPUS = """\
2mm 0 frames_in=512 frames_out=64 bytes_on_wire=9216 cycles=88 est_offload=2.195e-03s | PASS
3mm 0 frames_in=768 frames_out=64 bytes_on_wire=13312 cycles=93 est_offload=2.213e-03s | PASS
adi 0 adi: No, divisions; software path | PASS (software)
atax 0 frames_in=64 frames_out=8 bytes_on_wire=1152 cycles=39 est_offload=2.160e-03s | PASS
bicg 0 frames_in=64 frames_out=16 bytes_on_wire=1280 cycles=29 est_offload=2.161e-03s | PASS
branchmix 0 frames_in=128 frames_out=64 bytes_on_wire=3072 cycles=83 est_offload=2.168e-03s | PASS
fdtd-2d 0 fdtd-2d: No, fp data; software path | PASS (software)
gemm 0 frames_in=576 frames_out=64 bytes_on_wire=10240 cycles=104 est_offload=2.200e-03s | PASS
gemver 0 frames_in=320 frames_out=64 bytes_on_wire=6144 cycles=85 est_offload=2.182e-03s | PASS
gesummv 0 frames_in=48 frames_out=8 bytes_on_wire=896 cycles=43 est_offload=2.159e-03s | PASS
heat-3d 0 heat-3d: No, too large; software path | PASS (software)
jacobi-1d 0 jacobi-1d: No, fp data; software path | PASS (software)
jacobi-2d 0 jacobi-2d: No, fp data; software path | PASS (software)
lu 0 lu: No, divisions; software path | PASS (software)
ludcmp 0 ludcmp: No, divisions; software path | PASS (software)
mvt 0 frames_in=88 frames_out=8 bytes_on_wire=1536 cycles=37 est_offload=2.162e-03s | PASS
scaleadd 0 scaleadd: No, too small; software path | PASS (software)
seidel 0 seidel: No, divisions; software path | PASS (software)
symm 0 frames_in=512 frames_out=64 bytes_on_wire=9216 cycles=96 est_offload=2.195e-03s | PASS
syr2k 0 frames_in=576 frames_out=64 bytes_on_wire=10240 cycles=91 est_offload=2.200e-03s | PASS
syrk 0 frames_in=320 frames_out=64 bytes_on_wire=6144 cycles=95 est_offload=2.182e-03s | PASS
trisolv 0 trisolv: No, divisions; software path | PASS (software)
trmm 0 frames_in=448 frames_out=64 bytes_on_wire=8192 cycles=97 est_offload=2.191e-03s | PASS
"""


def test_run_prints_what_it_printed_on_the_corpus(monkeypatch, tmp_path, capsys):
    got = []
    for name in corpus.kernel_names():
        rc, out = _run(monkeypatch, tmp_path, capsys, str(corpus.kernel_path(name)))
        assert out.err == "", name
        got.append(f"{name} {rc} " + " | ".join(out.out.splitlines()))
    assert got == RUN_CORPUS.splitlines()
    assert list(tmp_path.iterdir()) == []


def test_run_offloads_an_unrolled_gemm_with_its_epilogue(monkeypatch, tmp_path, capsys):
    # at N=9 and unroll 2 each row leaves its last column to the epilogue
    epilogues = []
    original = runtime.run_epilogue
    monkeypatch.setattr(runtime, "run_epilogue",
                        lambda *args: epilogues.append(args[-1]) or original(*args))
    rc, out = _run(monkeypatch, tmp_path, capsys, str(corpus.kernel_path("gemm")),
                   "--unroll", "2", "--overlay", "8x8", "--size", "9")
    assert rc == cli.EXIT_OK
    assert (out.out, out.err) == (
        "frames_in=648 frames_out=72 bytes_on_wire=11520 cycles=74 "
        "est_offload=2.205e-03s\nPASS\n", "")
    assert epilogues == [1]


@pytest.mark.parametrize("case", ["offloaded", "rejected", "out-of-range", "unroutable"])
def test_run_evaluates_the_oracle_once(monkeypatch, tmp_path, capsys, case):
    guard = tmp_path / "guard.k"
    guard.write_text(GUARDED_READ)
    argv, rc = {
        "offloaded": ([str(corpus.kernel_path("gemm")), "--seed", "3", "--format", "frames"],
                      cli.EXIT_OK),
        "rejected": ([str(corpus.kernel_path("scaleadd"))], cli.EXIT_OK),
        "out-of-range": ([str(guard), "--min-nodes", "0", "--param", "N=5"], cli.EXIT_OK),
        "unroutable": ([str(corpus.kernel_path("gemm")), "--unroll", "2", "--overlay", "4x4"],
                       cli.EXIT_UNROUTABLE),
    }[case]
    files_seen = []
    original = kernels.evaluate_kernel

    def counted(*args):
        files_seen.append(sorted(tmp_path.iterdir()))
        return original(*args)

    monkeypatch.setattr(kernels, "evaluate_kernel", counted)
    assert _run(monkeypatch, tmp_path, capsys, *argv)[0] == rc
    assert files_seen == [[guard]]  # once, and before any frames file is written


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


# `dfeoffload place --format text --dot g.dot` on every corpus kernel at the
# default options (6x6, seed 0): the kernel, the exit code, a digest of the
# stdout and of every file written (sha256 over stdout, then each file's
# name, a NUL and its bytes, in name order; first 16 hex digits), and the
# first line of stdout, or of stderr when stdout is empty.
PLACE_CORPUS = """\
2mm 0 9811ddc1f5d8974b wrote 2mm.dfecfg (565 bytes); attempts=56 restarts=4 backtracks=4
3mm 0 d9811443032c32c4 wrote 3mm.dfecfg (601 bytes); attempts=6086 restarts=456 backtracks=160
adi 0 e3b0c44298fc1c14 kernel rejected: No, divisions (operator '/')
atax 0 f47c48d8013551d6 wrote atax.dfecfg (565 bytes); attempts=9 restarts=0 backtracks=0
bicg 0 b2e14fa471e7e9d1 wrote bicg.dfecfg (574 bytes); attempts=10 restarts=0 backtracks=0
branchmix 0 0034c35e0399d032 wrote branchmix.dfecfg (511 bytes); attempts=8 restarts=0 backtracks=0
fdtd-2d 0 e3b0c44298fc1c14 kernel rejected: No, fp data (array ex is float32)
gemm 0 64d22f992c87362f wrote gemm.dfecfg (574 bytes); attempts=10 restarts=0 backtracks=0
gemver 0 a69f0a22e2ac5e25 wrote gemver.dfecfg (538 bytes); attempts=10 restarts=0 backtracks=0
gesummv 0 79fe027ed8b430d9 wrote gesummv.dfecfg (547 bytes); attempts=66 restarts=5 backtracks=3
heat-3d 0 e3b0c44298fc1c14 kernel rejected: No, too large (97 calc nodes > 36)
jacobi-1d 0 e3b0c44298fc1c14 kernel rejected: No, fp data (array A is float32)
jacobi-2d 0 e3b0c44298fc1c14 kernel rejected: No, fp data (array A is float32)
lu 0 e3b0c44298fc1c14 kernel rejected: No, divisions (operator '/')
ludcmp 0 e3b0c44298fc1c14 kernel rejected: No, divisions (operator '%')
mvt 0 2ea5be388d8a8d35 wrote mvt.dfecfg (592 bytes); attempts=10 restarts=0 backtracks=0
scaleadd 0 e3b0c44298fc1c14 kernel rejected: No, too small (3 calc nodes < 8)
seidel 0 e3b0c44298fc1c14 kernel rejected: No, divisions (operator '/')
symm 0 51dba8bb422db21a wrote symm.dfecfg (565 bytes); attempts=10 restarts=0 backtracks=0
syr2k 0 b9afcc0313a5147d wrote syr2k.dfecfg (574 bytes); attempts=9 restarts=0 backtracks=0
syrk 0 e7d0b031c1dca217 wrote syrk.dfecfg (538 bytes); attempts=20 restarts=1 backtracks=1
trisolv 0 e3b0c44298fc1c14 kernel rejected: No, divisions (operator '/')
trmm 0 81997b21c0cbf4c4 wrote trmm.dfecfg (556 bytes); attempts=8 restarts=0 backtracks=0
"""


def test_place_prints_and_writes_what_it_did_on_the_corpus(monkeypatch, tmp_path, capsys):
    got = []
    for name in corpus.kernel_names():
        (tmp_path / name).mkdir()
        rc, out = _place(monkeypatch, tmp_path / name, capsys,
                         str(corpus.kernel_path(name)), "--format", "text", "--dot", "g.dot")
        digest = hashlib.sha256(out.out.encode())
        for path in sorted((tmp_path / name).iterdir()):
            digest.update(path.name.encode() + b"\0" + path.read_bytes())
        first = (out.out or out.err).splitlines()[0]
        got.append(f"{name} {rc} {digest.hexdigest()[:16]} {first}")
    assert got == PLACE_CORPUS.splitlines()


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


def test_place_exits_1_when_the_config_cannot_be_written(monkeypatch, tmp_path, capsys):
    rc, out = _place(monkeypatch, tmp_path, capsys, str(corpus.kernel_path("gemm")),
                     "--seed", "3", "-o", "missing/gemm.dfecfg")
    assert rc == cli.EXIT_PARSE
    assert (out.out, out.err) == (
        "", "place: [Errno 2] No such file or directory: 'missing/gemm.dfecfg'\n")
    assert list(tmp_path.iterdir()) == []


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


def test_bench_checks_every_kernels_parameters_before_any_sweep(monkeypatch, tmp_path,
                                                               capsys):
    # gemm has a parameter M and atax has not, so the second kernel refuses
    # --param M=8 before the first one's sweep starts
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "place_and_route", _refuse)
    rc = cli.main(["bench", str(corpus.kernel_path("gemm")), str(corpus.kernel_path("atax")),
                   "--param", "M=8", "--sizes", "4x4", "--seeds", "3", "-o", "bench.csv"])
    out = capsys.readouterr()
    assert rc == cli.EXIT_PARSE
    assert (out.out, out.err) == ("", "kernel atax has no parameter 'M'\n")
    assert list(tmp_path.iterdir()) == []


def test_bench_exits_1_on_a_negative_extent(monkeypatch, tmp_path, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "place_and_route", _refuse)
    rc = cli.main(["bench", str(corpus.kernel_path("gemm")), "--param", "N=-3",
                   "--sizes", "4x4", "--seeds", "1", "-o", "bench.csv"])
    out = capsys.readouterr()
    assert rc == cli.EXIT_PARSE
    assert (out.out, out.err) == ("", "bench: array B has negative extent (4, -3)\n")
    assert list(tmp_path.iterdir()) == []


def test_analyze_takes_no_unroll_factor(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["analyze", str(corpus.kernel_path("gemm")), "--unroll", "2"])
    assert info.value.code == 1
    assert "unrecognized arguments: --unroll 2" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    ([], "the following arguments are required: command"),
    (["run", "gemm.k", "--overlay", "4by4"], "argument --overlay: overlay must look like 4x4"),
    (["bench", "gemm.k", "--seeds", "two"], "argument --seeds: invalid int value: 'two'"),
    (["run", "gemm.k", "--param", "N=abc"], "argument --param: parameter must look like N=8"),
], ids=["no command", "bad overlay", "bad seeds", "bad param"])
def test_a_usage_error_exits_1_not_the_unroutable_code(monkeypatch, tmp_path, capsys,
                                                       argv, message):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as info:
        cli.main(argv)
    out = capsys.readouterr()
    assert info.value.code == cli.EXIT_PARSE != cli.EXIT_UNROUTABLE
    assert out.out == "" and out.err.startswith("usage: dfeoffload")
    assert f"error: {message}" in out.err
    assert list(tmp_path.iterdir()) == []


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


# `dfeoffload bench` over every corpus kernel at `--sizes 4x4,6x6 --seeds 3
# --budget 500` (unroll 1, size 8, min-nodes 1): a kernel that does not fit
# the grid reads 0 attempts, and `est_transfer_s` is the cached estimate.
BENCH_CORPUS = """\
kernel,rows,cols,seeds,successes,success_rate,mean_attempts,mean_backtracks,est_transfer_s,median_attempts,p90_attempts,max_attempts
2mm,4,4,3,3,1.000,96.3,4.7,9.506957e-05,11.0,268,268
2mm,6,6,3,3,1.000,25.0,1.3,9.506957e-05,10.0,56,56
3mm,4,4,3,0,0.000,500.0,18.3,1.128783e-04,500.0,500,500
3mm,6,6,3,0,0.000,500.0,15.0,1.128783e-04,500.0,500,500
atax,4,4,3,3,1.000,141.7,7.7,6.000870e-05,46.0,368,368
atax,6,6,3,3,1.000,9.3,0.0,6.000870e-05,9.0,10,10
bicg,4,4,3,3,1.000,52.0,3.3,6.056522e-05,39.0,106,106
bicg,6,6,3,3,1.000,14.3,0.3,6.056522e-05,10.0,23,23
branchmix,4,4,3,1,0.333,429.3,21.3,6.835652e-05,500.0,500,500
branchmix,6,6,3,3,1.000,8.0,0.0,6.835652e-05,8.0,8,8
gemm,4,4,3,3,1.000,38.0,2.0,9.952174e-05,14.0,90,90
gemm,6,6,3,3,1.000,25.3,1.0,9.952174e-05,10.0,56,56
gemver,4,4,3,1,0.333,407.0,18.3,8.171304e-05,500.0,500,500
gemver,6,6,3,3,1.000,17.0,0.7,8.171304e-05,10.0,32,32
gesummv,4,4,3,3,1.000,101.7,6.0,5.889565e-05,85.0,209,209
gesummv,6,6,3,3,1.000,28.3,1.0,5.889565e-05,10.0,66,66
heat-3d,4,4,3,0,0.000,0.0,0.0,2.776087e-04,0.0,0,0
heat-3d,6,6,3,0,0.000,0.0,0.0,2.776087e-04,0.0,0,0
mvt,4,4,3,3,1.000,10.3,0.0,6.167826e-05,10.0,11,11
mvt,6,6,3,3,1.000,10.3,0.0,6.167826e-05,10.0,11,11
scaleadd,4,4,3,3,1.000,3.0,0.0,6.835652e-05,3.0,3,3
scaleadd,6,6,3,3,1.000,3.0,0.0,6.835652e-05,3.0,3,3
symm,4,4,3,3,1.000,19.0,1.0,9.506957e-05,9.0,39,39
symm,6,6,3,3,1.000,9.3,0.0,9.506957e-05,9.0,10,10
syr2k,4,4,3,3,1.000,22.3,1.0,9.952174e-05,25.0,32,32
syr2k,6,6,3,3,1.000,9.3,0.0,9.952174e-05,9.0,10,10
syrk,4,4,3,3,1.000,267.0,13.0,8.171304e-05,252.0,333,333
syrk,6,6,3,3,1.000,12.7,0.3,8.171304e-05,9.0,20,20
trmm,4,4,3,3,1.000,8.3,0.0,9.061739e-05,8.0,9,9
trmm,6,6,3,3,1.000,8.0,0.0,9.061739e-05,8.0,8,8
"""


def test_bench_prints_what_it_printed_on_the_corpus(capsys):
    rc = cli.main(["bench", *(str(corpus.kernel_path(k)) for k in corpus.kernel_names()),
                   "--sizes", "4x4,6x6", "--seeds", "3", "--budget", "500"])
    assert rc == cli.EXIT_OK
    assert capsys.readouterr().out.splitlines() == BENCH_CORPUS.splitlines()
