"""Sweep driver, CSV formatting, the command-line entry point, and the
package's top-level API."""

import concurrent.futures
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from random import Random

import pytest

import cdnsim
from cdnsim.cli import (
    CSV_HEADER,
    SweepSpec,
    _parse_sweep_values,
    format_csv,
    main,
    run_sweep,
)
from cdnsim.engine import mix_seed, run_simulation, substream
from cdnsim.metrics import AggregateResult
from cdnsim.model import ConfigError, CostMatrix, StrategySpec, default_config, read_number
from cdnsim.popularity import proportional_placement, zipf_profile


SMALL = default_config(n_servers=12, n_users=12, n_files=10, cache_size=2,
                       horizon_events=2_000, lattice_side=6)


def test_sweep_spec_sorts_its_grid():
    sweep = SweepSpec("pss", (0.5, 0.0, 1.0), (8, 2), n_runs=3)
    assert sweep.params == (0.0, 0.5, 1.0)
    assert sweep.cache_sizes == (2, 8)
    assert sweep.points() == [(2, 0.0), (2, 0.5), (2, 1.0), (8, 0.0), (8, 0.5), (8, 1.0)]


def test_sweep_spec_validation():
    with pytest.raises(ConfigError):
        SweepSpec("mincost", (0.5,), (2,))
    with pytest.raises(ConfigError):
        SweepSpec("pss", (), (2,))
    with pytest.raises(ConfigError):
        SweepSpec("pss", (0.5,), ())
    with pytest.raises(ConfigError):
        SweepSpec("pss", (0.5,), (2,), n_runs=0)
    # parameterless families normalize to a single None point
    assert SweepSpec("minqueue", (), (4,)).params == (None,)
    with pytest.raises(ConfigError, match="^sweep over mcs needs at least one delta value$"):
        SweepSpec("mcs", (), (2,))
    with pytest.raises(ConfigError, match="^unknown strategy 'nearest'$"):
        SweepSpec("nearest", (0.5,), (2,))
    # A repeated value would give rows that nothing in the CSV tells apart.
    with pytest.raises(ConfigError, match=r"^sweep repeats a zeta value: \(0\.5, 0\.5\)$"):
        SweepSpec("pss", (0.5, 0.5), (8,))
    with pytest.raises(ConfigError, match=r"^sweep repeats a cache size: \(8, 2, 8\)$"):
        SweepSpec("pss", (0.5,), (8, 2, 8))
    with pytest.raises(ConfigError, match="^sweep over pss needs a zeta value in every point$"):
        SweepSpec("pss", (None, 0.5), (8,))


def test_run_sweep_reproduces_direct_runs():
    sweep = SweepSpec("pss", (0.0, 1.0), (2,), n_runs=1)
    results = run_sweep(replace(SMALL, base_seed=9), sweep, workers=1)
    direct0 = run_simulation(SMALL, StrategySpec("pss", 0.0), mix_seed(9, 0, 0))
    direct1 = run_simulation(SMALL, StrategySpec("pss", 1.0), mix_seed(9, 1, 0))
    assert results[0].mean_cost == direct0.avg_cost
    assert results[0].mean_wait == direct0.avg_wait
    assert results[1].mean_cost == direct1.avg_cost
    assert results[1].mean_wait == direct1.avg_wait
    assert results[0].n_runs == 1
    assert results[0].ci95_cost == 0.0


def test_run_sweep_mcs_query_counts_at_full_replication():
    cfg = default_config(n_servers=8, n_users=8, n_files=5, cache_size=5,
                         horizon_events=1_000, lattice_side=4, base_seed=1)
    sweep = SweepSpec("mcs", (1, 3, 8), (5,), n_runs=2)
    results = run_sweep(cfg, sweep, workers=1)
    assert [r.mean_queries for r in results] == [1.0, 3.0, 8.0]


def test_parallel_sweep_is_bit_identical_to_serial():
    cfg = replace(SMALL, base_seed=3)
    sweep = SweepSpec("wmc", (0.0, 0.5, 1.0), (2, 4), n_runs=2)
    serial = run_sweep(cfg, sweep, workers=1)
    parallel = run_sweep(cfg, sweep, workers=2)
    assert format_csv(serial) == format_csv(parallel)
    assert serial == parallel


class _PoolRecorder:
    # Stands in for concurrent.futures.ProcessPoolExecutor, the name that
    # run_sweep's pooled branch imports: records each pool's size and runs
    # its jobs in this process.
    sizes: list = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, jobs, chunksize=1):
        return map(fn, jobs)


def test_sweep_starts_at_most_one_worker_per_run(monkeypatch):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _PoolRecorder)
    monkeypatch.setattr(_PoolRecorder, "sizes", [])
    serial = run_sweep(SMALL, SweepSpec("pss", (0.5,), (2,), n_runs=2), workers=1)
    assert _PoolRecorder.sizes == []
    assert run_sweep(SMALL, SweepSpec("pss", (0.5,), (2,), n_runs=2), workers=64) == serial
    assert _PoolRecorder.sizes == [2]
    # A one-run sweep runs in this process.
    run_sweep(SMALL, SweepSpec("pss", (0.5,), (2,), n_runs=1), workers=64)
    assert _PoolRecorder.sizes == [2]


_POOL_IMPORTS = """
import sys
from dataclasses import replace

from cdnsim import SweepSpec, default_config, run_simulation, run_sweep

POOL = ("concurrent.futures.process", "multiprocessing")
cfg = default_config(n_servers=12, n_users=12, n_files=10, cache_size=2,
                     horizon_events=2_000, lattice_side=6)
sweep = SweepSpec("pss", (0.5,), (2,), n_runs=2)
run_simulation(cfg, "pss:0.5", 1)
serial = run_sweep(cfg, sweep, workers=1)
run_sweep(cfg, replace(sweep, n_runs=1), workers=8)
print([m for m in POOL if m in sys.modules])
pooled = run_sweep(cfg, sweep, workers=2)
print([m for m in POOL if m in sys.modules], pooled == serial)
"""


def test_only_a_pooled_sweep_loads_the_process_pool():
    # A fresh interpreter, since pytest's plugins may have loaded
    # multiprocessing here already.
    src = os.path.dirname(os.path.dirname(cdnsim.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    out = subprocess.run([sys.executable, "-c", _POOL_IMPORTS], capture_output=True,
                         text=True, timeout=120, env={**os.environ, "PYTHONPATH": path})
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == [
        "[]", "['concurrent.futures.process', 'multiprocessing'] True"]


def test_run_sweep_seeds_from_the_config():
    # cfg.base_seed is the sweep's one seed: its runs, its frozen layout and
    # its placements all come from it.
    sweep = SweepSpec("mincost", (), (2,), n_runs=1)
    seeded = replace(SMALL, base_seed=7)
    [point] = run_sweep(seeded, sweep)
    direct = run_simulation(SMALL, "mincost", mix_seed(7, 0, 0))
    assert (point.mean_cost, point.mean_wait) == (direct.avg_cost, direct.avg_wait)
    assert point != run_sweep(SMALL, sweep)[0]
    assert run_sweep(seeded, sweep, fixed_topology=True) != run_sweep(
        SMALL, sweep, fixed_topology=True)


def test_fixed_topology_shares_layout_and_placement():
    cfg = replace(SMALL, base_seed=5)
    sweep = SweepSpec("minqueue", (), (2,), n_runs=2)
    fixed = run_sweep(cfg, sweep, fixed_topology=True)
    redrawn = run_sweep(cfg, sweep, fixed_topology=False)
    # Same seeds, different topology handling: results must differ.
    assert fixed != redrawn


def test_fixed_topology_sweep_is_the_same_on_a_pool():
    # Each pooled job carries the sweep's frozen matrix and placement; a
    # pool of 2 must give the serial results, drawn or injected matrix alike.
    cfg = replace(SMALL, base_seed=2)
    sweep = SweepSpec("wmc", (0.0, 0.5), (2, 4), n_runs=2)
    matrix = CostMatrix([[abs(i - k) + (i * k) % 3 for k in range(12)] for i in range(12)])
    drawn = run_sweep(cfg, sweep, workers=1, fixed_topology=True)
    assert run_sweep(cfg, sweep, workers=2, fixed_topology=True) == drawn
    injected = run_sweep(cfg, sweep, workers=1, cost_matrix=matrix, fixed_topology=True)
    assert run_sweep(cfg, sweep, workers=2, cost_matrix=matrix, fixed_topology=True) == injected
    assert injected != drawn


def test_format_csv_pins_layout_and_precision():
    rows = [
        AggregateResult(
            mean_cost=2.0, mean_wait=3.0, mean_queries=0.0,
            ci95_cost=0.0, ci95_wait=0.0, n_runs=10, param=None,
            strategy="mincost", cache_size=2, zipf_beta=0.0, events=100_000,
        ),
        AggregateResult(
            mean_cost=1.23456789, mean_wait=0.000123456789, mean_queries=2.0,
            ci95_cost=0.5, ci95_wait=0.25, n_runs=10, param=0.5,
            strategy="pss", cache_size=8, zipf_beta=0.0, events=100_000,
        ),
    ]
    text = format_csv(rows)
    lines = text.splitlines()
    assert lines[0] == CSV_HEADER
    # One row per aggregate in the order given; param empty for mincost
    assert lines[1] == "mincost,,2,0,10,100000,2,0,3,0,0"
    assert lines[2] == "pss,0.5,8,0,10,100000,1.23457,0.5,0.000123457,0.25,2"
    assert text.endswith("\n")
    # The sweep orders its points; format_csv keeps whatever order it gets.
    assert format_csv(rows[::-1]).splitlines() == [lines[0], lines[2], lines[1]]


def test_main_prints_a_negative_zero_as_zero(tmp_path):
    # A sweep value, a strategy parameter and a Zipf exponent of -0 each
    # give the same row as 0, which they equal.
    def row(*argv, beta="0.0"):
        cfg_path = tmp_path / "beta.cfg"
        cfg_path.write_text(f"zipf_beta = {beta}\n", encoding="utf-8")
        out = tmp_path / "o.csv"
        assert main(["--config", str(cfg_path), *argv, "--cache-sizes", "8", "--runs", "1",
                     "--events", "300", "--warmup", "30", "--out", str(out)]) == 0
        return out.read_bytes()

    assert row("--strategy", "pss", "--sweep", "-0") == row("--strategy", "pss", "--sweep", "0")
    assert row("--strategy", "wmc:-0") == row("--strategy", "wmc:0")
    assert row("--strategy", "mincost", beta="-0.0") == row("--strategy", "mincost")


def test_sweep_value_parsing():
    assert _parse_sweep_values("0,0.5,1", "pss") == (0.0, 0.5, 1.0)
    assert _parse_sweep_values("zeta:0.25,0.75", "pss") == (0.25, 0.75)
    assert _parse_sweep_values("delta:1,2,4", "mcs") == (1.0, 2.0, 4.0)
    with pytest.raises(ConfigError):
        _parse_sweep_values("alpha:0.5", "pss")
    with pytest.raises(ConfigError):
        _parse_sweep_values("0.5,oops", "pss")
    with pytest.raises(ConfigError, match="non-numeric"):
        _parse_sweep_values("zeta:", "pss")
    assert tuple(read_number(m, "--cache-sizes", int) for m in "8,2,70".split(",")) == (8, 2, 70)
    with pytest.raises(ConfigError):
        tuple(read_number(m, "--cache-sizes", int) for m in "2,x".split(","))


@pytest.mark.parametrize("argv, message", [
    (["--strategy", "pss", "--sweep", "zeta:0.5,oops"], "--sweep has a non-numeric value 'oops'"),
    (["--strategy", "mincost", "--cache-sizes", "2,x"], "--cache-sizes has a non-integer value 'x'"),
    (["--strategy", "mcs:two"], "strategy spec 'mcs:two' has a non-numeric value 'two'"),
])
def test_main_names_the_flag_and_text_of_an_unreadable_number(argv, message, tmp_path, capsys):
    out = tmp_path / "o.csv"
    assert main(argv + ["--out", str(out)]) == 2
    assert capsys.readouterr().err == f"simulate: error: {message}\n"
    assert not out.exists()


def _write_small_config(path, strategy_line=None):
    lines = [
        "n_servers = 12",
        "n_users = 12",
        "n_files = 10",
        "cache_size = 2",
        "arrival_rate = 0.9",
        "service = exp:1.0",
        "horizon_events = 2000",
        "lattice_side = 6",
    ]
    if strategy_line:
        lines.append(strategy_line)
    path.write_text("\n".join(lines) + "\n")


def test_main_writes_csv_and_reruns_byte_identically(tmp_path, capsys):
    cfg_path = tmp_path / "sim.cfg"
    _write_small_config(cfg_path)
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    argv = [
        "--config", str(cfg_path), "--strategy", "pss", "--sweep", "0,1",
        "--cache-sizes", "2,4", "--runs", "2", "--seed", "7", "--out",
    ]
    assert main(argv + [str(out1)]) == 0
    assert main(argv + [str(out2)]) == 0
    text = out1.read_text()
    assert text == out2.read_text()
    lines = text.splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 5
    assert lines[1].startswith("pss,0,2,")
    assert lines[4].startswith("pss,1,4,")
    err = capsys.readouterr().err
    assert "wrote" in err


def test_main_rejects_fewer_than_one_worker(tmp_path, capsys):
    # The workers rule holds on every path: a plain sweep, a traced run and a
    # placement dump, with no CSV, trace or placement file left behind.
    out = tmp_path / "o.csv"
    trace = tmp_path / "t.csv"
    placement = tmp_path / "p.txt"
    for outputs in ([], ["--trace", str(trace)], ["--dump-placement", str(placement)]):
        for runs in ("1", "2"):
            for workers in ("0", "-3"):
                assert main(["--strategy", "mincost", "--runs", runs, "--events", "500",
                             "--workers", workers, "--out", str(out)] + outputs) == 2
                assert capsys.readouterr().err == "simulate: error: workers must be >= 1\n"
    assert not out.exists() and not trace.exists() and not placement.exists()


def test_main_fails_before_any_run_when_the_out_directory_is_missing(
        tmp_path, capsys, monkeypatch):
    # The error is the one open() gives, and no trace or placement file is
    # written, because the sweep does not start.
    monkeypatch.chdir(tmp_path)
    assert main(["--strategy", "mincost", "--runs", "1", "--events", "500",
                 "--trace", "t.csv", "--dump-placement", "p.txt", "--out", "nodir/o.csv"]) == 2
    assert capsys.readouterr().err == (
        "simulate: error: [Errno 2] No such file or directory: 'nodir/o.csv'\n")
    assert sorted(tmp_path.iterdir()) == []


def test_main_fails_before_any_run_when_out_is_a_directory(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "adir").mkdir()
    assert main(["--strategy", "mincost", "--runs", "1", "--events", "100",
                 "--trace", "t.csv", "--dump-placement", "p.txt", "--out", "adir"]) == 2
    assert capsys.readouterr().err == "simulate: error: [Errno 21] Is a directory: 'adir'\n"
    assert sorted(tmp_path.iterdir()) == [tmp_path / "adir"]
    assert sorted((tmp_path / "adir").iterdir()) == []


@pytest.mark.parametrize("flag", ["--out", "--strategy", "--sweep", "--cache-sizes", "--config",
                                  "--cost-matrix", "--trace", "--dump-placement"])
def test_main_fails_before_any_run_on_an_empty_flag_value(flag, tmp_path, capsys, monkeypatch):
    # An empty value is a value, not a missing flag: it fails as open(''),
    # the strategy parser or the number reader would, before any run.
    def no_run(*args, **kwargs):
        raise AssertionError("a run started")

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cdnsim.cli, "run_simulation", no_run)
    assert main(["--strategy", "mincost", "--runs", "1", "--events", "500",
                 "--out", "o.csv", flag, ""]) == 2
    message = {
        "--strategy": "unknown strategy ''",
        "--sweep": "--sweep has a non-numeric value ''",
        "--cache-sizes": "--cache-sizes has a non-integer value ''",
    }.get(flag, "[Errno 2] No such file or directory: ''")
    assert capsys.readouterr().err == f"simulate: error: {message}\n"
    assert sorted(tmp_path.iterdir()) == []


def test_main_rejects_a_lattice_side_too_large_for_exact_distances(tmp_path, capsys):
    cfg_path = tmp_path / "big.cfg"
    cfg_path.write_text("lattice_side = " + "9" * 401 + "\n", encoding="utf-8")
    out = tmp_path / "o.csv"
    assert main(["--config", str(cfg_path), "--strategy", "mincost", "--runs", "1",
                 "--events", "100", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("simulate: error: lattice_side must be <= 2**52, got 999")
    assert err.count("\n") == 1
    assert not out.exists()


def test_main_rejects_arrival_rates_whose_total_overflows(tmp_path, capsys):
    cfg_path = tmp_path / "fast.cfg"
    cfg_path.write_text("arrival_rate = 1e308\n", encoding="utf-8")
    out = tmp_path / "o.csv"
    assert main(["--config", str(cfg_path), "--strategy", "mincost", "--runs", "1",
                 "--events", "100", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == "simulate: error: arrival rates must have a finite total, got inf\n"
    assert not out.exists()


def test_main_rejects_arrival_rates_with_a_subnormal_total(tmp_path, capsys):
    cfg_path = tmp_path / "tiny.cfg"
    cfg_path.write_text("arrival_rate = 5e-324\n", encoding="utf-8")
    out = tmp_path / "o.csv"
    assert main(["--config", str(cfg_path), "--strategy", "mincost", "--runs", "1",
                 "--events", "100", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == ("simulate: error: arrival rates must have a total above "
                   "2.2250738585072014e-308, got 4.94e-322\n")
    assert not out.exists()


def test_main_reports_a_run_whose_sums_overflow(tmp_path, capsys):
    cfg_path = tmp_path / "slow.cfg"
    _write_small_config(cfg_path)
    cfg_path.write_text(cfg_path.read_text().replace("exp:1.0", "const:1e305"))
    out = tmp_path / "o.csv"
    assert main(["--config", str(cfg_path), "--strategy", "mincost", "--runs", "1",
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == ("simulate: error: avg_wait is inf: "
                   "the run's times or sums exceed the float range\n")
    assert not out.exists()


def test_a_run_that_fails_when_it_ends_leaves_no_trace_or_placement(tmp_path, capsys):
    # The overflow is found only once the run has written its trace: the
    # files the run opened are closed and removed, with or without a trace,
    # and a path given for both files is removed once.
    cfg_path = tmp_path / "slow.cfg"
    _write_small_config(cfg_path)
    cfg_path.write_text(cfg_path.read_text().replace("exp:1.0", "const:1e305"))
    out, trace, placement = tmp_path / "o.csv", tmp_path / "t.csv", tmp_path / "p.txt"
    for outputs in (["--trace", str(trace), "--dump-placement", str(placement)],
                    ["--dump-placement", str(placement)],
                    ["--trace", str(trace), "--dump-placement", str(trace)]):
        assert main(["--config", str(cfg_path), "--strategy", "mincost", "--runs", "1",
                     "--out", str(out)] + outputs) == 2
        assert capsys.readouterr().err == ("simulate: error: avg_wait is inf: "
                                           "the run's times or sums exceed the float range\n")
        assert not out.exists() and not trace.exists() and not placement.exists()


def test_main_workers_flag_does_not_change_output(tmp_path):
    cfg_path = tmp_path / "sim.cfg"
    _write_small_config(cfg_path)
    out1 = tmp_path / "w1.csv"
    out2 = tmp_path / "w2.csv"
    base = ["--config", str(cfg_path), "--strategy", "wmc", "--sweep", "0.5",
            "--runs", "2", "--seed", "1"]
    assert main(base + ["--workers", "1", "--out", str(out1)]) == 0
    assert main(base + ["--workers", "3", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_main_uses_config_strategy_line_as_fallback(tmp_path):
    cfg_path = tmp_path / "sim.cfg"
    _write_small_config(cfg_path, strategy_line="strategy = mcs:2")
    out = tmp_path / "o.csv"
    assert main(["--config", str(cfg_path), "--runs", "1", "--out", str(out)]) == 0
    row = out.read_text().splitlines()[1]
    assert row.startswith("mcs,2,")


def test_main_errors_are_reported_not_raised(tmp_path, capsys):
    out = tmp_path / "o.csv"
    # no strategy anywhere
    assert main(["--out", str(out)]) == 2
    # sweep over an already-fixed parameter
    assert main(["--strategy", "pss:0.5", "--sweep", "0,1", "--out", str(out)]) == 2
    # unreadable config path
    assert main(["--config", str(tmp_path / "absent.cfg"), "--strategy", "mincost",
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("simulate: error:") == 3


def test_main_rejects_a_sweep_name_on_a_parameterless_family(tmp_path, capsys):
    out = tmp_path / "o.csv"
    assert main(["--strategy", "mincost", "--sweep", "zeta:0.5", "--out", str(out)]) == 2
    assert "mincost takes no sweep parameter" in capsys.readouterr().err
    assert not out.exists()


def test_main_rejects_non_finite_mcs_counts(tmp_path, capsys):
    out = tmp_path / "o.csv"
    assert main(["--strategy", "mcs:inf", "--out", str(out)]) == 2
    assert main(["--strategy", "mcs", "--sweep", "1,nan", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("simulate: error:") == 2
    assert not out.exists()


def test_main_trace_and_placement_dump(tmp_path):
    cfg_path = tmp_path / "sim.cfg"
    _write_small_config(cfg_path)
    out = tmp_path / "o.csv"
    trace = tmp_path / "t.csv"
    placement = tmp_path / "p.txt"
    rc = main([
        "--config", str(cfg_path), "--strategy", "minqueue", "--runs", "1",
        "--seed", "4", "--out", str(out), "--trace", str(trace),
        "--dump-placement", str(placement),
    ])
    assert rc == 0
    trace_lines = trace.read_text().splitlines()
    assert len(trace_lines) == 2_000
    assert all(len(line.split(",")) == 6 for line in trace_lines)

    placement_lines = placement.read_text().splitlines()
    assert len(placement_lines) == 12
    for k, line in enumerate(placement_lines):
        server, _, files = line.partition(": ")
        assert int(server) == k
        assert len(files.split(",")) == 2

    # trace demands a single point and a single run
    assert main([
        "--config", str(cfg_path), "--strategy", "minqueue", "--runs", "2",
        "--out", str(out), "--trace", str(trace),
    ]) == 2



def test_fixed_topology_trace_point_matches_the_sweep(tmp_path):
    # --trace and --dump-placement must run the point on the sweep's frozen
    # layout and placement, not redraw them from the run seed.
    cfg_path = tmp_path / "sim.cfg"
    _write_small_config(cfg_path)
    base = ["--config", str(cfg_path), "--strategy", "mcs:2", "--runs", "1",
            "--seed", "6", "--fixed-topology"]
    plain = tmp_path / "plain.csv"
    traced = tmp_path / "traced.csv"
    placement = tmp_path / "p.txt"
    assert main(base + ["--out", str(plain)]) == 0
    assert main(base + ["--out", str(traced), "--trace", str(tmp_path / "t.csv"),
                        "--dump-placement", str(placement)]) == 0
    assert traced.read_bytes() == plain.read_bytes()

    allocation = proportional_placement(
        zipf_profile(SMALL.n_files, SMALL.zipf_beta), SMALL.n_servers, 2,
        Random(mix_seed(6, "sweep-placement", 2)),
    )
    assert placement.read_text() == "".join(
        f"{k}: {','.join(str(f) for f in sorted(files))}\n"
        for k, files in enumerate(allocation.server_files)
    )
    # The run seed's own placement differs, so the check above has teeth.
    redrawn = proportional_placement(
        zipf_profile(SMALL.n_files, SMALL.zipf_beta), SMALL.n_servers, 2,
        substream(mix_seed(6, 0, 0), "placement"),
    )
    assert redrawn != allocation


@pytest.mark.parametrize("inputs", [[], ["--fixed-topology"], ["--cost-matrix"]],
                         ids=["drawn", "fixed", "injected"])
def test_traced_point_is_the_sweep_row(inputs, tmp_path):
    # A traced run is the one run of a one-point sweep: its CSV is the
    # untraced CSV byte for byte. A trace-only run draws its inputs inside
    # run_simulation, a run that also dumps the placement materializes them
    # first; both must write the same trace.
    cfg_path = tmp_path / "sim.cfg"
    _write_small_config(cfg_path)
    if inputs == ["--cost-matrix"]:
        matrix_path = tmp_path / "costs.csv"
        matrix_path.write_text("".join(
            ",".join(str(abs(i - k) + (i * k) % 3) for k in range(12)) + "\n" for i in range(12)))
        inputs = inputs + [str(matrix_path)]
    base = ["--config", str(cfg_path), "--strategy", "wmc:0.5", "--runs", "1",
            "--seed", "3"] + inputs
    plain, traced, dumped = (tmp_path / f"{name}.csv" for name in ("plain", "traced", "dumped"))
    trace_only, trace_dumped = tmp_path / "t1.csv", tmp_path / "t2.csv"
    assert main(base + ["--out", str(plain)]) == 0
    assert main(base + ["--out", str(traced), "--trace", str(trace_only)]) == 0
    assert main(base + ["--out", str(dumped), "--trace", str(trace_dumped),
                        "--dump-placement", str(tmp_path / "p.txt")]) == 0
    assert traced.read_bytes() == plain.read_bytes()
    assert dumped.read_bytes() == plain.read_bytes()
    assert len(trace_only.read_text().splitlines()) == 2_000
    assert trace_only.read_bytes() == trace_dumped.read_bytes()


def test_main_writes_no_file_for_a_cost_matrix_of_the_wrong_shape(tmp_path, capsys):
    # The matrix is checked before a trace file is opened, drawn or frozen layout alike.
    cfg_path = tmp_path / "sim.cfg"
    _write_small_config(cfg_path)
    matrix_path = tmp_path / "costs.csv"
    matrix_path.write_text("0,1,2\n1,0,1\n2,1,0\n")
    out = tmp_path / "o.csv"
    trace = tmp_path / "t.csv"
    for fixed in ([], ["--fixed-topology"]):
        assert main(["--config", str(cfg_path), "--strategy", "mincost", "--runs", "1",
                     "--cost-matrix", str(matrix_path), "--out", str(out),
                     "--trace", str(trace)] + fixed) == 2
        assert capsys.readouterr().err == "simulate: error: cost matrix is 3x3, config needs 12x12\n"
    assert not out.exists() and not trace.exists()


def test_main_trace_is_strategy_insensitive_in_arrival_columns(tmp_path):
    cfg_path = tmp_path / "sim.cfg"
    _write_small_config(cfg_path)
    out = tmp_path / "o.csv"
    heads = []
    for strat in ("mincost", "minqueue"):
        trace = tmp_path / f"{strat}.csv"
        assert main([
            "--config", str(cfg_path), "--strategy", strat, "--runs", "1",
            "--seed", "2", "--out", str(out), "--trace", str(trace),
        ]) == 0
        heads.append([
            tuple(line.split(",")[:3]) for line in trace.read_text().splitlines()
        ])
    assert heads[0] == heads[1]


def test_main_honors_injected_cost_matrix(tmp_path):
    cfg_path = tmp_path / "sim.cfg"
    _write_small_config(cfg_path)
    matrix_path = tmp_path / "costs.csv"
    matrix_path.write_text("\n".join(",".join("0" for _ in range(12)) for _ in range(12)) + "\n")
    out = tmp_path / "o.csv"
    assert main([
        "--config", str(cfg_path), "--strategy", "mincost", "--runs", "1",
        "--cost-matrix", str(matrix_path), "--out", str(out),
    ]) == 0
    row = out.read_text().splitlines()[1].split(",")
    assert row[6] == "0"  # avg_cost column


def test_main_event_and_warmup_overrides(tmp_path):
    cfg_path = tmp_path / "sim.cfg"
    _write_small_config(cfg_path)
    out = tmp_path / "o.csv"
    assert main([
        "--config", str(cfg_path), "--strategy", "mincost", "--runs", "1",
        "--events", "500", "--warmup", "100", "--out", str(out),
    ]) == 0
    row = out.read_text().splitlines()[1].split(",")
    assert row[5] == "500"
    # warmup must stay below the horizon
    assert main([
        "--config", str(cfg_path), "--strategy", "mincost", "--runs", "1",
        "--events", "500", "--warmup", "500", "--out", str(out),
    ]) == 2


def test_oracle_check_is_not_a_subcommand(tmp_path, capsys):
    # The dominance check lives in cdnsim.oracle.dominance; `simulate` has
    # one parser, which takes a leading word as a stray argument.
    out = tmp_path / "o.csv"
    with pytest.raises(SystemExit) as exc:
        main(["oracle-check", "--out", str(out)])
    assert exc.value.code == 2
    assert "unrecognized arguments: oracle-check" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_package_exports_exactly_the_documented_api(capsys):
    # README's "Python API" section is the contract: its name list must equal
    # cdnsim.__all__, and its snippet must run as written.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Python API", 1)[1].split("\n## ", 1)[0]
    snippet = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    listed = re.search(r"exports these names and no others:(.*?)Everything else", section, re.S)
    documented = re.findall(r"`(\w+)`", listed.group(1))
    assert sorted(cdnsim.__all__) == sorted(documented)
    for name in cdnsim.__all__:
        assert getattr(cdnsim, name) is not None
    exec(compile(snippet, "README.md", "exec"), {})
    assert len(capsys.readouterr().out.splitlines()) == 3
