"""Sweep driver, CSV formatting, and the command-line entry point."""

from random import Random

import pytest

from cdnsim.cli import (
    CSV_HEADER,
    SweepSpec,
    _parse_cache_sizes,
    _parse_sweep_values,
    format_csv,
    main,
    run_sweep,
)
from cdnsim.engine import mix_seed, run_simulation, substream
from cdnsim.metrics import AggregateResult
from cdnsim.model import ConfigError, StrategySpec, default_config
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


def test_run_sweep_reproduces_direct_runs():
    sweep = SweepSpec("pss", (0.0, 1.0), (2,), n_runs=1, base_seed=9)
    results = run_sweep(SMALL, sweep, workers=1)
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
                         horizon_events=1_000, lattice_side=4)
    sweep = SweepSpec("mcs", (1, 3, 8), (5,), n_runs=2, base_seed=1)
    results = run_sweep(cfg, sweep, workers=1)
    assert [r.mean_queries for r in results] == [1.0, 3.0, 8.0]


def test_parallel_sweep_is_bit_identical_to_serial():
    sweep = SweepSpec("wmc", (0.0, 0.5, 1.0), (2, 4), n_runs=2, base_seed=3)
    serial = run_sweep(SMALL, sweep, workers=1)
    parallel = run_sweep(SMALL, sweep, workers=2)
    assert format_csv(serial) == format_csv(parallel)
    assert serial == parallel


def test_fixed_topology_shares_layout_and_placement():
    sweep = SweepSpec("minqueue", (), (2,), n_runs=2, base_seed=5)
    fixed = run_sweep(SMALL, sweep, fixed_topology=True)
    redrawn = run_sweep(SMALL, sweep, fixed_topology=False)
    # Same seeds, different topology handling: results must differ.
    assert fixed != redrawn


def test_format_csv_pins_layout_and_precision():
    rows = [
        AggregateResult(
            mean_cost=1.23456789, mean_wait=0.000123456789, mean_queries=2.0,
            ci95_cost=0.5, ci95_wait=0.25, n_runs=10, param=0.5,
            strategy="pss", cache_size=8, zipf_beta=0.0, events=100_000,
        ),
        AggregateResult(
            mean_cost=2.0, mean_wait=3.0, mean_queries=0.0,
            ci95_cost=0.0, ci95_wait=0.0, n_runs=10, param=None,
            strategy="mincost", cache_size=2, zipf_beta=0.0, events=100_000,
        ),
    ]
    text = format_csv(rows)
    lines = text.splitlines()
    assert lines[0] == CSV_HEADER
    # mincost row (cache 2) sorts before pss row (cache 8); param empty for mincost
    assert lines[1] == "mincost,,2,0,10,100000,2,0,3,0,0"
    assert lines[2] == "pss,0.5,8,0,10,100000,1.23457,0.5,0.000123457,0.25,2"
    assert text.endswith("\n")


def test_sweep_value_parsing():
    assert _parse_sweep_values("0,0.5,1", "pss") == (0.0, 0.5, 1.0)
    assert _parse_sweep_values("zeta:0.25,0.75", "pss") == (0.25, 0.75)
    assert _parse_sweep_values("delta:1,2,4", "mcs") == (1.0, 2.0, 4.0)
    with pytest.raises(ConfigError):
        _parse_sweep_values("alpha:0.5", "pss")
    with pytest.raises(ConfigError):
        _parse_sweep_values("0.5,oops", "pss")
    assert _parse_cache_sizes("8,2,70") == (8, 2, 70)
    with pytest.raises(ConfigError):
        _parse_cache_sizes("2,x")


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


def test_oracle_check_subcommand(capsys):
    assert main(["oracle-check", "--instances", "3", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert out.count("ok") == 3
